"""Golden histories: committed values every engine path must reproduce.

A run is a pure function of (spec, seed).  ``tests/golden/histories.json``
pins that function for a matrix of small runs, in three families, each
asserted next to the behaviour it pins:

* the engine kinds (``test_engine_equivalence.py``) — sync and semisync x
  {fedavg, scaffold, fedcm} x seeds {0, 1}, semisync under three deadline
  settings and the adaptive deadline controller, and the async engine —
  {fedasync, fedbuff} x seeds x {fixed, adaptive concurrency};
* the async control plane through the spec facade (``test_fastpath.py``,
  ``test_backends.py``) — fedasync and fedbuff under every latency model,
  the process backend, SCAFFOLD under FedBuff, the time-aware samplers and
  oversubscribed concurrency;
* FedWCM, the paper's method, under sync rounds on every backend (here).

The values were recorded while the per-kind engine loops the event core
replaced, and the scalar per-dispatch async planner, still ran beside the
current code and matched it, so each entry is also their history.

The schedule (``selected``, ``virtual_time``, ``staleness``,
``concurrency``, ``updates_applied``, the record count) compares exactly.
Accuracy, loss, float extras and statistics of the final parameters compare
at ``rtol=1e-9``: a different BLAS kernel may move the last bit of a
floating-point sum, which a digest could not tell apart from a real change.

The file is regenerated only on purpose, by running this module::

    PYTHONPATH=src python tests/test_golden_histories.py

and the reason is recorded in CHANGES.md.
"""

from __future__ import annotations

import functools
import json
import math
import os
import socket
import threading

import numpy as np
import pytest

from repro.algorithms import make_method
from repro.data import load_federated_dataset
from repro.experiments import DataSpec, ExperimentSpec, MethodSpec, RuntimeSpec, run
from repro.nn import make_mlp
from repro.runtime import (
    AsyncFederatedSimulation,
    ConcurrencyController,
    DeadlineController,
    LognormalLatency,
    SemiSyncFederatedSimulation,
)
from repro.simulation import FederatedSimulation, FLConfig

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "histories.json")

RTOL = 1e-9
ATOL = 1e-12

#: record fields that are pure functions of the schedule: compared exactly;
#: every other float (accuracy, loss, extras, parameter statistics) at RTOL
EXACT_FIELDS = ("round", "selected", "virtual_time", "staleness", "concurrency",
                "updates_applied")
CLOSE_FIELDS = ("test_accuracy", "test_loss", "per_class_accuracy")

SEEDS = (0, 1)

_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


@functools.lru_cache(maxsize=1)
def _ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3, num_clients=6,
        seed=0, scale=0.3,
    )


def _model(seed=0):
    return make_mlp(32, 10, seed=seed)


def _cfg(seed=0):
    return FLConfig(rounds=4, participation=0.5, local_epochs=1, seed=seed,
                    max_batches_per_round=3, eval_every=2, batch_size=10)


# -- the case matrix --------------------------------------------------------
def _sync(method, seed):
    b = make_method(method)
    sim = FederatedSimulation(
        b.algorithm, _model(seed), _ds(), _cfg(seed),
        loss_builder=b.loss_builder, sampler_builder=b.sampler_builder,
    )
    return sim.run(), sim.final_params


def _semisync(method, seed, deadline, late_weight=0.0):
    if deadline == "adaptive":
        deadline = DeadlineController(target_drop_rate=0.3)
    sim = SemiSyncFederatedSimulation(
        make_method(method).algorithm, _model(seed), _ds(), _cfg(seed),
        latency_model=LognormalLatency(sigma=1.0),
        deadline=deadline, late_weight=late_weight,
    )
    return sim.run(), sim.final_params


def _async(method, kwargs, seed, adaptive):
    ctrl = ConcurrencyController(staleness_budget=2.0) if adaptive else None
    sim = AsyncFederatedSimulation(
        make_method(method, **kwargs).algorithm, _model(seed), _ds(), _cfg(seed),
        latency_model=LognormalLatency(sigma=1.0),
        concurrency_controller=ctrl,
    )
    return sim.run(), sim.final_params


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spec_run(kind, method=None, backend="serial", **runtime_kw):
    """A tiny spec-driven run; the remote backend gets two in-process workers."""
    if kind != "sync":
        runtime_kw.setdefault("latency", "lognormal")
    if backend != "serial":
        runtime_kw.setdefault("workers", 2)
    if backend == "remote":
        runtime_kw.setdefault("backend_address", f"127.0.0.1:{_free_port()}")
    spec = ExperimentSpec(
        method=MethodSpec(name=method or kind),
        runtime=RuntimeSpec(kind=kind, backend=backend, **runtime_kw),
        **_TINY,
    )
    threads = []
    if backend == "remote":
        from repro.net import WorkerClient

        for _ in range(2):
            client = WorkerClient(spec.runtime.backend_address, connect_timeout=30.0)
            threads.append(threading.Thread(target=client.run, daemon=True))
            threads[-1].start()
    res = run(spec)
    for t in threads:
        t.join(timeout=10.0)
    return res.history, res.final_params


def _cases() -> dict:
    cases = {}
    for method in ("fedavg", "scaffold", "fedcm"):
        for seed in SEEDS:
            cases[f"sync-{method}-s{seed}"] = functools.partial(_sync, method, seed)
            for deadline, lw in ((None, 0.0), (0.05, 0.0), (0.05, 0.5)):
                cases[f"semisync-{method}-s{seed}-d{deadline}-w{lw}"] = functools.partial(
                    _semisync, method, seed, deadline, lw
                )
    for seed in SEEDS:
        cases[f"semisync-adaptive-s{seed}"] = functools.partial(
            _semisync, "fedavg", seed, "adaptive"
        )
    for method, kwargs in (("fedasync", {"mixing": 0.9}), ("fedbuff", {"buffer_size": 3})):
        for seed in SEEDS:
            for adaptive in (False, True):
                tag = "adaptive" if adaptive else "fixed"
                cases[f"async-{method}-s{seed}-{tag}"] = functools.partial(
                    _async, method, kwargs, seed, adaptive
                )
    for kind in ("fedasync", "fedbuff"):
        for latency in ("constant", "lognormal", "pareto", "dropout"):
            cases[f"spec-{kind}-{latency}"] = functools.partial(
                _spec_run, kind, latency=latency
            )
    cases["spec-fedbuff-process"] = functools.partial(_spec_run, "fedbuff", backend="process")
    cases["spec-fedbuff-scaffold"] = functools.partial(_spec_run, "fedbuff", method="scaffold")
    for sampler in ("fast", "utility"):
        cases[f"spec-fedasync-sampler-{sampler}"] = functools.partial(
            _spec_run, "fedasync", sampler=sampler
        )
    cases["spec-fedasync-oversubscribed"] = functools.partial(
        _spec_run, "fedasync", concurrency=9
    )
    for backend in ("serial", "process", "thread", "remote"):
        cases[f"fedwcm-sync-{backend}"] = functools.partial(
            _spec_run, "sync", method="fedwcm", backend=backend
        )
    return cases


CASES = _cases()


# -- summaries --------------------------------------------------------------
def _plain(v):
    """JSON-safe value: numpy scalars/arrays unwrapped, NaN as None."""
    if isinstance(v, np.ndarray):
        return [_plain(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items())}
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def summarize(history, final_params) -> dict:
    """The stored values of one run (``wall_time`` excluded: it is real time)."""
    records = []
    for r in history.records:
        rec = {"type": type(r).__name__}
        for f in EXACT_FIELDS + CLOSE_FIELDS:
            if hasattr(r, f):
                rec[f] = _plain(getattr(r, f))
        rec["extras"] = _plain(r.extras)
        records.append(rec)
    x = np.asarray(final_params, dtype=np.float64)
    idx = np.linspace(0, x.size - 1, num=8).astype(np.int64)
    final = {
        "size": int(x.size),
        "sum": float(x.sum()),
        "l2": float(np.linalg.norm(x)),
        "abs_mean": float(np.abs(x).mean()),
        "min": float(x.min()),
        "max": float(x.max()),
        "samples": [float(v) for v in x[idx]],
    }
    return {"algorithm": history.algorithm, "records": records, "final": final}


def _match(got, want, path: str, exact: bool) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            _match(got[k], want[k], f"{path}.{k}", exact or k in EXACT_FIELDS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, f"{path}[{i}]", exact)
    elif isinstance(want, float) and isinstance(got, float) and not exact:
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (path, got, want)
    else:
        assert got == want, (path, got, want)


def assert_matches_golden(got: dict, want: dict) -> None:
    """Compare two :func:`summarize` dicts (exact schedule, close floats)."""
    _match(got, want, "$", exact=False)


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def assert_golden(name: str, history, final_params) -> None:
    """Assert a run reproduces the golden entry ``name``."""
    assert name in _golden(), f"no golden entry for {name}; regenerate on purpose"
    assert_matches_golden(summarize(history, final_params), _golden()[name])


def check_case(name: str) -> None:
    """Run the registered case ``name`` and assert its golden entry."""
    assert_golden(name, *CASES[name]())


@pytest.mark.parametrize("backend", [
    "serial", "process", "thread", pytest.param("remote", marks=pytest.mark.net),
])
def test_fedwcm_sync_every_backend(backend):
    check_case(f"fedwcm-sync-{backend}")


def test_golden_file_covers_exactly_the_matrix():
    assert sorted(_golden()) == sorted(CASES)


def test_a_moved_schedule_fails():
    """The oracle is not vacuous: one swapped client id is caught."""
    want = _golden()["async-fedbuff-s0-fixed"]
    got = json.loads(json.dumps(want))
    sel = got["records"][0]["selected"]
    sel[0] = (sel[0] + 1) % 6
    with pytest.raises(AssertionError, match="selected"):
        assert_matches_golden(got, want)


if __name__ == "__main__":
    out = {name: summarize(*case()) for name, case in CASES.items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} golden histories to {GOLDEN}")

"""The vectorized async control plane and its building blocks.

* ``LatencyModel.sample_many`` equals per-element ``latency()`` for every
  registered model (same RNG stream discipline, batched);
* ``IdleTracker`` rank selection equals indexing the ascending list of idle
  ids, under arbitrary busy/idle churn;
* ``VirtualClock.push_many`` pops in the same order as sequential
  ``schedule`` calls (both below and above the heapify threshold);
* async engine histories equal the golden histories across the async
  kinds, latency models, backends, samplers, and stateful methods;
* incremental sampler weights equal freshly recomputed ones after observes;
* profiled runs journal a ``profile`` record and ``watch --summary``
  renders the ``hotpath:`` line — with histories untouched by profiling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_federated_dataset
from repro.experiments import run
from repro.experiments.spec import DataSpec, ExperimentSpec, MethodSpec, RuntimeSpec
from repro.nn import make_mlp
from repro.observe import MetricsStore, format_hotpath
from repro.runtime import (
    FastFirstSampler,
    IdleTracker,
    LATENCY_MODELS,
    UtilitySampler,
    VirtualClock,
    make_latency_model,
)
from repro.simulation import FLConfig
from repro.simulation.context import SimulationContext
from test_golden_histories import check_case

_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3, num_clients=6,
        seed=0, scale=0.3,
    )


@pytest.fixture(scope="module")
def ctx(ds):
    cfg = FLConfig(rounds=4, participation=0.5, local_epochs=1, seed=0,
                   max_batches_per_round=3, eval_every=2, batch_size=10)
    return SimulationContext(make_mlp(32, 10, seed=0), ds, cfg)


def _spec(kind: str, method: str | None = None,
          backend: str = "serial", **runtime_kw) -> ExperimentSpec:
    default = {"fedasync": "fedasync", "fedbuff": "fedbuff"}[kind]
    runtime_kw.setdefault("latency", "lognormal")
    if backend != "serial":
        runtime_kw.setdefault("workers", 2)
    return ExperimentSpec(
        method=MethodSpec(name=method or default),
        runtime=RuntimeSpec(kind=kind, backend=backend, **runtime_kw),
        **_TINY,
    )


def _history_key(result):
    return [
        (r.round, r.test_accuracy, r.test_loss, r.virtual_time, r.staleness,
         r.concurrency, r.updates_applied, tuple(np.asarray(r.selected)))
        for r in result.history.records
    ]


class TestSampleMany:
    """Batched draws equal per-element ``latency()`` for every model."""

    _KW = {"lognormal": dict(sigma=1.0),
           "pareto": dict(alpha=1.1),
           "dropout": dict(inner="lognormal", p_drop=0.4, max_retries=3)}

    @pytest.mark.parametrize("name", sorted(LATENCY_MODELS))
    def test_bit_equal_to_sequential(self, ctx, name):
        model = make_latency_model(name, **self._KW.get(name, {})).bind(ctx)
        rng = np.random.default_rng(7)
        cids = rng.integers(0, ctx.num_clients, size=64).astype(np.int64)
        seqs = np.arange(64, dtype=np.int64)
        batched = model.sample_many(cids, seqs)
        scalar = np.array(
            [model.latency(int(c), int(i)) for c, i in zip(cids, seqs)]
        )
        np.testing.assert_array_equal(batched, scalar)
        assert batched.dtype == np.float64

    def test_zero_sigma_and_jitter_shortcuts(self, ctx):
        # exp(0 * z) == 1.0 exactly, so skipping the draws is bit-safe
        flat = make_latency_model("lognormal", sigma=0.0, jitter=0.0).bind(ctx)
        cids = np.arange(ctx.num_clients, dtype=np.int64)
        seqs = np.arange(ctx.num_clients, dtype=np.int64)
        scalar = np.array([flat.latency(int(c), int(i)) for c, i in zip(cids, seqs)])
        np.testing.assert_array_equal(flat.sample_many(cids, seqs), scalar)

    def test_unbound_raises(self):
        with pytest.raises(RuntimeError):
            make_latency_model("constant").sample_many(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            )


class TestIdleTracker:
    def test_matches_comprehension_under_churn(self):
        n = 97
        rng = np.random.default_rng(3)
        tr = IdleTracker(n)
        busy: dict[int, int] = {}
        for _ in range(600):
            cid = int(rng.integers(n))
            if rng.random() < 0.55:
                busy[cid] = busy.get(cid, 0) + 1
                tr.occupy(cid)
            elif busy.get(cid, 0):
                if busy[cid] <= 1:
                    busy.pop(cid)
                else:
                    busy[cid] -= 1
                tr.release(cid)
            ref = [k for k in range(n) if not busy.get(k)]
            assert tr.n_idle == len(ref)
            assert tr.idle_ids().tolist() == ref
            if ref:
                j = int(rng.integers(len(ref)))
                assert tr.kth_idle(j) == ref[j]

    def test_rank_out_of_range(self):
        tr = IdleTracker(4)
        with pytest.raises(IndexError):
            tr.kth_idle(4)

    def test_double_complete_is_noop(self):
        tr = IdleTracker(4)
        tr.release(2)  # never marked busy
        assert tr.n_idle == 4


class TestPushMany:
    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_pop_order_matches_sequential(self, k):
        rng = np.random.default_rng(k)
        delays = rng.uniform(0.0, 5.0, size=k)
        delays[rng.integers(k)] = delays[0]  # force at least one tie
        a, b = VirtualClock(), VirtualClock()
        # pre-load both so push_many lands in a non-empty heap
        for c in (a, b):
            c.schedule(2.5, client_id=100)
            c.schedule(0.5, client_id=101)
        for i, d in enumerate(delays):
            a.schedule(float(d), client_id=i)
        b.push_many([(float(d), i, {}) for i, d in enumerate(delays)])
        order_a = [(a.pop().client_id, a.now) for _ in range(k + 2)]
        order_b = [(b.pop().client_id, b.now) for _ in range(k + 2)]
        assert order_a == order_b

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            VirtualClock().push_many([(-1.0, 0, {})])


class TestEngineEquivalence:
    """Async histories equal the golden ones (``test_golden_histories.py``)."""

    @pytest.mark.parametrize("kind", ("fedasync", "fedbuff"))
    @pytest.mark.parametrize(
        "latency", ("constant", "lognormal", "pareto", "dropout")
    )
    def test_serial_all_latency_models(self, kind, latency):
        check_case(f"spec-{kind}-{latency}")

    def test_process_backend(self):
        check_case("spec-fedbuff-process")

    def test_scaffold_under_fedbuff(self):
        # stateful per-client dispatch snapshots ride the batched planner
        check_case("spec-fedbuff-scaffold")

    @pytest.mark.parametrize("sampler", ("fast", "utility"))
    def test_time_aware_samplers(self, sampler):
        check_case(f"spec-fedasync-sampler-{sampler}")

    def test_oversubscribed_concurrency(self):
        # concurrency > clients exercises the empty-idle fallback draw
        check_case("spec-fedasync-oversubscribed")

    def test_forbidden_for_round_kinds(self):
        # one dispatch planner: there is no knob to select another, on any kind
        for kind in ("sync", "semisync", "fedasync"):
            with pytest.raises(ValueError, match="unknown key.*fast_path"):
                ExperimentSpec.from_dict({"runtime": {"kind": kind, "fast_path": True}})


class TestSamplerWeightCache:
    """Incrementally invalidated weights equal freshly recomputed ones."""

    def test_fastfirst_dispatch_weights(self, ctx):
        lat = make_latency_model("lognormal", sigma=1.0).bind(ctx)
        cached = FastFirstSampler(power=2.0).bind(ctx, lat)
        fresh = FastFirstSampler(power=2.0).bind(ctx, lat)
        idle = np.arange(ctx.num_clients, dtype=np.int64)
        rng = np.random.default_rng(11)
        for i in range(20):
            np.testing.assert_array_equal(
                cached.dispatch_weights(idle, now=float(i)),
                np.power(np.maximum(fresh.expected_seconds(), 1e-12),
                         -fresh.power)[idle],
            )
            cid = int(rng.integers(ctx.num_clients))
            obs = float(rng.uniform(0.1, 5.0))
            cached.observe(cid, obs)
            fresh.observe(cid, obs)
        # cache hit: identical object when nothing was observed in between
        w1 = cached._full_weights()
        w2 = cached._full_weights()
        assert w1 is w2

    def test_utility_cache_invalidates_on_loss(self, ctx):
        lat = make_latency_model("constant").bind(ctx)
        s = UtilitySampler().bind(ctx, lat)
        u0 = s.utilities()
        assert s.utilities() is u0  # cached between observes
        s.observe_loss(0, 2.0)
        u1 = s.utilities()
        assert u1 is not u0


class TestProfiler:
    def _recorded(self, tmp_path):
        return run(_spec("fedbuff", record=True, run_dir=str(tmp_path / "run")))

    def test_profile_journaled_and_summarized(self, tmp_path):
        res = self._recorded(tmp_path)
        assert res.profile is not None
        assert res.profile["completions"] == res.profile["dispatches"] > 0
        assert res.profile["clients_per_sec"] > 0
        assert res.profile["wall_s"] > 0
        # every attributed second is one of the declared phases
        store = MetricsStore.from_journal(
            str(tmp_path / "run" / "journal.jsonl")
        )
        assert store.profile is not None
        assert store.profile["type"] == "profile"
        assert store.ended  # the profile record precedes end, not replaces it
        line = store.summary()
        assert "hotpath:" in line
        assert format_hotpath(res.profile).split(" ")[1] == "clients/s"

    def test_profiling_does_not_change_history(self, tmp_path):
        recorded = self._recorded(tmp_path)
        plain = run(_spec("fedbuff"))
        assert _history_key(recorded) == _history_key(plain)
        np.testing.assert_array_equal(
            recorded.final_params, plain.final_params
        )

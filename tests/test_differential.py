"""Differential backend test: random small specs, every backend, one history.

A strategy draws a small experiment — engine kind, a registry method valid
for that kind, seed, latency model and (async kinds) concurrency, including
more clients in flight than exist — and two evaluators run it: the serial
backend and the thread backend.  Their histories and final parameters must
agree bit for bit on every draw.  A few draws also run on the process pool,
which must agree too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import METHOD_NAMES
from repro.experiments import DataSpec, ExperimentSpec, MethodSpec, RuntimeSpec, run
from repro.runtime import LATENCY_MODELS
from repro.simulation import FLConfig
from test_backends import assert_history_equal

CLIENTS = 6
KINDS = ("sync", "semisync", "fedasync", "fedbuff")


def _spec(kind, method, seed, latency, concurrency, backend="serial") -> ExperimentSpec:
    runtime = dict(kind=kind, backend=backend)
    if backend != "serial":
        runtime["workers"] = 2
    if kind != "sync":
        runtime["latency"] = latency
    if kind in ("fedasync", "fedbuff"):
        runtime["concurrency"] = concurrency
    return ExperimentSpec(
        data=DataSpec(clients=CLIENTS, scale=0.3, beta=0.3, imbalance_factor=0.3),
        method=MethodSpec(name=method),
        runtime=RuntimeSpec(**runtime),
        config=FLConfig(rounds=2, participation=0.5, local_epochs=1, batch_size=10,
                        max_batches_per_round=2, eval_every=1, seed=seed),
    )


def _valid(kind: str, method: str) -> bool:
    try:
        _spec(kind, method, 0, "constant", 1)
    except ValueError:
        return False
    return True


#: (kind, method) pairs the spec validation accepts
PAIRS = [(k, m) for k in KINDS for m in METHOD_NAMES if _valid(k, m)]


@st.composite
def specs(draw):
    kind, method = draw(st.sampled_from(PAIRS))
    return dict(
        kind=kind,
        method=method,
        seed=draw(st.integers(0, 3)),
        latency=draw(st.sampled_from(sorted(LATENCY_MODELS))),
        concurrency=draw(st.integers(1, CLIENTS + 3)),  # > CLIENTS oversubscribes
    )


def _assert_same(a, b) -> None:
    assert_history_equal(a.history, b.history)
    np.testing.assert_array_equal(a.final_params, b.final_params)


_SETTINGS = dict(deadline=None, database=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=50, **_SETTINGS)
@given(draw=specs())
def test_serial_equals_thread(draw):
    _assert_same(run(_spec(**draw)), run(_spec(**draw, backend="thread")))


@settings(max_examples=4, **_SETTINGS)
@given(draw=specs())
def test_serial_equals_process(draw):
    _assert_same(run(_spec(**draw)), run(_spec(**draw, backend="process")))


def test_every_kind_has_methods():
    assert {k for k, _ in PAIRS} == set(KINDS)

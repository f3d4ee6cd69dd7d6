"""Engine-kind histories, trickle-in accounting, per-dispatch sampling.

The event core (:mod:`repro.runtime.events`) runs all four engine kinds on
one loop.  Each kind's histories across methods x seeds (and semisync's
deadline settings, async's adaptive concurrency) must equal the committed
golden histories (``test_golden_histories.py``).  The newer knobs
(trickle-in late policy, async per-dispatch samplers, stateful methods under
async) get their own behavioural tests below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AsyncAdapter, make_method
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.runtime import (
    AsyncFederatedSimulation,
    FastFirstSampler,
    LatencyModel,
    LognormalLatency,
    LongIdleSampler,
    SemiSyncFederatedSimulation,
    UtilitySampler,
)
from repro.simulation import FLConfig
from test_backends import assert_history_equal
from test_golden_histories import check_case

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3, num_clients=6,
        seed=0, scale=0.3,
    )


def _model(seed=0):
    return make_mlp(32, 10, seed=seed)


def _cfg(seed=0, **kw):
    base = dict(rounds=4, participation=0.5, local_epochs=1, seed=seed,
                max_batches_per_round=3, eval_every=2, batch_size=10)
    base.update(kw)
    return FLConfig(**base)


class TestSyncEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "scaffold", "fedcm"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, method, seed):
        check_case(f"sync-{method}-s{seed}")


class TestSemiSyncEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "scaffold", "fedcm"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("deadline,late_weight", [
        (None, 0.0), (0.05, 0.0), (0.05, 0.5),
    ])
    def test_bit_identical(self, method, seed, deadline, late_weight):
        check_case(f"semisync-{method}-s{seed}-d{deadline}-w{late_weight}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adaptive_deadline_bit_identical(self, seed):
        check_case(f"semisync-adaptive-s{seed}")


class TestAsyncEquivalence:
    @pytest.mark.parametrize("method,kwargs", [
        ("fedasync", {"mixing": 0.9}), ("fedbuff", {"buffer_size": 3}),
    ])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_bit_identical(self, method, kwargs, seed, adaptive):
        check_case(f"async-{method}-s{seed}-{'adaptive' if adaptive else 'fixed'}")


class FixedLatency(LatencyModel):
    """Each client responds in a hand-set constant time (test harness)."""

    name = "fixed"

    def __init__(self, values, **kwargs) -> None:
        super().__init__(**kwargs)
        self.values = np.asarray(values, dtype=float)

    def latency(self, client_id: int, dispatch_idx: int) -> float:
        return float(self.values[client_id])


class TestTrickleIn:
    """Accounting of the semi-sync ``late_policy='trickle'`` path."""

    def _run(self, ds, lats, deadline, rounds=3, **kw):
        sim = SemiSyncFederatedSimulation(
            make_method("fedavg").algorithm, _model(), ds,
            _cfg(rounds=rounds, participation=1.0, eval_every=1),
            latency_model=FixedLatency(lats),
            deadline=deadline, late_policy="trickle", **kw,
        )
        return sim, sim.run()

    def test_late_update_merges_into_next_round(self, ds):
        # client 5 (1.5s) misses every 1.0s deadline and arrives mid-next
        # round; everyone else is on time
        lats = [0.2, 0.3, 0.4, 0.5, 0.6, 1.5]
        sim, h = self._run(ds, lats, deadline=1.0)
        r0, r1, r2 = h.records
        assert r0.extras["n_late"] == 1
        assert r0.extras["n_trickled_in"] == 0
        assert r0.extras["n_pending"] == 1
        assert 5 not in r0.selected
        # round 1 merges round 0's straggler on top of its own cohort
        assert r1.extras["n_trickled_in"] == 1
        assert list(r1.selected).count(5) == 1
        assert len(r1.selected) == 6  # 5 on-time + 1 trickled
        # the final round still has round 2's own straggler in flight
        assert r2.extras["n_abandoned"] == 1
        assert sim.total_virtual_time == pytest.approx(3.0)

    def test_never_arriving_update_is_abandoned_not_merged(self, ds):
        lats = [0.2, 0.3, 0.4, 0.5, 0.6, 50.0]
        _, h = self._run(ds, lats, deadline=1.0)
        assert all(r.extras["n_trickled_in"] == 0 for r in h.records)
        assert h.records[-1].extras["n_abandoned"] == 3  # one per round
        # no record was dropped and nothing counts as "dropped"
        assert all(r.extras["n_dropped"] == 0 for r in h.records)

    def test_trickle_differs_from_downweight(self, ds):
        lats = [0.2, 0.3, 0.4, 0.5, 0.6, 1.5]
        sim_t, _ = self._run(ds, lats, deadline=1.0)
        sim_d = SemiSyncFederatedSimulation(
            make_method("fedavg").algorithm, _model(), ds,
            _cfg(rounds=3, participation=1.0, eval_every=1),
            latency_model=FixedLatency(lats), deadline=1.0, late_weight=0.0,
        )
        sim_d.run()
        assert not np.array_equal(sim_t.final_params, sim_d.final_params)

    def test_clock_stops_at_final_close(self, ds):
        lats = [0.2, 0.3, 0.4, 0.5, 0.6, 50.0]
        sim, _ = self._run(ds, lats, deadline=1.0)
        # abandoned completions must not advance the clock past the close
        assert sim.total_virtual_time == pytest.approx(3.0)

    def test_trickle_rejects_late_weight(self, ds):
        with pytest.raises(ValueError, match="late_weight only applies"):
            self._run(ds, [0.1] * 6, deadline=1.0, late_weight=0.5)


class TestAsyncPerDispatchSampling:
    def _run(self, ds, sampler, lats=None, **kw):
        lat = FixedLatency(lats) if lats is not None else LognormalLatency(sigma=1.0)
        sim = AsyncFederatedSimulation(
            make_method("fedasync", mixing=0.9).algorithm, _model(), ds, _cfg(),
            latency_model=lat, sampler=sampler, **kw,
        )
        return sim, sim.run()

    def test_fast_first_prefers_fast_clients(self, ds):
        lats = [0.1, 1.0, 1.0, 1.0, 1.0, 5.0]
        _, h = self._run(ds, FastFirstSampler(power=4.0), lats=lats,
                         concurrency=2, max_updates=24)
        counts = np.bincount(
            np.concatenate([r.selected for r in h.records]), minlength=6
        )
        assert counts[0] == counts.max()  # the fast client dominates
        assert counts[0] > counts[5]

    def test_long_idle_rotates_through_all_clients(self, ds):
        _, h = self._run(ds, LongIdleSampler(), concurrency=1, max_updates=12)
        order = list(np.concatenate([r.selected for r in h.records]))
        # first pass touches every client before anyone repeats
        assert sorted(order[:6]) == list(range(6))

    def test_sampler_run_is_deterministic(self, ds):
        runs = []
        for _ in range(2):
            sim, h = self._run(ds, FastFirstSampler(power=2.0))
            runs.append((sim.final_params, [r.selected for r in h.records]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_utility_sampler_receives_loss_feedback(self, ds):
        sampler = UtilitySampler()
        self._run(ds, sampler)
        assert sampler._loss_seen is not None and sampler._loss_seen.any()

    def test_picks_only_idle_clients(self, ds):
        # with concurrency < clients a client never overlaps itself: its
        # completions arrive strictly after its previous dispatch completes
        sim, _ = self._run(ds, FastFirstSampler(power=4.0),
                           lats=[0.1, 1.0, 1.0, 1.0, 1.0, 5.0], concurrency=3)
        assert sim.total_virtual_time > 0.0  # ran through the event loop

    def test_non_time_aware_sampler_rejected(self, ds):
        with pytest.raises(TypeError, match="pick_next"):
            AsyncFederatedSimulation(
                make_method("fedasync").algorithm, _model(), ds, _cfg(),
                sampler=object(),
            )


class TestStatefulAsync:
    def _adapter(self, rule="fedbuff", base="scaffold", **rule_kw):
        return AsyncAdapter(
            make_method(base).algorithm, make_method(rule, **rule_kw).algorithm
        )

    def test_scaffold_under_fedbuff_runs_and_learns_state(self, ds):
        algo = self._adapter(buffer_size=3)
        sim = AsyncFederatedSimulation(
            algo, _model(), ds, _cfg(),
            latency_model=LognormalLatency(sigma=1.0),
        )
        h = sim.run()
        assert len(h.records) == 4
        # control variates moved: some client state is non-zero ...
        assert np.abs(algo.base._ci).sum() > 0
        # ... and the server variate absorbed arrivals
        assert np.abs(algo.base._c).sum() > 0

    def test_scaffold_under_fedasync_deterministic(self, ds):
        finals = []
        for _ in range(2):
            algo = self._adapter(rule="fedasync", mixing=0.9)
            sim = AsyncFederatedSimulation(
                algo, _model(), ds, _cfg(),
                latency_model=LognormalLatency(sigma=1.0),
            )
            sim.run()
            finals.append(sim.final_params)
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_state_snapshot_at_dispatch_commit_at_completion(self, ds):
        """Oversubscribed clients train from their committed state, not from
        a concurrently in-flight one: with concurrency > clients both
        dispatches of a client may overlap, and the run must stay
        deterministic and finish."""
        algo = self._adapter(buffer_size=2)
        sim = AsyncFederatedSimulation(
            algo, _model(), ds, _cfg(),
            latency_model=LognormalLatency(sigma=1.0),
            concurrency=9,  # > 6 clients: forces overlap
        )
        h = sim.run()
        assert h.records  # completed without error

    def test_stateful_method_runs_on_worker_pool(self, ds):
        """The PR-4 serial-only restriction is lifted: packed client state
        rides the job contract, so SCAFFOLD under FedBuff produces the same
        history on the process pool as serially (full matrix in
        tests/test_backends.py)."""
        histories = {}
        finals = {}
        for workers in (None, 2):
            algo = self._adapter(buffer_size=3)
            sim = AsyncFederatedSimulation(
                algo, _model(), ds, _cfg(),
                latency_model=LognormalLatency(sigma=1.0),
                workers=workers, model_builder=_model,
                algo_builder=lambda: self._adapter(buffer_size=3),
            )
            histories[workers] = sim.run()
            finals[workers] = sim.final_params
        np.testing.assert_array_equal(finals[None], finals[2])
        assert_history_equal(histories[2], histories[None])

    def test_feddyn_under_fedbuff_runs(self, ds):
        algo = self._adapter(base="feddyn", buffer_size=3)
        sim = AsyncFederatedSimulation(
            algo, _model(), ds, _cfg(),
            latency_model=LognormalLatency(sigma=1.0),
        )
        sim.run()
        assert np.abs(algo.base._h).sum() > 0

    def test_adapter_rejects_async_rule_as_base(self):
        with pytest.raises(ValueError, match="already staleness-aware"):
            AsyncAdapter(
                make_method("fedasync").algorithm, make_method("fedbuff").algorithm
            )

    @pytest.mark.parametrize(
        "name", ["fedcm", "fedwcm", "mofedsam", "fedsmoo", "fedlesam"]
    )
    def test_adapter_rejects_aggregate_broadcast_methods(self, name):
        """Methods whose client rule reads state only aggregate() refreshes
        (FedCM's Delta, FedSMOO's mu, FedLESAM's x_prev) would silently train
        with that state frozen under an async rule — refuse loudly."""
        with pytest.raises(ValueError, match="aggregate"):
            AsyncAdapter(
                make_method(name).algorithm, make_method("fedbuff").algorithm
            )

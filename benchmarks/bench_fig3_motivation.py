"""Figure 3: FedAvg vs FedCM across imbalance factors (the motivation plot).

Paper: CIFAR-10 ResNet-18, beta = 0.1, IF in {1, 0.1, 0.01}: FedCM beats
FedAvg when balanced but fails to converge as the tail lengthens.

Substrate note: at laptop scale the catastrophic
non-convergence does not manifest — the reproduced shape is that momentum's
balanced-data advantage *inverts* under the long tail (FedCM >= FedAvg at
IF=1, FedCM <= FedAvg at IF <= 0.1).  Averaged over seeds for stability.
"""

from __future__ import annotations

import numpy as np

from _harness import RunSpec, format_table, mean_over_seeds, report

IFS = (1.0, 0.1, 0.01)
SEEDS = (0, 1, 2)


def _specs():
    return [
        RunSpec(
            method=method,
            dataset="fashion-mnist-lite",
            imbalance_factor=imf,
            beta=0.1,
            rounds=30,
            eval_every=10,
        )
        for imf in IFS
        for method in ("fedavg", "fedcm")
    ]


def bench_fig3_motivation(benchmark):
    results = benchmark.pedantic(
        lambda: mean_over_seeds(_specs(), seeds=SEEDS), rounds=1, iterations=1
    )
    by = {(r["spec"].imbalance_factor, r["method"]): r["tail"] for r in results}
    rows = [
        [imf, by[(imf, "fedavg")], by[(imf, "fedcm")],
         by[(imf, "fedcm")] - by[(imf, "fedavg")]]
        for imf in IFS
    ]
    text = format_table(
        "Figure 3 — FedAvg vs FedCM across IF (beta=0.1, mean of 3 seeds)",
        ["IF", "fedavg", "fedcm", "fedcm_advantage"],
        rows,
    )
    report("fig3_motivation", text)

    # paper shape: momentum's edge at IF=1 disappears under the long tail
    adv_balanced = by[(1.0, "fedcm")] - by[(1.0, "fedavg")]
    adv_lt = np.mean(
        [by[(imf, "fedcm")] - by[(imf, "fedavg")] for imf in (0.1, 0.01)]
    )
    assert adv_balanced >= -0.03, f"FedCM should be competitive at IF=1: {adv_balanced}"
    assert adv_lt <= adv_balanced + 0.02, (
        f"momentum advantage should shrink under LT: balanced={adv_balanced} lt={adv_lt}"
    )

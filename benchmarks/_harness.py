"""Shared harness for the per-table / per-figure benchmarks.

Every benchmark builds a list of :class:`RunSpec` grid points, executes them
(optionally across processes — mirroring the paper's multi-GPU grid), and
prints the same rows/series the paper reports.  Execution goes through the
declarative :mod:`repro.experiments` facade — each grid point is expressed
as an :class:`~repro.experiments.ExperimentSpec` (``RunSpec`` is the
flattened, hashable sugar the grids are written in).  Results are also
persisted under ``benchmarks/results/`` so the regenerated tables survive
pytest's output capture.

Scale note: runs use the -lite datasets and small models, so absolute
accuracies differ from the paper; each bench's report under
``benchmarks/results/`` records what it measured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    ModelSpec,
    SweepResult,
    resolve_model_alias,
    run,
    run_point,
)
from repro.parallel import parallel_map, resolve_workers
from repro.simulation import FLConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# honour the 2-core budget of the reference environment but scale up
# elsewhere (overridable via REPRO_MAX_WORKERS)
WORKERS = resolve_workers()


@dataclass(frozen=True)
class RunSpec:
    """One grid point of an experiment."""

    method: str = "fedavg"
    dataset: str = "fashion-mnist-lite"
    imbalance_factor: float = 0.1
    beta: float = 0.1
    num_clients: int = 20
    rounds: int = 30
    batch_size: int = 10
    participation: float = 0.25
    local_epochs: int = 5
    lr_local: float = 0.1
    lr_global: float = 1.0
    seed: int = 0
    model: str = "mlp"  # "mlp" (flat view) or "conv" (resnet-lite-micro)
    partition: str = "balanced"
    scale: float = 1.0
    eval_every: int = 5
    method_kwargs: tuple = ()  # tuple of (key, value) pairs — keeps the spec hashable

    def label(self) -> str:
        return (
            f"{self.method}|{self.dataset}|IF={self.imbalance_factor}|beta={self.beta}"
            f"|K={self.num_clients}|p={self.participation}|E={self.local_epochs}|s={self.seed}"
        )

    def to_experiment_spec(self) -> ExperimentSpec:
        """Express this grid point as a declarative ExperimentSpec."""
        arch, extra = resolve_model_alias(self.model)
        return ExperimentSpec(
            data=DataSpec(
                dataset=self.dataset,
                imbalance_factor=self.imbalance_factor,
                beta=self.beta,
                clients=self.num_clients,
                partition=self.partition,
                scale=self.scale,
            ),
            model=ModelSpec(arch=arch, kwargs=extra),
            method=MethodSpec(name=self.method, kwargs=dict(self.method_kwargs)),
            config=FLConfig(
                rounds=self.rounds,
                batch_size=self.batch_size,
                local_epochs=self.local_epochs,
                lr_local=self.lr_local,
                lr_global=self.lr_global,
                participation=self.participation,
                eval_every=self.eval_every,
                seed=self.seed,
            ),
            name=self.label(),
        )


def execute(spec: RunSpec) -> dict:
    """Run one grid point through the experiments facade; picklable summary."""
    h = run(spec.to_experiment_spec()).history
    acc = h.accuracy
    evaluated = ~np.isnan(acc)
    return {
        "label": spec.label(),
        "method": spec.method,
        "spec": spec,
        "final": h.final_accuracy,
        "best": h.best_accuracy,
        "tail": h.tail_accuracy(3),
        "rounds": np.flatnonzero(evaluated).tolist(),
        "accuracy": acc[evaluated].tolist(),
        "alpha_series": [r.extras.get("alpha") for r in h.records
                         if r.extras.get("alpha") is not None],
    }


def sweep(specs: list[RunSpec], workers: int | None = None) -> list[dict]:
    """Execute a grid, in parallel when more than one core is available."""
    return parallel_map(execute, specs, workers=workers or WORKERS)


def mean_over_seeds(
    specs: list[RunSpec], seeds: tuple[int, ...] = (0,), workers: int | None = None
) -> list[dict]:
    """Run each spec for several seeds and average the summary accuracies.

    Every ``spec x seed`` point goes through one shared ``parallel_map``
    pool (cross-spec parallelism, as the grids are wide and the seed axis
    narrow); the multi-seed bookkeeping itself lives in the experiments
    facade — each spec's chunk is aggregated by
    :meth:`repro.experiments.SweepResult.aggregate`.
    """
    seed_axis = {"config.seed": [int(s) for s in seeds]}
    flat = [
        spec.to_experiment_spec().override("config.seed", int(seed))
        for spec in specs
        for seed in seeds
    ]
    results = parallel_map(run_point, flat, workers=workers or WORKERS)
    metrics = {
        "final": lambda r: r.final_accuracy,
        "best": lambda r: r.best_accuracy,
        "tail": lambda r: r.history.tail_accuracy(3),
    }
    out = []
    for i, spec in enumerate(specs):
        sweep_result = SweepResult(
            base=spec.to_experiment_spec(),
            grid=dict(seed_axis),
            assignments=[{"config.seed": s} for s in seed_axis["config.seed"]],
            results=results[i * len(seeds) : (i + 1) * len(seeds)],
        )
        agg = sweep_result.aggregate(metrics=metrics)[0]
        out.append(
            {
                "label": spec.label(),
                "method": spec.method,
                "spec": spec,
                "final": agg["final_mean"],
                "best": agg["best_mean"],
                "tail": agg["tail_mean"],
            }
        )
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def format_table(title: str, header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(header[j])), max((len(_fmt(r[j])) for r in rows), default=0))
        for j in range(len(header))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def report(name: str, text: str) -> None:
    """Print a regenerated table/series and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    print("\n" + text + "\n")
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")


def series_text(title: str, series: dict[str, tuple[list, list]]) -> str:
    """Render accuracy-vs-round series as aligned text columns."""
    lines = [title, "-" * len(title)]
    for name, (rounds, accs) in series.items():
        pts = "  ".join(f"r{r}:{a:.3f}" for r, a in zip(rounds, accs))
        lines.append(f"{name:24s} {pts}")
    return "\n".join(lines)

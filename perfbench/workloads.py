"""The benchmark's workloads: inputs from a seed, one trial, its reference.

A *trial* is one complete, deterministic run of a workload's problem for one
sub-seed: set up (engine construction, data synthesis and split, model
init, and for ``remote-fedbuff`` the worker's start and registration), then
run to the end.  Every trial is checked against the *reference* of its
sub-seed: the history and final parameters of the same problem run on the
serial backend without recording (``references.json``, or computed before
timing starts when a sub-seed is not stored there).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.experiments.facade as facade
from repro.algorithms import make_method
from repro.algorithms.async_fl import AsyncAdapter, FedAsync
from repro.algorithms.fedwcm import FedWCM
from repro.data.registry import DatasetInfo, FederatedDataset
from repro.experiments import DataSpec, ExperimentSpec, MethodSpec, ModelSpec, RuntimeSpec
from repro.nn import make_linear
from repro.runtime import AsyncFederatedSimulation, LognormalLatency
from repro.simulation import FLConfig
from repro.simulation.serialization import round_record_to_dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MLP_ROUNDS = 50          # paper-mlp trial length (sync rounds)
FEDBUFF_UPDATES = 800    # fedbuff-recorded trial length (client updates)
REMOTE_UPDATES = 1600    # remote-fedbuff trial length (client updates)
ASYNC_CLIENTS = 100_000  # async-100k population, one sample per client
ASYNC_UPDATES = 6_000    # async-100k trial length (client updates)
ASYNC_DIM = 16           # async-100k feature dimension
ASYNC_WINDOW = 64        # async-100k updates per evaluation window
JOB_BATCH = 32           # remote-fedbuff jobs per wire frame
CONCURRENCY = 64         # fedbuff clients in flight


@dataclass
class Trial:
    """What one trial measured and produced."""

    sub_seed: int
    setup_s: float
    run_s: float
    updates: int
    history: object
    final_params: np.ndarray
    eval_times: list = field(default_factory=list)
    #: the server's own time per model version, in ms (see ``_finish``)
    step_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    train_samples: int = 0
    profile: dict | None = None
    transport: dict | None = None
    observe: dict | None = None
    worker_spans: dict | None = None
    worker_rss_kb: int = 0


# -- problems ---------------------------------------------------------------

def mlp_spec(seed: int) -> ExperimentSpec:
    """FedWCM on the Fig-3 / Table-1 grid point: IF=0.01, beta=0.1."""
    return ExperimentSpec(
        name="paper-mlp",
        data=DataSpec(dataset="fashion-mnist-lite", imbalance_factor=0.01,
                      beta=0.1, clients=20),
        model=ModelSpec(arch="mlp"),
        method=MethodSpec(name="fedwcm"),
        config=FLConfig(rounds=MLP_ROUNDS, batch_size=10, local_epochs=5,
                        participation=0.25, eval_every=1, seed=seed),
        runtime=RuntimeSpec(kind="sync", backend="serial"),
    )


def fedbuff_spec(seed: int, updates: int = FEDBUFF_UPDATES, **runtime) -> ExperimentSpec:
    """FedBuff over FedAvg clients, one local batch per job."""
    rt = RuntimeSpec(kind="fedbuff", latency="lognormal",
                     concurrency=CONCURRENCY, max_updates=updates,
                     backend="serial")
    return ExperimentSpec(
        name="fedbuff",
        data=DataSpec(dataset="fashion-mnist-lite", imbalance_factor=0.01,
                      beta=0.1, clients=50),
        model=ModelSpec(arch="mlp"),
        method=MethodSpec(name="fedavg"),
        config=FLConfig(rounds=1, batch_size=10, local_epochs=1,
                        participation=0.1, eval_every=1,
                        max_batches_per_round=1, seed=seed),
        runtime=dataclasses.replace(rt, **runtime),
    )


def async_dataset(seed: int) -> FederatedDataset:
    """100k clients holding one sample each of a random linear task."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(ASYNC_DIM)
    x_train = rng.standard_normal((ASYNC_CLIENTS, ASYNC_DIM))
    y_train = (x_train @ w > 0).astype(np.int64)
    x_test = rng.standard_normal((256, ASYNC_DIM))
    y_test = (x_test @ w > 0).astype(np.int64)
    info = DatasetInfo(
        name="async-100k", num_classes=2, shape=(ASYNC_DIM,), n_max_train=1,
        n_test_per_class=128, separation=1.0, noise=0.0, default_model="linear",
    )
    return FederatedDataset(
        info=info, x_train=x_train, y_train=y_train, x_test=x_test,
        y_test=y_test, partitions=[np.array([i]) for i in range(ASYNC_CLIENTS)],
        imbalance_factor=1.0, beta=1.0, partition_kind="balanced",
    )


def async_engine(ds: FederatedDataset, seed: int) -> AsyncFederatedSimulation:
    """FedAsync, unrecorded, serial, jitter-free lognormal latencies."""
    return AsyncFederatedSimulation(
        make_method("fedasync").algorithm,
        make_linear(ASYNC_DIM, 2, seed=seed),
        ds,
        FLConfig(rounds=1, participation=ASYNC_WINDOW / ASYNC_CLIENTS,
                 local_epochs=1, batch_size=10, max_batches_per_round=1,
                 eval_every=1, seed=seed),
        latency_model=LognormalLatency(sigma=0.5, jitter=0.0),
        concurrency=256,
        max_updates=ASYNC_UPDATES,
    )


# -- digests and references ---------------------------------------------------

def params_digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()


def history_digest(history) -> str:
    """Digest of every record field except ``wall_time`` (real seconds)."""
    h = hashlib.sha256()
    for rec in history.records:
        d = round_record_to_dict(rec)
        d.pop("wall_time")
        h.update(json.dumps(d, sort_keys=True).encode())
    return h.hexdigest()


def evaluated_accuracy(history) -> list[float]:
    return [float(a) for a in history.accuracy if not np.isnan(a)]


def choose_target(acc: list[float]) -> int:
    """Index of the evaluation whose accuracy is the time-to-target goal.

    The first evaluation at or after the midpoint that beats every earlier
    one; when no later evaluation sets a new best, the run's best.
    """
    best, records = -1.0, []
    for i, a in enumerate(acc):
        if a > best:
            best = a
            records.append(i)
    after = [i for i in records if i >= len(acc) // 2]
    return after[0] if after else records[-1]


def reference_of(history, final_params) -> dict:
    acc = evaluated_accuracy(history)
    i = choose_target(acc)
    return {
        "final_accuracy": acc[-1],
        "params": params_digest(final_params),
        "history": history_digest(history),
        "target": acc[i],
        "target_eval": i,
        "evals": len(acc),
    }


def target_eval(history, target: float) -> int | None:
    """Index of the first evaluation at or above ``target``."""
    for i, a in enumerate(evaluated_accuracy(history)):
        if a >= target:
            return i
    return None


# -- the environment trials run in --------------------------------------------

class Env:
    """Per-run plumbing: stamps, optional tracer, scratch space, workers."""

    def __init__(self, stamps, tmp_dir: str) -> None:
        self.stamps = stamps
        self.tmp_dir = tmp_dir
        self.tracer = None  # set for traced trials
        self.remote_backends: list = []
        self._n = 0
        #: the CPUs the benchmark may use, taken before any confinement
        self.cpus = sorted(os.sched_getaffinity(0))

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def profiler(self):
        if not self.traced:
            return None
        from repro.observe import HotPathProfiler

        return HotPathProfiler()

    def fresh_path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp_dir, f"{stem}-{self._n}")

    def construct(self, fn, *args):
        """Direct engine construction, traced like the spec facade's build."""
        if self.traced:
            fn = self.tracer.wrap("experiments.build", fn)
        return fn(*args)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_worker(env: Env, address: str, cpu: int) -> tuple[subprocess.Popen, str | None, object]:
    """One worker subprocess, confined to ``cpu`` once it has imported."""
    cmd = [sys.executable, os.path.join(HERE, "launch_worker.py"),
           "--connect", address, "--cpu", str(cpu)]
    spans = None
    if env.traced:
        spans = env.fresh_path("worker-spans") + ".json"
        cmd += ["--spans", spans]
    log = open(env.fresh_path("worker") + ".log", "wb")
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    return proc, spans, log


def _reap(proc: subprocess.Popen, log, timeout: float = 30.0) -> int:
    """Wait for the worker (kill it after ``timeout`` s); its peak RSS in KiB."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss
    finally:
        log.close()


# -- trials -------------------------------------------------------------------

def _finish(env: Env, seed: int, t0: float, t1: float, history, params,
            updates: int, **extra) -> Trial:
    stamps = env.stamps
    start = stamps.run_start[-1]
    # A server step is the wall time between consecutive versions less any
    # wait for a remote worker's results.  updates_per_s already carries
    # those waits; left in, they put p90 on the gaps between result frames.
    versions = np.array([start] + stamps.versions)
    waits = np.array([0.0] + stamps.version_waits)
    return Trial(
        sub_seed=seed, setup_s=start - t0, run_s=t1 - start, updates=updates,
        history=history, final_params=np.array(params, copy=True),
        eval_times=[t - start for t in stamps.evals],
        step_ms=(np.diff(versions) - np.diff(waits)) * 1e3, **extra,
    )


def trial_mlp(env: Env, seed: int) -> Trial:
    spec = mlp_spec(seed)
    env.stamps.clear()
    t0 = time.perf_counter()
    engine = facade.build(spec)
    prof = env.profiler()
    history = engine.run(profiler=prof)
    t1 = time.perf_counter()
    updates = sum(len(r.selected) for r in history.records)
    return _finish(env, seed, t0, t1, history, engine.final_params, updates,
                   train_samples=len(engine.ctx.dataset.y_train),
                   profile=prof.as_dict() if prof else None)


def trial_async(env: Env, seed: int) -> Trial:
    ds = async_dataset(seed)  # the benchmark's input, outside set-up
    env.stamps.clear()
    t0 = time.perf_counter()
    engine = env.construct(async_engine, ds, seed)
    prof = env.profiler()
    history = engine.run(profiler=prof)
    t1 = time.perf_counter()
    return _finish(env, seed, t0, t1, history, engine.final_params,
                   ASYNC_UPDATES, train_samples=len(ds.y_train),
                   profile=prof.as_dict() if prof else None)


def trial_remote(env: Env, seed: int) -> Trial:
    address = f"127.0.0.1:{_free_port()}"
    spec = fedbuff_spec(seed, REMOTE_UPDATES, backend="remote", workers=1,
                        job_batch=JOB_BATCH, backend_address=address)
    env.stamps.clear()
    env.remote_backends.clear()
    # the aggregator's per-worker in-flight cap (default 4) would otherwise
    # cut every JOB_BATCH frame down to 4 jobs
    inflight = os.environ.get("REPRO_NET_INFLIGHT")
    os.environ["REPRO_NET_INFLIGHT"] = str(CONCURRENCY)
    # The server's threads and the worker's share one core.  With a core
    # each, throughput followed how much of the second core the host's
    # hypervisor lent at the time (a quarter to a half of the CPU time was
    # stolen while both ran, and updates/s swung 2x between runs); on one
    # core every driver-side and worker-side cost is on the critical path.
    # The worker starts on all CPUs and narrows itself after its imports,
    # so each process keeps the BLAS thread pool a user gets.
    cpu = env.cpus[0]
    t0 = time.perf_counter()
    proc, spans_path, log = _spawn_worker(env, address, cpu)
    os.sched_setaffinity(0, {cpu})
    try:
        engine = facade.build(spec)
        prof = env.profiler()
        history = engine.run(profiler=prof)
        t1 = time.perf_counter()
    finally:
        os.sched_setaffinity(0, env.cpus)
        worker_rss_kb = _reap(proc, log)
        if inflight is None:
            os.environ.pop("REPRO_NET_INFLIGHT", None)
        else:
            os.environ["REPRO_NET_INFLIGHT"] = inflight
    worker_spans = None
    if spans_path is not None:
        with open(spans_path) as f:
            worker_spans = json.load(f)
    (backend,) = env.remote_backends
    return _finish(env, seed, t0, t1, history, engine.final_params,
                   REMOTE_UPDATES,
                   train_samples=len(engine.ctx.dataset.y_train),
                   profile=prof.as_dict() if prof else None,
                   transport=backend.transport_stats(),
                   worker_spans=worker_spans, worker_rss_kb=worker_rss_kb)


def _observe_stats(run_dir: str) -> dict:
    journal = os.path.join(run_dir, "journal.jsonl")
    with open(journal, "rb") as f:
        records = sum(1 for _ in f)
    snap_dir = os.path.join(run_dir, "snapshots")
    snaps = [os.path.join(snap_dir, n) for n in os.listdir(snap_dir)]
    return {
        "journal_records": records,
        "journal_bytes": os.path.getsize(journal),
        "snapshots": len(snaps),
        "snapshot_bytes": sum(os.path.getsize(p) for p in snaps),
    }


def trial_recorded(env: Env, seed: int) -> Trial:
    run_dir = env.fresh_path("run")
    spec = fedbuff_spec(seed, record=True, run_dir=run_dir)
    env.stamps.clear()
    try:
        t0 = time.perf_counter()
        result = facade.run(spec)
        t1 = time.perf_counter()
        observe = _observe_stats(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _finish(env, seed, t0, t1, result.history, result.final_params,
                   FEDBUFF_UPDATES,
                   train_samples=len(result.engine.ctx.dataset.y_train),
                   profile=result.profile, observe=observe)


# -- the workload table ---------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    trial: Callable[[Env, int], Trial]
    #: key of the serial, unrecorded problem in references.json
    reference: str
    #: (class, method) whose call produces a new server model version
    version: tuple[type, str]
    #: problems per seed: a run cycles through sub-seeds ``seed * n + j``
    #: so that its medians do not hang on one draw's learning curve
    sub_seeds: int

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.sub_seeds + j for j in range(self.sub_seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        # eight problems: the MLP's accuracy curve is the noisiest, and the
        # round at which a target is first met varies most between draws
        Workload("paper-mlp", trial_mlp, "paper-mlp", (FedWCM, "aggregate"), 8),
        Workload("async-100k", trial_async, "async-100k",
                 (FedAsync, "server_apply"), 4),
        Workload("remote-fedbuff", trial_remote, "fedbuff-remote",
                 (AsyncAdapter, "server_apply"), 4),
        # eight problems: fedbuff's 800-update accuracy varies widely by draw
        Workload("fedbuff-recorded", trial_recorded, "fedbuff",
                 (AsyncAdapter, "server_apply"), 8),
    )
}


def reference_run(key: str, seed: int) -> dict:
    """The serial, unrecorded run a trial of problem ``key`` must reproduce."""
    if key == "paper-mlp":
        engine = facade.build(mlp_spec(seed))
    elif key == "fedbuff":
        engine = facade.build(fedbuff_spec(seed))
    elif key == "fedbuff-remote":
        engine = facade.build(fedbuff_spec(seed, REMOTE_UPDATES))
    elif key == "async-100k":
        engine = async_engine(async_dataset(seed), seed)
    else:
        raise KeyError(key)
    history = engine.run()
    return reference_of(history, engine.final_params)

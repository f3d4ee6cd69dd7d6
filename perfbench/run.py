"""The repo's benchmark: end-to-end metrics per workload, per-layer on request.

Usage::

    python3 perfbench/run.py --workload paper-mlp --seed 0 --seconds 25 --trace 0

One run picks the workload's problems from ``--seed`` (sub-seeds
``seed * n + j``, j < n, with n = 4 for async-100k and remote-fedbuff and
8 otherwise), then runs cycles of one trial per sub-seed until about
``--seconds`` have passed.  A run only ends between cycles, so every
sub-seed has the same number of trials.  Every trial is checked against the
serial, unrecorded reference of its sub-seed (``references.json``, or
computed in a child process before timing starts for sub-seeds not stored
there, so that the run's peak memory stays its own): final accuracy, a
digest of the final parameters and a digest of the whole history must match
exactly.  For ``remote-fedbuff`` and ``fedbuff-recorded`` that is the
load-bearing invariant: their histories are bit-identical to the serial,
unrecorded run of the same spec.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced trials and prints per-layer metrics from the traced ones
(:mod:`tracing`).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every trial matched its reference and no job failed.

``--write-references 0-19`` adds the references of those seeds' sub-seeds
to ``references.json`` (delete the file first to recompute them all).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

# units of the end-to-end metrics, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "time_to_target_s": "s",
    "server_step_ms_p50": "ms",
    "server_step_ms_p90": "ms",
    "final_accuracy": "fraction",
    "peak_rss_mb": "MB",
}

LAYERS = ("experiments", "data", "nn", "simulation", "algorithms", "core",
          "runtime", "parallel", "net", "observe")


# -- host ---------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads the loaded BLAS library will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads",
                    "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _src_digest() -> str:
    """Content digest of ``src/``: names the code under test without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_loop_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Printed next to the metrics, not one of them.  This host's CPU speed
    has drifted by 2x within an hour with nothing else of ours running;
    the loop tells such a drift apart from a change in the program.
    """
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def host_info(workload: str, seed: int, sub_seeds: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": 1 if workload == "remote-fedbuff" else 0,
        # remote-fedbuff runs the server's and the worker's threads on this core
        "shared_core": min(os.sched_getaffinity(0)) if workload == "remote-fedbuff" else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "seed": seed,
        "sub_seeds": sub_seeds,
        "loop_ms": host_loop_ms(),
    }


# -- statistics ---------------------------------------------------------------

def _check(trial, ref: dict) -> list[str]:
    """Every way ``trial`` differs from its reference (empty when none)."""
    from workloads import evaluated_accuracy, history_digest, params_digest, target_eval

    problems = []
    acc = evaluated_accuracy(trial.history)
    if not acc or acc[-1] != ref["final_accuracy"]:
        problems.append(f"final accuracy {acc[-1] if acc else None} != {ref['final_accuracy']}")
    if params_digest(trial.final_params) != ref["params"]:
        problems.append("final parameter digest differs")
    if history_digest(trial.history) != ref["history"]:
        problems.append("history differs from the serial, unrecorded reference")
    if target_eval(trial.history, ref["target"]) != ref["target_eval"]:
        problems.append("target accuracy first reached at another evaluation")
    if len(trial.eval_times) != ref["evals"]:
        problems.append(f"{len(trial.eval_times)} evaluation stamps, expected {ref['evals']}")
    requeued = (trial.transport or {}).get("requeued_jobs", 0)
    if requeued:
        problems.append(f"{requeued} jobs requeued")
    return problems


def end_to_end_metrics(trials: list, refs: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a run and the sample counts behind them."""
    import numpy as np

    steps = np.concatenate([t.step_ms for t in trials])
    # means over trials average the host's speed swings within a run; the
    # median over sub-seeds then keeps one late learning curve from moving it
    by_seed: dict[int, list[float]] = {}
    for t in trials:
        by_seed.setdefault(t.sub_seed, []).append(
            t.eval_times[refs[t.sub_seed]["target_eval"]])
    ttt = [statistics.fmean(v) for v in by_seed.values()]
    finals = [refs[s]["final_accuracy"] for s in by_seed]
    metrics = {
        "setup_s": statistics.median(t.setup_s for t in trials),
        "updates_per_s": sum(t.updates for t in trials) / sum(t.run_s for t in trials),
        "time_to_target_s": statistics.median(ttt),
        "server_step_ms_p50": float(np.quantile(steps, 0.5)),
        "server_step_ms_p90": float(np.quantile(steps, 0.9)),
        "final_accuracy": statistics.median(finals),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": len(trials), "updates_per_s": len(trials),
        "time_to_target_s": len(trials), "server_step_ms_p50": len(steps),
        "server_step_ms_p90": len(steps), "final_accuracy": len(finals),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _merge_spans(into: dict, spans: dict) -> None:
    for name, row in spans.items():
        acc = into.setdefault(name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
        for k in acc:
            acc[k] += row[k]


def per_layer_metrics(traced: list, untraced: list, summary: dict) -> dict:
    """Per-layer metrics of the traced trials, as (value, unit) pairs.

    Times that every workload spends are seconds per trial; times some
    workloads never spend are shares of the traced wall time (``_frac``).
    Worker-side spans of ``remote-fedbuff`` are merged into the same names.
    """
    from tracing import layer_of

    spans: dict = {}
    _merge_spans(spans, summary["spans"])
    for t in traced:
        if t.worker_spans:
            _merge_spans(spans, t.worker_spans["spans"])
    n = len(traced)
    wall = sum(t.setup_s + t.run_s for t in traced)

    def row(name):
        return spans.get(name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})

    def per_trial(name, key="incl_s"):
        return row(name)[key] / n

    def frac(seconds):
        return seconds / wall

    def share(name, key="incl_s"):
        return row(name)[key] / wall

    def summed(items, key):
        return sum((item or {}).get(key, 0) for item in items) / n

    phases = [(t.profile or {}).get("phases", {}) for t in traced]
    transports = [t.transport for t in traced]
    observes = [t.observe for t in traced]
    fwd = row("nn.fwd_bwd")
    dispatches = summed([t.profile for t in traced], "dispatches")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, r in spans.items():
        layer_self[layer_of(name)] += r["self_s"]
    traced_run = statistics.median(t.run_s for t in traced)
    plain_run = statistics.median(t.run_s for t in untraced)

    m = {
        "experiments.build_s": (per_trial("experiments.build"), "s"),
        "data.load_s": (per_trial("data.load"), "s"),
        "data.train_samples": (statistics.median(t.train_samples for t in traced), "count"),
        "nn.fwd_bwd_calls": (fwd["count"] / n, "count"),
        "nn.fwd_bwd_s": (fwd["incl_s"] / n, "s"),
        "nn.fwd_bwd_us": (fwd["incl_s"] / max(fwd["count"], 1) * 1e6, "us"),
        "nn.dense_s": (per_trial("nn.dense"), "s"),
        "nn.loss_s": (per_trial("nn.loss"), "s"),
        "nn.eval_s": (per_trial("nn.eval"), "s"),
        "simulation.load_params_calls": (row("simulation.load_params")["count"] / n, "count"),
        "simulation.load_params_s": (per_trial("simulation.load_params"), "s"),
        "simulation.flat_gradient_calls": (row("simulation.flat_gradient")["count"] / n, "count"),
        "simulation.flat_gradient_s": (per_trial("simulation.flat_gradient"), "s"),
        "algorithms.client_update_calls": (row("algorithms.client_update")["count"] / n, "count"),
        "algorithms.client_update_s": (per_trial("algorithms.client_update"), "s"),
        "algorithms.local_sgd_self_s": (per_trial("algorithms.local_sgd", "self_s"), "s"),
        "algorithms.aggregate_s": (per_trial("algorithms.aggregate"), "s"),
        "algorithms.server_absorb_frac": (share("algorithms.server_absorb"), "fraction"),
        "core.fedwcm_frac": (share("core.fedwcm"), "fraction"),
        "runtime.dispatches": (dispatches or statistics.median(t.updates for t in traced), "count"),
        "runtime.self_s": (per_trial("runtime.run", "self_s"), "s"),
        "parallel.jobs": (row("parallel.execute_job")["count"] / n, "count"),
        "parallel.execute_job_s": (per_trial("parallel.execute_job"), "s"),
        "parallel.submit_frac": (share("parallel.submit", "self_s"), "fraction"),
        "parallel.collect_frac": (share("parallel.collect"), "fraction"),
        "parallel.collect_wait_frac": (share("parallel.collect", "self_s"), "fraction"),
        "net.bytes_sent": (summed(transports, "bytes_sent"), "count"),
        "net.bytes_received": (summed(transports, "bytes_received"), "count"),
        "net.bytes_saved": (summed(transports, "bytes_saved"), "count"),
        "net.frames": (summed(transports, "batch_frames"), "count"),
        "net.requeued_jobs": (summed(transports, "requeued_jobs"), "count"),
        "net.workers_lost": (summed(transports, "workers_lost"), "count"),
        "net.bind_frac": (share("net.bind"), "fraction"),
        "net.encode_frac": (share("net.encode"), "fraction"),
        "net.decode_frac": (share("net.decode"), "fraction"),
        "net.worker_idle_frac": (share("net.worker_idle", "self_s"), "fraction"),
        "observe.journal_records": (summed(observes, "journal_records"), "count"),
        "observe.journal_bytes": (summed(observes, "journal_bytes"), "count"),
        "observe.snapshots": (summed(observes, "snapshots"), "count"),
        "observe.snapshot_bytes": (summed(observes, "snapshot_bytes"), "count"),
        "observe.hook_frac": (frac(sum(p.get("journal", 0.0) for p in phases)), "fraction"),
        "observe.snapshot_frac": (share("observe.snapshot"), "fraction"),
    }
    for phase in ("pick", "latency", "heap", "job_build"):
        m[f"runtime.{phase}_frac"] = (frac(sum(p.get(phase, 0.0) for p in phases)), "fraction")
    for layer in LAYERS:
        m[f"share.{layer}"] = (frac(layer_self[layer]), "fraction")
    m["trace.attributed_frac"] = (frac(summary["root_s"]), "fraction")
    m["trace.overhead_frac"] = (traced_run / plain_run - 1.0, "fraction")
    m["trace.spans"] = (summary["span_count"] / n, "count")
    return m


# -- the run ------------------------------------------------------------------

def _load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def _measure(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Patches, RunStamps, Tracer, install_layer_spans
    from workloads import WORKLOADS, Env

    from repro.net import RemoteBackend

    wl = WORKLOADS[workload_name]
    subs = wl.seeds(seed)
    print("host " + json.dumps(host_info(workload_name, seed, subs)), flush=True)

    stored = _load_references().get(wl.reference, {})
    refs = {s: stored[str(s)] for s in subs if str(s) in stored}
    missing = [s for s in subs if s not in refs]
    if missing:
        print(f"reference: sub-seeds {missing} not stored; running them "
              "serially in a child process before timing", flush=True)
        refs.update(_references_in_child(wl.reference, missing))

    tmp_dir = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    patches = Patches()
    stamps = RunStamps(patches, *wl.version)
    env = Env(stamps, tmp_dir)
    captured = env.remote_backends

    def capture_bind(fn):
        def bind(self, *args, **kwargs):
            captured.append(self)
            return fn(self, *args, **kwargs)

        return bind

    patches.replace(RemoteBackend, "bind", capture_bind)
    tracer = Tracer() if trace else None
    traced, untraced = [], []
    attempted = failed = 0

    def run_trial(s: int, with_trace: bool):
        """One checked trial; None when it raised or missed its reference."""
        nonlocal attempted, failed
        layer_patches = None
        if with_trace:
            layer_patches = Patches()
            install_layer_spans(tracer, layer_patches)
        env.tracer = tracer if with_trace else None
        try:
            trial = wl.trial(env, s)
        except Exception:
            traceback.print_exc()
            print(f"FAIL sub-seed {s}: the trial raised", flush=True)
            attempted += 1
            failed += 1
            return None
        finally:
            if layer_patches is not None:
                layer_patches.uninstall()
            env.tracer = None
        problems = _check(trial, refs[s])
        attempted += trial.updates
        for p in problems:
            print(f"FAIL sub-seed {s}: {p}", flush=True)
        if problems:
            failed += trial.updates
            return None
        failed += (trial.transport or {}).get("requeued_jobs", 0)
        # keep only what the metrics read, so that peak memory does not
        # grow with the number of trials a run fits in
        trial.history = trial.final_params = None
        return trial

    try:
        # an untimed warm-up: the first trial in a process pays one-off
        # costs (imports, allocator growth, first connections)
        correct = run_trial(subs[0], False) is not None
        modes = [False, True] if trace else [False]
        per_cycle = len(subs) * len(modes)
        start = cycle_start = time.perf_counter()
        n = 0
        while correct:
            cycle, k = divmod(n, per_cycle)
            if k == 0 and cycle:
                # whole cycles only, so that every sub-seed weighs the same;
                # a new cycle starts when it ends nearer the deadline than
                # stopping now would
                now = time.perf_counter()
                cycle_s, cycle_start = now - cycle_start, now
                if now - start + cycle_s / 2 >= seconds:
                    break
            # one trial per sub-seed per cycle; traced runs alternate which
            # of the untraced and traced trials of a sub-seed goes first
            s = subs[k // len(modes)]
            with_trace = modes[(k + cycle) % len(modes)]
            n += 1
            trial = run_trial(s, with_trace)
            correct = trial is not None
            if correct:
                (traced if with_trace else untraced).append(trial)
    finally:
        patches.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    # the benchmark process's peak plus its largest worker's, if any
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += max((t.worker_rss_kb for t in traced + untraced), default=0)
    print(f"workload {workload_name} seed {seed} sub-seeds {subs}: "
          f"{len(untraced)} untraced and {len(traced)} traced trials", flush=True)
    print(f"host loop_ms after the trials = {host_loop_ms():.4g}", flush=True)
    print(f"failed_frac = {failed / max(attempted, 1)} "
          f"({failed} of {attempted} client jobs)", flush=True)

    metrics: dict = {}
    if correct and trace:
        summary = tracer.summary()
        summary["span_count"] = tracer.span_count()
        for name, (value, unit) in per_layer_metrics(traced, untraced, summary).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"layer {name} = {value:.6g} {unit}", flush=True)
    elif correct:
        values, samples = end_to_end_metrics(untraced, refs, rss_kb / 1024.0)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit} "
                  f"(samples: {samples[name]})", flush=True)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct and failed == 0 else 1


def _references_in_child(key: str, seeds: list[int]) -> dict:
    """References of ``seeds``, computed by a child process of this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--reference-of", key,
         ",".join(map(str, seeds))],
        stdout=subprocess.PIPE, check=True, text=True, timeout=150)
    return {int(s): ref for s, ref in json.loads(proc.stdout.splitlines()[-1]).items()}


def _write_references(seed_range: str) -> int:
    from workloads import WORKLOADS, reference_run

    lo, _, hi = seed_range.partition("-")
    out = _load_references()
    for wl in WORKLOADS.values():
        table = out.setdefault(wl.reference, {})
        for seed in range(int(lo), int(hi or lo) + 1):
            for s in wl.seeds(seed):
                if str(s) not in table:
                    table[str(s)] = reference_run(wl.reference, s)
                    print(f"{wl.reference} sub-seed {s}: {table[str(s)]}", flush=True)
        out[wl.reference] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(REFERENCES, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", metavar="LO-HI")
    ap.add_argument("--reference-of", nargs=2, metavar=("KEY", "SEEDS"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.write_references:
        return _write_references(args.write_references)
    if args.reference_of:
        from workloads import reference_run

        key, seeds = args.reference_of
        print(json.dumps({s: reference_run(key, int(s)) for s in seeds.split(",")}))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # a terminated run still reaps its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return _measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of the repro stack from outside the program.

The benchmark never edits program code: it times each layer by wrapping the
public functions and methods callers use to enter that layer
(:func:`install_layer_spans`), and it stamps the few moments every timed run
needs (:class:`RunStamps`).  Both patch module or class attributes and put
the originals back on ``uninstall``.

A span is ``(name, start, end, parent)``.  Spans stay in memory, one buffer
per thread (the federation service runs its socket loop on a thread of its
own), until :meth:`Tracer.summary` folds them into per-name totals.  A
span's self time is its duration minus the durations of its direct
children.  A name's inclusive total counts only outermost spans of that
name, so a method that calls its parent class's traced method is not
counted twice.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from array import array

import numpy as np

__all__ = ["Patches", "RunStamps", "Tracer", "install_layer_spans", "layer_of"]


def layer_of(name: str) -> str:
    """``"nn.fwd_bwd"`` -> ``"nn"``: a span's layer is its name's prefix."""
    return name.split(".", 1)[0]


class _Buffer:
    """Spans of one thread, in entry order (a parent precedes its children)."""

    def __init__(self, main: bool) -> None:
        self.main = main
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]


class Tracer:
    """In-memory span recorder shared by every wrapper it hands out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        get_buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1])
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()

        return traced

    def span_count(self) -> int:
        return sum(len(b.start) for b in self._buffers)

    def summary(self) -> dict:
        """Per-name ``{"count", "incl_s", "self_s"}`` plus main-thread roots.

        ``count`` and ``incl_s`` cover outermost spans of each name only;
        ``self_s`` sums every span's own time.  ``root_s`` is the total
        duration of main-thread spans that have no parent: the part of the
        main thread's wall time some span accounts for.
        """
        per: dict[str, dict] = {}
        root_s = 0.0
        for buf in list(self._buffers):
            n = len(buf.start)
            if n == 0:
                continue
            names = np.frombuffer(buf.name, dtype=np.int32)[:n]
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n]
            dur = np.frombuffer(buf.end, dtype=np.float64)[:n] - np.frombuffer(
                buf.start, dtype=np.float64
            )[:n]
            has_parent = parent >= 0
            child_sum = np.bincount(
                parent[has_parent], weights=dur[has_parent], minlength=n
            )
            self_s = dur - child_sum
            # a span is outermost for its name unless an ancestor shares
            # the name; walk all ancestor chains one level per pass
            nested = np.zeros(n, dtype=bool)
            anc = parent.copy()
            live = anc >= 0
            while live.any():
                idx = np.nonzero(live)[0]
                up = anc[idx]
                hit = names[up] == names[idx]
                nested[idx[hit]] = True
                anc[idx] = parent[up]
                live[idx] = ~hit & (parent[up] >= 0)
            outer = ~nested
            if buf.main:
                root_s += float(dur[~has_parent].sum())
            k = len(self.names)
            counts = np.bincount(names[outer], minlength=k)
            incl = np.bincount(names[outer], weights=dur[outer], minlength=k)
            selfs = np.bincount(names, weights=self_s, minlength=k)
            for nid, name in enumerate(self.names):
                if counts[nid] == 0 and selfs[nid] == 0.0:
                    continue
                row = per.setdefault(name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
                row["count"] += int(counts[nid])
                row["incl_s"] += float(incl[nid])
                row["self_s"] += float(selfs[nid])
        return {"spans": per, "root_s": root_s}


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(original)``; owner is a module or class."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RunStamps:
    """The moments a timed run reads: run start, evaluations, server versions.

    Four light wrappers, installed on timed and traced runs alike:

    * ``EventCore.run`` entry — the first job can be dispatched from here;
    * ``EventCore.record`` with ``evaluate=True`` — one stamp per evaluation,
      taken after the accuracy is known;
    * the algorithm's version-producing call (``aggregate`` for synchronous
      rounds, ``server_apply`` returning a new model for the async rules);
      next to each version stamp, the seconds the server has spent so far
      blocked in ``RemoteBackend.collect`` waiting for a worker's results.
    """

    def __init__(self, patches: Patches, version_owner: type, version_attr: str) -> None:
        from repro.net import RemoteBackend
        from repro.runtime.events import EventCore

        self.run_start: list[float] = []
        self.evals: list[float] = []
        self.versions: list[float] = []
        self.version_waits: list[float] = []
        self._waited = [0.0]
        clock = time.perf_counter
        run_start, evals, versions = self.run_start, self.evals, self.versions
        version_waits, waited = self.version_waits, self._waited

        def stamp_run(fn):
            def run(self, *args, **kwargs):
                run_start.append(clock())
                return fn(self, *args, **kwargs)

            return run

        def stamp_record(fn):
            def record(self, rec, evaluate, round_idx):
                out = fn(self, rec, evaluate, round_idx)
                if evaluate:
                    evals.append(clock())
                return out

            return record

        def stamp_version(fn):
            def step(self, *args, **kwargs):
                out = fn(self, *args, **kwargs)
                if out is not None:
                    versions.append(clock())
                    version_waits.append(waited[0])
                return out

            return step

        def time_collect(fn):
            def collect(self, *args, **kwargs):
                t0 = clock()
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    waited[0] += clock() - t0

            return collect

        patches.replace(EventCore, "run", stamp_run)
        patches.replace(EventCore, "record", stamp_record)
        patches.replace(version_owner, version_attr, stamp_version)
        patches.replace(RemoteBackend, "collect", time_collect)

    def clear(self) -> None:
        self.run_start.clear()
        self.evals.clear()
        self.versions.clear()
        self.version_waits.clear()
        self._waited[0] = 0.0


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install_layer_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the entry points of every layer a workload runs through.

    The same wrappers serve the benchmark process and the remote worker
    launcher, so worker-side spans carry the same names.
    """
    import pickle

    import repro.algorithms.base as alg_base
    import repro.algorithms.fedwcm as fedwcm
    import repro.experiments.facade as facade
    import repro.net.framing as framing
    import repro.net.service as service
    import repro.net.worker as worker
    import repro.nn.train as nn_train
    import repro.observe.journal as journal
    import repro.parallel as parallel_pkg
    import repro.parallel.backend as backend
    import repro.simulation.engine as sim_engine
    from repro.core.momentum import GlobalMomentum
    from repro.data.registry import FederatedDataset
    from repro.net import RemoteBackend
    from repro.nn.layers import Dense
    from repro.nn.losses import CrossEntropyLoss
    from repro.observe import RunRecorder
    from repro.runtime.events import EventCore
    from repro.simulation.context import SimulationContext

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    # experiments: the spec facade's engine construction
    patches.replace(facade, "build", span("experiments.build"))

    # data: dataset synthesis and the per-client views the context caches
    patches.replace(facade, "load_federated_dataset", span("data.load"))
    patches.replace(FederatedDataset, "client_data", span("data.load"))
    patches.replace(FederatedDataset, "flat_view", span("data.load"))

    # nn: the fused step, module families and evaluation
    patches.replace(alg_base, "forward_backward", span("nn.fwd_bwd"))
    patches.replace(nn_train, "forward_backward", span("nn.fwd_bwd"))
    patches.replace(Dense, "forward", span("nn.dense"))
    patches.replace(Dense, "backward", span("nn.dense"))
    patches.replace(CrossEntropyLoss, "__call__", span("nn.loss"))
    patches.replace(sim_engine, "evaluate", span("nn.eval"))

    # simulation: flat vector <-> parameter tree copies around each step
    patches.replace(SimulationContext, "load_params", span("simulation.load_params"))
    patches.replace(SimulationContext, "flat_gradient", span("simulation.flat_gradient"))

    # algorithms: client and server halves of every method class
    patches.replace(alg_base.LocalSGDMixin, "_local_sgd", span("algorithms.local_sgd"))
    for cls in _subclasses(alg_base.FederatedAlgorithm):
        for attr, name in (
            ("client_update", "algorithms.client_update"),
            ("aggregate", "algorithms.aggregate"),
            ("server_apply", "algorithms.aggregate"),
            ("server_absorb", "algorithms.server_absorb"),
        ):
            if attr in cls.__dict__:
                patches.replace(cls, attr, span(name))

    # core: FedWCM's weighting and global momentum
    for attr in ("adaptive_alpha", "score_ratio", "client_scores",
                 "global_distribution", "compute_temperature",
                 "l1_discrepancy", "softmax_weights"):
        patches.replace(fedwcm, attr, span("core.fedwcm"))
    patches.replace(GlobalMomentum, "update", span("core.fedwcm"))

    # runtime: the event core's loop; its self time is the control plane
    patches.replace(EventCore, "run", span("runtime.run"))

    # parallel: the job contract and the backend hand-offs
    patches.replace(backend, "execute_client_job", span("parallel.execute_job"))
    patches.replace(parallel_pkg, "execute_client_job", span("parallel.execute_job"))
    for cls in (backend.ExecutionBackend, backend.SerialBackend, RemoteBackend):
        for attr in ("submit", "submit_many", "run_jobs_inline"):
            if attr in cls.__dict__:
                patches.replace(cls, attr, span("parallel.submit"))
        if "collect" in cls.__dict__:
            patches.replace(cls, "collect", span("parallel.collect"))

    # net: registration, frame encoding, payload decoding, worker idle wait
    patches.replace(RemoteBackend, "bind", span("net.bind"))
    patches.replace(framing, "encode_frame", span("net.encode"))
    patches.replace(service, "encode_frame", span("net.encode"))
    patches.replace(framing, "pickle", lambda mod: types.SimpleNamespace(
        dumps=mod.dumps, loads=tracer.wrap("net.decode", mod.loads),
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    ))
    patches.replace(worker, "recv_frame", span("net.worker_idle"))

    # observe: recorder hooks and snapshot capture + write
    for attr in ("begin", "on_dispatch", "on_completion", "on_tick", "on_job",
                 "on_round", "on_stop", "finish"):
        patches.replace(RunRecorder, attr, span("observe.hook"))
    patches.replace(journal, "snapshot_core", span("observe.snapshot"))
    patches.replace(journal, "save_snapshot", span("observe.snapshot"))

"""Lightweight hot-path profiler for the event core's dispatch loop.

A :class:`HotPathProfiler` is a bag of per-phase wall-clock counters the
event core and the async policy feed while a run executes.  It answers
the question the clients/sec bench kept begging: *where* does a dispatch
actually spend its time once client compute is cheap?  Phases:

==========  ===========================================================
phase       covers
==========  ===========================================================
pick        idle-set maintenance + client selection (uniform or sampler)
latency     latency-model draws pricing each dispatch
heap        event scheduling into the virtual clock
job_build   ClientJob construction (state snapshot, buffer copies)
submit      backend submit (streaming burst hand-off)
collect     backend collect/flush when a completion needs its result
apply       ``server_apply`` merging an update into the global model
eval        history recording + test-set evaluation at window closes
journal     the run recorder's own hooks (``RunRecorder.hook_seconds``)
other       wall time the probes above did not attribute
==========  ===========================================================

The profiler is pure observation: probes are ``perf_counter`` pairs
behind ``if profiler is not None`` guards, so unprofiled runs pay one
attribute read per site and profiled runs stay bit-identical (no RNG, no
event reordering).  Recorded runs journal the summary as an additive
``profile`` record (schema version unchanged) which
``repro watch --summary`` surfaces as a ``hotpath:`` line; the
clients-per-sec bench prints the full breakdown.
"""

from __future__ import annotations

__all__ = ["PROFILE_PHASES", "HotPathProfiler", "format_hotpath"]

PROFILE_PHASES = (
    "pick", "latency", "heap", "job_build", "submit", "collect",
    "apply", "eval", "journal", "other",
)


class HotPathProfiler:
    """Per-phase wall counters for one event-core run.

    Attach by passing ``profiler=`` to an engine's ``run()`` (or directly
    to :meth:`repro.runtime.events.EventCore.run`); read the result with
    :meth:`as_dict` after the run returns.
    """

    __slots__ = ("seconds", "wall_seconds", "completions", "dispatches")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {p: 0.0 for p in PROFILE_PHASES}
        self.wall_seconds = 0.0
        self.completions = 0
        self.dispatches = 0

    def add(self, phase: str, dt: float) -> None:
        """Accumulate ``dt`` wall seconds into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def finish(self, wall_seconds: float, journal_seconds: float = 0.0) -> None:
        """Close the run: total wall, journal overhead, residual 'other'."""
        self.wall_seconds = float(wall_seconds)
        self.seconds["journal"] = float(journal_seconds)
        attributed = sum(v for k, v in self.seconds.items() if k != "other")
        self.seconds["other"] = max(0.0, self.wall_seconds - attributed)

    def clients_per_sec(self) -> float:
        """Completed client updates per wall second (0 when unknown)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completions / self.wall_seconds

    def as_dict(self) -> dict:
        """JSON-ready summary (the journal's ``profile`` record body)."""
        wall = self.wall_seconds
        phases = {k: round(v, 6) for k, v in self.seconds.items() if v > 0.0}
        shares = (
            {k: round(v / wall, 4) for k, v in self.seconds.items() if v > 0.0}
            if wall > 0
            else {}
        )
        return {
            "wall_s": round(wall, 6),
            "completions": self.completions,
            "dispatches": self.dispatches,
            "clients_per_sec": round(self.clients_per_sec(), 1),
            "phases": phases,
            "shares": shares,
        }


def format_hotpath(profile: dict, top: int = 3) -> str:
    """One-line summary of a journaled ``profile`` record.

    ``"12345 clients/s (pick 42%, latency 31%, heap 9%)"`` — throughput
    plus the ``top`` largest phase shares.  Shared by
    ``repro watch --summary`` and the bench so the two never disagree on
    formatting.
    """
    cps = float(profile.get("clients_per_sec", 0.0))
    shares = profile.get("shares") or {}
    ranked = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)[:top]
    parts = ", ".join(f"{name} {share:.0%}" for name, share in ranked)
    line = f"{cps:.0f} clients/s"
    return f"{line} ({parts})" if parts else line

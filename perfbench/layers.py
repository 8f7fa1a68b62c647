"""Host-side instrumentation of the ``repro`` layers, installed from outside
the program.

Nothing here edits ``src/``.  Two kinds of measurement are installed into a
freshly imported process:

- :class:`JobLog` wraps the application entry point the figure driver
  calls (``run_ior`` and friends) and reads each finished job's counters
  off its :class:`~repro.apps.harness.AppResult`.  It costs a few calls per
  figure, so the untraced run keeps it.
- :class:`Tracer` counts calls into each layer's public functions, times
  spans around the analysis entry points, and runs ``cProfile`` over the
  figure.  Profiled self time is then folded into the eight layers by
  :func:`self_time_by_layer`.  This is the traced run only.

The measuring process exits after one figure, so nothing is uninstalled.
"""

from __future__ import annotations

import cProfile
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Tuple

#: Layers are modules of ``src/repro``; striping is split out of ``iosys``
#: because it is the hotspot the stripe-arithmetic work targets.
LAYERS = (
    "sim",
    "mpi",
    "iosys",
    "iosys.striping",
    "ipm",
    "apps",
    "ensembles",
    "experiments",
)

#: Collective and point-to-point calls on ``RankComm``.
MPI_CALLS = (
    "barrier", "bcast", "gather", "allgather", "scatter", "reduce",
    "allreduce", "scan", "sendrecv", "alltoall", "split", "send", "recv",
)
#: The libc-level calls of ``PosixIo``.
POSIX_CALLS = (
    "open", "close", "stat", "write", "pwrite", "read", "pread", "lseek",
    "fadvise", "fsync",
)
#: ``Trace`` analysis entry points timed as ``ipm.analysis_s``.
TRACE_ANALYSIS = ("filter", "reads", "writes", "data_ops", "per_rank_totals")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class JobCounts:
    """What one simulated job did, read after it finished."""

    simulated_s: float
    events: int
    trace_records: int
    mds_ops: int
    bytes_written: float
    bytes_read: float


class JobLog:
    """Wraps the driver's application entry point to log every job."""

    def __init__(self, fig_module: Any, app_runner: str):
        self.jobs: List[JobCounts] = []
        #: host CPU seconds inside the application entry point
        self.simulate_s = 0.0
        original = getattr(fig_module, app_runner)

        @functools.wraps(original)
        def logged(*args: Any, **kwargs: Any) -> Any:
            t0 = time.process_time()
            res = original(*args, **kwargs)
            self.simulate_s += time.process_time() - t0
            # read scalars only: holding the results would change the
            # figure's peak memory
            self.jobs.append(
                JobCounts(
                    simulated_s=res.elapsed,
                    events=res.iosys.engine.event_count,
                    trace_records=len(res.trace),
                    mds_ops=res.iosys.mds.total_ops,
                    bytes_written=res.iosys.total_bytes_written(),
                    bytes_read=res.iosys.total_bytes_read(),
                )
            )
            return res

        setattr(fig_module, app_runner, logged)

    def totals(self) -> Dict[str, float]:
        return {
            "simulated_s": sum(j.simulated_s for j in self.jobs),
            "sim.events": sum(j.events for j in self.jobs),
            "ipm.trace_records": sum(j.trace_records for j in self.jobs),
            "iosys.mds_ops": sum(j.mds_ops for j in self.jobs),
            "iosys.bytes_written": sum(j.bytes_written for j in self.jobs),
            "iosys.bytes_read": sum(j.bytes_read for j in self.jobs),
        }


class _Span:
    """Accumulates the time of the outermost active call among a group of
    wrapped functions, so nested calls (``reads`` -> ``filter``) count once."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._depth = 0
        self._t0 = 0.0

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth == 0:
                self._t0 = time.perf_counter()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += time.perf_counter() - self._t0

        return timed


class Tracer:
    """Counters, spans and a profiler around one figure regeneration."""

    def __init__(self, fig_module: Any):
        from repro.ipm.events import Trace
        from repro.iosys.posix import PosixIo
        from repro.iosys.striping import StripeLayout
        from repro.mpi.comm import RankComm

        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "iosys.striping.calls",
                "iosys.striping.extents",
                "mpi.calls",
                "iosys.posix_ops",
                "ipm.events_materialised",
            ),
            0,
        )
        self.trace_analysis = _Span()
        self.ensembles_analysis = _Span()
        self.profiler = cProfile.Profile()

        extents = StripeLayout.extents

        @functools.wraps(extents)
        def counted_extents(layout: Any, offset: int, length: int) -> Any:
            out = extents(layout, offset, length)
            self.counts["iosys.striping.calls"] += 1
            self.counts["iosys.striping.extents"] += len(out)
            return out

        StripeLayout.extents = counted_extents  # type: ignore[method-assign]

        for cls, names, key in (
            (RankComm, MPI_CALLS, "mpi.calls"),
            (PosixIo, POSIX_CALLS, "iosys.posix_ops"),
        ):
            for name in names:
                setattr(cls, name, self._counted(getattr(cls, name), key))
        Trace.__getitem__ = self._counted(  # type: ignore[method-assign]
            Trace.__getitem__, "ipm.events_materialised"
        )
        for name in TRACE_ANALYSIS:
            setattr(Trace, name, self.trace_analysis.wrap(getattr(Trace, name)))
        # the ensemble analyses the driver calls, wrapped where the driver
        # looks them up: calls between ensembles functions stay unwrapped
        for name, obj in list(vars(fig_module).items()):
            if callable(obj) and getattr(obj, "__module__", "").startswith(
                "repro.ensembles"
            ):
                setattr(fig_module, name, self.ensembles_analysis.wrap(obj))

    def _counted(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def results(self) -> Dict[str, float]:
        """Counts, spans and per-layer self times of the traced figure."""
        out: Dict[str, float] = dict(self.counts)
        out["ipm.analysis_s"] = self.trace_analysis.seconds
        out["ensembles.analysis_s"] = self.ensembles_analysis.seconds
        stats = self.profiler.getstats()
        layer_s, unattributed = self_time_by_layer(stats)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s.get(layer, 0.0)
        out["host.unattributed_s"] = unattributed
        out["ipm.record_s"] = _inclusive_time(
            stats, os.path.join("ipm", "interceptor.py"), "IpmCollector.record"
        )
        return out


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def layer_of(code: Any, repro_dir: str) -> str:
    """The layer a profiled function belongs to.

    Returns one of :data:`LAYERS`; ``"other"`` for ``repro`` modules
    outside them; ``"bench"`` for this benchmark's own wrappers; and
    ``""`` for code outside ``repro`` (the standard library, numpy,
    builtins, dataclass-generated ``__init__`` from ``<string>``).
    """
    filename = getattr(code, "co_filename", "")
    if filename.startswith(_BENCH_DIR + os.sep):
        return "bench"
    if not filename.startswith(repro_dir + os.sep):
        return ""
    rel = filename[len(repro_dir) + 1:]
    if rel == os.path.join("iosys", "striping.py"):
        return "iosys.striping"
    pkg = rel.split(os.sep)[0]
    return pkg if pkg in LAYERS else "other"


def _key(code: Any) -> Hashable:
    # builtins are reported by name; code objects compare by content, and
    # every dataclass ``__init__`` is compiled from ``<string>``, so key them
    # by identity to keep distinct functions apart
    return code if isinstance(code, str) else id(code)


def self_time_by_layer(stats: List[Any]) -> Tuple[Dict[str, float], float]:
    """Fold profiled self time into layers.

    A ``repro`` function's self time belongs to its module's layer.  Self
    time outside ``repro`` is charged to the ``repro`` function that called
    it: first by the exact per-caller self time the profiler records for
    each call edge, then, through further non-``repro`` callers, in
    proportion to each edge's inclusive time.  Time whose chain reaches no
    layer, or a ``repro`` module outside the eight layers, is returned as
    unattributed.  The benchmark's own wrappers are instrumentation: their
    time and whatever is charged to them is dropped.
    """
    repro_dir = _repro_dir()
    layer: Dict[Hashable, str] = {}
    callers: Dict[Hashable, Dict[Hashable, List[float]]] = defaultdict(dict)
    self_s: Dict[Hashable, float] = defaultdict(float)
    for entry in stats:
        key = _key(entry.code)
        layer[key] = layer_of(entry.code, repro_dir)
        self_s[key] += entry.inlinetime
        for sub in entry.calls or ():
            edge = callers[_key(sub.code)].setdefault(key, [0.0, 0.0])
            edge[0] += sub.inlinetime
            edge[1] += sub.totaltime

    memo: Dict[Hashable, Dict[str, float]] = {}

    def upward(key: Hashable, visiting: set) -> Dict[str, float]:
        """How time arriving at ``key`` splits over layers."""
        owner = layer.get(key, "")
        if owner:
            return {owner: 1.0}
        if key in memo:
            return memo[key]
        ups = callers.get(key, {})
        norm = sum(edge[1] for edge in ups.values())
        if key in visiting or norm <= 0.0:
            return {"other": 1.0}
        visiting.add(key)
        split: Dict[str, float] = defaultdict(float)
        for caller, edge in ups.items():
            for owner, share in upward(caller, visiting).items():
                split[owner] += share * edge[1] / norm
        visiting.discard(key)
        memo[key] = split
        return split

    totals: Dict[str, float] = defaultdict(float)
    for key, seconds in self_s.items():
        owner = layer[key]
        if owner:
            totals[owner] += seconds
            continue
        ups = callers.get(key, {})
        weight = 0 if sum(edge[0] for edge in ups.values()) > 0.0 else 1
        norm = sum(edge[weight] for edge in ups.values())
        if norm <= 0.0:
            totals["other"] += seconds
            continue
        for caller, edge in ups.items():
            for owner, share in upward(caller, set()).items():
                totals[owner] += seconds * share * edge[weight] / norm
    totals.pop("bench", None)
    unattributed = totals.pop("other", 0.0)
    return dict(totals), unattributed


def _inclusive_time(stats: List[Any], file_suffix: str, qualname: str) -> float:
    for entry in stats:
        code = entry.code
        if (
            getattr(code, "co_qualname", None) == qualname
            and code.co_filename.endswith(file_suffix)
        ):
            return entry.totaltime
    return 0.0

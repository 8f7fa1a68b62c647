"""Trace event containers.

IPM-I/O "collects timestamped trace entries containing the libc call, its
arguments, and its duration".  :class:`TraceEvent` is one such entry;
:class:`Trace` is the merged, queryable collection for a run.

The container is column-oriented under the hood (plain lists appended
during the run, materialised to NumPy arrays on demand) so that a
10,240-task trace stays cheap to collect -- the "lightweight and scalable"
property the paper leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TraceEvent", "Trace", "DATA_OPS", "READ_OPS", "WRITE_OPS"]

DATA_OPS = ("read", "write", "pread", "pwrite")
READ_OPS = ("read", "pread")
WRITE_OPS = ("write", "pwrite")


@dataclass(frozen=True)
class TraceEvent:
    """One intercepted libc call."""

    rank: int
    op: str
    path: str
    fd: int
    offset: int
    size: int
    t_start: float
    duration: float
    phase: str = ""
    degraded: bool = False

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def rate(self) -> float:
        """Bytes per second (inf for zero-duration ops)."""
        if self.duration <= 0:
            return float("inf")
        return self.size / self.duration


class Trace:
    """Column-oriented event log with the filters the methodology needs."""

    _COLUMNS = (
        "rank",
        "op",
        "path",
        "fd",
        "offset",
        "size",
        "t_start",
        "duration",
        "phase",
        "degraded",
    )

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None):
        self._rank: List[int] = []
        self._op: List[str] = []
        self._path: List[str] = []
        self._fd: List[int] = []
        self._offset: List[int] = []
        self._size: List[int] = []
        self._t_start: List[float] = []
        self._duration: List[float] = []
        self._phase: List[str] = []
        self._degraded: List[bool] = []
        if events:
            for ev in events:
                self.append(ev)

    # -- collection --------------------------------------------------------
    def append(self, ev: TraceEvent) -> None:
        self._rank.append(ev.rank)
        self._op.append(ev.op)
        self._path.append(ev.path)
        self._fd.append(ev.fd)
        self._offset.append(ev.offset)
        self._size.append(ev.size)
        self._t_start.append(ev.t_start)
        self._duration.append(ev.duration)
        self._phase.append(ev.phase)
        self._degraded.append(ev.degraded)

    def record(
        self,
        rank: int,
        op: str,
        path: str,
        fd: int,
        offset: int,
        size: int,
        t_start: float,
        duration: float,
        phase: str = "",
        degraded: bool = False,
    ) -> None:
        """Append without constructing a TraceEvent (hot path)."""
        self._rank.append(rank)
        self._op.append(op)
        self._path.append(path)
        self._fd.append(fd)
        self._offset.append(offset)
        self._size.append(size)
        self._t_start.append(t_start)
        self._duration.append(duration)
        self._phase.append(phase)
        self._degraded.append(degraded)

    def extend(self, other: "Trace") -> None:
        for col in self._COLUMNS:
            getattr(self, f"_{col}").extend(getattr(other, f"_{col}"))

    def __len__(self) -> int:
        return len(self._op)

    def __iter__(self) -> Iterator[TraceEvent]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> TraceEvent:
        return TraceEvent(
            rank=self._rank[i],
            op=self._op[i],
            path=self._path[i],
            fd=self._fd[i],
            offset=self._offset[i],
            size=self._size[i],
            t_start=self._t_start[i],
            duration=self._duration[i],
            phase=self._phase[i],
            degraded=self._degraded[i],
        )

    # -- columns ------------------------------------------------------------
    @property
    def ranks(self) -> np.ndarray:
        return np.asarray(self._rank, dtype=np.int64)

    @property
    def ops(self) -> np.ndarray:
        return np.asarray(self._op, dtype=object)

    @property
    def sizes(self) -> np.ndarray:
        return np.asarray(self._size, dtype=np.int64)

    @property
    def offsets(self) -> np.ndarray:
        return np.asarray(self._offset, dtype=np.int64)

    @property
    def starts(self) -> np.ndarray:
        return np.asarray(self._t_start, dtype=np.float64)

    @property
    def durations(self) -> np.ndarray:
        return np.asarray(self._duration, dtype=np.float64)

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.durations

    @property
    def paths(self) -> np.ndarray:
        return np.asarray(self._path, dtype=object)

    @property
    def fds(self) -> np.ndarray:
        return np.asarray(self._fd, dtype=np.int64)

    @property
    def phases(self) -> np.ndarray:
        return np.asarray(self._phase, dtype=object)

    @property
    def degraded_flags(self) -> np.ndarray:
        return np.asarray(self._degraded, dtype=bool)

    # -- filters ------------------------------------------------------------
    def _mask_select(self, mask: np.ndarray) -> "Trace":
        # ``compress`` walks each column once in C against a list of bool
        # singletons: no per-row index objects, no per-row Python step
        keep = mask.tolist()
        out = Trace()
        for col in self._COLUMNS:
            src = getattr(self, f"_{col}")
            getattr(out, f"_{col}").extend(compress(src, keep))
        return out

    def filter(
        self,
        ops: Optional[Sequence[str]] = None,
        ranks: Optional[Sequence[int]] = None,
        phase: Optional[str] = None,
        path: Optional[str] = None,
        min_size: Optional[int] = None,
        max_size: Optional[int] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> "Trace":
        mask = np.ones(len(self), dtype=bool)
        if ops is not None:
            opset = set(ops)
            mask &= np.fromiter(
                (o in opset for o in self._op), dtype=bool, count=len(self)
            )
        if ranks is not None:
            rset = set(ranks)
            mask &= np.fromiter(
                (r in rset for r in self._rank), dtype=bool, count=len(self)
            )
        if phase is not None:
            mask &= np.fromiter(
                (p == phase for p in self._phase), dtype=bool, count=len(self)
            )
        if path is not None:
            mask &= np.fromiter(
                (p == path for p in self._path), dtype=bool, count=len(self)
            )
        if min_size is not None:
            mask &= self.sizes >= min_size
        if max_size is not None:
            mask &= self.sizes <= max_size
        if t_min is not None:
            mask &= self.starts >= t_min
        if t_max is not None:
            mask &= self.starts < t_max
        return self._mask_select(mask)

    def reads(self) -> "Trace":
        return self.filter(ops=READ_OPS)

    def writes(self) -> "Trace":
        return self.filter(ops=WRITE_OPS)

    def data_ops(self) -> "Trace":
        return self.filter(ops=DATA_OPS)

    # -- summaries ------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes moved by data ops.  Non-data events reuse the ``size``
        column for other payloads (``retry`` stores the resend count), so
        the sum is restricted to reads and writes."""
        if not len(self):
            return 0
        sub = self.data_ops()
        return int(sub.sizes.sum()) if len(sub) else 0

    @property
    def t_first(self) -> float:
        return float(self.starts.min()) if len(self) else 0.0

    @property
    def t_last(self) -> float:
        return float(self.ends.max()) if len(self) else 0.0

    @property
    def span(self) -> float:
        return self.t_last - self.t_first if len(self) else 0.0

    def phase_names(self) -> List[str]:
        """Distinct phase labels in order of first appearance."""
        seen: Dict[str, None] = {}
        for p in self._phase:
            if p not in seen:
                seen[p] = None
        return list(seen)

    def by_phase(self) -> Dict[str, "Trace"]:
        return {p: self.filter(phase=p) for p in self.phase_names()}

    def per_rank_totals(self, nranks: Optional[int] = None) -> np.ndarray:
        """Sum of durations per rank (the t_k of the LLN analysis)."""
        ranks = self.ranks
        n = int(nranks if nranks is not None else (ranks.max() + 1 if len(ranks) else 0))
        out = np.zeros(n, dtype=float)
        np.add.at(out, ranks, self.durations)
        return out

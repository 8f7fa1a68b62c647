"""Localising a misbehaving storage target from trace ensembles.

An extension of the paper's methodology to a classic operations problem:
one OST in the pool is sick (degraded RAID rebuild, failing disk) and
every I/O that touches it lands in a slow mode.  The trace alone cannot
name the device -- but the *file layout* is known to the analyst (it is
how the file was created), so each event's byte extent maps to the OSTs
that served it.  Grouping the event ensemble by serving OST turns the
anonymous slow mode into a device indictment.

This is "from events to ensembles" applied per device: the per-OST
ensembles of a healthy pool are statistically indistinguishable; a sick
OST's ensemble separates cleanly.

:func:`find_slow_osts` indicts a device that is slow for the *whole* run
(the static fault).  :func:`find_transient_faults` extends the idea along
the time axis: a device that is only slow inside one contiguous window --
and healthy on either side -- is a *transient* fault (a stall, a rebuild
that finished), and the analysis reports the window as well as the
device, so the verdict can be checked against operator logs.
:func:`find_averted_faults` names the device a redundant placement
(mirror failover, erasure-coded rebuild) steered around, from the
meta-events the steering left behind.

Every finder takes the file's :class:`~repro.iosys.striping.Placement`.
Slow and transient events are attributed to its full footprint (every
copy, data and parity unit the op touched); averted events to its data
``layout``, the units the client could not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple

import numpy as np

from ..ipm.events import DATA_OPS, Trace
from ..iosys.striping import Placement
from .distribution import EmpiricalDistribution

__all__ = [
    "AVERTED_CODES",
    "OstSuspect",
    "TransientFault",
    "AvertedFault",
    "ost_ensembles",
    "find_slow_osts",
    "find_transient_faults",
    "find_averted_faults",
]

#: meta-event a redundant placement leaves when it steers around a device
#: -> the diagnosis code of the fault it averted
AVERTED_CODES: Dict[str, str] = {
    "failover": "failover-masked-fault",
    "degraded-read": "ec-degraded",
}


@dataclass(frozen=True)
class OstSuspect:
    """One OST's verdict from the scan."""

    ost: int
    n_events: int
    median: float
    pool_median: float
    slowdown: float  # median / pool-of-others median
    is_suspect: bool


def ost_ensembles(
    trace: Trace, layout: Placement, ops: Tuple[str, ...] = ("write", "pwrite")
) -> Dict[int, EmpiricalDistribution]:
    """Group per-event durations by the OSTs that served each event.

    Events are *normalised to seconds-per-byte* before grouping so mixed
    transfer sizes share an axis, then attributed to every OST their
    extent touches (an event that straddles a sick OST is slowed even if
    most of its bytes went elsewhere -- exactly why attribution must be
    to all touched OSTs, not the majority one).
    """
    sub = trace.filter(ops=list(ops))
    buckets: Dict[int, List[float]] = {}
    for offset, size, duration in zip(
        sub.offsets, sub.sizes, sub.durations
    ):
        if size <= 0 or duration <= 0:
            continue
        per_byte = duration / size
        for ost in layout.bytes_per_ost(int(offset), int(size)):
            buckets.setdefault(ost, []).append(per_byte)
    return {
        ost: EmpiricalDistribution(vals)
        for ost, vals in buckets.items()
        if len(vals) >= 3
    }


def find_slow_osts(
    trace: Trace,
    layout: Placement,
    ops: Tuple[str, ...] = ("write", "pwrite"),
    threshold: float = 2.0,
) -> List[OstSuspect]:
    """Scan for OSTs whose ensemble is shifted ``threshold``x slower than
    the rest of the pool.  Returns every OST's verdict, suspects first.
    """
    ensembles = ost_ensembles(trace, layout, ops)
    if not ensembles:
        return []
    medians = {ost: d.median for ost, d in ensembles.items()}
    out: List[OstSuspect] = []
    for ost, dist in ensembles.items():
        others = [m for o, m in medians.items() if o != ost]
        baseline = float(np.median(others)) if others else medians[ost]
        slowdown = medians[ost] / baseline if baseline > 0 else 1.0
        out.append(
            OstSuspect(
                ost=ost,
                n_events=dist.n,
                median=medians[ost],
                pool_median=baseline,
                slowdown=float(slowdown),
                is_suspect=bool(slowdown >= threshold),
            )
        )
    out.sort(key=lambda s: s.slowdown, reverse=True)
    return out


@dataclass(frozen=True)
class TransientFault:
    """A device that was sick for one contiguous stretch of the run."""

    code: ClassVar[str] = "transient-fault"

    ost: int
    t_start: float
    t_end: float
    #: median per-byte service time of the in-window slow events over the
    #: healthy pool median
    slowdown: float
    n_events: int
    #: resend count inside the window (0 when the trace has no retry
    #: meta-events; > 0 is direct evidence of a full stall)
    n_retries: int = 0


def find_transient_faults(
    trace: Trace,
    layout: Placement,
    ops: Tuple[str, ...] = DATA_OPS,
    threshold: float = 4.0,
    min_events: int = 3,
    max_span_fraction: float = 0.8,
) -> List[TransientFault]:
    """Localise time-windowed device faults from the event ensemble.

    Method: normalise every event to per-byte service time; events beyond
    ``threshold`` x the pool median are *flagged*.  Flagged events are
    attributed to every OST their extent touches.  A device is a transient
    suspect when

    - it collects at least ``min_events`` flagged events (``retry``
      meta-events -- client RPC resends recorded when the fault layer
      stalls an OST -- are direct evidence and count toward the floor),
    - their hull [earliest start, latest end] covers less than
      ``max_span_fraction`` of the trace (a device slow end-to-end is a
      *static* suspect -- :func:`find_slow_osts`'s job),
    - its in-window events are slow *relative to contemporaneous events
      on other devices* (a pool-wide slow mode -- cache-miss bimodality,
      a congested interconnect -- slows every device at once and is not
      a device fault), and
    - the device's events *outside* the hull look like the healthy pool
      (median within ``threshold/2`` x pool median), so the fault really
      switched off.
    """
    sub = trace.filter(ops=list(ops))
    if len(sub) == 0:
        return []
    offsets, sizes = sub.offsets, sub.sizes
    starts, ends = sub.starts, sub.ends
    durations = sub.durations
    ok = (sizes > 0) & (durations > 0)
    if ok.sum() < max(2 * min_events, 8):
        return []
    per_byte = np.where(ok, durations / np.maximum(sizes, 1), np.nan)
    pool_median = float(np.nanmedian(per_byte))
    if not (pool_median > 0):
        return []
    flagged = ok & (per_byte >= threshold * pool_median)

    retries = trace.filter(ops=["retry"])
    retry_by_ost: Dict[int, int] = {}
    retry_spans: Dict[int, List[Tuple[float, float]]] = {}
    for osts, r_count, r_t0, r_dur in zip(
        _annotated_osts(retries, sub, layout),
        retries.sizes, retries.starts, retries.durations,
    ):
        for ost in osts:
            retry_by_ost[ost] = retry_by_ost.get(ost, 0) + int(r_count)
            retry_spans.setdefault(ost, []).append(
                (float(r_t0), float(r_t0 + r_dur))
            )

    span = float(trace.span) or 1.0
    by_ost: Dict[int, List[int]] = {}
    for i in np.nonzero(flagged)[0]:
        for ost in layout.bytes_per_ost(int(offsets[i]), int(sizes[i])):
            by_ost.setdefault(ost, []).append(int(i))

    out: List[TransientFault] = []
    for ost in sorted(set(by_ost) | set(retry_spans)):
        idx = by_ost.get(ost, [])
        n_retries = retry_by_ost.get(ost, 0)
        if len(idx) + n_retries < min_events:
            continue
        hull = [(float(starts[i]), float(ends[i])) for i in idx]
        hull += retry_spans.get(ost, [])
        w0 = min(lo for lo, _ in hull)
        w1 = max(hi for _, hi in hull)
        if (w1 - w0) >= max_span_fraction * span:
            continue  # sick the whole run: static, not transient
        # slow relative to *contemporaneous* events on other devices?
        # (a pool-wide slow mode slows every OST at once -- not a fault)
        others: List[float] = []
        for j in range(len(sub)):
            if not ok[j] or ends[j] < w0 or starts[j] > w1:
                continue
            if ost not in layout.bytes_per_ost(int(offsets[j]), int(sizes[j])):
                others.append(float(per_byte[j]))
        if idx:
            in_window = float(np.median(per_byte[np.asarray(idx)]))
            if others and in_window < (threshold / 2.0) * np.median(others):
                continue
        # the device must look healthy outside the window
        outside: List[float] = []
        for j in range(len(sub)):
            if not ok[j] or (starts[j] >= w0 and ends[j] <= w1):
                continue
            if ost in layout.bytes_per_ost(int(offsets[j]), int(sizes[j])):
                outside.append(float(per_byte[j]))
        if outside and np.median(outside) > (threshold / 2.0) * pool_median:
            continue
        slowdown = (
            float(np.median(per_byte[np.asarray(idx)])) / pool_median
            if idx
            else float(threshold)
        )
        out.append(
            TransientFault(
                ost=ost,
                t_start=w0,
                t_end=w1,
                slowdown=slowdown,
                n_events=len(idx),
                n_retries=n_retries,
            )
        )
    out.sort(key=lambda f: (f.n_retries, f.slowdown), reverse=True)
    return out


@dataclass(frozen=True)
class AvertedFault:
    """A sick device whose tail cost a redundant placement absorbed.

    The dual of :class:`TransientFault`: when the client steers around a
    stalled OST -- failing over to a mirror copy, or rebuilding the read
    from the ``k`` survivors of an erasure-coded stripe group -- the
    device never shows up as slow events; the damage was *averted*, not
    suffered.  The evidence is the meta-events the steering left behind
    (``op``), each recording how many units it steered around (``size``:
    copies bypassed or stripe groups reconstructed) and the stall time
    it saved (``duration``).
    """

    ost: int
    #: the meta-event kind: ``"failover"`` or ``"degraded-read"``
    op: str
    #: data ops that steered around this device
    n_events: int
    #: copies bypassed or stripe groups reconstructed in total (>= n_events)
    n_units: int
    #: the largest single averted stall window (seconds) -- the tail time
    #: one ride-out on this device would have cost
    masked_time: float
    t_start: float
    t_end: float

    @property
    def code(self) -> str:
        return AVERTED_CODES[self.op]


def _annotated_osts(
    meta: Trace, data: Trace, layout: Placement
) -> List[Tuple[int, ...]]:
    """The OSTs of the data op each meta-event annotates.

    A meta-event shares (rank, offset) with its data op but reuses the
    ``size`` column for its own count, so the op's extent length is
    recovered from ``data`` and mapped through ``layout``."""
    extent_of = {
        (int(rank), int(off)): int(size)
        for rank, off, size in zip(data.ranks, data.offsets, data.sizes)
    }
    return [
        tuple(layout.bytes_per_ost(
            int(off), max(extent_of.get((int(rank), int(off)), 1), 1)
        ))
        for rank, off in zip(meta.ranks, meta.offsets)
    ]


def find_averted_faults(
    trace: Trace,
    placement: Placement,
    min_events: int = 1,
) -> List[AvertedFault]:
    """Localise the devices a redundant placement steered around.

    Each ``failover`` / ``degraded-read`` meta-event maps -- through the
    placement's data ``layout``, the primary copy the client abandoned or
    the data units it could not reach -- onto the OSTs it was routed away
    from.  Devices collecting at least ``min_events`` events of one kind
    are reported per kind, worst averted stall first.

    Overlapping ops all observe the same remaining stall window, so the
    per-device masked time is the *maximum* averted duration, not a sum
    (a sum would count one window once per bypassing op).
    """
    meta = trace.filter(ops=list(AVERTED_CODES))
    if len(meta) == 0:
        return []
    found: Dict[Tuple[str, int], AvertedFault] = {}
    for op, osts, count, t0, dur in zip(
        meta.ops,
        _annotated_osts(meta, trace.data_ops(), placement.layout),
        meta.sizes, meta.starts, meta.durations,
    ):
        start, end = float(t0), float(t0 + dur)
        for ost in osts:
            f = found.get((op, ost))
            f = f or AvertedFault(ost, op, 0, 0, 0.0, start, end)
            found[op, ost] = AvertedFault(
                ost=ost,
                op=op,
                n_events=f.n_events + 1,
                n_units=f.n_units + int(count),
                masked_time=max(f.masked_time, float(dur)),
                t_start=min(f.t_start, start),
                t_end=max(f.t_end, end),
            )
    out = [f for f in found.values() if f.n_events >= min_events]
    out.sort(key=lambda f: (f.masked_time, f.n_events), reverse=True)
    return out

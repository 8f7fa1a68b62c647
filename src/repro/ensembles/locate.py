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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ipm.events import DATA_OPS, Trace
from ..iosys.striping import Placement, StripeLayout
from .distribution import EmpiricalDistribution

__all__ = [
    "OstSuspect",
    "TransientFault",
    "MaskedFault",
    "RebuildPressure",
    "ost_ensembles",
    "find_slow_osts",
    "find_transient_faults",
    "find_masked_faults",
    "find_rebuild_pressure",
]


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
    trace: Trace, layout: StripeLayout, ops: Tuple[str, ...] = ("write", "pwrite")
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
    layout: StripeLayout,
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
    layout: StripeLayout,
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

    # extent length of each data op, keyed by (rank, offset), so retry
    # meta-events (whose ``size`` is the resend count) can be attributed
    # to every OST the stalled op's extent touches
    extent_of: Dict[Tuple[int, int], int] = {}
    for rank, off, size in zip(sub.ranks, offsets, sizes):
        extent_of[(int(rank), int(off))] = int(size)
    retries = trace.filter(ops=["retry"])
    retry_by_ost: Dict[int, int] = {}
    retry_spans: Dict[int, List[Tuple[float, float]]] = {}
    for r_rank, r_off, r_count, r_t0, r_dur in zip(
        retries.ranks, retries.offsets, retries.sizes,
        retries.starts, retries.durations,
    ):
        length = extent_of.get((int(r_rank), int(r_off)), 1)
        for ost in layout.bytes_per_ost(int(r_off), max(length, 1)):
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
class MaskedFault:
    """A sick device whose tail cost replica failover absorbed.

    The dual of :class:`TransientFault`: with client-side failover the
    stalled OST never shows up as slow events -- the damage was *averted*,
    not suffered.  The evidence is the trace's ``failover`` meta-events,
    each recording how many copies an op steered around (``size``) and
    the stall time the steer saved (``duration``).  Attributing them to
    the failing op's **primary** extent placement names the device the
    clients were routing around.
    """

    ost: int
    #: data ops that steered around this device
    n_events: int
    #: replica copies bypassed in total (>= n_events)
    n_failovers: int
    #: the largest single averted stall window (seconds) -- the tail time
    #: one ride-out on this device would have cost
    masked_time: float
    t_start: float
    t_end: float


def find_masked_faults(
    trace: Trace,
    layout: StripeLayout,
    min_events: int = 1,
) -> List[MaskedFault]:
    """Localise the devices that client failover steered around.

    Each ``failover`` meta-event shares (rank, offset) with the data op it
    annotates, so the op's extent length is recoverable from the data
    stream and the event maps -- through the *primary* layout, the copy
    the client abandoned -- onto the OSTs it was routed away from.
    Devices collecting at least ``min_events`` such events are reported,
    worst averted stall first.

    Overlapping ops all observe the same remaining stall window, so the
    per-device masked time is the *maximum* averted duration, not a sum
    (a sum would count one window once per bypassing op).
    """
    fos = trace.filter(ops=["failover"])
    if len(fos) == 0:
        return []
    sub = trace.data_ops()
    extent_of: Dict[Tuple[int, int], int] = {}
    for rank, off, size in zip(sub.ranks, sub.offsets, sub.sizes):
        extent_of[(int(rank), int(off))] = int(size)

    n_events: Dict[int, int] = {}
    n_failovers: Dict[int, int] = {}
    masked: Dict[int, float] = {}
    spans: Dict[int, List[Tuple[float, float]]] = {}
    for f_rank, f_off, f_count, f_t0, f_dur in zip(
        fos.ranks, fos.offsets, fos.sizes, fos.starts, fos.durations
    ):
        length = extent_of.get((int(f_rank), int(f_off)), 1)
        for ost in layout.bytes_per_ost(int(f_off), max(length, 1)):
            n_events[ost] = n_events.get(ost, 0) + 1
            n_failovers[ost] = n_failovers.get(ost, 0) + int(f_count)
            masked[ost] = max(masked.get(ost, 0.0), float(f_dur))
            spans.setdefault(ost, []).append(
                (float(f_t0), float(f_t0 + f_dur))
            )

    out: List[MaskedFault] = []
    for ost, count in n_events.items():
        if count < min_events:
            continue
        hull = spans[ost]
        out.append(
            MaskedFault(
                ost=ost,
                n_events=count,
                n_failovers=n_failovers[ost],
                masked_time=masked[ost],
                t_start=min(lo for lo, _ in hull),
                t_end=max(hi for _, hi in hull),
            )
        )
    out.sort(key=lambda f: (f.masked_time, f.n_events), reverse=True)
    return out


@dataclass(frozen=True)
class RebuildPressure:
    """A lost device whose reads erasure coding served by reconstruction.

    The erasure-coded sibling of :class:`MaskedFault`: with k+m placement
    a stalled data device costs one detection timeout, after which every
    read touching it is rebuilt from the ``k`` survivors of its stripe
    group -- the stall never shows up as slow events, but each rebuild
    leaves a ``degraded-read`` meta-event (``size`` = stripe groups
    reconstructed, ``duration`` = the stall time the rebuild averted).
    Attributing those through the file's *data* placement names the
    device the survivors were rebuilding, and the group counts measure
    the fan-out load the rebuild spread over the rest of the pool.
    """

    ost: int
    #: reads served degraded that touched this device
    n_events: int
    #: stripe groups reconstructed in total (>= n_events)
    n_groups: int
    #: the largest single averted stall window (seconds)
    masked_time: float
    t_start: float
    t_end: float


def find_rebuild_pressure(
    trace: Trace,
    layout: Placement,
    min_events: int = 1,
) -> List[RebuildPressure]:
    """Localise the devices degraded erasure-coded reads rebuilt around.

    Each ``degraded-read`` meta-event shares (rank, offset) with the data
    op it annotates, so the op's extent length is recoverable from the
    data stream and the event maps -- through the *data* placement, the
    units the client could not reach -- onto the candidate lost devices.
    ``layout`` is the file's placement (a plain :class:`StripeLayout` is
    one); its data ``layout`` is used.  Devices collecting at least
    ``min_events`` such events are reported, worst averted stall first.

    Like :func:`find_masked_faults`, overlapping ops observe the same
    remaining stall window, so per-device masked time is the *maximum*
    averted duration, not a sum.
    """
    data_layout = layout.layout
    drs = trace.filter(ops=["degraded-read"])
    if len(drs) == 0:
        return []
    sub = trace.data_ops()
    extent_of: Dict[Tuple[int, int], int] = {}
    for rank, off, size in zip(sub.ranks, sub.offsets, sub.sizes):
        extent_of[(int(rank), int(off))] = int(size)

    n_events: Dict[int, int] = {}
    n_groups: Dict[int, int] = {}
    masked: Dict[int, float] = {}
    spans: Dict[int, List[Tuple[float, float]]] = {}
    for d_rank, d_off, d_count, d_t0, d_dur in zip(
        drs.ranks, drs.offsets, drs.sizes, drs.starts, drs.durations
    ):
        length = extent_of.get((int(d_rank), int(d_off)), 1)
        for ost in data_layout.bytes_per_ost(int(d_off), max(length, 1)):
            n_events[ost] = n_events.get(ost, 0) + 1
            n_groups[ost] = n_groups.get(ost, 0) + int(d_count)
            masked[ost] = max(masked.get(ost, 0.0), float(d_dur))
            spans.setdefault(ost, []).append(
                (float(d_t0), float(d_t0 + d_dur))
            )

    out: List[RebuildPressure] = []
    for ost, count in n_events.items():
        if count < min_events:
            continue
        hull = spans[ost]
        out.append(
            RebuildPressure(
                ost=ost,
                n_events=count,
                n_groups=n_groups[ost],
                masked_time=masked[ost],
                t_start=min(lo for lo, _ in hull),
                t_end=max(hi for _, hi in hull),
            )
        )
    out.sort(key=lambda f: (f.masked_time, f.n_events), reverse=True)
    return out

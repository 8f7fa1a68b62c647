"""Ground-truth oracle: score client-side diagnosis against server truth.

The paper's premise is that client-side event ensembles alone can name a
server-side culprit.  The simulator can finally *grade* that claim: with
``MachineConfig.telemetry`` on, every run exports a
:class:`~repro.iosys.telemetry.TelemetryTimeline` carrying the injected
fault schedule, the static slowdown map, and the per-device counters the
storage side actually recorded.  This module cross-checks each
client-inferred verdict -- :func:`~repro.ensembles.diagnose.diagnose`
findings and :mod:`~repro.ensembles.locate` suspects -- against that
truth, per device and per window:

- **CONFIRMED**  -- the named device really was faulted (or statically
  slow) inside the reported window, and the server-side counters
  corroborate the mechanism (retries / stale bytes / reconstruction
  traffic where the finding claims them).
- **CONTRADICTED** -- the named device has no overlapping fault of the
  right kind (a mis-attribution), or the finding claims a fault on a
  provably healthy pool.
- **UNVERIFIED** -- the oracle holds no server-side truth for this
  finding kind (workload-shape findings like ``harmonic-modes``), or the
  finding named no device and no fault window overlaps to judge it by.

A device-less finding (``evidence["device"] == -1``) is judged at window
granularity only: the oracle checks some fault of the right kind overlaps
the reported window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..iosys.faults import DEGRADE, STALL
from ..iosys.health import QUARANTINE, READMIT, REBUILD, SHED, HealAction
from ..iosys.telemetry import TelemetryTimeline
from .diagnose import Finding
from .locate import AvertedFault, OstSuspect, TransientFault

__all__ = [
    "CONFIRMED",
    "CONTRADICTED",
    "UNVERIFIED",
    "OracleVerdict",
    "OracleReport",
    "verify_findings",
    "verify_finding",
    "verify_healing",
    "verify_interference",
    "verify_slow_osts",
    "verify_located",
]

CONFIRMED = "CONFIRMED"
CONTRADICTED = "CONTRADICTED"
UNVERIFIED = "UNVERIFIED"

#: slack (seconds) granted around a client-reported window: detection
#: timeouts and backoff stretch the *observed* window past the injected
#: one, and the client cannot see a fault's tail once it steers away
WINDOW_SLACK = 2.0

#: which injected fault kinds make each client verdict "true"
_TRUTH_KINDS: Dict[str, Tuple[str, ...]] = {
    "transient-fault": (STALL, DEGRADE),
    "failover-masked-fault": (STALL,),
    "ec-degraded": (STALL,),
    # self-healing control actions: a quarantine (and the rebuild it
    # triggers) is "true" when the device really was stalled or degraded
    # inside the action's window
    "heal-quarantine": (STALL, DEGRADE),
    "heal-rebuild": (STALL, DEGRADE),
}


@dataclass(frozen=True)
class OracleVerdict:
    """One client claim scored against the server's truth."""

    code: str
    verdict: str  # CONFIRMED / CONTRADICTED / UNVERIFIED
    #: device the client named (None when the finding was device-less)
    device: Optional[int]
    #: devices the server actually faulted inside the (slackened) window
    truth_devices: Tuple[int, ...]
    t_start: float
    t_end: float
    #: named device is in the truth set (None when device-less)
    device_match: Optional[bool]
    #: the claimed window overlaps a real fault on the relevant device(s)
    window_match: Optional[bool]
    #: seconds of real fault time inside the claimed window
    overlap: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - presentation
        where = "pool" if self.device is None else f"OST {self.device}"
        return f"[{self.verdict}] {self.code} @ {where}: {self.detail}"


@dataclass(frozen=True)
class OracleReport:
    """Every scored claim from one cross-check, worst verdicts first."""

    verdicts: Tuple[OracleVerdict, ...]

    @property
    def n_confirmed(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == CONFIRMED)

    @property
    def n_contradicted(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == CONTRADICTED)

    @property
    def n_unverified(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == UNVERIFIED)

    @property
    def all_confirmed(self) -> bool:
        """True when every scorable claim was confirmed (and at least one
        was scored)."""
        scored = [v for v in self.verdicts if v.verdict != UNVERIFIED]
        return bool(scored) and all(
            v.verdict == CONFIRMED for v in scored
        )

    @property
    def contradictions(self) -> Tuple[OracleVerdict, ...]:
        return tuple(
            v for v in self.verdicts if v.verdict == CONTRADICTED
        )

    def format(self) -> str:
        lines = [
            f"oracle: {self.n_confirmed} confirmed, "
            f"{self.n_contradicted} contradicted, "
            f"{self.n_unverified} unverified"
        ]
        for v in self.verdicts:
            where = "pool" if v.device is None else f"OST {v.device}"
            lines.append(
                f"  [{v.verdict:12s}] {v.code:22s} {where:8s} "
                f"[{v.t_start:6.1f}s, {v.t_end:6.1f}s]  {v.detail}"
            )
        return "\n".join(lines)


_ORDER = {CONTRADICTED: 0, UNVERIFIED: 1, CONFIRMED: 2}


def _report(verdicts: List[OracleVerdict]) -> OracleReport:
    verdicts.sort(key=lambda v: _ORDER[v.verdict])
    return OracleReport(verdicts=tuple(verdicts))


def _unverified(
    code: str,
    t0: float,
    t1: float,
    detail: str,
    device: Optional[int] = None,
) -> OracleVerdict:
    return OracleVerdict(
        code=code,
        verdict=UNVERIFIED,
        device=device,
        truth_devices=(),
        t_start=t0,
        t_end=t1,
        device_match=None,
        window_match=None,
        overlap=0.0,
        detail=detail,
    )


def _claim(
    evidence: Dict[str, float], timeline: TelemetryTimeline
) -> Tuple[Optional[int], float, float]:
    """The device (None when device-less) and window a finding claims."""
    raw_dev = evidence.get("device", -1.0)
    device = None if raw_dev is None or raw_dev < 0 else int(raw_dev)
    t0 = float(evidence.get("t_start", 0.0))
    t1 = float(evidence.get("t_end", timeline.span))
    return device, t0, t1


# -- the per-claim check --------------------------------------------------------

def _judge(
    timeline: TelemetryTimeline,
    code: str,
    device: Optional[int],
    t0: float,
    t1: float,
    slack: float,
) -> OracleVerdict:
    """Score one device/window claim against the fault schedule."""
    kinds = _TRUTH_KINDS[code]
    lo, hi = t0 - slack, t1 + slack
    truth = timeline.faulted_devices(lo, hi, kinds)
    # a statically slow device is a legitimate transient-fault culprit
    # too (a rebuild that outlasted the run looks identical client-side)
    static = timeline.slow_devices() if code == "transient-fault" else ()

    if device is None:
        window_match = bool(truth) or bool(static)
        if window_match:
            return OracleVerdict(
                code=code,
                verdict=CONFIRMED,
                device=None,
                truth_devices=truth,
                t_start=t0,
                t_end=t1,
                device_match=None,
                window_match=True,
                overlap=max(
                    (timeline.fault_overlap(d, lo, hi, kinds) for d in truth),
                    default=0.0,
                ),
                detail=(
                    f"window overlaps real {'/'.join(kinds)} on "
                    f"device(s) {list(truth) or list(static)}"
                ),
            )
        return OracleVerdict(
            code=code,
            verdict=CONTRADICTED,
            device=None,
            truth_devices=(),
            t_start=t0,
            t_end=t1,
            device_match=None,
            window_match=False,
            overlap=0.0,
            detail="no injected fault overlaps the claimed window",
        )

    device_match = device in truth or device in static
    overlap = timeline.fault_overlap(device, lo, hi, kinds)
    window_match = overlap > 0.0 or device in static
    if device_match and window_match:
        src = (
            f"{overlap:.2f}s of scheduled fault inside the window"
            if overlap > 0.0
            else "statically slowed for the whole run"
        )
        return OracleVerdict(
            code=code,
            verdict=CONFIRMED,
            device=device,
            truth_devices=truth,
            t_start=t0,
            t_end=t1,
            device_match=True,
            window_match=True,
            overlap=overlap,
            detail=f"device and window agree with server truth ({src})",
        )
    if not device_match:
        detail = (
            f"server faulted {list(truth)} in this window, not "
            f"OST {device}"
            if truth
            else f"server injected no fault on OST {device} (healthy)"
        )
    else:
        detail = (
            f"OST {device} is a real culprit but its fault never "
            f"overlaps [{t0:.1f}s, {t1:.1f}s]"
        )
    return OracleVerdict(
        code=code,
        verdict=CONTRADICTED,
        device=device,
        truth_devices=truth,
        t_start=t0,
        t_end=t1,
        device_match=device_match,
        window_match=window_match,
        overlap=overlap,
        detail=detail,
    )


# -- diagnose() findings --------------------------------------------------------

def verify_finding(
    finding: Finding,
    timeline: TelemetryTimeline,
    slack: float = WINDOW_SLACK,
) -> OracleVerdict:
    """Score one :func:`~repro.ensembles.diagnose.diagnose` finding.

    Findings whose kind carries no server-side truth (workload-shape
    diagnostics) come back UNVERIFIED.
    """
    if finding.code not in _TRUTH_KINDS:
        return _unverified(
            finding.code, 0.0, timeline.span,
            "no server-side ground truth for this finding kind",
        )
    device, t0, t1 = _claim(finding.evidence, timeline)
    return _judge(timeline, finding.code, device, t0, t1, slack)


def verify_findings(
    findings: Sequence[Finding],
    timeline: TelemetryTimeline,
    slack: float = WINDOW_SLACK,
) -> OracleReport:
    """Score every fault-kind finding from one diagnosis pass."""
    return _report(
        [verify_finding(f, timeline, slack) for f in findings]
    )


# -- locate.py suspects ---------------------------------------------------------

def verify_slow_osts(
    suspects: Sequence[OstSuspect],
    timeline: TelemetryTimeline,
    min_factor: float = 2.0,
) -> OracleReport:
    """Score a static slow-OST scan: every *suspect* device must really
    carry a static slowdown (or a degrade window), and -- the direction
    client-side analysis cannot check itself -- every truly slow device
    must have been caught (a miss is a contradiction too)."""
    slow = set(timeline.slow_devices(min_factor))
    slow |= set(timeline.faulted_devices(0.0, timeline.span, (DEGRADE,)))
    verdicts: List[OracleVerdict] = []
    caught = set()
    for s in suspects:
        if not s.is_suspect:
            continue
        caught.add(s.ost)
        good = s.ost in slow
        verdicts.append(
            OracleVerdict(
                code="slow-ost",
                verdict=CONFIRMED if good else CONTRADICTED,
                device=s.ost,
                truth_devices=tuple(sorted(slow)),
                t_start=0.0,
                t_end=timeline.span,
                device_match=good,
                window_match=good,
                overlap=timeline.span if good else 0.0,
                detail=(
                    f"{s.slowdown:.1f}x ensemble shift matches the "
                    f"server's slow set"
                    if good
                    else f"suspect {s.slowdown:.1f}x shift but the server "
                    f"slowed {sorted(slow) or 'no devices'}"
                ),
            )
        )
    for missed in sorted(slow - caught):
        verdicts.append(
            OracleVerdict(
                code="slow-ost",
                verdict=CONTRADICTED,
                device=missed,
                truth_devices=tuple(sorted(slow)),
                t_start=0.0,
                t_end=timeline.span,
                device_match=False,
                window_match=False,
                overlap=0.0,
                detail="server slowed this device but the scan missed it",
            )
        )
    return _report(verdicts)


def verify_located(
    items: Sequence[Union[TransientFault, AvertedFault]],
    timeline: TelemetryTimeline,
    slack: float = WINDOW_SLACK,
) -> OracleReport:
    """Score located faults from :mod:`~repro.ensembles.locate`, each
    under its own finding ``code`` (one list may mix kinds)."""
    return _report(
        [
            _judge(timeline, it.code, it.ost, it.t_start, it.t_end, slack)
            for it in items
        ]
    )


# -- self-healing control actions ------------------------------------------------

def _readmit_verdict(
    timeline: TelemetryTimeline, act: HealAction
) -> OracleVerdict:
    """A readmission is correct iff the device really answers at the
    readmit instant: no stall/degrade window active on it (exact check
    against the half-open injected windows; no slack -- readmitting one
    tick inside a window is a real control error)."""
    d = act.device
    t = act.t_start
    active = [
        w for w in timeline.fault_windows
        if w.device == d and w.kind in (STALL, DEGRADE) and w.active_at(t)
    ]
    if not active:
        return OracleVerdict(
            code="heal-readmit",
            verdict=CONFIRMED,
            device=d,
            truth_devices=(),
            t_start=t,
            t_end=t,
            device_match=True,
            window_match=True,
            overlap=0.0,
            detail="device answers at readmission (no active fault window)",
        )
    w = active[0]
    return OracleVerdict(
        code="heal-readmit",
        verdict=CONTRADICTED,
        device=d,
        truth_devices=(d,) if d is not None else (),
        t_start=t,
        t_end=t,
        device_match=True,
        window_match=False,
        overlap=w.t_end - t,
        detail=(
            f"readmitted mid-{w.kind} window "
            f"[{w.t_start:.1f}s, {w.t_end:.1f}s)"
        ),
    )


def _shed_verdict(
    timeline: TelemetryTimeline, act: HealAction, slack: float
) -> OracleVerdict:
    """A shed (facility backpressure) is correct when the claimed
    saturation is corroborated by server truth: an injected fault window
    overlapping the shed (congestion with a scheduled root cause) or the
    server's own queues reaching the claimed threshold in the window."""
    t0 = act.t_start
    t1 = act.t_end if act.t_end is not None else timeline.span
    lo, hi = max(t0 - slack, 0.0), t1 + slack
    threshold = float(act.info.get("threshold", 0.0))
    fault = any(
        w.t_start < hi and lo < w.t_end for w in timeline.fault_windows
    )
    depth_truth = 0.0
    dt = timeline.dt
    mq = timeline.mds.get("mds_queue")
    if mq is not None and len(mq):
        b0 = max(int(lo // dt), 0)
        b1 = min(int(hi // dt), len(mq) - 1)
        if b1 >= b0:
            depth_truth = float(mq[b0:b1 + 1].max())
    qd = timeline.ost.get("queue_depth")
    if qd is not None and qd.size:
        b0 = max(int(lo // dt), 0)
        b1 = min(int(hi // dt), qd.shape[0] - 1)
        if b1 >= b0:
            depth_truth = max(depth_truth, float(qd[b0:b1 + 1].max()))
    queues = depth_truth >= threshold > 0.0
    if fault or queues:
        why = []
        if fault:
            why.append("a fault window overlaps the shed")
        if queues:
            why.append(
                f"server queues peaked at {depth_truth:.0f} "
                f">= threshold {threshold:.0f}"
            )
        return OracleVerdict(
            code="heal-shed",
            verdict=CONFIRMED,
            device=None,
            truth_devices=(),
            t_start=t0,
            t_end=t1,
            device_match=None,
            window_match=True,
            overlap=t1 - t0,
            detail="; ".join(why),
        )
    return OracleVerdict(
        code="heal-shed",
        verdict=CONTRADICTED,
        device=None,
        truth_devices=(),
        t_start=t0,
        t_end=t1,
        device_match=None,
        window_match=False,
        overlap=0.0,
        detail=(
            f"no fault overlaps the shed and server queues peaked at "
            f"{depth_truth:.0f} < threshold {threshold:.0f}"
        ),
    )


def verify_healing(
    actions: Sequence[HealAction],
    timeline: TelemetryTimeline,
    slack: float = WINDOW_SLACK,
) -> OracleReport:
    """Score every self-healing control action against server truth.

    - ``quarantine`` / ``rebuild``: the device must really have been
      stalled or degraded inside the action's (slackened) window --
      quarantining a healthy device is CONTRADICTED;
    - ``readmit``: the device must answer at the readmission instant
      (no slack: readmitting into a live window is a control error);
    - ``shed``: the claimed saturation must be corroborated -- an
      overlapping injected fault window, or server-side queue depths
      reaching the claimed threshold.

    An action still open at end of run (``t_end is None``) is judged on
    ``[t_start, timeline.span]``.
    """
    verdicts: List[OracleVerdict] = []
    for act in actions:
        t0 = act.t_start
        t1 = act.t_end if act.t_end is not None else timeline.span
        if act.kind in (QUARANTINE, REBUILD):
            code = (
                "heal-quarantine" if act.kind == QUARANTINE
                else "heal-rebuild"
            )
            verdicts.append(
                _judge(timeline, code, act.device, t0, t1, slack)
            )
        elif act.kind == READMIT:
            verdicts.append(_readmit_verdict(timeline, act))
        elif act.kind == SHED:
            verdicts.append(_shed_verdict(timeline, act, slack))
        else:
            verdicts.append(
                _unverified(
                    f"heal-{act.kind}", t0, t1,
                    "unknown healing action kind", device=act.device,
                )
            )
    return _report(verdicts)


# -- cross-tenant interference attributions -------------------------------------

def _interference_verdict(
    finding: Finding,
    timeline: TelemetryTimeline,
    slack: float,
    min_share: float,
) -> OracleVerdict:
    ev = finding.evidence
    agg = int(ev.get("aggressor", -1))
    victim = int(ev.get("victim", -1))
    device, t0, t1 = _claim(ev, timeline)
    is_mds = bool(ev.get("mds", 0.0))
    lo, hi = t0 - slack, t1 + slack

    def verdict(kind: str, dm, wm, overlap: float, detail: str):
        return OracleVerdict(
            code=finding.code,
            verdict=kind,
            device=device,
            truth_devices=(device,) if device is not None and dm else (),
            t_start=t0,
            t_end=t1,
            device_match=dm,
            window_match=wm,
            overlap=overlap,
            detail=detail,
        )

    # residency: the ledger must show the accused tenant on the machine
    # inside the (slackened) window at all
    windows = [w for w in timeline.job_windows if w.tenant == agg]
    if agg not in timeline.tenants or not windows:
        return verdict(
            CONTRADICTED, None, False, 0.0,
            f"accused tenant {agg} is not in the facility's job ledger",
        )
    overlap = max(
        (min(w.t_end, hi) - max(w.t_start, lo) for w in windows),
        default=0.0,
    )
    if overlap <= 0.0:
        return verdict(
            CONTRADICTED, None, False, 0.0,
            f"tenant {agg} ({timeline.tenants[agg]}) was not resident "
            f"during [{t0:.1f}s, {t1:.1f}s]",
        )

    # dominance: the ledger's own counters must agree the accused tenant
    # dominated the contended resource among the victim's co-tenants
    others = [t for t in timeline.tenants if t != victim]
    if is_mds:
        load = {t: timeline.tenant_mds_ops(t, lo, hi) for t in others}
        resource = "MDS ops"
    elif device is not None:
        load = {
            t: timeline.tenant_device_bytes(t, device, lo, hi)
            for t in others
        }
        resource = f"bytes on OST {device}"
    else:
        load = {
            t: sum(
                timeline.tenant_device_bytes(t, d, lo, hi)
                for d in range(timeline.n_osts)
            )
            for t in others
        }
        resource = "pool bytes"
    total = sum(load.values())
    agg_load = load.get(agg, 0.0)
    share = agg_load / total if total > 0 else 0.0
    dominant = total > 0 and max(load, key=lambda t: load[t]) == agg
    if dominant and share >= min_share:
        return verdict(
            CONFIRMED, True if device is not None else None, True, overlap,
            f"ledger agrees: tenant {agg} ({timeline.tenants[agg]}) "
            f"issued {share:.0%} of co-tenant {resource} in the window",
        )
    truly = max(load, key=lambda t: load[t]) if total > 0 else None
    return verdict(
        CONTRADICTED, False if device is not None else None, True, overlap,
        f"ledger attributes only {share:.0%} of co-tenant {resource} to "
        f"tenant {agg}"
        + (
            f"; tenant {truly} ({timeline.tenants.get(truly, '?')}) "
            f"dominated instead"
            if truly is not None and truly != agg
            else ""
        ),
    )


def verify_interference(
    findings: Sequence[Finding],
    timeline: TelemetryTimeline,
    slack: float = WINDOW_SLACK,
    min_share: float = 0.5,
) -> OracleReport:
    """Score :func:`~repro.ensembles.diagnose.find_interference`
    attributions against the facility's server-side ledger.

    An attribution is CONFIRMED when the accused tenant (a) appears in
    the job-residency ledger overlapping the claimed window and (b) the
    per-tenant counters show it dominating the contended resource -- MDS
    ops for a metadata-storm claim, per-device bytes for a bandwidth
    claim -- with at least ``min_share`` of the co-tenant load.  Naming a
    tenant that was never resident, or one the counters show as a minor
    player, is CONTRADICTED.  Non-interference findings come back
    UNVERIFIED (use :func:`verify_findings` for fault-kind findings).
    """
    verdicts: List[OracleVerdict] = []
    for f in findings:
        if f.code != "cross-tenant-interference":
            verdicts.append(
                _unverified(
                    f.code, 0.0, timeline.span,
                    "not an interference attribution",
                )
            )
            continue
        verdicts.append(
            _interference_verdict(f, timeline, slack, min_share)
        )
    return _report(verdicts)

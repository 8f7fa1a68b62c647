"""Per-node Lustre client and the file-system bandwidth arbiter.

Bandwidth model (quasi-static fair share, recomputed per operation):

- Each OST sustains ``fs_bw / n_osts``; a *file* striped over
  ``stripe_count`` OSTs can move at most ``stripe_count * ost_rate`` in
  aggregate -- shared-file bandwidth depends on striping, and a handful of
  well-placed writers saturate the system (Section V: "as few as 80 tasks
  can saturate the I/O subsystem").
- That file bandwidth is shared equally among the *nodes* actively doing
  I/O to the file, capped by the node's client bandwidth and a per-task
  RPC-pipeline ceiling.

Node service discipline (the harmonic-mode mechanism of Figure 1c):

- Each node has an I/O *token semaphore*.  At the start of an I/O burst
  (node idle -> active) the client draws the token count from
  ``discipline_weights``: with one token, one task's operation runs at the
  full node share while its siblings wait, completing the node's k-th task
  at k*T/4 -- the R, R/4, R/2 peaks ("one task on the node (or two) took
  all the available I/O resources until it was done").

Write path: absorb into the page cache at memory speed up to the dirty
quota (Figure 1b's initial plateau), then throttle chunk-by-chunk through
the node channel; absorbed pages are flushed by a background process after
the writeback delay, which is what keeps memory pressure high during
MADbench's interleaved phase.  Read path: consult the read-ahead engine;
a widened strided window under pressure degrades to page-granular RPCs
(the Lustre bug of Section IV).

Extent-lock and read-modify-write penalties scale *quadratically* with the
number of active clients per OST: both the probability that someone else
owns the stripe and the queueing delay of the revocation round trip grow
with the client count -- the mechanism behind GCRM's slow unaligned
baseline.

Fault recovery (the time-varying fault layer of ``iosys/faults.py``):
every data op issues a synchronous RPC round (lock enqueue + bulk
request) against its serving OSTs before bytes move.  If a scheduled
``stall`` window covers one of them, that RPC is *lost* -- the recovering
OST discards its request queue -- so the reply never comes and the client
can only recover by timing out, aborting the stuck RPC
(:class:`~repro.sim.engine.Interrupt` into the waiting process) and
re-driving it.  ``MachineConfig.client_retry`` selects between the
adaptive exponential-backoff resend and the stock client's fixed
``rpc_resend_interval``; each abort/resend is counted as a retry event in
the trace.

Placement (``iosys/striping.py``'s :class:`~repro.iosys.striping.Placement`
contract): every file has one placement -- its plain stripe layout, a
:class:`~repro.iosys.replication.ReplicatedLayout` or an
:class:`~repro.iosys.erasure.ErasureCodedLayout` -- and the write path
treats all three alike: each of ``placement.copies`` receives the
payload, and a coded write additionally moves the parity (a
sub-stripe-group write pays the read-old-data + read-old-parity round on
top of the ``m``-unit parity mirror, a full-group write only the
``(k+m)/k`` wire amplification).  With ``MachineConfig.client_failover``
on, a stalled OST costs one detection timeout instead of the stall
window: the client distrusts the device until the next probe.  With more
than one copy, reads steer at a surviving copy (paying the degraded-read
surcharge) while writes skip the dead copy and mark it stale; each steer
is counted as a failover event in the trace.  With a code, a read whose
data device stalls is served *degraded*: the missing range is rebuilt by
fanning reads across the ``k`` survivors of each affected stripe group,
gathered and decoded on the server fabric, so the client still receives
only the payload bytes; each rebuild is counted as a degraded-read
event.  Both events carry the stall time the steer averted.  Otherwise
-- a plain file, or failover off -- the op rides the stall out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import Engine, Interrupt
from ..sim.resources import Semaphore, SlotChannel
from ..sim.rng import RngStreams
from .cache import PageCache
from .erasure import ErasureCodedLayout
from .machine import MachineConfig
from .mds import MetadataServer
from .ost import OstPool
from .readahead import ReadAheadEngine, ReadPlan

__all__ = ["FsArbiter", "LustreClient", "IoResult"]

#: quadratic contention coefficient (clients-per-OST -> penalty scale)
CONTENTION_COEFF = 0.15
#: an ownership change of a *fully covered* stripe is cheap: no flush-back
FULL_STRIPE_REVOKE_DISCOUNT = 0.2


@dataclass
class IoResult:
    """Per-operation diagnostics returned by the client to the VFS layer."""

    duration: float
    degraded: bool = False
    readahead_window: int = 0
    penalty: float = 0.0
    #: RPC resends forced by a stalled OST (0 on a healthy pool)
    retries: int = 0
    #: wallclock spent stuck behind the stall (waiting + backing off)
    stall_wait: float = 0.0
    #: replica copies this op steered around instead of re-driving (reads:
    #: 1 when served by a non-primary copy; writes: copies marked stale)
    failovers: int = 0
    #: stall time the steer *averted*: the worst remaining stall window
    #: among the bypassed copies at the moment of the switch
    masked_wait: float = 0.0
    #: True when a read was served degraded while some of its data was
    #: unreachable: from a surviving mirror copy, or rebuilt from the
    #: survivors of an erasure-coded stripe group
    reconstructed: bool = False
    #: stripe groups an erasure-coded read rebuilt from survivors (0 when
    #: the read was served from intact data units)
    reconstructions: int = 0


class FsArbiter:
    """Tracks which nodes are actively doing I/O to which file and hands
    out quasi-static bandwidth shares."""

    def __init__(self, config: MachineConfig, now_fn=None):
        self.config = config
        #: clock accessor for time-varying background load (set by IoSystem)
        self._now_fn = now_fn
        #: OST streaming rate implied by the aggregate figures
        self.ost_write_rate = config.fs_bw / config.n_osts
        self.ost_read_rate = config.fs_read_bw / config.n_osts
        #: file_id -> {node_id: refcount}
        self._active: Dict[int, Dict[int, int]] = {}
        #: per-task throughput ceiling (client-side RPC pipeline limit)
        self.task_bw = min(config.client_bw, 100.0 * 1024 * 1024)
        # -- cross-file OST sharing (multi-tenant machines only) ----------
        #: when on, concurrently active files *split* each OST's streaming
        #: rate instead of each seeing the full device -- the contention a
        #: shared facility's co-resident jobs inflict on each other.  Off
        #: by default: solo runs keep the original per-file model (and the
        #: golden digests pinning it).
        self._shared = False
        #: file_id -> the OSTs the file's stripes live on
        self._file_osts: Dict[int, tuple] = {}
        #: per-OST count of distinct files with active I/O
        self._ost_load = [0] * config.n_osts

    def enable_cross_file_sharing(self) -> None:
        self._shared = True

    def register_file(self, file_id: int, osts: tuple) -> None:
        """Declare where a file's stripes live (used only when cross-file
        sharing is on, but registration is always harmless)."""
        self._file_osts[file_id] = tuple(osts)

    def begin(self, file_id: int, node: int) -> bool:
        """Register an op; True when the node was idle on this file."""
        nodes = self._active.setdefault(file_id, {})
        first_on_file = not nodes
        nodes[node] = nodes.get(node, 0) + 1
        if first_on_file and self._shared:
            for o in self._file_osts.get(file_id, ()):
                self._ost_load[o] += 1
        return nodes[node] == 1

    def end(self, file_id: int, node: int) -> None:
        nodes = self._active.get(file_id)
        if not nodes or node not in nodes:
            raise RuntimeError("arbiter end without begin")
        nodes[node] -= 1
        if nodes[node] == 0:
            del nodes[node]
        if not nodes and self._shared:
            for o in self._file_osts.get(file_id, ()):
                self._ost_load[o] -= 1

    def active_nodes(self, file_id: int) -> int:
        return len(self._active.get(file_id, ()))

    def file_bw(self, stripe_count: int, read: bool = False) -> float:
        rate = self.ost_read_rate if read else self.ost_write_rate
        return stripe_count * rate

    def node_share(
        self, file_id: int, stripe_count: int, read: bool = False
    ) -> float:
        """Per-node share of the file's bandwidth right now.

        With cross-file sharing on, each of the file's OSTs contributes
        its streaming rate *divided by the number of files actively
        hammering it* -- a bandwidth-hog tenant striped over the pool
        shrinks everyone else's file bandwidth.
        """
        n = max(self.active_nodes(file_id), 1)
        osts = self._file_osts.get(file_id) if self._shared else None
        if osts:
            rate = self.ost_read_rate if read else self.ost_write_rate
            fbw = sum(rate / max(self._ost_load[o], 1) for o in osts)
        else:
            fbw = self.file_bw(stripe_count, read)
        share = min(self.config.client_bw, fbw / n)
        return share * self._available_fraction()

    def _available_fraction(self) -> float:
        if not self.config.background_load or self._now_fn is None:
            return 1.0
        return self.config.available_fraction(self._now_fn())

    def contention(self, file_id: int, stripe_count: int) -> float:
        """Lock/RMW penalty scale: grows with active clients per OST."""
        per_ost = self.active_nodes(file_id) / max(stripe_count, 1)
        return 1.0 + CONTENTION_COEFF * per_ost * per_ost


class LustreClient:
    """The I/O stack of one compute node."""

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        node_id: int,
        arbiter: FsArbiter,
        osts: OstPool,
        mds: MetadataServer,
        rng: RngStreams,
        writeback_delay: float = 30.0,
        tenant: int = 0,
    ):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.arbiter = arbiter
        self.osts = osts
        self.mds = mds
        self.rng = rng
        #: owning tenant on a shared (multi-tenant) machine; 0 = untagged
        self.tenant = tenant
        self.channel = SlotChannel(
            engine, bandwidth=config.client_bw, slots=config.tasks_per_node
        )
        self.cache = PageCache(
            engine,
            quota_per_task=config.dirty_quota,
            tasks_per_node=config.tasks_per_node,
            mem_bw=config.mem_bw,
            writeback_delay=writeback_delay,
        )
        self.readahead = ReadAheadEngine(config)
        self.token = Semaphore(
            engine, capacity=config.tasks_per_node, name=f"iotoken{node_id}"
        )
        self._slots = config.tasks_per_node
        self.writes = 0
        self.reads = 0
        #: RPC resends forced by stalled OSTs (fault-injection diagnostics)
        self.retry_events = 0
        #: ops that steered around an unreachable replica copy
        self.failover_events = 0
        #: erasure-coded reads served by survivor reconstruction
        self.reconstruction_events = 0
        #: client-side device health memory: OST -> time until which this
        #: node distrusts it (set by a timeout, cleared by the next probe)
        self._avoid: Dict[int, float] = {}
        #: facility-wide health monitor (repro.iosys.health), set by
        #: IoSystem when MachineConfig.heal is on; None otherwise.  Its
        #: quarantine set augments _avoid: one client's detection steers
        #: every client, without each node paying its own timeout.
        self.health = None

    def _sick(self, d: int) -> bool:
        """Device currently quarantined by the facility control plane."""
        h = self.health
        return h is not None and h.is_quarantined(d)

    # -- discipline -------------------------------------------------------
    def _resample_discipline(self) -> None:
        """Draw the burst's service concurrency; only takes effect when the
        node is idle (no holder, no waiter), like a real scheduler choosing
        an ordering as a burst begins."""
        if self.token._in_use > 0 or self.token.n_waiting > 0:
            return
        weights = self.config.discipline_weights
        options = sorted(weights)
        slots = int(
            self.rng.choice_weighted(
                f"node{self.node_id}/discipline",
                options,
                [weights[o] for o in options],
            )
        )
        self._slots = max(min(slots, self.config.tasks_per_node), 1)
        self.token.capacity = self._slots

    def _tune_channel(self, share: float) -> None:
        """Lane rate = min(per-task ceiling, share / concurrently serviced
        ops).  Uses the *actual* in-flight count so a lone writer on a node
        is not throttled to a quarter share."""
        active = max(min(self.token._in_use, self._slots), 1)
        lane = min(self.arbiter.task_bw, share / active)
        self.channel.bandwidth = lane * active
        self.channel.set_slots(active)

    # -- fault recovery ----------------------------------------------------
    #
    # A *unit* is a tuple of devices the client can lose as one: a mirror
    # copy's devices for the extent, or one coded data device.  The
    # primitives below partition units by reachability, pay the timeout
    # of a swallowed RPC, and remember which devices timed out.

    def _stall_end(self, devices):
        """End of the latest stall covering any of ``devices`` now."""
        sched = self.config.faults
        if sched is None:
            return None
        return sched.stall_end(self.engine.now, devices)

    def _partition(self, units):
        """Partition unit indices by reachability right now.

        Returns ``(healthy, avoided, fresh)``: *healthy* units' devices
        answer and are trusted; *avoided* units touch a device this node
        recently timed out on, or one the control plane quarantined
        (skipped at no new cost); *fresh* units are stalled but not yet
        diagnosed -- the client only learns that by paying a timeout.
        """
        now = self.engine.now
        healthy, avoided, fresh = [], [], []
        for i, devices in enumerate(units):
            if any(
                self._avoid.get(d, 0.0) > now or self._sick(d)
                for d in devices
            ):
                avoided.append(i)
            elif self._stall_end(devices) is not None:
                fresh.append(i)
            else:
                healthy.append(i)
        return healthy, avoided, fresh

    def _answering(self, units):
        """Unit indices whose devices actually answer right now, ignoring
        the client's distrust map (the desperate-poll view)."""
        return [i for i, devices in enumerate(units)
                if self._stall_end(devices) is None]

    def _stalled(self, devices):
        """The devices among ``devices`` a stall covers right now."""
        return [d for d in devices if self._stall_end((d,)) is not None]

    def _distrust(self, devices) -> None:
        """Remember the stalled ones among ``devices`` until the next
        probe (``failover_probe_interval`` from now)."""
        horizon = self.engine.now + self.config.failover_probe_interval
        for d in self._stalled(devices):
            self._avoid[d] = max(self._avoid.get(d, 0.0), horizon)

    def _masked_time(self, devices) -> float:
        """Stall time a steer around ``devices`` averts: their worst
        remaining stall window (0 once they recovered)."""
        end = self._stall_end(devices)
        return 0.0 if end is None else end - self.engine.now

    def _lost_round(self, attempt: int, devices):
        """Generator: one RPC round swallowed by a stalled device among
        ``devices``.  The client waits ``config.retry_wait(attempt)`` and
        aborts the stuck RPC process (:class:`Interrupt`); telemetry
        attributes the resend to the stalled devices."""
        tel = self.osts.telemetry
        stalled = self._stalled(devices) if tel is not None else ()
        if stalled:
            tel.record_retries(stalled)
        rpc = self.engine.process(self._lost_rpc(), name=f"rpc{self.node_id}")
        yield self.engine.timeout(self.config.retry_wait(attempt))
        rpc.interrupt("rpc-timeout")

    def _lost_rpc(self):
        """A bulk RPC swallowed by a stalled OST.  The reply never arrives
        (a recovering OST discards its request queue), so the only way this
        process ends is the issuing client aborting the wait."""
        try:
            yield self.engine.event()  # a reply that never comes
        except Interrupt:
            pass
        return None

    def _settle(self, retries: int, switched: bool = False):
        """Generator: the resend that got through pays the reconnect/
        replay trip, and an op that switched devices re-enqueues its
        extent locks on them."""
        if retries:
            yield self.engine.timeout(self.config.stall_replay_latency)
            if switched:
                yield self.engine.timeout(self.config.failover_latency)
        self.retry_events += retries

    def _ride_out_stall(self, placement, offset: int, nbytes: int):
        """Generator: recovery path for an op whose serving OST stalled.

        The op's first RPC round was swallowed by the stalled device, so
        the client times out, aborts and re-drives it -- repeatedly, until
        a resend lands outside every stall window.  Returns
        ``(resends, waited_seconds)``.
        """
        t0 = self.engine.now
        attempt = 0
        while self.osts.stall_until(
            placement, offset, nbytes, self.engine.now
        ) is not None:
            yield from self._lost_round(
                attempt, placement.bytes_per_ost(offset, nbytes)
            )
            attempt += 1
        yield from self._settle(attempt)
        return attempt, self.engine.now - t0

    # -- mirror failover ---------------------------------------------------
    #
    # With more than one copy and ``client_failover`` on, a stalled OST
    # no longer costs the stall window: the client times out *once*,
    # distrusts the device until the next probe, and steers the resend --
    # and every subsequent op -- at a surviving copy.  Only when every
    # copy of the extent is behind a stall does it fall back to polling.

    def _read_source(self, placement, offset: int, nbytes: int):
        """Generator: choose the copy a read is served from.

        The client tries the lowest-indexed copy it still trusts; if that
        copy's RPC is swallowed it times out, distrusts the device, and
        moves to the next copy.  With every copy distrusted or stalled it
        polls all of them with backoff until one answers.  Returns
        ``(copy_index, retries, waited, failovers, masked_wait)``.
        """
        units = [tuple(c.bytes_per_ost(offset, nbytes))
                 for c in placement.copies]
        t0 = self.engine.now
        retries = 0
        # averted stall is measured at each *decision* point -- once the
        # detection timeouts have been paid the window may already be over
        masked = 0.0
        while True:
            healthy, avoided, fresh = self._partition(units)
            if healthy or fresh:
                r = min(healthy + fresh)
                if r in healthy:
                    break
                # the preferred copy's RPC was swallowed: time out, abort,
                # distrust its devices, and try the next copy
                masked = max(masked, self._masked_time(units[r]))
                yield from self._lost_round(retries, units[r])
                retries += 1
                self._distrust(units[r])
                continue
            # every copy distrusted: probe reality (nothing else to try)
            answering = self._answering(units)
            if answering:
                r = answering[0]
                break
            yield from self._lost_round(
                retries, placement.bytes_per_ost(offset, nbytes)
            )
            retries += 1
        yield from self._settle(retries, switched=r != 0)
        if r != 0:
            self.failover_events += 1
        masked = max(
            masked, self._masked_time(d for u in units[:r] for d in u)
        )
        return r, retries, self.engine.now - t0, int(r != 0), masked

    def _mirror_write_targets(self, placement, offset: int, nbytes: int):
        """Generator: pick the copies a mirrored write will reach.

        Copies on distrusted devices are skipped outright and undiagnosed
        stalled copies cost one shared timeout round before being marked
        stale; the payload lands on whatever answers.  With every copy
        unreachable it polls all of them until one recovers.  Returns
        ``(copy_indices, retries, waited, failovers, masked_wait)``.
        """
        units = [tuple(c.bytes_per_ost(offset, nbytes))
                 for c in placement.copies]
        t0 = self.engine.now
        healthy, avoided, fresh = self._partition(units)
        retries = 0
        # averted stall at the decision point (see _read_source)
        masked = self._masked_time(d for i in fresh + avoided for d in units[i])
        if fresh:
            # RPCs to the undiagnosed copies were swallowed; one shared
            # timeout round diagnoses them all
            yield from self._lost_round(
                0, placement.bytes_per_ost(offset, nbytes)
            )
            retries += 1
            self._distrust(d for i in fresh for d in units[i])
        while not healthy:
            # every copy unreachable or distrusted: poll all of them with
            # backoff; the first device to recover takes the write
            healthy = self._answering(units)
            if not healthy:
                yield from self._lost_round(
                    retries, placement.bytes_per_ost(offset, nbytes)
                )
                retries += 1
        yield from self._settle(retries)
        skipped = [r for r in range(len(units)) if r not in healthy]
        masked = max(
            masked, self._masked_time(d for r in skipped for d in units[r])
        )
        if skipped:
            self.failover_events += 1
            stale_extents: Dict[int, int] = {}
            for r in skipped:
                for d, nb in placement.copies[r].bytes_per_ost(
                    offset, nbytes
                ).items():
                    stale_extents[d] = stale_extents.get(d, 0) + nb
            self.osts.mark_stale(len(skipped), nbytes, stale_extents)
        return healthy, retries, self.engine.now - t0, len(skipped), masked

    # -- erasure-coded degraded reads ---------------------------------------
    #
    # With k+m placement and ``client_failover`` on, a read whose data
    # device stalls costs one detection timeout and is then served
    # *degraded*: the missing range of each affected stripe group is
    # rebuilt from its k surviving units.  Only when some group has lost
    # more than m units does the client fall back to polling.

    def _ec_read_source(self, ec, offset: int, nbytes: int):
        """Generator: decide how an erasure-coded read is served.

        Stalled-but-undiagnosed data devices each cost one shared
        timeout round before being distrusted; once every sick device is
        diagnosed the client checks that each affected stripe group still
        holds ``k`` usable units and, if so, commits to the degraded
        read.  A group past the code's tolerance forces backoff polling
        until a device recovers (distrust expires at the probe horizon).
        Returns ``(lost_devices, avoid_devices, retries, waited,
        masked_wait)``.
        """
        data = sorted(ec.layout.bytes_per_ost(offset, nbytes))
        units = [(d,) for d in data]
        t0 = self.engine.now
        retries = 0
        # averted stall at each decision point (see _read_source)
        masked = 0.0
        while True:
            healthy, avoided, fresh = self._partition(units)
            if not avoided and not fresh:
                lost, avoid = (), ()
                break
            if fresh:
                # RPCs to the undiagnosed devices were swallowed; one
                # shared timeout round diagnoses them all
                masked = max(
                    masked, self._masked_time(data[i] for i in fresh + avoided)
                )
                yield from self._lost_round(retries, [data[i] for i in fresh])
                retries += 1
                self._distrust(data[i] for i in fresh)
                continue
            # every sick data device diagnosed: reconstructible?  The
            # rebuild must not read the lost devices nor any group member
            # (data *or* parity) that is distrusted or actually stalled
            lost = tuple(data[i] for i in avoided)
            members = [d for g in ec.groups_for(offset, nbytes)
                       for d in ec.group_osts(g)]
            _, bad, stalled = self._partition([(d,) for d in members])
            avoid = tuple(sorted(
                set(lost) | {members[i] for i in bad + stalled}
            ))
            try:
                ec.reconstruction_plan(offset, nbytes, lost, avoid)
            except ValueError:
                # some group lost more than m units: nothing to rebuild
                # from, poll with backoff until a device recovers
                yield from self._lost_round(
                    retries, ec.bytes_per_ost(offset, nbytes)
                )
                retries += 1
                continue
            break
        yield from self._settle(retries, switched=bool(lost))
        if lost:
            masked = max(masked, self._masked_time(lost))
        return lost, avoid, retries, self.engine.now - t0, masked

    # -- write path ------------------------------------------------------------
    def write(
        self, task, file, offset: int, nbytes: int, sync: bool = False
    ):
        """Generator: full write path.  Returns :class:`IoResult`.

        ``sync`` bypasses the page cache (O_SYNC / write-through), used by
        middleware that must not leave data in volatile cache.
        """
        cfg = self.config
        t0 = self.engine.now
        if self.health is not None:
            throttle = self.health.throttle_delay(self.tenant)
            if throttle > 0.0:
                yield self.engine.timeout(throttle)
        if self.arbiter.begin(file.file_id, self.node_id):
            self._resample_discipline()
        # queue-depth sampling over the op's full placement footprint
        # (mirror union / k+m group / plain stripes), inline: this runs
        # for every simulated transfer
        placement = file.placement
        tel = self.osts.telemetry
        if tel is not None:
            tel_devs = placement.osts_touched(offset, nbytes)
            tel.op_begin(tel_devs, self.tenant)
        else:
            tel_devs = ()
        # Let every same-timestamp peer register before shares are sampled.
        yield self.engine.timeout(0.0)
        yield self.token.acquire()
        try:
            copies = placement.copies
            retries, stall_wait, failovers, masked_wait = 0, 0.0, 0, 0.0
            if cfg.client_failover and len(copies) > 1:
                idx, retries, stall_wait, failovers, masked_wait = (
                    yield from self._mirror_write_targets(
                        placement, offset, nbytes
                    )
                )
                targets = written = tuple(copies[r] for r in idx)
            else:
                # the commit must reach every copy and parity unit, so
                # the op rides out any stall on the full footprint
                targets, written = copies, (placement,)
                if self.osts.stall_until(
                    placement, offset, nbytes, self.engine.now
                ) is not None:
                    retries, stall_wait = yield from self._ride_out_stall(
                        placement, offset, nbytes
                    )
            share = self.arbiter.node_share(
                file.file_id, file.layout.stripe_count
            )
            self._tune_channel(share)
            contention = self.arbiter.contention(
                file.file_id, file.layout.stripe_count
            )
            # every written copy pays its own RPCs and byte accounting,
            # a coded write its parity maintenance on top; the extent
            # lock is logical (per file), charged once
            penalty, parity_bytes = self.osts.placement_write_penalty(
                placement, targets, offset, nbytes, contention=contention,
                tenant=self.tenant,
            )
            if sync:
                penalty += cfg.sync_write_latency
            penalty += file.locks.write_penalty(
                self.node_id,
                file.layout,
                offset,
                nbytes,
                scale=contention,
                full_stripe_discount=FULL_STRIPE_REVOKE_DISCOUNT,
            )
            factor = self.osts.service_factor(
                f"node{self.node_id}/write", now=self.engine.now
            )
            # a mirrored (or parity-bearing) transfer completes when its
            # slowest written copy/unit does
            factor *= max(
                self.osts.slow_factor(lay, offset, nbytes, now=self.engine.now)
                for lay in written
            )
            # wire amplification: one chunk per written copy, plus the
            # parity share of an erasure-coded write
            fanout = len(targets)
            if parity_bytes:
                fanout += parity_bytes / nbytes
            remaining = nbytes
            while remaining > 0:
                absorbed = 0.0 if sync else self.cache.absorb(task, remaining)
                if absorbed > 0:
                    yield self.engine.timeout(absorbed / cfg.mem_bw)
                    self._schedule_writeback(task, absorbed, fanout)
                    remaining -= int(absorbed)
                else:
                    chunk = min(remaining, cfg.io_chunk)
                    # the wire carries one chunk per written copy
                    yield self.channel.transfer(chunk * fanout, factor)
                    remaining -= chunk
            if penalty > 0:
                yield self.engine.timeout(penalty * factor)
        finally:
            self.token.release()
            self.arbiter.end(file.file_id, self.node_id)
            if tel_devs:
                tel.op_end(tel_devs, self.tenant)
            if self.health is not None and tel_devs:
                self.health.observe_op(tel_devs, self.engine.now - t0)
        self.writes += 1
        return IoResult(
            duration=self.engine.now - t0,
            penalty=penalty,
            retries=retries,
            stall_wait=stall_wait,
            failovers=failovers,
            masked_wait=masked_wait,
        )

    def _schedule_writeback(
        self, task: int, nbytes: float, fanout: float = 1
    ) -> None:
        def _kick(_ev) -> None:
            self.cache.flushes += 1
            self.engine.process(
                self._bg_flush(task, nbytes, fanout), name=f"wb{self.node_id}"
            )

        tmo = self.engine.timeout(self.cache.writeback_delay)
        tmo.add_callback(_kick)

    def _bg_flush(self, task: int, nbytes: float, fanout: float = 1):
        """Background writeback: drain dirty pages chunk by chunk so quota
        frees gradually (steady-state throttling, not alternating bursts).
        ``fanout`` is the wire amplification at absorb time: the cache
        holds one copy of the payload but the wire carries one per written
        copy, plus the parity share of an erasure-coded write."""
        remaining = nbytes
        chunk_size = self.config.io_chunk
        while remaining > 0:
            chunk = min(remaining, chunk_size)
            yield self.channel.transfer(chunk * fanout)
            self.cache.mark_clean(task, chunk)
            remaining -= chunk
        return None

    # -- read path ------------------------------------------------------------
    def read(self, task, file, offset: int, nbytes: int):
        """Generator: full read path.  Returns :class:`IoResult`."""
        cfg = self.config
        t0 = self.engine.now
        if self.health is not None:
            throttle = self.health.throttle_delay(self.tenant)
            if throttle > 0.0:
                yield self.engine.timeout(throttle)
        if self.arbiter.begin(file.file_id, self.node_id):
            self._resample_discipline()
        placement = file.placement
        tel = self.osts.telemetry
        if tel is not None:
            tel_devs = placement.osts_touched(offset, nbytes)
            tel.op_begin(tel_devs, self.tenant)
        else:
            tel_devs = ()
        yield self.engine.timeout(0.0)
        # Read-ahead observes the stream in arrival order (before queueing).
        plan: ReadPlan = self.readahead.observe(
            task, file.file_id, offset, nbytes, self.cache.pressure()
        )
        yield self.token.acquire()
        try:
            # one recovery strategy, chosen from the placement's shape:
            # choose a mirror copy, rebuild coded data, or ride it out
            serving, lost, avoid = file.layout, (), ()
            retries, stall_wait, failovers, masked_wait = 0, 0.0, 0, 0.0
            if cfg.client_failover and len(placement.copies) > 1:
                r, retries, stall_wait, failovers, masked_wait = (
                    yield from self._read_source(placement, offset, nbytes)
                )
                serving = placement.copies[r]
            elif cfg.client_failover and isinstance(
                placement, ErasureCodedLayout
            ):
                lost, avoid, retries, stall_wait, masked_wait = (
                    yield from self._ec_read_source(placement, offset, nbytes)
                )
            elif self.osts.stall_until(
                file.layout, offset, nbytes, self.engine.now
            ) is not None:
                retries, stall_wait = yield from self._ride_out_stall(
                    file.layout, offset, nbytes
                )
            reconstructed = bool(failovers or lost)
            share = self.arbiter.node_share(
                file.file_id, file.layout.stripe_count, read=True
            )
            self._tune_channel(share)
            # the payload is always booked against the file's placement
            # (rebuilt bytes are still delivered to the caller); the
            # physical survivor traffic of a rebuild lands in recon_reads
            penalty = self.osts.read_penalty(
                serving, offset, nbytes, tenant=self.tenant
            )
            recon_groups = 0
            if lost:
                # data device(s) unreachable: rebuild their ranges from
                # the k survivors of each affected stripe group; the
                # fan-out is gathered and decoded server-side, so the
                # client wire below still carries only the payload
                ec_pen, _fanout, recon_groups = (
                    self.osts.ec_degraded_read_penalty(
                        placement, offset, nbytes, lost, avoid,
                        tenant=self.tenant,
                    )
                )
                penalty += ec_pen
                self.reconstruction_events += 1
            elif reconstructed:
                # the primary copy is unreachable: the extent is rebuilt
                # from the surviving replica at a per-RPC surcharge
                penalty += self.osts.degraded_read_penalty(
                    serving, offset, nbytes
                )
            factor = self.osts.service_factor(
                f"node{self.node_id}/read", now=self.engine.now
            )
            factor *= self.osts.slow_factor(
                serving, offset, nbytes, now=self.engine.now
            )
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, cfg.io_chunk)
                yield self.channel.transfer(chunk, factor)
                remaining -= chunk
            if plan.degraded:
                # The widened window cannot be backed by cache pages: the
                # transfer re-issues as page-granular RPCs.  Cost scales
                # with the window ramp and a heavy-tailed queueing factor
                # -- this is the 30..500 s read shoulder of Figure 4c.
                npages = max(nbytes // cfg.page_size, 1)
                page_noise = self.rng.lognormal_factor(
                    f"node{self.node_id}/pagestorm", 0.6, cap=3.0
                )
                penalty += (
                    npages * cfg.page_read_cost * plan.severity * page_noise
                )
            if penalty > 0:
                yield self.engine.timeout(penalty)
        finally:
            self.token.release()
            self.arbiter.end(file.file_id, self.node_id)
            if tel_devs:
                tel.op_end(tel_devs, self.tenant)
            if self.health is not None and tel_devs:
                self.health.observe_op(tel_devs, self.engine.now - t0)
        self.reads += 1
        return IoResult(
            duration=self.engine.now - t0,
            degraded=plan.degraded,
            readahead_window=plan.window,
            penalty=penalty,
            retries=retries,
            stall_wait=stall_wait,
            failovers=failovers,
            masked_wait=masked_wait,
            reconstructed=reconstructed,
            reconstructions=recon_groups,
        )

    # -- sync ------------------------------------------------------------------
    def sync(self, task):
        """Generator: wait until the node's dirty pages have drained."""
        yield self.cache.sync_event()
        return None

"""Differential equivalence harness: the engine's one dispatch loop IS
the single-heap formulation.

``Engine.run`` keeps future events in a heap and events due at ``now``
in a FIFO tail (see ``repro.sim.engine``).  ``tests/sim_reference.py``
keeps the simplest formulation of the same order, one ``(time, seq)``
heap, as :class:`ReferenceEngine`.  This harness is the proof
obligation that the two never disagree:

1. every committed golden scenario runs through both loops and must
   produce the committed digest byte-for-byte -- event stream, float
   timestamps, and telemetry timeline alike (parametrized over
   ``SCENARIOS``, so a newly committed golden is covered automatically);
2. the goldens hold with the sanitizer forced on, with zero races;
3. 3,000 seeded kernel programs produce a pinned dispatch digest,
   recorded with the two-loop engine this one replaced, so the oracle
   does not rest only on code in this tree; Hypothesis drives further
   random programs through both loops and compares the full dispatch
   order;
4. metamorphic checks: commutative same-instant submissions conserve
   totals, and deliberately ambiguous schedules are flagged on both
   loops (including zero-delay events, which the engine routes through
   the tail rather than the heap).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Server, SharedPipe, SlotChannel

from tests.sim_reference import ReferenceEngine
from tests.test_golden_traces import GOLDEN_DIR, SCENARIOS, digest

ENGINES = {False: Engine, True: ReferenceEngine}


# -- 1: goldens through both loops --------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_identical_on_both_paths(name, monkeypatch):
    """Engine digest == reference digest == committed golden, including
    the telemetry timeline hash when the scenario exports one."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert digest(SCENARIOS[name]()) == golden, f"{name}: engine diverged"
    # the scenario builders construct their own engines, so swap the
    # loop on the class for the reference run
    monkeypatch.setattr(Engine, "run", ReferenceEngine.run)
    assert digest(SCENARIOS[name]()) == golden, f"{name}: reference diverged"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fast_path_sanitized(name, monkeypatch):
    """Goldens through the engine with the sanitizer forced on --
    byte-identical, zero races (the scenario builders take no knobs by
    design, so the constructor is wrapped)."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    orig = Engine.__init__

    def sanitized(self, sanitize=False):
        orig(self, sanitize=True)

    monkeypatch.setattr(Engine, "__init__", sanitized)
    result = SCENARIOS[name]()
    engine = result.iosys.engine
    assert engine.sanitize is True
    assert engine.races == [], "\n".join(r.format() for r in engine.races)
    assert digest(result) == golden


# -- 2: kernel-level differential fuzz ----------------------------------------

def _dispatch_log(engine, program):
    """Run ``program`` (a list of per-process op lists) on ``engine`` and
    return the exact observable dispatch order: (op, time, process id,
    op index, value) for every step every process takes, plus the final
    clock, event count and resource totals."""
    log = []
    shared = [engine.event() for _ in range(4)]
    channel = SlotChannel(engine, bandwidth=1e9, slots=2)
    server = Server(engine, rate=2e9, concurrency=2, overhead=1e-5)
    pipe = SharedPipe(engine, capacity=1e9)

    def proc(pid, ops):
        for i, (kind, arg) in enumerate(ops):
            if kind == "timeout":
                got = yield engine.timeout(arg, value=(pid, i))
            elif kind == "zero":
                got = yield engine.timeout(0.0, value=(pid, i))
            elif kind == "trigger":
                ev = shared[arg]
                if not ev.triggered:
                    ev.succeed((pid, i))
                got = None
            elif kind == "wait":
                got = yield shared[arg]
            elif kind == "spawn":
                got = yield engine.process(proc(100 + pid, arg))
            elif kind == "channel":
                got = yield channel.transfer(arg)
            elif kind == "server":
                got = yield server.request(arg)
            elif kind == "pipe":
                got = yield pipe.transfer(arg)
            log.append((kind, engine.now, pid, i, got))
        return ("ret", pid)

    for pid, ops in enumerate(program):
        engine.process(proc(pid, ops))

    # every shared event eventually fires so no process hangs
    def backstop():
        yield engine.timeout(1000.0)
        for ev in shared:
            if not ev.triggered:
                ev.succeed("backstop")
        yield engine.timeout(1.0)

    engine.process(backstop())
    engine.run()
    log.append((
        "end", engine.now, engine.event_count, channel.bytes_transferred,
        server.busy_time, pipe.bytes_transferred,
    ))
    return log


_DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5, 3.0)
_SIZES = (0, 250_000, 1_000_000, 2_500_000)
_KINDS = ("timeout", "zero", "trigger", "wait", "channel", "server", "pipe")


def _seeded_program(rng, depth=0):
    """A random program whose delays and sizes come from small sets, so
    same-instant collisions between every kind of op are common."""
    program = []
    for _ in range(rng.randint(1, 5) if depth == 0 else 1):
        ops = []
        for _ in range(rng.randint(0, 6 if depth == 0 else 3)):
            kind = rng.choice(_KINDS + (("spawn",) if depth == 0 else ()))
            if kind == "timeout":
                arg = (
                    rng.choice(_DELAYS) if rng.random() < 0.7
                    else rng.uniform(0, 5)
                )
            elif kind == "zero":
                arg = 0
            elif kind in ("trigger", "wait"):
                arg = rng.randrange(4)
            elif kind == "spawn":
                arg = _seeded_program(rng, depth + 1)[0]
            else:
                arg = rng.choice(_SIZES)
            ops.append((kind, arg))
        program.append(ops)
    return program


#: sha256 over the dispatch logs of seeds 0..2999, recorded with both
#: dispatch loops of the engine this one replaced (they agreed)
PINNED_DISPATCH_DIGEST = (
    "f7f81addf7991cfa4da549c78553e4a8af9fdc155bc4a0b1bc08df8b267bb009"
)


@pytest.mark.parametrize("reference", [False, True])
def test_seeded_programs_match_pinned_digest(reference):
    sha = hashlib.sha256()
    for seed in range(3000):
        program = _seeded_program(random.Random(seed))
        sha.update(repr(_dispatch_log(ENGINES[reference](), program)).encode())
    assert sha.hexdigest() == PINNED_DISPATCH_DIGEST


_op = st.one_of(
    st.tuples(
        st.just("timeout"),
        st.floats(
            min_value=0.0, max_value=10.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("trigger"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=3)),
    st.tuples(
        st.sampled_from(["channel", "server", "pipe"]),
        st.one_of(
            st.sampled_from(_SIZES),
            st.integers(min_value=0, max_value=10**7),
        ),
    ),
)

_child = st.tuples(st.just("spawn"), st.lists(_op, max_size=3))

_program = st.lists(
    st.lists(st.one_of(_op, _child), max_size=6), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(program=_program)
def test_random_programs_dispatch_identically(program):
    """Both loops observe the exact same (time, process, value) order on
    arbitrary interleavings of timeouts, zero-delay wake-ups, shared
    events, child processes and resource transfers."""
    assert _dispatch_log(Engine(), program) == _dispatch_log(
        ReferenceEngine(), program
    )


@settings(max_examples=25, deadline=None)
@given(
    nbytes=st.lists(
        st.integers(min_value=0, max_value=10**8), min_size=1, max_size=12
    ),
    slots=st.integers(min_value=1, max_value=5),
)
def test_slot_channel_matches_reference(nbytes, slots):
    """Resource completions finish at identical times with identical
    values on both loops."""

    def run(engine):
        channel = SlotChannel(engine, bandwidth=1e9, slots=slots)
        finished = []

        def submit(i, n):
            dur = yield channel.transfer(n)
            finished.append((engine.now, i, dur))

        for i, n in enumerate(nbytes):
            engine.process(submit(i, n))
        engine.run()
        return finished, channel.bytes_transferred, engine.event_count

    assert run(Engine()) == run(ReferenceEngine())


# -- 3: metamorphic properties ------------------------------------------------

def test_same_instant_commutative_submissions_conserve_totals():
    """Same-instant transfers submitted in any order conserve the
    totals -- bytes moved, requests served, accumulated service time,
    completion count -- even though FIFO admission legitimately
    reshuffles individual completion instants.  Both loops agree on
    every order."""
    sizes = [3 * 10**6, 1 * 10**6, 2 * 10**6, 2 * 10**6, 5 * 10**5]

    def run(order, engine):
        channel = SlotChannel(engine, bandwidth=1e9, slots=2)
        server = Server(engine, rate=2e9, concurrency=2, overhead=1e-5)
        done = []

        def one(n):
            yield channel.transfer(n)
            yield server.request(n)
            done.append(n)

        for n in order:
            engine.process(one(n))
        engine.run()
        return (
            channel.bytes_transferred,
            server.bytes_served,
            server.requests_served,
            server.busy_time,
            len(done),
        )

    orders = [sizes, list(reversed(sizes)), sorted(sizes)]
    totals = []
    for order in orders:
        got = run(order, Engine())
        assert got == run(order, ReferenceEngine()), (
            "loops disagree on a permuted submission"
        )
        totals.append(got)
    for other in totals[1:]:
        assert other[0] == totals[0][0]  # channel bytes
        assert other[1] == totals[0][1]  # server bytes
        assert other[2] == totals[0][2]  # requests
        assert other[3] == pytest.approx(totals[0][3])  # busy_time
        assert other[4] == totals[0][4]  # completions


@pytest.mark.parametrize("reference", [True, False])
def test_sanitizer_flags_ambiguous_schedules(reference):
    """No blind spots: a genuinely ambiguous same-instant pair is
    flagged identically on both loops."""
    engine = ENGINES[reference](sanitize=True)

    def proc():
        first = engine.annotate(engine.timeout(1.0), "ost1", op="write")
        second = engine.annotate(engine.timeout(1.0), "ost1", op="truncate")
        yield engine.all_of([first, second])

    engine.process(proc())
    engine.run()
    assert len(engine.races) == 1
    assert engine.races[0].resource == "ost1"


@pytest.mark.parametrize("reference", [True, False])
def test_sanitizer_sees_tail_routed_zero_delay_races(reference):
    """Zero-delay events never touch the engine's heap (they go through
    the tail FIFO); the sanitizer must still see them."""
    engine = ENGINES[reference](sanitize=True)

    def proc():
        yield engine.timeout(2.0)
        first = engine.annotate(engine.timeout(0.0), "mds", op="create")
        second = engine.annotate(engine.timeout(0.0), "mds", op="unlink")
        yield engine.all_of([first, second])

    engine.process(proc())
    engine.run()
    assert len(engine.races) == 1
    assert engine.races[0].time == pytest.approx(2.0)


# -- 4: bad input fails loudly --------------------------------------------------

@pytest.mark.parametrize("reference", [True, False])
def test_run_until_before_now_raises(reference):
    """run(until < now) names both times and changes nothing, with work
    pending and when idle."""
    engine = ENGINES[reference]()

    def proc():
        yield engine.timeout(5.0)
        yield engine.timeout(5.0)

    engine.process(proc())
    assert engine.run(until=6.0) == 6.0
    with pytest.raises(SimulationError, match=r"until=2\.0.*now=6\.0"):
        engine.run(until=2.0)
    assert engine.now == 6.0
    count = engine.event_count
    assert engine.run() == 10.0
    assert engine.event_count > count
    count = engine.event_count
    with pytest.raises(SimulationError, match=r"until=3\.0.*now=10\.0"):
        engine.run(until=3.0)
    assert (engine.now, engine.event_count) == (10.0, count)
    assert engine.run() == 10.0

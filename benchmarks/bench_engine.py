"""Raw performance of the simulation substrate itself.

These are true micro-benchmarks (multiple rounds): event-loop throughput,
channel service rate, and end-to-end simulated-ops throughput of the full
client stack.  They track the scalability headroom that lets the
paper-scale experiments (10,240 tasks) run in minutes.

Measurement discipline: each round builds its scenario in pedantic
``setup`` and times ONLY ``engine.run()`` -- steady-state dispatch, no
construction or teardown in the measured window.  Throughput is the
``extra_info`` count (events, transfers, simulated ops) over
``stats.min``.
"""

from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.mpi.runtime import World
from repro.sim.engine import Engine
from repro.sim.resources import SlotChannel
from repro.sim.rng import RngStreams

N_EVENTS = 20000


def _bench_run(benchmark, build, rounds=10):
    """Steady-state: build in setup, time ``run()`` alone."""

    def setup():
        return (build(),), {}

    def run(engine):
        engine.run()
        return engine.event_count

    return benchmark.pedantic(run, setup=setup, rounds=rounds,
                              warmup_rounds=1)


def test_engine_timeout_throughput(benchmark):
    def build():
        eng = Engine()

        def proc():
            for _ in range(N_EVENTS // 10):
                yield eng.timeout(0.001)

        for _ in range(10):
            eng.process(proc())
        return eng

    benchmark.extra_info["events"] = _bench_run(benchmark, build)


def test_slot_channel_throughput(benchmark):
    def build():
        eng = Engine()
        ch = SlotChannel(eng, bandwidth=1e9, slots=4)
        for _ in range(5000):
            ch.transfer(1e6)
        return eng

    benchmark.extra_info["transfers"] = 5000
    benchmark.extra_info["events"] = _bench_run(benchmark, build)


def test_full_stack_ops_per_second(benchmark):
    """Simulated I/O ops through MPI + client + cache + tracing; most of
    the time goes above the dispatch loop."""

    def build():
        world = World(nranks=64)
        iosys = IoSystem(
            world.engine,
            MachineConfig.testbox(),
            ntasks=64,
            rng=RngStreams(0),
        )

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            fd = yield from px.open(f"/f{ctx.rank}", O_CREAT | O_RDWR)
            for i in range(32):
                yield from px.pwrite(fd, 1 * MiB, i * MiB)
            yield from px.close(fd)
            return None

        # register rank processes by hand (World.run would also start the
        # engine); only the dispatch belongs in the timed window
        for rank in range(world.nranks):
            world.engine.process(
                fn(world.make_context(rank)), name=f"rank{rank}"
            )
        return world.engine

    benchmark.extra_info["sim_ops"] = 64 * 34
    benchmark.extra_info["engine_events"] = _bench_run(
        benchmark, build, rounds=5
    )

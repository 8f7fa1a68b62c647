"""Shared fixtures: deterministic small machines and substrates."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import IoSystem
from repro.mpi.runtime import World
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RngStreams:
    return RngStreams(1234)


@pytest.fixture
def testbox() -> MachineConfig:
    """Deterministic machine: no noise, no tails, no penalties."""
    return MachineConfig.testbox()


@pytest.fixture
def small_world() -> World:
    return World(nranks=4)


def make_iosys(
    engine: Engine,
    config: MachineConfig,
    ntasks: int = 4,
    seed: int = 0,
    **kwargs,
) -> IoSystem:
    return IoSystem(engine, config, ntasks=ntasks, rng=RngStreams(seed), **kwargs)


@pytest.fixture
def iosys(engine, testbox) -> IoSystem:
    return make_iosys(engine, testbox)


def run_ranks(world: World, fn, *args, **kwargs):
    """Convenience: run a rank generator on every rank of the world."""
    return world.run(fn, *args, **kwargs)


# Hypothesis profiles: ``ci`` (the default) is derandomized, so every
# tier-1 run draws the same examples and a pass stays a pass.  ``explore``
# draws fresh examples on each run (1000 for tests that do not pin their
# own ``max_examples``), for local or nightly bug hunting:
#   HYPOTHESIS_PROFILE=explore python -m pytest tests/
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile(
    "explore", max_examples=1000, derandomize=False, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

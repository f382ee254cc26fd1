"""Shared fixtures: small programs, caches, and a cached pharmacy run."""

from __future__ import annotations

import pytest

from repro.engine import run_program
from repro.isa import DataImage, assemble
from repro.memory import CacheConfig, HierarchyConfig
from repro.obs import (
    get_registry,
    get_tracer,
    reset_registry,
    reset_tracer,
    set_registry,
    set_tracer,
)
from repro.workloads import pharmacy

#: A small hierarchy so tiny test programs still see L2 misses.
TINY_HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="L1D", size_bytes=1024, line_bytes=32, assoc=2, hit_latency=2),
    l2=CacheConfig(name="L2", size_bytes=4096, line_bytes=64, assoc=4, hit_latency=6),
    mem_latency=70,
    mshr_entries=8,
)


@pytest.fixture
def fresh_obs():
    """Fresh global tracer/registry for the test, restored afterwards."""
    old_tracer = get_tracer()
    old_registry = get_registry()
    tracer = reset_tracer()
    registry = reset_registry()
    yield tracer, registry
    set_tracer(old_tracer)
    set_registry(old_registry)


@pytest.fixture
def tiny_hierarchy() -> HierarchyConfig:
    return TINY_HIERARCHY


@pytest.fixture
def sum_loop_program():
    """A 100-iteration array-sum loop with data attached."""
    source = """
        addi a0, zero, 0
        addi a1, zero, 100
        addi t0, zero, 4096
    loop:
        bge  a0, a1, done
        slli t1, a0, 2
        add  t1, t1, t0
        lw   t2, 0(t1)
        add  s0, s0, t2
        addi a0, a0, 1
        j    loop
    done:
        halt
    """
    data = DataImage()
    data.store_words(4096, range(100))
    return assemble(source, data=data, name="sum_loop")


@pytest.fixture(scope="session")
def pharmacy_small():
    """A small pharmacy build (shared across the session)."""
    return pharmacy.build(
        n_xact=600, n_drugs=16384, hot_drugs=1024, hot_fraction=0.45, seed=7
    )


@pytest.fixture(scope="session")
def pharmacy_small_run(pharmacy_small):
    """Functional trace of the small pharmacy program."""
    return run_program(pharmacy_small, TINY_HIERARCHY)

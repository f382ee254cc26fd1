"""Differential fuzzing subsystem.

The fuzzer is the correctness backstop behind every equivalence claim
the repo makes: generated code mirroring the interpreter, the
timing simulator committing the same architectural state the
functional simulator computes, selected p-threads satisfying the
PT001–PT006 invariants, and the analytical model's arithmetic staying
internally consistent.  Instead of pinning those claims to the 11
hand-written workloads, :mod:`repro.fuzz` generates fresh programs
from a seed and cross-checks every implementation pair end to end:

* :mod:`repro.fuzz.generator` — seeded, deterministic random workload
  generation from paper-relevant shape templates (pointer chasing,
  strided walks, loop nests with recurrent loads, branchy control);
* :mod:`repro.fuzz.oracle` — the differential oracle: five check
  families over one generated workload;
* :mod:`repro.fuzz.shrink` — greedy failure minimization plus corpus
  persistence / replay;
* :mod:`repro.fuzz.runner` — the ``repro fuzz`` campaign driver.
"""

from repro.fuzz.generator import (
    FUZZ_HIERARCHIES,
    SHAPES,
    FuzzWorkload,
    generate,
)
from repro.fuzz.oracle import (
    CHECK_FAMILIES,
    CheckFailure,
    OracleReport,
    run_oracle,
)
from repro.fuzz.runner import run_campaign
from repro.fuzz.shrink import load_reproducer, shrink, write_reproducer

__all__ = [
    "CHECK_FAMILIES",
    "CheckFailure",
    "FUZZ_HIERARCHIES",
    "FuzzWorkload",
    "OracleReport",
    "SHAPES",
    "generate",
    "load_reproducer",
    "run_campaign",
    "run_oracle",
    "shrink",
    "write_reproducer",
]

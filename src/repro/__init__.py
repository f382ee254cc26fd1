"""repro — a reproduction of Roth & Sohi's quantitative framework for
automated pre-execution thread selection (MICRO / UPenn TR MS-CIS-02-23,
2002).

The package layers, bottom to top:

* :mod:`repro.isa`, :mod:`repro.memory`, :mod:`repro.frontend`,
  :mod:`repro.engine` — the execution substrate: a small RISC ISA,
  caches/MSHRs/busses, branch prediction, and a tracing functional
  simulator;
* :mod:`repro.slicing` — dynamic backward slicing and the **slice
  tree**, the paper's compact space of candidate p-threads;
* :mod:`repro.model` — **aggregate advantage** (SCDH, LT, OH, ADVagg);
* :mod:`repro.selection` — the per-tree overlap-correcting solver and
  whole-program/region selection drivers;
* :mod:`repro.pthreads` — p-thread bodies, optimization, and merging;
* :mod:`repro.timing` — an SMT timing model with the pre-execution
  runtime (contexts, bursty injection, L2-only prefetch);
* :mod:`repro.workloads`, :mod:`repro.harness`, :mod:`repro.validation`
  — the benchmark suite, table/figure regeneration (Table 2 sets the
  framework's predictions beside the measurements), and cross-model
  parity.

Quickstart::

    from repro import ExperimentConfig, ExperimentRunner
    result = ExperimentRunner().run(ExperimentConfig(workload="pharmacy"))
    print(result.preexec.describe(), f"speedup {result.speedup:+.1%}")
"""

from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.harness.parallel import SweepExecutor
from repro.model.params import ModelParams, SelectionConstraints
from repro.pthreads.pthread import StaticPThread
from repro.selection.program_selector import ProgramSelection, select_pthreads
from repro.slicing.slice_tree import SliceTree, build_slice_trees
from repro.timing.config import MachineConfig
from repro.timing.stats import SimStats

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "MachineConfig",
    "ModelParams",
    "ProgramSelection",
    "SelectionConstraints",
    "SimStats",
    "SliceTree",
    "StaticPThread",
    "SweepExecutor",
    "__version__",
    "build_slice_trees",
    "select_pthreads",
]

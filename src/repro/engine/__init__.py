"""Execution engine: decoding, functional tracing, timing codegen."""

from repro.engine.compiler import (
    ENGINE_INTERP,
    CompiledBlocks,
    compile_timing,
    discover_blocks,
    resolve_engine,
)
from repro.engine.decode import DecodedProgram
from repro.engine.functional import (
    ExecutionLimitExceeded,
    FunctionalResult,
    FunctionalSimulator,
    run_program,
)
from repro.engine.trace import Trace

__all__ = [
    "CompiledBlocks",
    "DecodedProgram",
    "ENGINE_INTERP",
    "ExecutionLimitExceeded",
    "FunctionalResult",
    "FunctionalSimulator",
    "Trace",
    "compile_timing",
    "discover_blocks",
    "resolve_engine",
    "run_program",
]

"""Request/response schema for the serve daemon.

One schema version covers both directions.  Requests are small JSON
documents naming a workload plus the experiment knobs the HTTP API
exposes; responses are built from the exact same objects the offline
pipeline produces (:class:`~repro.harness.experiment.ExperimentResult`),
so a served payload is bit-for-bit the payload an offline
:class:`~repro.harness.experiment.ExperimentRunner` run would yield for
the same configuration — the serve e2e test pins that equivalence.

A request that exhausts its soft budget mid-pipeline still gets a
well-formed JSON payload (``status: "budget_exceeded"``) describing the
stages that did complete; see
:class:`~repro.harness.experiment.PartialExperimentResult`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    PartialExperimentResult,
)
from repro.model.params import SelectionConstraints
from repro.timing.config import MachineConfig
from repro.workloads.suite import SUITE, available_inputs

SERVE_SCHEMA_VERSION = 1

#: Largest ``machine`` fields a request may ask for: every timing run
#: allocates a list of ``window`` and one of ``pthread_contexts``
#: entries.  The paper's machine, which every figure uses, has 128 and 3.
MACHINE_MAXIMA = {"window": 65_536, "pthread_contexts": 64}

#: Request keys accepted at the top level, besides the nested objects.
_SCALAR_KEYS = {
    "workload": str,
    "input": str,
    "validate": bool,
    "selection_input": str,
    "selection_prefix": int,
    "granularity": int,
    "model_mem_latency": int,
    "model_bw_seq": int,
    "budget_seconds": (int, float),
}


class ProtocolError(ValueError):
    """A malformed or unsupported request document (HTTP 400)."""


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """A validated submission: the experiment cell plus its soft budget."""

    config: ExperimentConfig
    budget_seconds: Optional[float] = None


def _nested(doc: Dict[str, Any], key: str, cls):
    """Build a dataclass from a nested request object, field-checked.

    Each given value must have its field's default type exactly: a
    bool field takes only a JSON boolean, an int field only a
    non-boolean integer.  The dataclass would take ``"false"`` or
    ``256.5`` as they come, run a different experiment than asked,
    and key the stage caches on the stray value.
    """
    raw = doc.get(key)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ProtocolError(f"{key!r} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ProtocolError(
            f"unknown {key} field(s): {sorted(unknown)} "
            f"(allowed: {sorted(defaults)})"
        )
    for name, value in raw.items():
        expected = type(defaults[name])
        if type(value) is not expected:
            raise ProtocolError(
                f"{key} field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    try:
        return cls(**raw)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid {key}: {error}") from None


def check_budget(value: Any, name: str) -> float:
    """``value`` as a soft budget: a finite, positive number of seconds.

    ``json.loads`` accepts NaN, Infinity and ints no float can hold, and
    ``argparse`` takes ``nan`` or ``-1`` for a float flag; none of them
    is a budget.
    """
    try:
        seconds = float(value)
    except OverflowError:
        seconds = math.inf
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name!r} must be finite and positive")
    return seconds


def parse_run_request(doc: Any) -> RunRequest:
    """Validate a ``POST /v1/run`` JSON body into a :class:`RunRequest`."""
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(doc) - set(_SCALAR_KEYS) - {"constraints", "machine"}
    if unknown:
        raise ProtocolError(f"unknown request field(s): {sorted(unknown)}")
    for key, types in _SCALAR_KEYS.items():
        value = doc.get(key)
        if value is not None and not isinstance(value, types):
            # bool is an int subclass; reject it for the numeric keys.
            if not (isinstance(value, bool) and types is bool):
                raise ProtocolError(f"{key!r} has the wrong type")
        if isinstance(value, bool) and types is not bool:
            raise ProtocolError(f"{key!r} has the wrong type")
    workload = doc.get("workload")
    if not workload:
        raise ProtocolError("missing required field 'workload'")
    known = set(SUITE) | {"pharmacy"}
    if workload not in known:
        raise ProtocolError(
            f"unknown workload {workload!r} (known: {sorted(known)})"
        )
    inputs = available_inputs(workload)
    for key in ("input", "selection_input"):
        if doc.get(key) is not None and doc[key] not in inputs:
            raise ProtocolError(
                f"{workload!r} has no {key} {doc[key]!r} (known: {inputs})"
            )
    budget = doc.get("budget_seconds")
    if budget is not None:
        try:
            budget = check_budget(budget, "budget_seconds")
        except ValueError as error:
            raise ProtocolError(str(error)) from None
    constraints = _nested(doc, "constraints", SelectionConstraints)
    machine = _nested(doc, "machine", MachineConfig)
    if machine is not None:
        for name, most in MACHINE_MAXIMA.items():
            if getattr(machine, name) > most:
                raise ProtocolError(
                    f"machine field {name!r} must be <= {most}"
                )
    kwargs: Dict[str, Any] = {
        "workload": workload,
        "input_name": doc.get("input", "train"),
        "validate": bool(doc.get("validate", False)),
        "selection_input": doc.get("selection_input"),
        "selection_prefix": doc.get("selection_prefix"),
        "granularity": doc.get("granularity"),
        "model_mem_latency": doc.get("model_mem_latency"),
        "model_bw_seq": doc.get("model_bw_seq"),
    }
    if constraints is not None:
        kwargs["constraints"] = constraints
    if machine is not None:
        kwargs["machine"] = machine
    try:
        config = ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid request: {error}") from None
    return RunRequest(config=config, budget_seconds=budget)


def _selection_payload(result: ExperimentResult) -> Dict[str, Any]:
    prediction = result.selection.prediction
    return {
        "num_pthreads": len(result.selection.pthreads),
        "triggers": [p.trigger_pc for p in result.selection.pthreads],
        "lengths": [len(p.body) for p in result.selection.pthreads],
        "description": result.selection.describe(),
        "prediction": {
            "predicted_ipc": prediction.predicted_ipc,
            "predicted_speedup": prediction.predicted_speedup,
            "coverage_fraction": prediction.coverage_fraction,
            "full_coverage_fraction": prediction.full_coverage_fraction,
            "launches": prediction.launches,
            "avg_pthread_length": prediction.avg_pthread_length,
        },
    }


def result_payload(result: ExperimentResult) -> Dict[str, Any]:
    """The complete JSON document for a finished experiment.

    ``summary`` is exactly the row the table/figure builders consume
    (:meth:`ExperimentResult.summary_row`), so clients can assemble
    Table 2 / figure series from served responses.
    """
    return {
        "schema": SERVE_SCHEMA_VERSION,
        "status": "ok",
        "workload": result.config.workload,
        "input": result.config.input_name,
        "summary": result.summary_row(),
        "speedup": result.speedup,
        "coverage": result.coverage,
        "full_coverage": result.full_coverage,
        "selection": _selection_payload(result),
        "stats": {
            "baseline": result.baseline.to_dict(),
            "preexec": result.preexec.to_dict(),
            "validation": {
                name: stats.to_dict()
                for name, stats in sorted(result.validation.items())
            },
        },
        "num_regions": result.num_regions,
        "timings": dict(result.timings),
    }


def partial_payload(partial: PartialExperimentResult) -> Dict[str, Any]:
    """Truncated-but-well-formed document for a budget-cut experiment."""
    return {
        "schema": SERVE_SCHEMA_VERSION,
        "status": "budget_exceeded",
        "budget_exceeded": True,
        "workload": partial.config.workload,
        "input": partial.config.input_name,
        "next_stage": partial.next_stage,
        "stages_completed": list(partial.stages_completed),
        "timings": dict(partial.timings),
    }


def error_payload(message: str, status: str = "error") -> Dict[str, Any]:
    return {
        "schema": SERVE_SCHEMA_VERSION,
        "status": status,
        "error": message,
    }

"""Unit tests for the serve request/response schema."""

import pytest

from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    error_payload,
    parse_run_request,
    partial_payload,
    request_cache_key,
)
from repro.harness.experiment import PartialExperimentResult


def test_minimal_request_gets_defaults():
    request = parse_run_request({"workload": "mcf"})
    assert request.config.workload == "mcf"
    assert request.config.input_name == "train"
    assert request.config.validate is False
    assert request.budget_seconds is None


def test_full_request_round_trips():
    request = parse_run_request(
        {
            "workload": "vpr.r",
            "input": "test",
            "validate": True,
            "granularity": 512,
            "budget_seconds": 2,
            "constraints": {"scope": 256, "max_pthread_length": 16},
            "machine": {"bw_seq": 4},
        }
    )
    assert request.config.input_name == "test"
    assert request.config.validate is True
    assert request.config.granularity == 512
    assert request.config.constraints.scope == 256
    assert request.config.constraints.max_pthread_length == 16
    assert request.config.machine.bw_seq == 4
    assert request.budget_seconds == 2.0


@pytest.mark.parametrize(
    "doc",
    [
        None,
        [],
        "mcf",
        {},  # missing workload
        {"workload": "no-such-benchmark"},
        {"workload": "mcf", "bogus_field": 1},
        {"workload": "mcf", "granularity": "big"},  # wrong type
        {"workload": "mcf", "validate": 1},  # int is not bool here
        {"workload": "mcf", "granularity": True},  # bool is not int here
        {"workload": "mcf", "budget_seconds": 0},
        {"workload": "mcf", "budget_seconds": -1.0},
        {"workload": "mcf", "budget_seconds": float("nan")},
        {"workload": "mcf", "budget_seconds": float("inf")},
        {"workload": "mcf", "budget_seconds": 10**400},  # no float holds it
        {"workload": "mcf", "input": "ref"},  # no workload defines it
        {"workload": "mcf", "selection_input": "ref"},
        {"workload": "mcf", "constraints": 5},
        {"workload": "mcf", "constraints": {"no_such_knob": 1}},
        {"workload": "mcf", "machine": {"no_such_knob": 1}},
        {
            "workload": "mcf",
            "machine": {"stride_prefetch": True, "stride_degree": 0},
        },
        {"workload": "mcf", "machine": {"dispatch_latency": -1}},
        {"workload": "mcf", "granularity": 0},  # below 1
        {"workload": "mcf", "selection_prefix": -5},
        {"workload": "mcf", "model_mem_latency": 0},
        {"workload": "mcf", "model_bw_seq": -1},
        # Nested fields must match their field's type exactly: the
        # dataclass would take these as they come.
        {"workload": "vpr.r", "constraints": {"optimize": "false"}},
        {"workload": "mcf", "machine": {"bw_seq": 8.5}},
        {"workload": "mcf", "constraints": {"scope": 256.5}},
        {"workload": "mcf", "constraints": {"scope": True}},
        # Region selection ignores the prefix; two keys for one result.
        {"workload": "mcf", "granularity": 3000, "selection_prefix": 1000},
        # Not a request field: selection has one Lmem.
        {"workload": "mcf", "granularity": 3000, "effective_latency": True},
        # Not a request field: REPRO_VERIFY is the one verification switch.
        {"workload": "mcf", "verify": True},
    ],
)
def test_malformed_requests_raise(doc):
    with pytest.raises(ProtocolError):
        parse_run_request(doc)


def test_cache_key_ignores_budget():
    base = parse_run_request({"workload": "mcf"})
    budgeted = parse_run_request({"workload": "mcf", "budget_seconds": 0.5})
    other = parse_run_request({"workload": "twolf"})
    assert request_cache_key(base) == request_cache_key(budgeted)
    assert request_cache_key(base) != request_cache_key(other)


def test_partial_payload_shape():
    partial = PartialExperimentResult(
        config=parse_run_request({"workload": "mcf"}).config,
        next_stage="timing",
        stages_completed=["trace", "baseline", "selection"],
        timings={"trace": 0.5},
    )
    payload = partial_payload(partial)
    assert payload["schema"] == SERVE_SCHEMA_VERSION
    assert payload["status"] == "budget_exceeded"
    assert payload["budget_exceeded"] is True
    assert payload["next_stage"] == "timing"
    assert payload["stages_completed"] == ["trace", "baseline", "selection"]
    assert payload["timings"] == {"trace": 0.5}


def test_error_payload_shape():
    payload = error_payload("queue full", status="rejected")
    assert payload == {
        "schema": SERVE_SCHEMA_VERSION,
        "status": "rejected",
        "error": "queue full",
    }

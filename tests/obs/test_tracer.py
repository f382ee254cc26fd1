"""Span tracer: nesting, durations, worker attach, render/export."""

import json

from repro.obs import Span, Tracer, get_tracer, reset_tracer, set_tracer
from repro.obs.tracer import SPAN_SCHEMA_VERSION


class FakeClock:
    """Injectable clock: each call advances by a scripted step."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def test_spans_nest_and_time():
    clock = FakeClock(step=1.0)
    tracer = Tracer(clock=clock)
    with tracer.span("outer", workload="mcf"):
        with tracer.span("inner"):
            pass
    doc = tracer.to_dict()
    assert doc["schema"] == SPAN_SCHEMA_VERSION
    (outer,) = doc["spans"]
    assert outer["name"] == "outer"
    assert outer["meta"] == {"workload": "mcf"}
    (inner,) = outer["children"]
    assert inner["name"] == "inner"
    # Fake clock ticks once per call: inner spans 1 tick, outer spans 3.
    assert inner["duration"] == 1.0
    assert outer["duration"] == 3.0


def test_depth_tracks_open_spans():
    tracer = Tracer()
    assert tracer.depth == 0
    with tracer.span("a"):
        assert tracer.depth == 1
        with tracer.span("b"):
            assert tracer.depth == 2
    assert tracer.depth == 0


def test_span_reenter_accumulates_duration():
    clock = FakeClock(step=1.0)
    tracer = Tracer(clock=clock)
    with tracer.span("stage") as span:
        pass
    span.duration += 5.0
    assert span.duration == 6.0


def test_exception_still_closes_span():
    tracer = Tracer()
    try:
        with tracer.span("fails"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.depth == 0
    assert tracer.root.children[0].name == "fails"


def test_attach_worker_payload_under_open_span():
    """A worker subtree (durations only) attaches without clock alignment."""
    worker = Tracer(clock=FakeClock(step=0.5))
    with worker.span("experiment", workload="vpr.r"):
        with worker.span("trace"):
            pass
    payload = {"spans": worker.to_dict()["spans"]}

    coordinator = Tracer(clock=FakeClock(step=1.0))
    with coordinator.span("sweep", cells=1) as sweep:
        attached = coordinator.attach(payload)
    for span in attached:
        span.meta.setdefault("cell", 0)

    (experiment,) = sweep.children
    assert experiment.name == "experiment"
    assert experiment.meta == {"workload": "vpr.r", "cell": 0}
    assert experiment.duration == 1.5  # worker clock, not coordinator's
    assert experiment.children[0].name == "trace"


def test_attach_single_span_dict():
    tracer = Tracer()
    tracer.attach({"name": "orphan", "duration": 2.0})
    assert tracer.root.children[0].name == "orphan"
    assert tracer.root.children[0].duration == 2.0


def test_find_and_walk():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.root.find("c").name == "c"
    assert tracer.root.find("nope") is None
    assert [s.name for s in tracer.root.walk()] == ["root", "a", "b", "c"]


def test_seconds_by_name_sums_without_double_counting():
    tree = Span(
        "root",
        children=[
            Span("trace", duration=1.0, children=[Span("trace", duration=0.5)]),
            Span("sweep", duration=9.0, children=[Span("trace", duration=2.0)]),
            Span("timing", duration=4.0),
        ],
    )
    # The nested "trace" inside a matched "trace" is already counted.
    assert tree.seconds_by_name(["trace", "missing"]) == {"trace": 3.0}
    assert tree.seconds_by_name(("timing", "sweep")) == {
        "timing": 4.0,
        "sweep": 9.0,
    }


def test_roundtrip_through_dict():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer", k=1):
        with tracer.span("inner"):
            pass
    restored = Span.from_dict(tracer.to_dict()["spans"][0])
    assert restored.name == "outer"
    assert restored.meta == {"k": 1}
    assert restored.children[0].name == "inner"


def test_export_writes_json(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.span("pipeline"):
        pass
    out = tmp_path / "nested" / "trace.json"
    tracer.export(out)
    doc = json.loads(out.read_text())
    assert doc["schema"] == SPAN_SCHEMA_VERSION
    assert doc["spans"][0]["name"] == "pipeline"


def test_render_indents_children():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("sweep", jobs=2):
        with tracer.span("experiment"):
            pass
    text = tracer.render()
    lines = text.splitlines()
    assert lines[0].startswith("sweep")
    assert "jobs=2" in lines[0]
    assert lines[1].startswith("  experiment")


def test_global_tracer_reset_and_restore():
    original = get_tracer()
    try:
        fresh = reset_tracer()
        assert get_tracer() is fresh
        assert fresh is not original
        assert fresh.root.children == []
    finally:
        set_tracer(original)

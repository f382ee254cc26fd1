"""Region-grained selection (Figure 6 machinery).

A granularity cell cuts the profile trace into windows and selects each
one through the runner's cached selection, as a prefix cell selects its
prefix; the timing run activates each window's p-threads over it.
"""

import pickle

import pytest

from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.workloads.suite import build


@pytest.fixture(scope="module")
def runner():
    """A runner whose pharmacy workload is pre-seeded with a small build."""
    runner = ExperimentRunner()
    small = build(
        "pharmacy", "train", n_xact=600, n_drugs=16384, hot_drugs=1024
    )
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


def trace_length(runner) -> int:
    return len(runner.trace(runner.workload("pharmacy", "train")).trace)


def run_cell(runner, monkeypatch, granularity):
    """Run one granularity cell; returns the result, the window
    selections in window order (with their regions) and the schedule
    the pre-execution run was given."""
    windows = []
    schedules = []
    select = runner._cached_selection
    simulate = runner._simulate

    def recording_select(*args):
        selection = select(*args)
        windows.append((args[-1], selection))
        return selection

    def recording_simulate(kind, mode, workload, machine, pthreads=None,
                           schedule=None):
        if kind == "timing":
            schedules.append(schedule)
        return simulate(kind, mode, workload, machine, pthreads, schedule)

    monkeypatch.setattr(runner, "_cached_selection", recording_select)
    monkeypatch.setattr(runner, "_simulate", recording_simulate)
    result = runner.run(
        ExperimentConfig(workload="pharmacy", granularity=granularity)
    )
    monkeypatch.undo()
    (schedule,) = schedules
    return result, windows, schedule


class TestSelectByRegion:
    def test_regions_tile_the_trace(self, runner, monkeypatch):
        length = trace_length(runner)
        size = length // 4
        result, windows, _ = run_cell(runner, monkeypatch, size)
        regions = [region for region, _ in windows]
        assert result.num_regions == len(regions) >= 4
        assert regions[0][0] == 0
        assert regions[-1][1] == length
        for previous, current in zip(regions, regions[1:]):
            assert current[0] == previous[1]
        assert all(end - start == size for start, end in regions[:-1])

    def test_schedule_matches_regions(self, runner, monkeypatch):
        _, windows, schedule = run_cell(
            runner, monkeypatch, trace_length(runner) // 3
        )
        assert len(schedule) == len(windows)
        for (start, end, pthreads), (region, selection) in zip(
            schedule, windows
        ):
            assert (start, end) == region
            assert pthreads is selection.pthreads

    def test_aggregates(self, runner, monkeypatch):
        """The cell reports the windows' p-threads and predictions,
        summed in window order."""
        result, windows, _ = run_cell(
            runner, monkeypatch, trace_length(runner) // 2
        )
        selections = [selection for _, selection in windows]
        assert result.selection.pthreads == [
            p for selection in selections for p in selection.pthreads
        ]
        prediction = result.selection.prediction
        for name in (
            "launches",
            "misses_covered",
            "misses_fully_covered",
            "sample_l2_misses",
        ):
            assert getattr(prediction, name) == sum(
                getattr(selection.prediction, name) for selection in selections
            ), name
        assert prediction.sample_instructions == trace_length(runner)

    def test_single_region_equals_whole_run(self, runner, monkeypatch):
        length = trace_length(runner)
        result, windows, _ = run_cell(runner, monkeypatch, length + 1)
        ((region, window),) = windows
        assert region == (0, length)
        assert result.num_regions == 1
        whole = runner.run(ExperimentConfig(workload="pharmacy"))
        assert pickle.dumps(window) == pickle.dumps(whole.selection)
        assert result.preexec.to_dict() == whole.preexec.to_dict()

"""Tests for the workload suite registry and shared infrastructure."""

import pytest

from repro.engine import run_program
from repro.workloads import SUITE, available_inputs, build
from repro.workloads.common import DataBuilder, SUITE_HIERARCHY, mixed_indices


class TestRegistry:
    def test_suite_matches_paper_list(self):
        assert SUITE == [
            "bzip2",
            "crafty",
            "gap",
            "gcc",
            "mcf",
            "parser",
            "twolf",
            "vortex",
            "vpr.p",
            "vpr.r",
        ]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            build("spec2077")

    def test_unknown_input_rejected(self):
        with pytest.raises(KeyError):
            build("mcf", "reference-large")

    def test_every_workload_has_train_and_test(self):
        for name in SUITE + ["pharmacy"]:
            inputs = available_inputs(name)
            assert "train" in inputs and "test" in inputs

    def test_overrides_apply(self):
        workload = build("mcf", "test", n_chains=5)
        assert workload.program.name == "mcf"

    def test_metadata(self):
        workload = build("vpr.p", "test")
        assert workload.name == "vpr.p"
        assert workload.input_name == "test"
        assert workload.hierarchy == SUITE_HIERARCHY
        assert workload.description


class TestDataBuilder:
    def test_regions_disjoint(self):
        builder = DataBuilder(seed=1)
        a = builder.region("a", 1000)
        b = builder.region("b", 1000)
        assert a != b
        assert abs(a - b) >= 1000 * 4

    def test_deterministic(self):
        a = DataBuilder(seed=5).random_words("x", 100, 0, 1000)
        b_builder = DataBuilder(seed=5)
        b = b_builder.random_words("x", 100, 0, 1000)
        assert a == b  # same base
        image_a = DataBuilder(seed=5)
        image_a.random_words("x", 100, 0, 1000)
        assert image_a.image.words == b_builder.image.words

    def test_permutation_complete(self):
        builder = DataBuilder(seed=3)
        perm = list(range(50))
        builder.rng.shuffle(perm)
        base = builder.words("p", perm)
        values = [builder.image.load_word(base + 4 * i) for i in range(50)]
        assert values == perm

    def test_region_exhaustion(self):
        builder = DataBuilder(seed=1)
        with pytest.raises(ValueError):
            for i in range(100):
                builder.region(f"r{i}", 1)


class TestMixedIndices:
    def test_hot_fraction_respected(self):
        import random

        rng = random.Random(0)
        indices = mixed_indices(rng, 10000, 1000, 100, hot_fraction=0.3)
        hot = sum(1 for i in indices if i < 100)
        assert 0.25 < hot / 10000 < 0.35

    def test_all_in_range(self):
        import random

        rng = random.Random(0)
        indices = mixed_indices(rng, 1000, 500, 50, 0.5)
        assert all(0 <= i < 500 for i in indices)


class TestExecution:
    @pytest.mark.parametrize("name", SUITE + ["pharmacy"])
    def test_test_input_halts_cleanly(self, name):
        workload = build(name, "test")
        result = run_program(
            workload.program, workload.hierarchy, max_instructions=2_000_000
        )
        assert result.halted
        assert result.l2_misses >= 0

    @pytest.mark.parametrize("name", SUITE)
    def test_deterministic_builds(self, name):
        a = build(name, "test").program
        b = build(name, "test").program
        assert a.instructions == b.instructions
        assert a.data.words == b.data.words

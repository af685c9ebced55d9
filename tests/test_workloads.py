"""Tests for the synthetic workload generators, trace utilities and suites."""

import random

import pytest

from repro.sim.batch import KIND_LOAD, KIND_STORE, BatchedTrace
from repro.sim.types import AccessType
from repro.workloads import (
    GENERATORS,
    SUITES,
    CloudWorkload,
    GraphWorkload,
    MixedPhaseWorkload,
    PointerChaseWorkload,
    SpatialRecurrenceWorkload,
    StreamingWorkload,
    StridedWorkload,
    TraceSpec,
    all_trace_specs,
    load_trace,
    make_trace,
    save_trace,
    suite_names,
    trace_specs_for_suite,
    trace_statistics,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.suites import MAIN_SUITES


class TestGeneratorContract:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_exact_length(self, kind):
        trace = make_trace(kind, seed=1, length=500)
        assert len(trace) == 500

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_deterministic_given_seed(self, kind):
        first = make_trace(kind, seed=42, length=300)
        second = make_trace(kind, seed=42, length=300)
        assert [(a.pc, a.address) for a in first] == [(a.pc, a.address) for a in second]

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_different_seeds_differ(self, kind):
        first = make_trace(kind, seed=1, length=300)
        second = make_trace(kind, seed=2, length=300)
        assert [(a.pc, a.address) for a in first] != [(a.pc, a.address) for a in second]

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_addresses_and_gaps_valid(self, kind):
        for access in make_trace(kind, seed=3, length=300):
            assert access.address >= 0
            assert access.instr_gap >= 0
            assert access.pc > 0
            assert access.access_type in (AccessType.LOAD, AccessType.STORE)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            StreamingWorkload(length=0)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @pytest.mark.parametrize("region_size", [0, -64, 32, 100])
    def test_invalid_region_size_rejected(self, kind, region_size):
        # Before validation, streaming looped forever without yielding,
        # strided divided by zero and the footprint generators failed
        # inside random.sample.
        with pytest.raises(ValueError, match="region_size"):
            GENERATORS[kind](seed=1, length=10, region_size=region_size)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_generate_returns_decoded_columns(self, kind):
        trace = GENERATORS[kind](seed=4, length=300).generate()
        assert isinstance(trace, BatchedTrace)
        assert trace.blocks == [address >> 6 for address in trace.addresses]
        assert trace.instruction_total == sum(trace.gaps) + len(trace)
        assert set(trace.kinds) <= {KIND_LOAD, KIND_STORE}

    def test_finite_generator_is_replayed(self):
        trace = _FiniteWorkload(seed=3, length=7, count=3).generate()
        assert [a.address for a in trace] == [0, 64, 128] * 2 + [0]
        # Each pass continues the RNG stream, so replayed gaps are fresh draws.
        assert len(set(trace.gaps)) > 1

    def test_empty_generator_raises_instead_of_spinning(self):
        with pytest.raises(ValueError, match="yielded no accesses"):
            _FiniteWorkload(seed=3, length=5, count=0).generate()

    def test_generator_that_runs_dry_raises(self):
        generator = _FiniteWorkload(seed=3, length=5, count=2)
        generator.passes_left = 1
        with pytest.raises(ValueError, match="yielded no accesses"):
            generator.generate()

    @pytest.mark.parametrize("mean", [0.3, 1.0, 5.0, 8.0, 30.0, 35.0])
    def test_instr_gap_matches_randint(self, mean):
        generator = StreamingWorkload(seed=11, length=10, mean_instr_gap=mean)
        reference = random.Random(11)
        low = max(0, int(mean * 0.5))
        high = int(mean * 1.5) + 1
        drawn = [generator.instr_gap() for _ in range(500)]
        assert drawn == [reference.randint(low, high) for _ in range(500)]
        assert generator.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 37, 64, 0x200000])
    def test_below_matches_randrange(self, n):
        generator = StreamingWorkload(seed=12, length=10)
        reference = random.Random(12)
        assert [generator.below(n) for _ in range(300)] == [
            reference.randrange(n) for _ in range(300)
        ]
        with pytest.raises(ValueError):
            generator.below(0)


class _FiniteWorkload(WorkloadGenerator):
    """Yields ``count`` sequential accesses per pass, for ``passes_left`` passes."""

    kind = "finite-test"

    def __init__(self, count: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.count = count
        self.passes_left = None

    def _generate(self):
        if self.passes_left is not None:
            if self.passes_left == 0:
                return
            self.passes_left -= 1
        for block in range(self.count):
            yield self.access(0x400, block * 64)


class TestStreamingWorkloads:
    def test_streaming_regions_are_dense(self):
        trace = make_trace("streaming", seed=5, length=4000)
        stats = trace_statistics(trace)
        assert stats["mean_region_density"] > 0.6

    def test_streaming_accesses_mostly_sequential(self):
        generator = StreamingWorkload(seed=5, length=2000, num_arrays=1,
                                      accesses_per_block=1, revisit_fraction=0.0)
        trace = generator.generate()
        blocks = [a.address >> 6 for a in trace]
        deltas = [b - a for a, b in zip(blocks, blocks[1:])]
        assert deltas.count(1) / len(deltas) > 0.9

    def test_strided_workload_stride(self):
        generator = StridedWorkload(seed=1, length=1000, stride_blocks=4, num_streams=1)
        blocks = [a.address >> 6 for a in generator.generate()]
        deltas = {b - a for a, b in zip(blocks, blocks[1:])}
        assert deltas == {4}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingWorkload(num_arrays=0)
        with pytest.raises(ValueError):
            StridedWorkload(stride_blocks=0)


class TestSpatialRecurrence:
    def test_classes_share_trigger_offsets(self):
        generator = SpatialRecurrenceWorkload(seed=3, num_classes=12,
                                              classes_per_trigger=3)
        triggers = [cls.trigger_offset for cls in generator.classes]
        assert len(set(triggers)) < len(triggers)

    def test_classes_with_same_trigger_differ_in_second(self):
        generator = SpatialRecurrenceWorkload(seed=3, num_classes=12,
                                              classes_per_trigger=3)
        by_trigger = {}
        for cls in generator.classes:
            by_trigger.setdefault(cls.trigger_offset, set()).add(cls.second_offset)
        assert any(len(seconds) > 1 for seconds in by_trigger.values())

    def test_footprints_are_sparse(self):
        trace = make_trace("spatial", seed=3, length=4000)
        stats = trace_statistics(trace)
        assert 0.05 < stats["mean_region_density"] < 0.6

    def test_regions_mostly_fresh(self):
        trace = make_trace("spatial", seed=3, length=4000)
        stats = trace_statistics(trace)
        assert stats["distinct_regions"] > 100


class TestGraphWorkload:
    def test_invalid_algorithm_and_phase(self):
        with pytest.raises(ValueError):
            GraphWorkload(algorithm="dijkstra")
        with pytest.raises(ValueError):
            GraphWorkload(phase="warmup")

    def test_init_phase_is_streaming(self):
        trace = make_trace("graph", seed=4, length=4000, phase="init")
        stats = trace_statistics(trace)
        assert stats["mean_region_density"] > 0.5

    def test_compute_phase_mixes_patterns(self):
        trace = make_trace("graph", seed=4, length=4000, phase="compute")
        stats = trace_statistics(trace)
        assert stats["distinct_pcs"] >= 4
        assert stats["mean_region_density"] < 0.9

    def test_adjacency_is_valid(self):
        generator = GraphWorkload(seed=4, num_vertices=256)
        assert len(generator.adjacency) == 256
        for neighbours in generator.adjacency:
            assert all(0 <= v < 256 for v in neighbours)


class TestIrregularWorkloads:
    def test_pointer_chase_low_density(self):
        trace = make_trace("pointer-chase", seed=5, length=4000)
        stats = trace_statistics(trace)
        assert stats["mean_region_density"] < 0.2

    def test_pointer_chase_visits_many_regions(self):
        stats = trace_statistics(make_trace("pointer-chase", seed=5, length=4000))
        assert stats["distinct_regions"] > 500

    def test_cloud_has_many_pcs(self):
        stats = trace_statistics(make_trace("cloud", seed=6, length=4000))
        assert stats["distinct_pcs"] >= 20

    def test_cloud_handlers_share_triggers(self):
        generator = CloudWorkload(seed=6, num_handlers=24, handlers_per_trigger=4)
        triggers = [h.footprint_offsets[0] for h in generator.handlers]
        assert len(set(triggers)) < len(triggers)

    def test_mixed_phase_contains_dense_and_sparse(self):
        generator = MixedPhaseWorkload(seed=7, length=6000)
        trace = generator.generate()
        region_blocks = {}
        for access in trace:
            region_blocks.setdefault(access.address // 4096, set()).add(
                access.address >> 6
            )
        densities = [len(blocks) / 64 for blocks in region_blocks.values()]
        assert any(d > 0.9 for d in densities)
        assert any(d < 0.3 for d in densities)


class TestTraceSpecAndPersistence:
    def test_spec_build_respects_length(self):
        spec = TraceSpec(name="t", suite="s", generator="streaming", length=700)
        assert len(spec.build()) == 700
        assert len(spec.build(length=300)) == 300

    def test_generated_build_behaves_like_a_list(self):
        spec = TraceSpec(name="t", suite="s", generator="ring", seed=2, length=400)
        trace = spec.build()
        as_list = list(trace)
        assert isinstance(trace, BatchedTrace)
        assert len(trace) == len(as_list) == 400
        assert trace == as_list and as_list == trace
        assert trace == spec.build()
        assert trace != as_list[:-1]
        for index in (0, 1, 199, -1, -400):
            assert trace[index] == as_list[index]
        assert trace[10:20] == as_list[10:20]
        assert trace[::-7] == as_list[::-7]
        with pytest.raises(IndexError):
            trace[400]
        assert list(trace) == as_list  # iterating twice replays the same accesses
        assert list(spec.stream()) == as_list
        # Object consumers share one rebuilt list per trace.
        assert trace.accesses() is trace.accesses()
        assert trace.accesses() == as_list
        with pytest.raises(TypeError):
            hash(trace)

    def test_file_backed_build_returns_list(self, tmp_path):
        path = tmp_path / "trace.gzt"
        save_trace(make_trace("cloud", seed=1, length=50), path)
        trace = TraceSpec.from_file(path).build()
        assert isinstance(trace, list)
        assert trace == make_trace("cloud", seed=1, length=50)

    def test_spec_unknown_generator(self):
        spec = TraceSpec(name="t", suite="s", generator="nope")
        with pytest.raises(KeyError):
            spec.build()

    def test_make_trace_from_spec(self):
        spec = TraceSpec(name="t", suite="s", generator="spatial", length=200)
        assert len(make_trace(spec)) == 200

    def test_save_load_round_trip(self, tmp_path):
        trace = make_trace("cloud", seed=1, length=100)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == list(trace)

    def test_statistics_empty_trace(self):
        stats = trace_statistics([])
        assert stats["accesses"] == 0

    def test_statistics_counts(self):
        trace = make_trace("streaming", seed=1, length=500)
        stats = trace_statistics(trace)
        assert stats["accesses"] == 500
        assert stats["instructions"] >= 500


class TestSuites:
    def test_main_suites_present(self):
        assert set(MAIN_SUITES) <= set(suite_names())

    def test_all_specs_have_unique_names(self):
        names = [spec.name for spec in all_trace_specs(main_only=False)]
        assert len(names) == len(set(names))

    def test_every_spec_is_buildable_small(self):
        for spec in all_trace_specs(main_only=False):
            trace = spec.build(length=50)
            assert len(trace) == 50

    def test_suite_lookup_errors(self):
        with pytest.raises(KeyError):
            trace_specs_for_suite("not-a-suite")

    def test_suite_composition_mirrors_table3(self):
        assert len(trace_specs_for_suite("spec06")) >= 10
        assert len(trace_specs_for_suite("spec17")) >= 10
        assert len(trace_specs_for_suite("ligra")) >= 6
        assert len(trace_specs_for_suite("parsec")) >= 3
        assert len(trace_specs_for_suite("cloud")) >= 4
        assert len(trace_specs_for_suite("gap")) == 6

    def test_suite_field_matches_membership(self):
        for suite in ("spec06", "spec17", "ligra", "parsec", "cloud"):
            for spec in trace_specs_for_suite(suite):
                assert spec.suite == suite

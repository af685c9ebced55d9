"""Tests for the experiment harness (runner, metrics, reporting, tables)."""

import pytest

from repro.experiments import tables
from repro.experiments.jobs import batched_trace_cached, build_trace_cached
from repro.experiments.metrics import (
    aggregate_by_suite,
    arithmetic_mean,
    best_prefetcher,
    geomean,
    normalize_to_baseline,
    summarize_runs,
)
from repro.experiments.reporting import format_matrix, format_rows
from repro.experiments.runner import ExperimentRunner, RunResult, RunScale
from repro.sim.batch import BatchedTrace
from repro.workloads.suites import trace_specs_for_suite
from repro.workloads.trace import TraceSpec


@pytest.fixture(scope="module")
def tiny_runner():
    # use_cache=False keeps the suite hermetic: results must come from the
    # simulator under test, never from a stale .repro-cache in the CWD.
    return ExperimentRunner(
        RunScale(trace_length=1_500, traces_per_suite=1), use_cache=False
    )


class TestRunScale:
    def test_select_limits_specs(self):
        scale = RunScale(traces_per_suite=2)
        specs = trace_specs_for_suite("spec17")
        assert len(scale.select(specs)) == 2

    def test_select_unlimited(self):
        scale = RunScale(traces_per_suite=None)
        specs = trace_specs_for_suite("spec17")
        assert len(scale.select(specs)) == len(specs)


class TestExperimentRunner:
    def test_trace_cache_reuses_object(self, tiny_runner):
        spec = trace_specs_for_suite("spec17")[0]
        assert tiny_runner.trace_for(spec) is tiny_runner.trace_for(spec)

    def test_trace_memos_share_one_object(self, tiny_runner):
        spec = trace_specs_for_suite("spec17")[1]
        trace = tiny_runner.trace_for(spec)
        assert isinstance(trace, BatchedTrace)
        assert build_trace_cached(spec, 1_500) is trace
        assert batched_trace_cached(spec, 1_500) is trace

    def test_baseline_cache(self, tiny_runner):
        spec = trace_specs_for_suite("spec17")[0]
        assert tiny_runner.baseline_for(spec) is tiny_runner.baseline_for(spec)

    def test_run_one_produces_result(self, tiny_runner):
        spec = trace_specs_for_suite("spec17")[0]
        result = tiny_runner.run_one(spec, "gaze")
        assert result.prefetcher == "gaze"
        assert result.speedup > 0
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 <= result.coverage <= 1.0
        row = result.row()
        assert row["trace"] == spec.name

    def test_run_none_returns_baseline(self, tiny_runner):
        spec = trace_specs_for_suite("spec17")[0]
        result = tiny_runner.run_one(spec, "none")
        assert result.speedup == pytest.approx(1.0)

    def test_run_grid_size(self, tiny_runner):
        specs = trace_specs_for_suite("spec17")[:2]
        results = tiny_runner.run_grid(specs, ("none", "ip-stride"))
        assert len(results) == 4

    def test_run_suites_selects_per_scale(self, tiny_runner):
        results = tiny_runner.run_suites(("spec17", "cloud"), ("none",))
        assert len(results) == 2  # one trace per suite at this scale


class TestMetrics:
    def _fake_results(self):
        spec_a = TraceSpec(name="a", suite="s1", generator="streaming")
        spec_b = TraceSpec(name="b", suite="s2", generator="streaming")

        class FakeResult:
            def __init__(self, spec, prefetcher, speedup):
                self.spec = spec
                self.prefetcher = prefetcher
                self.speedup = speedup
                self.accuracy = 0.5
                self.coverage = 0.4
                self.late_fraction = 0.1

        return [
            FakeResult(spec_a, "x", 2.0),
            FakeResult(spec_b, "x", 0.5),
            FakeResult(spec_a, "y", 1.2),
            FakeResult(spec_b, "y", 1.2),
        ]

    def test_geomean(self):
        assert geomean([2.0, 0.5]) == pytest.approx(1.0)
        assert geomean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_summarize_runs(self):
        summary = summarize_runs(self._fake_results())
        assert summary["x"]["speedup"] == pytest.approx(1.0)
        assert summary["y"]["speedup"] == pytest.approx(1.2)
        assert summary["x"]["traces"] == 2.0

    def test_aggregate_by_suite(self):
        aggregated = aggregate_by_suite(self._fake_results())
        assert aggregated["x"]["s1"] == pytest.approx(2.0)
        assert aggregated["x"]["s2"] == pytest.approx(0.5)
        assert aggregated["x"]["avg"] == pytest.approx(1.0)

    def test_normalize_to_baseline(self):
        summary = summarize_runs(self._fake_results())
        normalized = normalize_to_baseline(summary, baseline="x")
        assert normalized["x"] == pytest.approx(1.0)
        assert normalized["y"] == pytest.approx(1.2)

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize_to_baseline({}, baseline="x")

    def test_best_prefetcher(self):
        summary = summarize_runs(self._fake_results())
        assert best_prefetcher(summary) == "y"


class TestReporting:
    def test_format_rows_alignment(self):
        text = format_rows([{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "longer"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "1.235" in lines[2]

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_rows_column_subset(self):
        text = format_rows([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_matrix(self):
        text = format_matrix({"gaze": {"spec": 1.2, "cloud": 1.1}})
        assert "gaze" in text
        assert "spec" in text


class TestTables:
    def test_table1_total_close_to_paper(self):
        rows = tables.table1_gaze_storage()
        total = [r for r in rows if r["structure"] == "Total"][0]
        assert total["measured_bytes"] == pytest.approx(total["paper_bytes"], rel=0.02)

    def test_table1_structures_present(self):
        structures = {r["structure"] for r in tables.table1_gaze_storage()}
        assert {"FT", "AT", "PHT", "DPCT", "PB", "Total"} <= structures

    def test_table4_has_all_prefetchers(self):
        rows = tables.table4_baseline_storage()
        names = {r["prefetcher"] for r in rows}
        assert {"sms", "bingo", "pmp", "vberti", "gaze"} <= names
        for row in rows:
            assert row["measured_kib"] > 0

    def test_table6_mixes(self):
        rows = tables.table6_four_core_mixes()
        assert len(rows) == 5
        assert all("," in row["traces"] for row in rows)

    def test_table5_qualitative(self, tiny_runner):
        rows = tables.table5_comparison(
            runner=tiny_runner, prefetchers=("gaze", "pmp")
        )
        by_name = {row["prefetcher"]: row for row in rows}
        assert by_name["gaze"]["low_hardware_cost"] is True
        assert isinstance(by_name["pmp"]["simple_pattern_ok"], bool)

"""Compiled batched driver loop: equivalence, engagement, tier reporting.

Under ``kernel="compiled"`` the simulator hands whole batched chunks to the
C ``DriverKernel`` (:mod:`repro.sim.driver`) for the bare no-prefetcher run
and the four designs with full C twins (vberti, gaze, pmp, triangel);
everything else silently falls back to the Python driver.  Both paths must
be *bit-identical* for every statistic and for the complete hierarchy state
a caller reads after the run — caches (contents, flags and LRU order),
MSHR file, prefetch queue, DRAM bank/row/channel timing and the core model.
A compiled run flushes its prefetch queue and MSHR file inside the kernel
and exports the caches and DRAM only on the first read of
``sim.hierarchy``.

These tests pin that equivalence over every registered prefetcher, over
chunked file-backed streams with warmup/budget cuts landing mid-run and
MSHR fills straddling chunk boundaries, the end-of-run flush with
prefetches still queued and fills still in flight, the lazy export, the
tier bookkeeping that makes a fallen-back "compiled" run visible, and the
PMP/Triangel train twins the driver dispatches to.

All equality assertions hold whether or not the extension is built (the
fallback is the identity); tests that require the C driver to *engage* are
skipped when it is absent.
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import BENCH_SCHEMA, BenchCase
from repro.prefetchers import available_prefetchers, create_prefetcher
from repro.prefetchers.compiled import compiled_available, compiled_twin
from repro.sim.batch import ChunkedTraceStream
from repro.sim.cache import MSHRFile
from repro.sim.driver import CompiledDriver, driver_available
from repro.sim.prefetch_queue import PrefetchQueue
from repro.sim.simulator import (
    SingleCoreSimulator,
    resolve_kernel,
    simulate_trace,
)
from repro.sim.types import MemoryAccess
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

requires_driver = pytest.mark.skipif(
    not driver_available(), reason="compiled driver kernel not built"
)
requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled extension not built"
)

DRIVER_PREFETCHERS = ("none", "vberti", "gaze", "pmp", "triangel")


def _trace(generator="spatial", seed=11, length=1_200):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length,
    ).build()


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"compiled driver diverged from the Python driver ({label})"
    )


def _prefetcher(name):
    return None if name == "none" else create_prefetcher(name)


def _run(trace, name, kernel, **kwargs):
    return simulate_trace(
        trace, prefetcher=_prefetcher(name), kernel=kernel, **kwargs
    )


# --------------------------------------------------------------------------- #
# Statistics equivalence
# --------------------------------------------------------------------------- #
class TestDriverEquivalence:
    @pytest.mark.parametrize("prefetcher_name", sorted(available_prefetchers()))
    def test_every_registered_prefetcher(self, prefetcher_name):
        trace = _trace(length=900)
        scalar = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="python", batch="off",
        )
        python = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="python",
        )
        compiled = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            kernel="compiled",
        )
        _assert_identical(scalar, python, f"{prefetcher_name}, python batched")
        _assert_identical(scalar, compiled, f"{prefetcher_name}, compiled")

    @pytest.mark.parametrize("generator", ["spatial", "streaming", "cloud"])
    def test_bare_none_fused_path(self, generator):
        trace = _trace(generator=generator, seed=3, length=1_500)
        scalar = simulate_trace(trace, batch="off")
        compiled = simulate_trace(trace, kernel="compiled")
        _assert_identical(scalar, compiled, f"{generator}, fused none")

    @pytest.mark.parametrize("name", DRIVER_PREFETCHERS)
    @pytest.mark.parametrize(
        "warmup,budget", [(0, 997), (250, None), (500, 1_503), (0, 100_000)]
    )
    def test_warmup_and_budget_cuts_mid_run(self, name, warmup, budget):
        # Budgets inside a pass, warmup boundaries mid-hit-run, and a
        # budget past one pass (replay wrap) must all cut at the exact
        # access the Python driver cuts at.
        trace = _trace(generator="streaming", seed=5, length=1_000)
        reference = _run(trace, name, "python",
                         warmup_instructions=warmup, max_instructions=budget)
        compiled = _run(trace, name, "compiled",
                        warmup_instructions=warmup, max_instructions=budget)
        _assert_identical(
            reference, compiled, f"{name}, warmup={warmup}, budget={budget}"
        )


# --------------------------------------------------------------------------- #
# Chunked / file-backed streams
# --------------------------------------------------------------------------- #
class TestChunkedDriver:
    @pytest.mark.parametrize("name", ["gaze", "pmp"])
    def test_small_chunks_with_straddling_fills(self, name):
        # chunk_accesses far below the trace length: prefetch fills issued
        # near the end of one chunk become ready inside the next, so the
        # driver's exported MSHR state must round-trip between run_batch
        # calls at exactly the scalar fill cycles.
        trace = _trace(generator="spatial", seed=7, length=2_000)
        scalar = _run(trace, name, "python", batch="off")
        chunked = simulate_trace(
            ChunkedTraceStream(trace, chunk_accesses=64),
            prefetcher=_prefetcher(name), kernel="compiled",
        )
        _assert_identical(scalar, chunked, f"{name}, 64-access chunks")
        assert scalar.prefetch.filled_l1 + scalar.prefetch.filled_l2 > 0

    @pytest.mark.parametrize(
        "warmup,budget", [(0, 777), (300, None), (150, 2_111)]
    )
    def test_chunked_budget_and_warmup_cuts(self, warmup, budget):
        trace = _trace(generator="cloud", seed=9, length=1_500)
        reference = simulate_trace(
            trace, prefetcher=_prefetcher("vberti"), kernel="python",
            warmup_instructions=warmup, max_instructions=budget,
        )
        chunked = simulate_trace(
            ChunkedTraceStream(trace, chunk_accesses=128),
            prefetcher=_prefetcher("vberti"), kernel="compiled",
            warmup_instructions=warmup, max_instructions=budget,
        )
        _assert_identical(
            reference, chunked, f"chunked, warmup={warmup}, budget={budget}"
        )

    def test_file_backed_stream(self, tmp_path):
        trace = _trace(generator="streaming", seed=13, length=900)
        path = tmp_path / "driver.gzt.gz"
        trace_formats.save_trace_file(iter(trace), str(path))
        spec = TraceSpec.from_file(str(path), name="driver", suite="test",
                                   length=900)
        scalar = _run(trace, "triangel", "python", batch="off")
        streamed = simulate_trace(
            spec.replayable(), prefetcher=_prefetcher("triangel"),
            kernel="compiled",
        )
        _assert_identical(scalar, streamed, "file-backed stream, triangel")


# --------------------------------------------------------------------------- #
# Hierarchy state after the run
# --------------------------------------------------------------------------- #
def _hierarchy_state(sim):
    def cache_state(cache):
        return [
            [
                (entry.block, entry.prefetched, entry.prefetch_useful,
                 entry.from_dram, entry.dirty, entry.useful_counted)
                for entry in cache_set.values()
            ]
            for cache_set in cache._sets
        ]

    h = sim.hierarchy
    return {
        "l1d": cache_state(h.l1d),
        "l2c": cache_state(h.l2c),
        "llc": cache_state(h.llc),
        "mshr": sorted(
            (e.block, e.ready_cycle, e.is_prefetch, e.from_dram)
            for e in h.l1_mshr._entries.values()
        ),
        "mshr_min_ready": h.l1_mshr._min_ready,
        "pq": [
            (request.address, request.hint, cycle)
            for request, cycle in h.prefetch_queue._queue
        ],
        "dram": (
            dict(h.dram._open_row),
            dict(h.dram._bank_busy_until),
            list(h.dram._channel_busy_until),
        ),
        "core": (
            sim.core._instr_count,
            sim.core._fetch_cycle,
            sim.core._last_retire_cycle,
            list(sim.core._outstanding),
            list(sim.core._outstanding_misses),
        ),
    }


class TestDriverStateSync:
    @requires_driver
    @pytest.mark.parametrize("name", DRIVER_PREFETCHERS)
    def test_lazy_export_restores_exact_hierarchy_state(self, name):
        # Not just the counters: cache contents in LRU order with all five
        # flag bits, in-flight MSHR entries, queued prefetches, DRAM
        # bank/row/channel timing and the core model must match what the
        # Python driver leaves behind once ``sim.hierarchy`` is read.
        trace = _trace(generator="spatial", seed=17, length=1_500)
        sims = {}
        for kernel in ("python", "compiled"):
            sim = SingleCoreSimulator(
                prefetcher=resolve_kernel(_prefetcher(name), kernel),
                kernel=kernel,
            )
            sim.run(trace)
            sims[kernel] = sim
        assert _hierarchy_state(sims["python"]) == _hierarchy_state(
            sims["compiled"]
        ), f"hierarchy state diverged after the run ({name})"

    @requires_driver
    def test_compiled_driver_actually_engaged(self):
        sim = SingleCoreSimulator(kernel="compiled")
        sim.run(_trace(length=400))
        assert sim.kernel_tier_used == "compiled-driver"
        assert sim.kernel_decline_reason is None


# --------------------------------------------------------------------------- #
# End-of-run flush in C
# --------------------------------------------------------------------------- #
def _eager_triangel():
    from repro.prefetchers.temporal import TriangelPrefetcher

    # Eager parameters (as in the twin test below) so predictions issue
    # within a few passes.
    return TriangelPrefetcher(
        sample_rate=1, train_threshold=1, predict_threshold=1,
        distance=4, degree=2,
    )


def _conflict_loop():
    # 22 blocks in one L1 set (64 sets apart), looped: the 12-way set
    # thrashes, so every access misses the L1 and trains Triangel.
    loop = [
        MemoryAccess(0x400, (0x1000 + 64 * k) << 6, instr_gap=k % 3)
        for k in range(22)
    ]
    return loop * 6


#: Per driver design: a trace whose end leaves prefetches queued and L1
#: fills in flight under every cut below, and the prefetcher factory.
TAIL_CASES = {
    "vberti": (lambda: _trace("strided", seed=1), lambda: _prefetcher("vberti")),
    "gaze": (lambda: _trace("cloud", seed=17), lambda: _prefetcher("gaze")),
    "pmp": (lambda: _trace("spatial", seed=8), lambda: _prefetcher("pmp")),
    "triangel": (_conflict_loop, _eager_triangel),
}


def _cut(trace, cut):
    """``(warmup, budget)``: a full pass, a warmup cut, or a budget that
    ends halfway through the replayed second pass."""
    per_pass = sum(access.instr_gap + 1 for access in trace)
    return {
        "one-pass": (0, None),
        "warmup": (per_pass // 3, None),
        "budget-mid-replay": (0, per_pass + per_pass // 2),
    }[cut]


class TestTailFlush:
    @requires_driver
    @pytest.mark.parametrize("cut", ["one-pass", "warmup", "budget-mid-replay"])
    @pytest.mark.parametrize("name", sorted(TAIL_CASES))
    def test_flush_in_c_matches_python(self, name, cut, monkeypatch):
        build_trace, build_prefetcher = TAIL_CASES[name]
        trace = build_trace()
        warmup, budget = _cut(trace, cut)

        drained, expired = [], []
        drain_all, expire = PrefetchQueue.drain_all, MSHRFile.expire

        def spy_drain_all(queue):
            out = drain_all(queue)
            drained.append(len(out))
            return out

        def spy_expire(mshr, cycle):
            out = expire(mshr, cycle)
            expired.append(len(out))
            return out

        monkeypatch.setattr(PrefetchQueue, "drain_all", spy_drain_all)
        monkeypatch.setattr(MSHRFile, "expire", spy_expire)

        results, calls = {}, {}
        for kernel in ("python", "compiled"):
            drained.clear()
            expired.clear()
            sim = SingleCoreSimulator(
                prefetcher=resolve_kernel(build_prefetcher(), kernel),
                kernel=kernel,
            )
            stats = sim.run(
                trace, warmup_instructions=warmup, max_instructions=budget
            )
            calls[kernel] = (list(drained), list(expired))
            results[kernel] = (_stats_dict(stats), _hierarchy_state(sim))
            if kernel == "compiled":
                assert sim.kernel_tier_used == "compiled-driver"

        # The Python flush had work on both halves: its drain_all issued
        # queued prefetches, and its final expire (at the flush horizon)
        # completed in-flight fills.  The compiled run did the same in C.
        py_drained, py_expired = calls["python"]
        assert py_drained and py_drained[-1] > 0, "no prefetch queued at the end"
        assert py_expired and py_expired[-1] > 0, "no fill in flight at the end"
        assert calls["compiled"] == ([], []), "compiled run flushed in Python"
        assert results["python"] == results["compiled"], (
            f"C flush diverged from flush_prefetches ({name}, {cut})"
        )


# --------------------------------------------------------------------------- #
# Lazy export
# --------------------------------------------------------------------------- #
@pytest.fixture
def detach_calls(monkeypatch):
    """Count calls of ``CompiledDriver.detach``, the lazy export."""
    calls = []
    detach = CompiledDriver.detach

    def spy(driver):
        calls.append(driver)
        return detach(driver)

    monkeypatch.setattr(CompiledDriver, "detach", spy)
    return calls


class TestLazyExport:
    @requires_driver
    def test_simulate_trace_never_exports(self, detach_calls):
        stats = _run(_trace(length=900), "gaze", "compiled", record_tier=True)
        assert stats.extra["kernel_tier"] == "compiled-driver"
        assert detach_calls == []

    @requires_driver
    def test_first_hierarchy_read_exports_once(self, detach_calls):
        sim = SingleCoreSimulator(
            prefetcher=resolve_kernel(_prefetcher("gaze"), "compiled"),
            kernel="compiled",
        )
        sim.run(_trace(length=900))
        assert sim.kernel_tier_used == "compiled-driver"
        assert detach_calls == []
        sim.hierarchy
        assert len(detach_calls) == 1
        sim.hierarchy.l1d
        _hierarchy_state(sim)
        assert len(detach_calls) == 1

    @pytest.mark.parametrize("name", DRIVER_PREFETCHERS)
    def test_second_run_on_one_simulator(self, name):
        # The second run() reads sim.hierarchy, which exports the first
        # run's kernel state before the driver attaches again.
        first_trace = _trace(generator="spatial", seed=17, length=1_000)
        second_trace = _trace(generator="cloud", seed=4, length=1_000)
        results = {}
        for kernel in ("python", "compiled"):
            sim = SingleCoreSimulator(
                prefetcher=resolve_kernel(_prefetcher(name), kernel),
                kernel=kernel,
            )
            first = _stats_dict(sim.run(first_trace))
            second = _stats_dict(sim.run(second_trace))
            results[kernel] = (first, second, _hierarchy_state(sim))
            if kernel == "compiled" and driver_available():
                assert sim.kernel_tier_used == "compiled-driver"
        assert results["python"] == results["compiled"], (
            f"second run on one simulator diverged ({name})"
        )


# --------------------------------------------------------------------------- #
# Tier recording
# --------------------------------------------------------------------------- #
class TestTierRecording:
    @requires_driver
    @pytest.mark.parametrize("name", DRIVER_PREFETCHERS)
    def test_driver_designs_record_compiled_driver(self, name):
        stats = _run(_trace(length=400), name, "compiled", record_tier=True)
        assert stats.extra["kernel_tier"] == "compiled-driver"
        assert "kernel_decline_reason" not in stats.extra

    def test_scalar_path_declines_with_reason(self):
        stats = simulate_trace(
            _trace(length=400), kernel="compiled", batch="off",
            record_tier=True,
        )
        assert stats.extra["kernel_tier"] != "compiled-driver"
        assert "scalar" in stats.extra["kernel_decline_reason"]

    @requires_driver
    def test_non_twin_design_declines_with_reason(self):
        stats = simulate_trace(
            _trace(length=400), prefetcher=create_prefetcher("ghb"),
            kernel="compiled", record_tier=True,
        )
        assert stats.extra["kernel_tier"] == "python"
        assert stats.extra["kernel_decline_reason"]

    @requires_driver
    def test_registry_none_object_declines(self):
        # Only a bare ``prefetcher=None`` runs the fused no-prefetcher
        # loop; the registry's NoPrefetcher *object* still trains through
        # the generic path and must decline honestly.
        stats = simulate_trace(
            _trace(length=400), prefetcher=create_prefetcher("none"),
            kernel="compiled", record_tier=True,
        )
        assert stats.extra["kernel_tier"] == "python"
        assert stats.extra["kernel_decline_reason"]

    def test_default_run_leaves_extra_untouched(self):
        stats = simulate_trace(_trace(length=400), kernel="compiled")
        assert "kernel_tier" not in stats.extra

    def test_python_kernel_records_python(self):
        stats = simulate_trace(
            _trace(length=400), kernel="python", record_tier=True
        )
        assert stats.extra["kernel_tier"] == "python"
        assert "kernel_decline_reason" not in stats.extra


# --------------------------------------------------------------------------- #
# Debug-assertion builds (REPRO_DEBUG_KERNELS=1)
# --------------------------------------------------------------------------- #
class TestDebugKernels:
    """The invariant-assertion tier of the extension.

    These tests run against whichever build is loaded: release builds
    export ``DEBUG_KERNELS == 0`` and skip the sweep entirely, debug
    builds run it at every Python boundary crossing.  The full
    equivalence suite above doubles as the bit-identity proof — the
    assertions are read-only, so a debug build must produce the exact
    statistics the release build (and the Python oracle) produce.
    """

    @requires_driver
    def test_debug_flag_exported(self):
        from repro import _kernels

        assert _kernels.DEBUG_KERNELS in (0, 1)

    @requires_driver
    def test_boundary_sweep_passes_on_real_runs(self):
        # Attach, run, flush, drain: every DRV_CHECK call site fires on a
        # debug build and must stay silent on healthy state.
        for name in DRIVER_PREFETCHERS:
            stats = _run(_trace(length=900), name, "compiled", record_tier=True)
            assert stats.extra["kernel_tier"] == "compiled-driver"

    @requires_driver
    def test_debug_build_rejects_corrupt_core_state(self):
        # The outstanding ring must be issue-position sorted; loading an
        # out-of-order ring is the one corruption reachable from Python
        # without poking C memory.  Release builds accept it silently
        # (the sweep is compiled out), debug builds refuse loudly.
        from repro import _kernels
        from repro.sim.driver import CompiledDriver

        sim = SingleCoreSimulator(kernel="compiled")
        driver, reason = CompiledDriver.try_attach(sim)
        assert driver is not None, reason
        unsorted_ring = [(10, 1.0), (5, 2.0)]
        if _kernels.DEBUG_KERNELS:
            with pytest.raises(AssertionError, match="not monotonic"):
                driver._kernel.load_core(0, 0.0, 0.0, 0.0, unsorted_ring, [])
        else:
            driver._kernel.load_core(0, 0.0, 0.0, 0.0, unsorted_ring, [])


# --------------------------------------------------------------------------- #
# PMP / Triangel train twins
# --------------------------------------------------------------------------- #
def _pmp_pair_and_blocks():
    from repro.prefetchers.pmp import PMPPrefetcher

    # Two sweeps over 80 regions with a dense head footprint: sweep one
    # overflows the 64-entry accumulation table so regions deactivate and
    # merge into the offset pattern table, sweep two triggers predictions
    # from the merged counters.
    blocks = []
    for region in range(80):
        base = region * 64
        blocks.extend([base, base + 1, base + 2, base + 3])
    return PMPPrefetcher(), PMPPrefetcher(), blocks * 2


def _triangel_pair_and_blocks():
    from repro.prefetchers.temporal import TriangelPrefetcher

    # Eager parameters (as in the temporal unit suite) so a recurring
    # sequence trains reuse confidence and the Markov pairs within a few
    # passes and predictions actually issue.
    def build():
        return TriangelPrefetcher(
            sample_rate=1, train_threshold=1, predict_threshold=1,
            distance=4, degree=2,
        )

    return build(), build(), list(range(0x5000, 0x5000 + 48)) * 3


@requires_compiled
class TestTrainTwins:
    @pytest.mark.parametrize(
        "builder", [_pmp_pair_and_blocks, _triangel_pair_and_blocks],
        ids=["pmp", "triangel"],
    )
    def test_twin_issues_identical_requests(self, builder):
        reference, template, blocks = builder()
        twin = compiled_twin(template)
        assert twin is not None and twin.name == reference.name
        issued_ref, issued_twin = [], []
        for cycle, block in enumerate(blocks):
            pc = 0x400 + (block % 7)
            ref_requests = reference.train(pc, block * 64, cycle)
            twin_requests = twin.train(pc, block * 64, cycle)
            issued_ref.extend((r.address, r.hint) for r in ref_requests)
            issued_twin.extend((r.address, r.hint) for r in twin_requests)
        assert issued_ref == issued_twin
        assert issued_ref, (
            f"{reference.name} twin-equivalence trace never issued"
        )


# --------------------------------------------------------------------------- #
# Bench tier hygiene
# --------------------------------------------------------------------------- #
class TestBenchTierHygiene:
    def test_case_key_is_tier_independent(self):
        # A compiled-tier snapshot must carry the same case keys as a
        # pure-Python one so compare_bench lines the tiers up
        # case-by-case instead of reporting key churn.
        keys = {
            BenchCase(kind="kernel", generator="spatial", seed=11,
                      prefetcher="gaze", kernel=kernel).key(40_000)
            for kernel in ("auto", "python", "compiled")
        }
        assert len(keys) == 1

    def test_schema_carries_the_tier_section(self):
        assert BENCH_SCHEMA >= 5

"""Multi-core driver tests: stat gating, epoch sharding and mix jobs.

Covers the acceptance properties of the sharded multi-core subsystem:

* **Stat gating** — a core that exhausts its instruction budget keeps
  replaying its trace (shared-resource pressure) but stops accumulating
  statistics, and its instruction/cycle totals are snapshotted at the
  budget boundary (no drift with overall mix length).
* **Golden counters** — per-core counter snapshots of the exact schedule
  on fixed mixes (``tests/goldens/multicore.json``), refreshed like the
  single-core goldens with ``REFRESH_GOLDENS=1``.
* **Epoch-sharded validation** — the epoch schedule executes the identical
  per-core instruction/access stream (bit-identical where the schedule
  permits: single-core mixes, any worker count) and its per-core IPC stays
  within the documented error bound of the exact interleaving on golden
  mixes; speedup aggregates stay within a tighter bound.
* **Engine integration** — mix jobs are content-keyed (trace tuples,
  schedule parameters), sharded across worker processes bit-identically,
  and answered from the persistent cache on warm re-runs.
* **Compiled mixes** — under ``kernel="compiled"`` an exact mix runs in
  C (``_kernels.run_mix``) and equals the Python object loop on every
  statistic and on the shared LLC/DRAM state it leaves behind; every
  decline is recorded and falls back to the Python result.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine
from repro.experiments.executors import ParallelExecutor, SerialExecutor
from repro.experiments.jobs import MixSimulationJob, execute_job
from repro.prefetchers.registry import create_prefetcher
from repro.sim import default_system_config, simulate_mix
from repro.sim.driver import driver_available
from repro.sim.multicore import (
    MIX_MODES,
    MultiCoreSimulator,
    default_epoch_instructions,
)
from repro.sim.stats import MultiCoreStats
from repro.sim.types import MemoryAccess
from repro.workloads.trace import TraceSpec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "multicore.json"

needs_driver = pytest.mark.skipif(
    not driver_available(), reason="repro._kernels extension not built"
)

#: Both mix tiers; the compiled one needs the extension.
TIERS = ["python", pytest.param("compiled", marks=needs_driver)]

_REFRESH = os.environ.get("REFRESH_GOLDENS", "") not in ("", "0")

#: Documented epoch-vs-exact error bounds (see README "Architecture &
#: performance"): per-core IPC within 30% relative, mix-level geomean
#: speedup within 0.10 absolute, on the golden mixes below.
EPOCH_IPC_RELATIVE_BOUND = 0.30
EPOCH_SPEEDUP_ABSOLUTE_BOUND = 0.10

#: The golden mixes: fixed generator tuples, short on purpose (drift
#: detection plus epoch-validation substrate, not statistical fidelity).
GOLDEN_MIXES = {
    "mix2-spatial-streaming": {
        "traces": (("spatial", 3), ("streaming", 2)),
        "length": 2_000,
        "budget": 6_000,
    },
    "mix4-hetero": {
        "traces": (("spatial", 31), ("cloud", 32), ("streaming", 33), ("graph", 34)),
        "length": 1_500,
        "budget": 4_500,
    },
}


def _specs(mix_key):
    definition = GOLDEN_MIXES[mix_key]
    return tuple(
        TraceSpec(
            name=f"{generator}-s{seed}",
            suite="golden-mix",
            generator=generator,
            seed=seed,
            length=definition["length"],
        )
        for generator, seed in definition["traces"]
    )


def _traces(mix_key):
    definition = GOLDEN_MIXES[mix_key]
    return [spec.build(length=definition["length"]) for spec in _specs(mix_key)]


def _run_mix(mix_key, prefetcher="gaze", **kwargs):
    definition = GOLDEN_MIXES[mix_key]
    traces = _traces(mix_key)
    factory = (lambda: create_prefetcher(prefetcher)) if prefetcher else None
    return simulate_mix(
        traces,
        factory,
        default_system_config(len(traces)),
        definition["budget"],
        name=mix_key,
        **kwargs,
    )


def _flat_trace(num_accesses, instr_gap, pc=0x40, stride=64):
    """A deterministic trace with a constant instruction gap."""
    return [
        MemoryAccess(pc=pc, address=0x10000 + i * stride, instr_gap=instr_gap)
        for i in range(num_accesses)
    ]


def _expected_measured(trace, budget):
    """(instructions, accesses) the measured window must contain exactly.

    The measured stream is schedule-independent: accesses replay in trace
    order until the cumulative instruction count reaches the budget.
    """
    instructions = 0
    accesses = 0
    index = 0
    while instructions < budget:
        access = trace[index % len(trace)]
        instructions += access.instr_gap + 1
        accesses += 1
        index += 1
    return instructions, accesses


# --------------------------------------------------------------------------- #
# Stat gating at budget exhaustion
# --------------------------------------------------------------------------- #
class TestFinishedCoreGating:
    """Stat gating on the Python tier (see the compiled subclass below)."""

    KERNEL = "python"

    def test_finished_core_stops_accumulating_stats(self):
        # Core 1's large gaps exhaust its budget in a tenth of the steps,
        # after which it keeps replaying (pressure) for the whole remainder
        # of core 0's run.  Its measured counters must cover exactly the
        # budgeted window — before the gating fix they kept growing.
        budget = 2_000
        traces = [_flat_trace(256, 0, pc=0x1), _flat_trace(256, 9, pc=0x2)]
        result = simulate_mix(
            traces, None, default_system_config(2), budget, name="gating",
            kernel=self.KERNEL,
        )
        for core_id, trace in enumerate(traces):
            instructions, accesses = _expected_measured(trace, budget)
            stats = result.per_core[core_id]
            assert stats.instructions == instructions
            assert stats.demand_accesses == accesses

    def test_finished_core_ipc_does_not_drift_with_mix_length(self):
        # The fast-finishing core's totals are snapshotted at its budget
        # boundary, so they cannot depend on how much longer the slowest
        # core keeps the mix alive.  Compare the same fast core against
        # runs where the partner trace (and hence the overrun) differs.
        fast = _flat_trace(200, 9, pc=0x2)
        short_partner = _flat_trace(300, 1, pc=0x1)
        # The long partner touches far-away addresses: different pressure,
        # much longer overrun — but the fast core's *instruction/cycle*
        # snapshot must still be taken at the same boundary.
        result_short = simulate_mix(
            [short_partner, fast], None, default_system_config(2), 1_000,
            kernel=self.KERNEL,
        )
        instructions, accesses = _expected_measured(fast, 1_000)
        stats = result_short.per_core[1]
        assert stats.instructions == instructions
        assert stats.demand_accesses == accesses

    def test_all_cores_reach_budget(self):
        result = _run_mix(
            "mix2-spatial-streaming", prefetcher=None, kernel=self.KERNEL
        )
        for stats in result.per_core.values():
            assert stats.instructions >= GOLDEN_MIXES["mix2-spatial-streaming"]["budget"]
            assert stats.cycles > 0


@needs_driver
class TestFinishedCoreGatingCompiled(TestFinishedCoreGating):
    """The same gating cases on the C mix."""

    KERNEL = "compiled"


# --------------------------------------------------------------------------- #
# Golden counters (exact schedule)
# --------------------------------------------------------------------------- #
def _golden_row(stats):
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "demand_accesses": stats.demand_accesses,
        "l1_hits": stats.l1_hits,
        "llc_misses": stats.llc_misses,
        "issued_prefetches": stats.prefetch.issued,
        "useful_prefetches": stats.prefetch.useful,
        "ipc": round(stats.ipc, 9),
    }


def _load_goldens():
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _store_golden(entry_key, rows):
    data = _load_goldens()
    data[entry_key] = rows
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(dict(sorted(data.items())), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
@pytest.mark.parametrize("prefetcher", [None, "gaze"])
def test_multicore_golden_stats(mix_key, prefetcher):
    entry_key = f"{mix_key}/{prefetcher if prefetcher else 'none'}"
    result = _run_mix(mix_key, prefetcher=prefetcher)
    rows = {
        str(core_id): _golden_row(stats)
        for core_id, stats in sorted(result.per_core.items())
    }
    if _REFRESH:
        _store_golden(entry_key, rows)
    golden = _load_goldens()
    assert entry_key in golden, (
        f"no golden entry for {entry_key}; refresh with "
        "REFRESH_GOLDENS=1 python -m pytest tests/test_multicore.py -q"
    )
    assert rows == golden[entry_key], (
        f"multi-core simulation drift for {entry_key}; if intentional, "
        "refresh goldens and bump ENGINE_SCHEMA_VERSION"
    )


# --------------------------------------------------------------------------- #
# Epoch-sharded schedule vs exact interleaving
# --------------------------------------------------------------------------- #
class TestEpochShardedValidation:
    @pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
    def test_epoch_mode_measures_identical_instruction_stream(self, mix_key):
        exact = _run_mix(mix_key)
        epoch = _run_mix(mix_key, mode="epoch")
        assert sorted(epoch.per_core) == sorted(exact.per_core)
        for core_id in exact.per_core:
            assert (
                epoch.per_core[core_id].instructions
                == exact.per_core[core_id].instructions
            )
            assert (
                epoch.per_core[core_id].demand_accesses
                == exact.per_core[core_id].demand_accesses
            )

    @pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
    def test_epoch_mode_per_core_ipc_within_documented_bound(self, mix_key):
        exact = _run_mix(mix_key)
        epoch = _run_mix(mix_key, mode="epoch")
        for core_id in exact.per_core:
            reference = exact.per_core[core_id].ipc
            approximate = epoch.per_core[core_id].ipc
            assert abs(approximate - reference) / reference <= (
                EPOCH_IPC_RELATIVE_BOUND
            ), f"core {core_id}: {approximate} vs {reference}"

    @pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
    def test_epoch_mode_speedup_within_documented_bound(self, mix_key):
        exact_speedup = _run_mix(mix_key).geomean_speedup(
            _run_mix(mix_key, prefetcher=None)
        )
        epoch_speedup = _run_mix(mix_key, mode="epoch").geomean_speedup(
            _run_mix(mix_key, prefetcher=None, mode="epoch")
        )
        assert abs(epoch_speedup - exact_speedup) <= EPOCH_SPEEDUP_ABSOLUTE_BOUND

    def test_single_core_mix_is_bit_identical(self):
        # With one core there is no cross-core traffic to approximate, so
        # the epoch boundary permits bit-identical results at any epoch
        # length ("bit-identical where the epoch boundary permits").
        trace = _traces("mix2-spatial-streaming")[:1]
        config = default_system_config(1)
        exact = simulate_mix(
            trace, lambda: create_prefetcher("gaze"), config, 5_000, name="one"
        )
        for epoch_instructions in (0, 333, 700):
            epoch = simulate_mix(
                trace,
                lambda: create_prefetcher("gaze"),
                config,
                5_000,
                name="one",
                mode="epoch",
                epoch_instructions=epoch_instructions,
            )
            assert epoch.to_dict() == exact.to_dict()

    def test_worker_count_does_not_change_results(self):
        serial = _run_mix("mix4-hetero", mode="epoch")
        for workers in (2, 4):
            threaded = _run_mix("mix4-hetero", mode="epoch", workers=workers)
            assert threaded.to_dict() == serial.to_dict()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _run_mix("mix2-spatial-streaming", mode="bogus")
        assert "exact" in MIX_MODES and "epoch" in MIX_MODES

    def test_default_epoch_length(self):
        assert default_epoch_instructions(9_000) == 1_125
        assert default_epoch_instructions(100) == 500


# --------------------------------------------------------------------------- #
# Streamed TraceFile mixes
# --------------------------------------------------------------------------- #
class TestStreamedMixes:
    @pytest.mark.parametrize("mode", sorted(MIX_MODES))
    def test_streamed_handles_equal_materialized(self, mode, tmp_path):
        from repro.workloads import formats as trace_formats

        materialized = _traces("mix2-spatial-streaming")
        handles = []
        for index, trace in enumerate(materialized):
            path = tmp_path / f"core{index}.gzt.gz"
            trace_formats.save_trace_file(iter(trace), str(path))
            handles.append(trace_formats.TraceFile(str(path)))
        factory = lambda: create_prefetcher("gaze")  # noqa: E731
        config = default_system_config(2)
        from_lists = simulate_mix(
            materialized, factory, config, 4_000, name="m", mode=mode
        )
        from_files = simulate_mix(
            handles, factory, config, 4_000, name="m", mode=mode
        )
        assert from_files.to_dict() == from_lists.to_dict()


# --------------------------------------------------------------------------- #
# Mix jobs: keys, executors, persistent cache
# --------------------------------------------------------------------------- #
def _mix_job(prefetcher="gaze", **overrides):
    defaults = dict(
        specs=_specs("mix2-spatial-streaming"),
        prefetcher=prefetcher,
        trace_length=GOLDEN_MIXES["mix2-spatial-streaming"]["length"],
        max_instructions_per_core=4_000,
    )
    defaults.update(overrides)
    return MixSimulationJob(**defaults)


class TestMixJobs:
    def test_key_covers_trace_tuple_and_schedule(self):
        base = _mix_job()
        assert base.key() == _mix_job().key()
        reordered = _mix_job(specs=tuple(reversed(_specs("mix2-spatial-streaming"))))
        assert base.key() != reordered.key()
        assert base.key() != _mix_job(prefetcher="pmp").key()
        assert base.key() != _mix_job(mode="epoch").key()
        assert base.key() != _mix_job(mode="epoch", epoch_instructions=123).key(
        ), "epoch length affects results and must affect the key"
        assert base.key() != _mix_job(max_instructions_per_core=5_000).key()

    def test_workers_do_not_affect_key_or_results(self):
        assert _mix_job().key() == _mix_job(workers=8).key()
        serial = execute_job(_mix_job(mode="epoch"))
        threaded = execute_job(_mix_job(mode="epoch", workers=4))
        assert serial.to_dict() == threaded.to_dict()

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            MixSimulationJob(specs=())

    def test_execute_matches_direct_simulation(self):
        job = _mix_job()
        via_job = execute_job(job)
        direct = simulate_mix(
            [spec.build(length=job.trace_length) for spec in job.specs],
            lambda: create_prefetcher("gaze"),
            default_system_config(2),
            job.max_instructions_per_core,
            name=job.name,
        )
        assert via_job.to_dict() == direct.to_dict()

    def test_parallel_executor_bit_identical(self):
        jobs = [_mix_job(prefetcher="none"), _mix_job(), _mix_job(prefetcher="pmp")]
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(jobs=2).run(jobs)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]

    def test_multicore_stats_roundtrip(self):
        stats = execute_job(_mix_job())
        rebuilt = MultiCoreStats.from_dict(stats.to_dict())
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.per_core[0] == stats.per_core[0]

    def test_persistent_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = [_mix_job(prefetcher="none"), _mix_job()]

        cold = ExperimentEngine(cache=ResultCache(cache_dir))
        cold_results = cold.run_jobs(jobs)
        assert cold.simulations_run == 2

        warm = ExperimentEngine(cache=ResultCache(cache_dir))
        warm_results = warm.run_jobs(jobs)
        assert warm.simulations_run == 0
        assert warm.cache.hits == 2
        for cold_stats, warm_stats in zip(cold_results, warm_results):
            assert isinstance(warm_stats, MultiCoreStats)
            assert warm_stats.to_dict() == cold_stats.to_dict()

    def test_engine_memo_dedupes_identical_mixes(self):
        engine = ExperimentEngine()
        results = engine.run_jobs([_mix_job(), _mix_job()])
        assert engine.simulations_run == 1
        assert results[0] is results[1]


# --------------------------------------------------------------------------- #
# Compiled exact mixes (the C interleave) vs the Python object loop
# --------------------------------------------------------------------------- #
COMPILED_DESIGNS = [None, "vberti", "pmp", "gaze", "triangel"]


def _factory(prefetcher):
    return (lambda: create_prefetcher(prefetcher)) if prefetcher else None


def _shared_state(simulator):
    """Everything a mix leaves in the shared LLC and DRAM, as plain data."""
    llc = simulator.shared_llc
    dram = simulator.shared_dram
    blocks = [
        [
            (b.block, b.prefetched, b.prefetch_useful, b.from_dram, b.dirty,
             b.useful_counted)
            for b in cache_set.values()
        ]
        for cache_set in llc._sets
    ]
    return {
        "llc": blocks,
        "llc_counters": (
            llc.hits, llc.misses, llc.evictions, llc.useless_prefetch_evictions
        ),
        "open_row": dict(dram._open_row),
        "bank_busy": dict(dram._bank_busy_until),
        "channel_busy": list(dram._channel_busy_until),
        "dram_stats": dram.stats,
    }


def _simulator(traces, prefetcher, kernel, name="m"):
    return MultiCoreSimulator(
        len(traces),
        _factory(prefetcher),
        default_system_config(len(traces)),
        name=name,
        kernel=kernel,
    )


@needs_driver
class TestCompiledMix:
    @pytest.mark.parametrize("prefetcher", COMPILED_DESIGNS)
    @pytest.mark.parametrize("mix_key", sorted(GOLDEN_MIXES))
    def test_golden_mixes_equal_python(self, mix_key, prefetcher):
        python = _run_mix(mix_key, prefetcher=prefetcher, kernel="python")
        compiled = _run_mix(mix_key, prefetcher=prefetcher, kernel="compiled")
        assert compiled.to_dict() == python.to_dict()

    @pytest.mark.parametrize("prefetcher", COMPILED_DESIGNS)
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_core_counts_equal_python(self, cores, prefetcher):
        # Core i replays golden-mix trace i % 2 (the 4-core mix is two
        # homogeneous pairs sharing one trace object per pair).
        base = _traces("mix2-spatial-streaming")
        traces = [base[i % 2] for i in range(cores)]
        results = {}
        for kernel in ("python", "compiled"):
            simulator = _simulator(traces, prefetcher, kernel)
            results[kernel] = simulator.run(traces, 3_000).to_dict()
            assert simulator.kernel_tier_used == (
                "compiled-driver" if kernel == "compiled"
                else "python"
            )
            assert simulator.kernel_decline_reason is None
        assert results["compiled"] == results["python"]

    @pytest.mark.parametrize("prefetcher", [None, "gaze", "pmp"])
    def test_shared_state_equals_python(self, prefetcher):
        traces = _traces("mix4-hetero")
        states = {}
        for kernel in ("python", "compiled"):
            simulator = _simulator(traces, prefetcher, kernel)
            simulator.run(traces, 4_500)
            states[kernel] = _shared_state(simulator)
        assert states["compiled"] == states["python"]
        assert states["python"]["llc_counters"][1] > 0

    def test_second_run_continues_from_shared_state(self):
        # A second run() starts from the LLC/DRAM the first one left: the
        # compiled tier loads it back from the pending kernels.
        traces = _traces("mix2-spatial-streaming")
        outcomes = {}
        for kernel in ("python", "compiled"):
            simulator = _simulator(traces, "gaze", kernel)
            first = simulator.run(traces, 2_000).to_dict()
            second = simulator.run(traces, 2_000).to_dict()
            outcomes[kernel] = (first, second, _shared_state(simulator))
        assert outcomes["compiled"] == outcomes["python"]
        assert outcomes["python"][0] != outcomes["python"][1]

    def test_run_mix_checks_its_arguments(self):
        from repro import _kernels
        from repro.sim.batch import BatchedTrace
        from repro.sim.cpu import CoreTimingModel
        from repro.sim.driver import _new_kernel
        from repro.sim.hierarchy import CacheHierarchy

        config = default_system_config(2).scaled_for_cores(2)
        hierarchy = CacheHierarchy(config)
        core = CoreTimingModel(config.core)
        leader = _new_kernel(hierarchy, core, None)
        follower = _new_kernel(hierarchy, core, None, shared=leader)
        loner = _new_kernel(hierarchy, core, None)
        decoded = BatchedTrace.from_accesses(_flat_trace(64, 1))
        arrays = (decoded.addresses, decoded.pcs, decoded.blocks, decoded.gaps,
                  decoded.kinds)
        with pytest.raises(ValueError, match="share"):
            _kernels.run_mix([leader, loner], [arrays, arrays], 100)
        with pytest.raises(ValueError, match="twice"):
            _kernels.run_mix([leader, leader], [arrays, arrays], 100)
        with pytest.raises(ValueError, match="positive"):
            _kernels.run_mix([leader, follower], [arrays, arrays], 0)
        with pytest.raises(ValueError, match="one trace per kernel"):
            _kernels.run_mix([leader, follower], [arrays], 100)
        with pytest.raises(ValueError, match="empty"):
            _kernels.run_mix([leader], [([], [], [], [], bytearray())], 100)
        other = default_system_config(1)
        with pytest.raises(ValueError, match="different LLC"):
            _new_kernel(CacheHierarchy(other), core, None, shared=leader)
        rows = _kernels.run_mix([leader, follower], [arrays, arrays], 100)
        assert [row[0] for row in rows] == [100, 100]

    def test_shared_owner_cannot_be_reinitialised(self, monkeypatch):
        # A mix core points into its owner's LLC/DRAM arrays, so the owner
        # may not reallocate them while a core still borrows them.
        import types

        from repro import _kernels
        from repro.sim import driver
        from repro.sim.cpu import CoreTimingModel
        from repro.sim.hierarchy import CacheHierarchy

        made = []

        def record(**kwargs):
            made.append(kwargs)
            return _kernels.DriverKernel(**kwargs)

        monkeypatch.setattr(
            driver, "_kernels", types.SimpleNamespace(DriverKernel=record)
        )
        config = default_system_config(2).scaled_for_cores(2)
        hierarchy = CacheHierarchy(config)
        core = CoreTimingModel(config.core)
        owner = driver._new_kernel(hierarchy, core, None)
        borrower = driver._new_kernel(hierarchy, core, None, shared=owner)
        with pytest.raises(RuntimeError, match="share"):
            owner.__init__(**made[0])
        borrower.__init__(**made[0])  # now owns its own state
        owner.__init__(**made[0])

    def test_mix_job_equals_python_and_keeps_its_key(self):
        python = _mix_job(kernel="python")
        compiled = _mix_job(kernel="compiled")
        assert compiled.key() == python.key() == _mix_job().key()
        assert compiled.to_dict() == python.to_dict()
        assert execute_job(compiled).to_dict() == execute_job(python).to_dict()


class TestCompiledMixDeclines:
    def _declined(self, traces, prefetcher, **run):
        python = _simulator(traces, prefetcher, "python").run(traces, 3_000, **run)
        simulator = _simulator(traces, prefetcher, "compiled")
        result = simulator.run(traces, 3_000, **run)
        assert result.to_dict() == python.to_dict()
        assert simulator.kernel_tier_used != "compiled-driver"
        return simulator.kernel_decline_reason

    @needs_driver
    def test_epoch_mode(self):
        reason = self._declined(_traces("mix2-spatial-streaming"), "gaze", mode="epoch")
        assert "epoch" in reason

    @needs_driver
    def test_file_backed_handles(self, tmp_path):
        from repro.workloads import formats as trace_formats

        handles = []
        for index, trace in enumerate(_traces("mix2-spatial-streaming")):
            path = tmp_path / f"core{index}.gzt.gz"
            trace_formats.save_trace_file(iter(trace), str(path))
            handles.append(trace_formats.TraceFile(str(path)))
        assert "streamed" in self._declined(handles, "gaze")

    @needs_driver
    def test_design_without_twin(self):
        reason = self._declined(_traces("mix2-spatial-streaming"), "bingo")
        assert "bingo" in reason and "twin" in reason

    def test_missing_extension(self, monkeypatch):
        from repro.sim import driver

        monkeypatch.setattr(driver, "_kernels", None)
        reason = self._declined(_traces("mix2-spatial-streaming"), None)
        assert "not built" in reason


class TestMixBudgetValidation:
    @pytest.mark.parametrize("kernel", TIERS)
    @pytest.mark.parametrize("budget", [0, -5])
    def test_simulator_rejects_nonpositive_budget(self, budget, kernel):
        traces = _traces("mix2-spatial-streaming")
        with pytest.raises(ValueError, match="max_instructions_per_core"):
            _simulator(traces, "gaze", kernel).run(traces, budget)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_job_rejects_nonpositive_budget(self, budget):
        with pytest.raises(ValueError, match="max_instructions_per_core"):
            _mix_job(max_instructions_per_core=budget)

    def test_job_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            _mix_job(kernel="fast")

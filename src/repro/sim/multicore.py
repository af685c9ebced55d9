"""Multi-core simulation driver.

Models an ``n``-core system in which each core has private L1D/L2C caches,
its own prefetcher instance and its own timing model, while the LLC and the
DRAM channels are shared.  Mixes follow the paper's methodology: a
*homogeneous* mix runs ``n`` copies of one trace; a *heterogeneous* mix runs
``n`` different traces.  A core that exhausts its instruction budget keeps
replaying its trace (to keep pressuring shared resources) but stops
accumulating statistics: its measured instruction/cycle totals are
snapshotted the moment the budget is exhausted, and every later counter
update lands in a discarded sink.

Two execution schedules are provided:

* ``mode="exact"`` — cores are interleaved access-by-access in a
  round-robin fashion; contention appears through the shared LLC contents
  and through the DRAM channel-occupancy model.  This is the reference
  schedule (and the one golden mixes snapshot).
* ``mode="epoch"`` — the epoch-sharded schedule: each core runs one epoch
  (a fixed slice of instructions) against private recording shadows of the
  shared LLC/DRAM, intra-epoch cross-core DRAM contention is approximated
  by one-epoch-stale ghost traffic, and the master state is reconciled
  between epochs by deterministically replaying the shared-resource
  operation logs (see :mod:`repro.sim.sharding`).  Core-epochs are
  independent tasks, so they may execute in any order — or concurrently
  via ``workers`` — with results identical to the serial epoch schedule.
  Relative to ``exact``, the approximation is bounded by the epoch length;
  single-core mixes are bit-identical, and ``tests/test_multicore.py``
  pins the per-core IPC error on golden multi-core mixes.

Execution tiers (the ``kernel`` knob, as for single-core runs):

================================  ======================================
mix                               runs on
================================  ======================================
exact, ``kernel="compiled"``      the C extension (``_kernels.run_mix``):
                                  one ``DriverKernel`` per core sharing
                                  one LLC and one DRAM, one Python
                                  crossing per mix
exact or epoch, ``auto``/         the Python object loop below, the
``python``                        bit-exact oracle
declined under ``"compiled"``:    the Python object loop (C train twins
epoch mode, file-backed traces,   where a design has one); the reason is
a design without a C twin, ...    recorded
================================  ======================================

Epoch mode stays in Python.  It exists to approximate the exact schedule
with independent core-epochs; in C that would need the recording shadows
and log replay of :mod:`repro.sim.sharding` as well, while the exact C
mix is already far faster than either Python schedule.  The tier that ran
is :attr:`MultiCoreSimulator.kernel_tier_used`, with
:attr:`~MultiCoreSimulator.kernel_decline_reason`.  After a C mix the
shared LLC and DRAM state stays in the kernels until
:attr:`~MultiCoreSimulator.shared_llc` or
:attr:`~MultiCoreSimulator.shared_dram` is read.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.sim.batch import BatchedTrace
from repro.sim.cache import Cache
from repro.sim.config import SystemConfig, default_system_config
from repro.sim.cpu import CoreTimingModel
from repro.sim.dram import DRAMModel
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.driver import attach_mix
from repro.sim.sharding import (
    CowCacheShadow,
    RecordingCache,
    RecordingDRAM,
    replay_dram_logs,
    replay_llc_log,
    shifted_ghosts,
)
from repro.sim.simulator import KERNEL_MODES, _TraceReplayer, resolve_kernel
from repro.sim.stats import MultiCoreStats, SimulationStats
from repro.sim.types import AccessType, MemoryAccess

#: Execution schedules accepted by :meth:`MultiCoreSimulator.run`.
MIX_MODES = ("exact", "epoch")


def default_epoch_instructions(max_instructions_per_core: int) -> int:
    """The auto epoch length: an eighth of the budget, at least 500.

    Short enough that shared-state reconciliation happens several times per
    run (bounding the sharding approximation), long enough that the
    clone/replay overhead stays well under the simulation cost.
    """
    return max(500, max_instructions_per_core // 8)


class _CoreContext:
    """Per-core bookkeeping used by the multi-core driver."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        prefetcher,
        trace,
        shared_llc: Cache,
        shared_dram: DRAMModel,
        stats: SimulationStats,
    ) -> None:
        self.core_id = core_id
        self.prefetcher = prefetcher
        self.stats = stats
        self.hierarchy = CacheHierarchy(
            config, stats=self.stats, shared_llc=shared_llc, shared_dram=shared_dram
        )
        self.core = CoreTimingModel(config.core)
        if prefetcher is not None and hasattr(prefetcher, "on_cache_eviction"):
            listeners = self.hierarchy.l1d.eviction_listeners
            # Bound method (identity-comparable) instead of a per-instance
            # lambda; guards against stacking a duplicate listener when a
            # prefetcher/hierarchy pairing is rewired.
            if self._notify_prefetcher_eviction not in listeners:
                listeners.append(self._notify_prefetcher_eviction)
        if isinstance(trace, BatchedTrace):
            # step() reads one access object per step, so build them once.
            trace = trace.accesses()
        self.replayer = _TraceReplayer(trace)
        self.executed_instructions = 0
        self.budget = 0
        self.measuring = True

    def _notify_prefetcher_eviction(self, victim) -> None:
        """Forward an L1D eviction to the prefetcher's region deactivation."""
        self.prefetcher.on_cache_eviction(victim.block)

    def step(self) -> None:
        """Execute one memory access (plus its preceding non-memory gap)."""
        core = self.core
        hierarchy = self.hierarchy
        access = self.replayer.next_access(replay=True)
        gap = access.instr_gap
        if gap > 0:
            core.advance_non_memory(gap)
        issue_cycle = core.begin_memory_access()
        self.executed_instructions += gap + 1

        hierarchy.issue_queued_prefetches(issue_cycle)
        access_type = access.access_type
        result = hierarchy.demand_access(
            access.address, issue_cycle, access_type is AccessType.STORE
        )
        core.complete_memory_access(result.latency)

        if self.prefetcher is not None and access_type is AccessType.LOAD:
            requests = self.prefetcher.train(
                access.pc, access.address, issue_cycle, result
            )
            if requests:
                hierarchy.enqueue_prefetches(requests, issue_cycle)

        if self.measuring and self.executed_instructions >= self.budget:
            self.close_measurement()

    def close_measurement(self) -> None:
        """Freeze this core's measured statistics at budget exhaustion.

        The instruction/cycle totals are snapshotted *now* (so a finished
        core's IPC cannot drift with the overall mix length) and the
        hierarchy's statistics target is swapped to a discarded sink: the
        core keeps running — keeps demanding, prefetching and occupying the
        shared LLC/DRAM — but no longer pollutes its measured counters.
        """
        self.measuring = False
        instructions, cycles = self.core.progress_totals()
        self.stats.instructions = instructions
        self.stats.cycles = cycles
        self.hierarchy.stats = SimulationStats(
            name=self.stats.name, prefetcher=self.stats.prefetcher
        )

    def run_until(self, instruction_target: int) -> None:
        """Step until this core has executed ``instruction_target`` total.

        One core-epoch of the sharded schedule.  Touches only this
        context's private state (and whatever shadows its hierarchy is
        currently bound to), so concurrent calls on different contexts are
        safe and deterministic.
        """
        step = self.step
        while self.executed_instructions < instruction_target:
            step()

    def finalize(self) -> SimulationStats:
        """Return the measured statistics (closing measurement if needed)."""
        if self.measuring:
            self.close_measurement()
        return self.stats


class MultiCoreSimulator:
    """Runs an ``n``-core mix with a shared LLC and DRAM."""

    def __init__(
        self,
        num_cores: int,
        prefetcher_factory: Optional[Callable[[], object]] = None,
        config: Optional[SystemConfig] = None,
        name: str = "",
        kernel: str = "auto",
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
            )
        base = config if config is not None else default_system_config(num_cores)
        self.config = base.scaled_for_cores(num_cores)
        self.num_cores = num_cores
        self.prefetcher_factory = prefetcher_factory
        self.name = name
        #: Requested kernel tier.  ``"compiled"`` runs the prefetchers'
        #: C twins and, for exact mixes, the whole interleave in C.
        self.kernel_mode = kernel
        #: Tier that executed the last :meth:`run`: ``"compiled-driver"``
        #: (the mix in C), ``"compiled"`` (Python loop calling C train
        #: kernels) or ``"python"``.
        self.kernel_tier_used: Optional[str] = None
        #: Why the C mix did not engage (``None`` when it did, or when it
        #: was never requested).
        self.kernel_decline_reason: Optional[str] = None
        self._shared_llc = Cache(self.config.llc)
        self._shared_dram = DRAMModel(self.config.dram)
        #: A finished C mix still holding the LLC and DRAM state; reading
        #: :attr:`shared_llc` or :attr:`shared_dram` exports it.
        self._unexported = None

    def _export(self) -> None:
        mix = self._unexported
        if mix is not None:
            self._unexported = None
            mix.detach()

    @property
    def shared_llc(self) -> Cache:
        """The shared LLC (exported from C on first read after a C mix)."""
        self._export()
        return self._shared_llc

    @property
    def shared_dram(self) -> DRAMModel:
        """The shared DRAM (exported from C on first read after a C mix)."""
        self._export()
        return self._shared_dram

    def run(
        self,
        traces: Sequence,
        max_instructions_per_core: int,
        mode: str = "exact",
        epoch_instructions: int = 0,
        workers: int = 1,
    ) -> MultiCoreStats:
        """Simulate the mix; ``traces`` must contain one trace per core.

        Each entry may be a materialized access sequence, a pre-decoded
        :class:`~repro.sim.batch.BatchedTrace` or a re-openable streaming
        handle (:class:`repro.workloads.formats.TraceFile`); handles are
        replayed by re-opening, so an n-core mix over file traces runs in
        O(1) memory per core.

        ``mode`` selects the schedule (see the module docstring):
        ``"exact"`` interleaves access-by-access, ``"epoch"`` runs the
        epoch-sharded schedule with ``epoch_instructions`` per epoch
        (``0`` = :func:`default_epoch_instructions`) and core-epochs
        dispatched over ``workers`` threads when ``workers > 1`` — results
        are identical for any worker count.
        """
        if mode not in MIX_MODES:
            raise ValueError(f"unknown mix mode {mode!r}; expected one of {MIX_MODES}")
        if len(traces) != self.num_cores:
            raise ValueError(
                f"expected {self.num_cores} traces, got {len(traces)}"
            )
        if max_instructions_per_core <= 0:
            raise ValueError("max_instructions_per_core must be positive")
        # Mixes replay traces indefinitely to keep pressuring shared
        # resources, so every source must be replayable: materialized
        # sequences and re-openable handles (TraceFile) are used as-is —
        # the latter replay by re-opening, keeping memory O(1) — while
        # one-shot iterators are materialized.
        traces = [
            list(trace) if hasattr(trace, "__next__") else trace for trace in traces
        ]
        prefetchers = [
            resolve_kernel(self.prefetcher_factory(), self.kernel_mode)
            if self.prefetcher_factory
            else None
            for _ in traces
        ]
        per_core = [
            SimulationStats(
                name=f"{self.name}.core{core_id}",
                prefetcher=(
                    getattr(prefetcher, "name", "none") if prefetcher else "none"
                ),
            )
            for core_id, prefetcher in enumerate(prefetchers)
        ]

        mix, reason = None, None
        if self.kernel_mode == "compiled":
            mix, reason = attach_mix(
                self.config, self.shared_llc, self.shared_dram,
                traces, prefetchers, mode,
            )
        self.kernel_decline_reason = reason
        if mix is not None:
            self.kernel_tier_used = "compiled-driver"
            mix.run(per_core, max_instructions_per_core)
            # The kernels keep the LLC and DRAM state until someone reads it.
            self._unexported = mix
        else:
            compiled_train = any(
                getattr(prefetcher, "_kernel", None) is not None
                for prefetcher in prefetchers
            )
            self.kernel_tier_used = "compiled" if compiled_train else "python"
            self._run_python(
                traces, prefetchers, per_core, max_instructions_per_core,
                mode, epoch_instructions, workers,
            )

        result = MultiCoreStats(name=self.name, prefetcher=per_core[0].prefetcher)
        for core_id, stats in enumerate(per_core):
            result.per_core[core_id] = stats
        return result

    def _run_python(
        self, traces, prefetchers, per_core, budget, mode, epoch_instructions, workers
    ) -> None:
        """The Python object loop: the oracle of every schedule."""
        contexts: List[_CoreContext] = []
        for core_id, (trace, prefetcher, stats) in enumerate(
            zip(traces, prefetchers, per_core)
        ):
            context = _CoreContext(
                core_id=core_id,
                config=self.config,
                prefetcher=prefetcher,
                trace=trace,
                shared_llc=self.shared_llc,
                shared_dram=self.shared_dram,
                stats=stats,
            )
            context.budget = budget
            contexts.append(context)

        if mode == "exact":
            self._run_exact(contexts)
        else:
            if epoch_instructions <= 0:
                epoch_instructions = default_epoch_instructions(budget)
            self._run_epoch(contexts, epoch_instructions, workers)
        for context in contexts:
            context.finalize()

    # ------------------------------------------------------------------ #
    # Schedules
    # ------------------------------------------------------------------ #
    def _run_exact(self, contexts: List[_CoreContext]) -> None:
        """Round-robin access-by-access interleaving (the reference)."""
        while any(context.measuring for context in contexts):
            for context in contexts:
                # Finished cores keep stepping to exert shared-resource
                # pressure (their stats are gated), but only for as long as
                # someone is still measuring.
                context.step()

    def _run_epoch(
        self,
        contexts: List[_CoreContext],
        epoch_instructions: int,
        workers: int,
    ) -> None:
        """The epoch-sharded schedule (see :mod:`repro.sim.sharding`)."""
        master_llc = self.shared_llc
        master_dram = self.shared_dram
        num_cores = len(contexts)
        pool = (
            ThreadPoolExecutor(max_workers=min(workers, num_cores))
            if workers > 1 and num_cores > 1
            else None
        )
        # Previous-epoch DRAM logs and per-core cycle spans feed the ghost
        # cross-traffic of the next epoch (empty for the first epoch).
        previous_logs: List[List] = [[] for _ in range(num_cores)]
        spans = [0] * num_cores
        try:
            epoch = 0
            while any(context.measuring for context in contexts):
                epoch += 1
                target = epoch * epoch_instructions
                shadows = []
                cycle_starts = []
                for context in contexts:
                    # Copy-on-write LLC deltas instead of a full
                    # Cache.clone per core per epoch: an epoch touches a
                    # small fraction of a large LLC's sets, and the shadow
                    # copies exactly those (see sharding.CowCacheShadow —
                    # behaviourally indistinguishable from a clone).
                    shadow_llc = RecordingCache(CowCacheShadow(master_llc))
                    shadow_dram = RecordingDRAM(
                        master_dram.clone(),
                        ghosts=shifted_ghosts(
                            previous_logs, spans, context.core_id
                        ),
                    )
                    context.hierarchy.rebind_shared(shadow_llc, shadow_dram)
                    shadows.append((shadow_llc, shadow_dram))
                    cycle_starts.append(context.core.current_cycle)
                if pool is not None:
                    # Core-epochs share no mutable state, so mapping them
                    # over threads is deterministic; list() propagates any
                    # worker exception.
                    list(
                        pool.map(
                            lambda context: context.run_until(target), contexts
                        )
                    )
                else:
                    for context in contexts:
                        context.run_until(target)
                # Reconciliation: replay the shared-resource logs onto the
                # master state — LLC logs in ascending core-id order, DRAM
                # requests merged across cores by issue cycle.
                for shadow_llc, _shadow_dram in shadows:
                    replay_llc_log(master_llc, shadow_llc.log)
                replay_dram_logs(
                    master_dram, [shadow_dram.log for _, shadow_dram in shadows]
                )
                for index, context in enumerate(contexts):
                    previous_logs[index] = shadows[index][1].log
                    spans[index] = max(
                        1, context.core.current_cycle - cycle_starts[index]
                    )
        finally:
            if pool is not None:
                pool.shutdown()
            for context in contexts:
                context.hierarchy.rebind_shared(master_llc, master_dram)


def simulate_mix(
    traces: Sequence[Sequence[MemoryAccess]],
    prefetcher_factory: Optional[Callable[[], object]] = None,
    config: Optional[SystemConfig] = None,
    max_instructions_per_core: int = 50_000,
    name: str = "",
    mode: str = "exact",
    epoch_instructions: int = 0,
    workers: int = 1,
    kernel: str = "auto",
) -> MultiCoreStats:
    """Convenience wrapper around :class:`MultiCoreSimulator`."""
    simulator = MultiCoreSimulator(
        num_cores=len(traces),
        prefetcher_factory=prefetcher_factory,
        config=config,
        name=name,
        kernel=kernel,
    )
    return simulator.run(
        traces,
        max_instructions_per_core=max_instructions_per_core,
        mode=mode,
        epoch_instructions=epoch_instructions,
        workers=workers,
    )

"""Compiled batched driver: glue between the simulator and ``DriverKernel``.

When the optional C extension :mod:`repro._kernels` is built, the whole
batched driver loop — cache probes, hit-run retirement, MSHR/DRAM/core
timing, prefetch-queue drain and in-process prefetcher training — can run
inside the extension's ``DriverKernel`` instead of
:meth:`~repro.sim.simulator.SingleCoreSimulator._execute_batched`.  This
module decides *whether* the C driver may engage for a given simulator
(every shape/listener/quiescence condition the Python driver's fast paths
rely on must hold), ships the live Python state into the kernel at attach
time, and keeps the Python-visible core/statistics state in sync after
every batch call.

A run ends inside the kernel: :meth:`CompiledDriver.finish` performs the
end-of-run prefetch flush in C (``DriverKernel.flush``, the twin of
:meth:`~repro.sim.hierarchy.CacheHierarchy.flush_prefetches`), which leaves
the prefetch queue and MSHR file empty, so only the statistics cross back.
The cache and DRAM state stays in the kernel until someone reads
``SingleCoreSimulator.hierarchy``; that read calls
:meth:`CompiledDriver.detach`, which exports it onto the Python objects, so
state introspection and a second ``run()`` observe exactly what the Python
driver would have left behind.  ``simulate_trace`` keeps only the
statistics and never pays for the export.

``DriverKernel`` takes the twin's C train kernel (or ``None``) and picks
its prefetcher path from that kernel's type.  The cache-block flag bits
of the state transfer are defined once, in ``_kernels.c``, and read here
as ``_kernels.CB_*``.

Engagement is strictly opt-in (``kernel="compiled"``) and strictly
conservative: :meth:`CompiledDriver.try_attach` declines — with a
human-readable reason recorded as ``kernel_decline_reason`` — whenever the
configuration is one the C port does not replicate bit-exactly, and the
caller falls back to the Python driver.  The supported matrix:

===================  ==========================================
prefetcher           C driver path
===================  ==========================================
``none``             fused demand loop (no PQ/train machinery)
vBerti (compiled)    per-access loop + ``BertiKernel`` train
Gaze (compiled)      per-access loop + ``GazeKernel`` train/evict
PMP (compiled)       per-access loop + ``PMPKernel`` train/evict
Triangel (compiled)  per-access loop + ``TriangelKernel`` train
                     (the L1-hit training gate applied natively)
anything else        declined -> Python driver (bit-identical)
===================  ==========================================

Exact multi-core mixes have their own attach, :func:`attach_mix`, which
declines for the same prefetcher and geometry reasons plus the epoch
schedule and streamed trace handles.  It builds one ``DriverKernel`` per
core; the first owns the LLC and DRAM state and the others borrow it
(``DriverKernel(shared=...)``), while every counter stays per kernel.
``_kernels.run_mix`` then runs the round-robin interleave of
:meth:`~repro.sim.multicore.MultiCoreSimulator._run_exact` in one call,
every core stepping through the same per-access step as the prefetcher
loop above (a core without a prefetcher included):

===================  ==========================================
mix                  C path
===================  ==========================================
exact, every core's  ``run_mix``: shared LLC/DRAM, per-core
prefetcher above     private levels, PQ/MSHR, core and train
epoch schedule       declined -> Python mix loop
streamed handles     declined -> Python mix loop
===================  ==========================================
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.batch import decode_trace
from repro.sim.cache import Cache, CacheBlock
from repro.sim.cpu import CoreTimingModel
from repro.sim.dram import DRAMModel
from repro.sim.hierarchy import FLUSH_HORIZON, CacheHierarchy
from repro.sim.stats import SimulationStats

try:  # pragma: no cover - exercised only when the extension is built
    from repro import _kernels
except ImportError:  # plain source checkouts: Python driver only
    _kernels = None


def driver_available() -> bool:
    """Whether the extension exposes the batched ``DriverKernel``."""
    return _kernels is not None and hasattr(_kernels, "DriverKernel")


def _decline_reason(prefetcher) -> Optional[str]:
    """Why the C driver cannot run ``prefetcher``, or ``None`` when it can.

    Only the *compiled twin* classes qualify (besides no prefetcher at
    all): they already own the C train kernel the driver calls
    in-process, and their construction enforced the kernels' geometry
    caps.  A plain Python prefetcher under ``kernel="compiled"`` means
    :func:`resolve_kernel` could not produce a twin (unsupported design or
    geometry), so the driver declines and the Python driver runs it.
    """
    if prefetcher is None:
        return None
    from repro.prefetchers.compiled import (
        CompiledBertiPrefetcher,
        CompiledGazePrefetcher,
        CompiledPMPPrefetcher,
        CompiledTriangelPrefetcher,
    )

    kind = type(prefetcher)
    if kind not in (
        CompiledBertiPrefetcher,
        CompiledGazePrefetcher,
        CompiledPMPPrefetcher,
        CompiledTriangelPrefetcher,
    ):
        return (
            f"prefetcher {getattr(prefetcher, 'name', kind.__name__)!r}"
            " has no compiled twin"
        )
    if kind in (CompiledBertiPrefetcher, CompiledTriangelPrefetcher):
        # The driver never forwards L1 evictions to these designs; that is
        # only correct while their eviction hook is the base-class no-op.
        from repro.prefetchers.base import Prefetcher

        if kind.on_cache_eviction is not Prefetcher.on_cache_eviction:
            return "prefetcher overrides on_cache_eviction"
    return None


def _cache_items(cache: Cache):
    """Flatten a cache into ``(block, flags)`` rows, per-set LRU->MRU."""
    f_prefetched = _kernels.CB_PREFETCHED
    f_useful = _kernels.CB_USEFUL
    f_from_dram = _kernels.CB_FROM_DRAM
    f_dirty = _kernels.CB_DIRTY
    f_counted = _kernels.CB_COUNTED
    items = []
    append = items.append
    for cache_set in cache._sets:
        for block, entry in cache_set.items():
            flags = 0
            if entry.prefetched:
                flags |= f_prefetched
            if entry.prefetch_useful:
                flags |= f_useful
            if entry.from_dram:
                flags |= f_from_dram
            if entry.dirty:
                flags |= f_dirty
            if entry.useful_counted:
                flags |= f_counted
            append((block, flags))
    return items


def _new_kernel(
    hierarchy: CacheHierarchy, core: CoreTimingModel, prefetcher, shared=None
):
    """A ``DriverKernel`` shaped like ``hierarchy`` and ``core``.

    It trains ``prefetcher``'s C kernel (none for ``None``).

    ``shared`` is the kernel whose LLC and DRAM this one borrows (a mix
    core); ``None`` gives the kernel its own.
    """
    l1d = hierarchy.l1d
    l2c = hierarchy.l2c
    llc = hierarchy.llc
    dram = hierarchy.dram
    mshr = hierarchy.l1_mshr
    pq = hierarchy.prefetch_queue
    return _kernels.DriverKernel(
        l1_sets=l1d._set_count,
        l1_ways=l1d._ways,
        l2_sets=l2c._set_count,
        l2_ways=l2c._ways,
        llc_sets=llc._set_count,
        llc_ways=llc._ways,
        lat_l1=hierarchy._lat_l1,
        lat_l2=hierarchy._lat_l2,
        lat_llc=hierarchy._lat_llc,
        lat_l2_source=hierarchy._lat_l2_source,
        lat_llc_source=hierarchy._lat_llc_source,
        mshr_capacity=mshr.capacity,
        pq_capacity=pq.capacity,
        pq_drain=pq.drain_per_access,
        dram_channels=dram._channels,
        dram_banks=dram._banks_per_channel,
        dram_row_div=dram._row_divisor,
        dram_row_hit=dram._row_hit_latency,
        dram_row_miss=dram._row_miss_latency,
        dram_transfer=float(dram._transfer_cycles),
        width=core._width,
        fetch_increment=core._fetch_increment,
        rob=core._rob_size,
        lq=core._load_queue_size,
        miss_limit=core._miss_limit,
        miss_threshold=core._miss_threshold,
        # The train kernel's type selects the C prefetcher path.
        kernel=None if prefetcher is None else prefetcher._kernel,
        shared=shared,
    )


def _load_dram(kernel, dram: DRAMModel) -> None:
    """Ship ``dram``'s bank/row/channel timing into ``kernel``."""
    kernel.load_dram(
        list(dram._open_row.items()),
        list(dram._bank_busy_until.items()),
        list(dram._channel_busy_until),
    )


def _export_cache(kernel, level: int, cache: Cache) -> None:
    """Replace ``cache``'s contents by the kernel's level ``level``."""
    f_prefetched = _kernels.CB_PREFETCHED
    f_useful = _kernels.CB_USEFUL
    f_from_dram = _kernels.CB_FROM_DRAM
    f_dirty = _kernels.CB_DIRTY
    f_counted = _kernels.CB_COUNTED
    sets = cache._sets
    for cache_set in sets:
        cache_set.clear()
    mask = cache._set_mask
    for block, flags in kernel.export_cache(level):
        entry = CacheBlock(
            block,
            bool(flags & f_prefetched),
            bool(flags & f_useful),
            bool(flags & f_from_dram),
            bool(flags & f_dirty),
        )
        entry.useful_counted = bool(flags & f_counted)
        sets[block & mask][block] = entry


def _export_dram(kernel, dram: DRAMModel) -> None:
    """Replace ``dram``'s bank/row/channel timing by the kernel's."""
    open_rows, bank_busy, channel_busy = kernel.export_dram()
    dram._open_row.clear()
    dram._open_row.update(open_rows)
    dram._bank_busy_until.clear()
    dram._bank_busy_until.update(bank_busy)
    dram._channel_busy_until[:] = channel_busy


def _add_stats(stats: SimulationStats, v) -> None:
    """Add the ``SimulationStats`` part (0-20) of a drain vector onto ``stats``."""
    stats.demand_accesses += v[0]
    stats.l1_hits += v[1]
    stats.l1_misses += v[2]
    stats.l2_hits += v[3]
    stats.l2_misses += v[4]
    stats.llc_hits += v[5]
    stats.llc_misses += v[6]
    stats.dram_reads += v[7]
    stats.total_demand_latency += v[8]
    prefetch = stats.prefetch
    prefetch.generated += v[9]
    prefetch.issued += v[10]
    prefetch.dropped_queue_full += v[11]
    prefetch.dropped_mshr_full += v[12]
    prefetch.redundant += v[13]
    prefetch.filled_l1 += v[14]
    prefetch.filled_l2 += v[15]
    prefetch.useful_l1 += v[16]
    prefetch.useful_l2 += v[17]
    prefetch.useless += v[18]
    prefetch.late += v[19]
    prefetch.covered_llc_misses += v[20]


def _add_cache_counters(cache: Cache, v, base: int) -> None:
    """Add one level's counters (``v[base:base + 4]``) onto ``cache``."""
    cache.hits += v[base]
    cache.misses += v[base + 1]
    cache.evictions += v[base + 2]
    cache.useless_prefetch_evictions += v[base + 3]


def _add_dram_stats(dram: DRAMModel, v) -> None:
    """Add the DRAM part (35-41) of a drain vector onto ``dram.stats``."""
    dram_stats = dram.stats
    dram_stats.requests += v[35]
    dram_stats.demand_requests += v[36]
    dram_stats.prefetch_requests += v[37]
    dram_stats.row_hits += v[38]
    dram_stats.row_misses += v[39]
    dram_stats.total_queue_wait += v[40]
    dram_stats.total_service_cycles += v[41]


class CompiledDriver:
    """One attached ``DriverKernel`` driving one simulator's batched runs."""

    __slots__ = ("_kernel", "_sim")

    def __init__(self, kernel, sim) -> None:
        self._kernel = kernel
        self._sim = sim

    # ------------------------------------------------------------------ #
    # Attach
    # ------------------------------------------------------------------ #
    @staticmethod
    def try_attach(sim) -> Tuple[Optional["CompiledDriver"], Optional[str]]:
        """Build an attached driver for ``sim``, or ``(None, reason)``.

        The checks mirror the preconditions of the Python driver's inline
        fast paths (``inline_ok``/``fused``/``dram_plain``) plus the
        quiescence the C state transfer requires; any mismatch falls back
        to the Python driver, which handles every configuration.
        """
        if not driver_available():
            return None, "repro._kernels extension (DriverKernel) not built"
        reason = _decline_reason(sim.prefetcher)
        if reason is not None:
            return None, reason

        hierarchy = sim.hierarchy
        l1d = hierarchy.l1d
        l2c = hierarchy.l2c
        llc = hierarchy.llc
        dram = hierarchy.dram
        if type(l1d) is not Cache or type(l2c) is not Cache or type(llc) is not Cache:
            return None, "non-plain cache object in hierarchy"
        if l1d._set_mask is None or l2c._set_mask is None or llc._set_mask is None:
            return None, "non-power-of-two cache set count"
        if type(dram) is not DRAMModel:
            return None, "non-plain DRAM model"

        expected_l1 = [hierarchy._count_useless_eviction]
        if sim.prefetcher is not None:
            expected_l1.append(sim._notify_prefetcher_eviction)
        if l1d.eviction_listeners != expected_l1:
            return None, "custom L1D eviction listeners"
        if l2c.eviction_listeners != [hierarchy._count_useless_eviction]:
            return None, "custom L2C eviction listeners"
        if llc.eviction_listeners:
            return None, "LLC has eviction listeners"

        mshr = hierarchy.l1_mshr
        pq = hierarchy.prefetch_queue
        if mshr._entries or pq.pending:
            return None, "hierarchy not quiescent (in-flight prefetches)"

        core = sim.core
        kernel = _new_kernel(hierarchy, core, sim.prefetcher)
        kernel.load_cache(1, _cache_items(l1d))
        kernel.load_cache(2, _cache_items(l2c))
        kernel.load_cache(3, _cache_items(llc))
        try:
            issue = core._issue_cycle
        except AttributeError:
            issue = core._fetch_cycle
        kernel.load_core(
            core._instr_count,
            core._fetch_cycle,
            core._last_retire_cycle,
            issue,
            list(core._outstanding),
            list(core._outstanding_misses),
        )
        _load_dram(kernel, dram)
        return CompiledDriver(kernel, sim), None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_batch(self, replayer, instruction_budget: Optional[int]) -> None:
        """Run one ``_execute_batched`` call's worth of trace in C.

        ``replayer._batched`` holds the :class:`~repro.sim.batch.BatchedTrace`
        (a whole trace or one streamed chunk); position/replay bookkeeping
        round-trips through the kernel so chunked resume, warmup cuts and
        budget cuts behave exactly like the Python driver.  Core progress
        and statistics sync back *every* call: the simulator reads
        ``core._instr_count`` between chunks and swaps the stats object at
        the warmup boundary.
        """
        trace = replayer._batched
        budget = -1 if instruction_budget is None else instruction_budget
        index, replays, _executed, yielded = self._kernel.run(
            trace.addresses,
            trace.pcs,
            trace.blocks,
            trace.gaps,
            trace.kinds,
            replayer._index,
            budget,
            replayer.replays,
        )
        replayer._index = index
        replayer.replays = replays
        if yielded:
            replayer.yielded_any = True
        self._sync_core_out()
        self._drain_stats()

    def _sync_core_out(self) -> None:
        """Write the kernel's core-model state onto the live Python core."""
        instr, fetch, last_retire, issue, pairs, misses = self._kernel.export_core()
        core = self._sim.core
        core._instr_count = instr
        core._fetch_cycle = fetch
        core._last_retire_cycle = last_retire
        core._issue_position = instr
        core._issue_cycle = issue
        outstanding = core._outstanding
        outstanding.clear()
        outstanding.extend(pairs)
        core._outstanding_misses = misses

    def _drain_stats(self) -> None:
        """Add the kernel's counter deltas onto the live statistics objects.

        ``hierarchy.stats`` is fetched *at call time* (never cached): the
        warmup boundary swaps it for a fresh object, and the eviction
        accounting must land in whichever object is current.
        """
        v = self._kernel.drain_stats()
        hierarchy = self._sim._hierarchy
        _add_stats(hierarchy.stats, v)
        pq = hierarchy.prefetch_queue
        pq.enqueued += v[21]
        pq.dropped_full += v[22]
        _add_cache_counters(hierarchy.l1d, v, 23)
        _add_cache_counters(hierarchy.l2c, v, 27)
        _add_cache_counters(hierarchy.llc, v, 31)
        _add_dram_stats(hierarchy.dram, v)

    # ------------------------------------------------------------------ #
    # Finish and detach
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """End the run in C: the twin of ``flush_prefetches`` at the core's cycle.

        Every queued prefetch issues and every in-flight fill completes
        inside the kernel, so the prefetch queue and MSHR file end empty in
        both tiers.  The core needs no sync (the last :meth:`run_batch`
        already wrote it back and the flush does not touch it); only the
        flush's statistics deltas cross back.
        """
        cycle = self._sim.core.current_cycle
        self._kernel.flush(cycle, cycle + FLUSH_HORIZON)
        self._drain_stats()

    def detach(self) -> None:
        """Export the kernel's cache and DRAM state onto the live objects.

        Called once, by the first read of ``SingleCoreSimulator.hierarchy``
        after a compiled run.  Afterwards the hierarchy is indistinguishable
        from one the Python driver ran: caches in LRU order with every flag
        bit, and DRAM bank/row/channel timing.  The core and statistics are
        already in sync, and the prefetch queue and MSHR file are empty
        after :meth:`finish`.
        """
        kernel = self._kernel
        hierarchy = self._sim._hierarchy
        _export_cache(kernel, 1, hierarchy.l1d)
        _export_cache(kernel, 2, hierarchy.l2c)
        _export_cache(kernel, 3, hierarchy.llc)
        _export_dram(kernel, hierarchy.dram)


# ---------------------------------------------------------------------- #
# Exact multi-core mixes
# ---------------------------------------------------------------------- #
def attach_mix(
    config, llc: Cache, dram: DRAMModel, traces, prefetchers, mode: str
) -> Tuple[Optional["CompiledMix"], Optional[str]]:
    """Build the C twin of one exact mix, or ``(None, reason)``.

    One ``DriverKernel`` per core, all sharing the first one's LLC and
    DRAM, which start from the state of ``llc`` and ``dram`` (the
    simulator's shared objects).  ``config`` is the mix's scaled system
    configuration and ``prefetchers`` holds each core's (already
    resolved) prefetcher.  Separate from :meth:`CompiledDriver.try_attach`
    on purpose: a mix is not a single-core cell.
    """
    if not driver_available():
        return None, "repro._kernels extension (DriverKernel) not built"
    if mode != "exact":
        return None, f"{mode} mix schedule (only the exact interleave runs in C)"
    arrays = []
    for trace in traces:
        decoded = decode_trace(trace)
        if decoded is None:
            return None, "streamed trace handle (the C mix needs decoded arrays)"
        arrays.append(
            (decoded.addresses, decoded.pcs, decoded.blocks, decoded.gaps,
             decoded.kinds)
        )
    for prefetcher in prefetchers:
        reason = _decline_reason(prefetcher)
        if reason is not None:
            return None, reason
    if llc.eviction_listeners:
        return None, "LLC has eviction listeners"
    # Every core's private levels and core model are built from the same
    # configuration, so one template hierarchy sizes all the kernels.
    hierarchy = CacheHierarchy(config, shared_llc=llc, shared_dram=dram)
    if (
        hierarchy.l1d._set_mask is None
        or hierarchy.l2c._set_mask is None
        or llc._set_mask is None
    ):
        return None, "non-power-of-two cache set count"
    core = CoreTimingModel(config.core)
    leader = _new_kernel(hierarchy, core, prefetchers[0])
    kernels = [leader] + [
        _new_kernel(hierarchy, core, prefetcher, shared=leader)
        for prefetcher in prefetchers[1:]
    ]
    leader.load_cache(3, _cache_items(llc))
    _load_dram(leader, dram)
    return CompiledMix(kernels, arrays, llc, dram), None


class CompiledMix:
    """One exact mix run by ``_kernels.run_mix``: N kernels, one LLC, one DRAM."""

    __slots__ = ("_kernels", "_arrays", "_llc", "_dram")

    def __init__(self, kernels, arrays, llc: Cache, dram: DRAMModel) -> None:
        self._kernels = kernels
        self._arrays = arrays
        self._llc = llc
        self._dram = dram

    def run(self, per_core, budget: int) -> None:
        """Run the mix in one call and fill each core's ``SimulationStats``.

        ``per_core`` holds one fresh statistics object per core.  Each gets
        the counters and the ``instructions``/``cycles`` frozen at the
        access that exhausted its budget.  The LLC and DRAM counters of
        every access, before and after a core's budget, go onto the shared
        objects, as the Python driver's do; their cache and timing state
        stays in the kernels until :meth:`detach`.
        """
        frozen = _kernels.run_mix(self._kernels, self._arrays, budget)
        for stats, (instructions, cycles, v) in zip(per_core, frozen):
            _add_stats(stats, v)
            stats.instructions = instructions
            stats.cycles = cycles
        for kernel in self._kernels:
            v = kernel.drain_stats()
            _add_cache_counters(self._llc, v, 31)
            _add_dram_stats(self._dram, v)

    def detach(self) -> None:
        """Export the shared LLC contents and DRAM timing onto the objects."""
        leader = self._kernels[0]
        _export_cache(leader, 3, self._llc)
        _export_dram(leader, self._dram)

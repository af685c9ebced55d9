"""Cross-tier equality and compiled-twin selection.

The optional compiled tier (:mod:`repro.prefetchers.compiled`, built from
``src/repro/_kernels.c``) must be *bit-identical* to the Python object
implementations for every statistic of every registered prefetcher.
These tests pin:

* whole-simulation equality across every tier combination — scalar vs
  batched kernel x ``kernel`` knob (pure Python vs the compiled
  extension, when built);
* the compiled-twin substitution rules (:func:`compiled_twin`): which
  registered designs get a twin, that Gaze ablations never do, and the
  graceful fallback when a configuration the C kernels cannot represent
  is requested;
* the constants shared with ``_kernels.c``: each oracle-owned export
  equals its Python definition, and every geometry cap is honoured
  exactly by both :func:`compiled_twin` and the C constructors;
* chunked streaming (:class:`repro.sim.batch.ChunkedTraceStream`) against
  the scalar streamed path, including replayed instruction budgets and
  warm-up boundaries with deliberately tiny chunk sizes.
"""

from __future__ import annotations

import pytest

from repro.core.gaze import GazeConfig, GazePrefetcher
from repro.prefetchers import (
    BertiPrefetcher,
    available_prefetchers,
    create_prefetcher,
)
from repro.prefetchers import berti
from repro.prefetchers.compiled import (
    CompiledBertiPrefetcher,
    CompiledGazePrefetcher,
    CompiledPMPPrefetcher,
    CompiledTriangelPrefetcher,
    compiled_available,
    compiled_twin,
)
from repro.prefetchers.pmp import PMPPrefetcher
from repro.prefetchers.temporal import TriangelPrefetcher
from repro.sim import types
from repro.sim.batch import ChunkedTraceStream
from repro.sim.simulator import KERNEL_MODES, resolve_kernel, simulate_trace
from repro.sim.types import AccessResult, AccessType, MemoryAccess
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built "
    "(`python setup.py build_ext --inplace`)",
)


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"prefetcher tiers diverged ({label})"
    )


def _trace(generator="cloud", seed=5, length=1_500):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length,
    ).build()


# --------------------------------------------------------------------------- #
# Whole-simulation equality across every tier
# --------------------------------------------------------------------------- #
ALL_PREFETCHERS = sorted(available_prefetchers())


class TestAllTierEquality:
    """scalar/batched x python/compiled must be bit-identical everywhere.

    ``kernel="compiled"`` cases run even when the extension is absent
    (they then exercise the documented silent fallback); the
    ``requires_compiled`` twin tests below assert the extension really
    was engaged.
    """

    @pytest.mark.parametrize("prefetcher_name", ALL_PREFETCHERS)
    def test_every_registered_prefetcher_every_kernel(self, prefetcher_name):
        trace = _trace(length=1_200)
        reference = simulate_trace(
            trace, prefetcher=create_prefetcher(prefetcher_name),
            batch="off", kernel="python",
        )
        for batch in ("off", "auto"):
            for kernel in KERNEL_MODES:
                candidate = simulate_trace(
                    trace, prefetcher=create_prefetcher(prefetcher_name),
                    batch=batch, kernel=kernel,
                )
                _assert_identical(
                    reference, candidate,
                    f"{prefetcher_name}, batch={batch}, kernel={kernel}",
                )

    def test_budget_and_warmup_boundaries_across_kernels(self):
        trace = _trace(generator="strided", seed=2, length=1_000)
        for kwargs in (
            {"max_instructions": 2_500},       # replayed budget
            {"warmup_instructions": 333},      # warm-up boundary
            {"max_instructions": 5_000, "warmup_instructions": 1_111},
        ):
            reference = simulate_trace(
                trace, prefetcher=create_prefetcher("gaze"),
                batch="off", kernel="python", **kwargs,
            )
            for kernel in ("auto", "compiled"):
                candidate = simulate_trace(
                    trace, prefetcher=create_prefetcher("gaze"),
                    batch="auto", kernel=kernel, **kwargs,
                )
                _assert_identical(reference, candidate, f"{kwargs}, {kernel}")

    def test_unknown_kernel_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(_trace(length=64), kernel="jit")
        with pytest.raises(ValueError):
            resolve_kernel(create_prefetcher("gaze"), "jit")


# --------------------------------------------------------------------------- #
# Compiled-twin substitution rules
# --------------------------------------------------------------------------- #
#: Every registered Gaze ablation: each subclasses or reimplements Gaze
#: with different behaviour, so none may be swapped for the plain-Gaze twin.
GAZE_VARIANTS = [
    "gaze-pht", "pht4ss", "sm4ss",
    "vgaze-4kb", "vgaze-8kb", "vgaze-16kb", "vgaze-32kb", "vgaze-64kb",
    "gaze-n1", "gaze-n2", "gaze-n3", "gaze-n4",
]


class TestCompiledTwin:
    def test_designs_without_twins_get_none(self):
        assert compiled_twin(create_prefetcher("bop")) is None
        assert compiled_twin(create_prefetcher("ghb")) is None
        assert compiled_twin(None) is None

    @pytest.mark.parametrize("prefetcher_name", GAZE_VARIANTS)
    def test_gaze_variants_never_get_the_gaze_twin(self, prefetcher_name):
        assert compiled_twin(create_prefetcher(prefetcher_name)) is None

    def test_removed_state_knob_fails_loudly(self):
        with pytest.raises(TypeError):
            create_prefetcher("gaze", state="object")
        with pytest.raises(TypeError):
            create_prefetcher("vberti", state="flat")

    @requires_compiled
    def test_default_designs_get_compiled_twins(self):
        from repro.prefetchers.compiled import (
            CompiledBertiPrefetcher,
            CompiledGazePrefetcher,
            CompiledPMPPrefetcher,
            CompiledTriangelPrefetcher,
        )

        expected = {
            "gaze": CompiledGazePrefetcher,
            "vberti": CompiledBertiPrefetcher,
            "pmp": CompiledPMPPrefetcher,
            "triangel": CompiledTriangelPrefetcher,
        }
        for name, twin_class in expected.items():
            twin = compiled_twin(create_prefetcher(name))
            assert type(twin) is twin_class, name
            # Already-compiled instances pass through untouched.
            assert compiled_twin(twin) is twin

    @requires_compiled
    def test_unrepresentable_configs_fall_back(self):
        # 128 blocks per region exceeds the C kernels' 64-bit footprint
        # masks; the twin must decline rather than truncate.
        assert compiled_twin(GazePrefetcher(GazeConfig(region_size=128 * 64))) is None
        # Regions that are not a whole number of blocks stay in Python.
        assert compiled_twin(GazePrefetcher(GazeConfig(region_size=4000))) is None
        assert compiled_twin(BertiPrefetcher(history_per_pc=80)) is None

    @requires_compiled
    def test_resolve_kernel_swaps_in_the_twin(self):
        from repro.prefetchers.compiled import CompiledGazePrefetcher

        gaze = GazePrefetcher()
        assert isinstance(resolve_kernel(gaze, "compiled"), CompiledGazePrefetcher)
        assert resolve_kernel(gaze, "python") is gaze
        assert resolve_kernel(gaze, "auto") is gaze
        assert resolve_kernel(None, "compiled") is None

    @requires_compiled
    def test_compiled_gaze_counters_match_python(self):
        trace = _trace(generator="mixed", seed=8, length=2_000)
        python = create_prefetcher("gaze")
        comp = compiled_twin(create_prefetcher("gaze"))
        simulate_trace(trace, prefetcher=python)
        simulate_trace(trace, prefetcher=comp)
        # The C-side counters sync onto the object layout at drain().
        python.drain()
        comp.drain()
        for attr in ("lookups", "hits", "updates", "hit_rate"):
            assert getattr(python.pht, attr) == getattr(comp.pht, attr), attr
        assert python.pht.lookups > 0
        for attr in (
            "pht_predictions", "streaming_predictions",
            "backup_activations", "promotions",
        ):
            assert getattr(python, attr) == getattr(comp, attr), attr

    @requires_compiled
    def test_compiled_berti_train_matches_object(self):
        # train() with and without an AccessResult: the twin must use the
        # result's latency, else fetch_latency, exactly like the object.
        python = create_prefetcher("vberti")
        comp = compiled_twin(create_prefetcher("vberti"))
        issued = 0
        for step, access in enumerate(_trace(generator="strided", seed=3)):
            result = AccessResult(latency=20 + step % 150, hit_level="L2C")
            if step % 3 == 0:
                result = None
            cycle = step * 7
            expected = python.train(access.pc, access.address, cycle, result)
            actual = comp.train(access.pc, access.address, cycle, result)
            assert [
                (r.address, r.hint, r.origin_pc, r.metadata) for r in actual
            ] == [
                (r.address, r.hint, r.origin_pc, r.metadata) for r in expected
            ], step
            issued += len(expected)
        assert issued > 0

    @requires_compiled
    def test_compiled_reset_restores_initial_state(self):
        trace = _trace(length=800)
        fresh = compiled_twin(create_prefetcher("gaze"))
        used = compiled_twin(create_prefetcher("gaze"))
        first = simulate_trace(trace, prefetcher=used)
        used.reset()
        again = simulate_trace(trace, prefetcher=used)
        baseline = simulate_trace(trace, prefetcher=fresh)
        _assert_identical(first, again, "reset round-trip")
        _assert_identical(baseline, again, "reset vs fresh instance")


# --------------------------------------------------------------------------- #
# Constants shared with _kernels.c
# --------------------------------------------------------------------------- #
#: ``(cap export, object class, twin class, kwargs(n))`` per geometry cap.
CAP_CASES = {
    "gaze-blocks": (
        "MAX_REGION_BLOCKS", GazePrefetcher, CompiledGazePrefetcher,
        lambda n: {"config": GazeConfig(region_size=n * types.BLOCK_SIZE)},
    ),
    "pmp-blocks": (
        "MAX_REGION_BLOCKS", PMPPrefetcher, CompiledPMPPrefetcher,
        lambda n: {"region_size": n * types.BLOCK_SIZE},
    ),
    "vberti-history": (
        "BERTI_MAX_HISTORY", BertiPrefetcher, CompiledBertiPrefetcher,
        lambda n: {"history_per_pc": n},
    ),
    "vberti-deltas": (
        "BERTI_MAX_DELTAS", BertiPrefetcher, CompiledBertiPrefetcher,
        lambda n: {"max_deltas_per_pc": n},
    ),
    "triangel-degree": (
        "TRIANGEL_MAX_DEGREE", TriangelPrefetcher, CompiledTriangelPrefetcher,
        lambda n: {"degree": n},
    ),
}


def _aliased_pc_trace(pc_step, length=3_000):
    """Four interleaved strided streams, one per PC ``0x401a30 + k*pc_step``.

    With ``pc_step = 1 << 16`` the PCs differ only above bit 16, so vBerti
    keys all four streams to one PC-table entry.
    """
    accesses = []
    for i in range(length):
        k = i % 4
        accesses.append(
            MemoryAccess(
                pc=0x401A30 + k * pc_step,
                address=(k << 24) + (i // 4) * (k + 1) * types.BLOCK_SIZE,
                access_type=AccessType.LOAD,
                instr_gap=3,
            )
        )
    return accesses


@requires_compiled
class TestSharedConstants:
    def test_oracle_constants_equal_their_python_definitions(self):
        from repro import _kernels

        assert _kernels.BLOCK_SHIFT == types.BLOCK_SHIFT
        assert 1 << _kernels.BLOCK_SHIFT == types.BLOCK_SIZE
        assert _kernels.BERTI_PC_MASK == berti.BERTI_PC_MASK
        assert _kernels.BERTI_ROUNDS_LIMIT == berti.BERTI_ROUNDS_LIMIT

    @pytest.mark.parametrize("case", sorted(CAP_CASES))
    def test_caps_are_exact_for_twin_and_constructor(self, case):
        from repro import _kernels

        cap_name, object_class, twin_class, kwargs = CAP_CASES[case]
        cap = getattr(_kernels, cap_name)
        twin = compiled_twin(object_class(**kwargs(cap)))
        assert type(twin) is twin_class, f"{case} declined at its cap {cap}"
        assert compiled_twin(object_class(**kwargs(cap + 1))) is None
        # Building the twin directly past the cap hits the C constructor.
        with pytest.raises(ValueError):
            twin_class(**kwargs(cap + 1))

    def test_vberti_pc_aliasing_is_identical_across_tiers(self):
        trace = _aliased_pc_trace(pc_step=1 << 16)
        reference = simulate_trace(
            trace, prefetcher=create_prefetcher("vberti"),
            batch="off", kernel="python",
        )
        assert reference.prefetch.issued > 0
        for batch in ("off", "auto"):
            candidate = simulate_trace(
                trace, prefetcher=create_prefetcher("vberti"),
                batch=batch, kernel="compiled",
            )
            _assert_identical(reference, candidate, f"aliased PCs, {batch}")
        # The aliasing is observable: distinct low PC bits train
        # differently, so a C mask narrower or wider than the oracle's
        # could not pass the equality above.
        distinct = simulate_trace(
            _aliased_pc_trace(pc_step=1 << 4),
            prefetcher=create_prefetcher("vberti"),
            batch="off", kernel="python",
        )
        assert _stats_dict(distinct) != _stats_dict(reference)


# --------------------------------------------------------------------------- #
# Chunked streaming against the scalar streamed path
# --------------------------------------------------------------------------- #
class TestChunkedStreaming:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        accesses = _trace(generator="streaming", seed=6, length=1_800)
        path = tmp_path / "chunked.gzt.gz"
        trace_formats.save_trace_file(iter(accesses), str(path))
        return trace_formats.TraceFile(str(path))

    def test_chunk_sizes_are_bounded_and_complete(self, trace_file):
        chunks = list(trace_file.decode_batched_chunks(chunk_accesses=300))
        assert all(len(chunk) <= 300 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == 1_800
        whole = trace_file.decode_batched()
        flattened = [access for chunk in chunks for access in chunk]
        assert flattened == list(whole)

    def test_stream_signals_end_of_pass_once_then_reopens(self, trace_file):
        stream = ChunkedTraceStream(trace_file, chunk_accesses=700)
        first_pass = 0
        while stream.next_chunk() is not None:
            first_pass += 1
        assert first_pass == 3  # 700 + 700 + 400
        assert stream.next_chunk() is not None  # re-opened, not exhausted

    def test_empty_source_yields_none(self):
        stream = ChunkedTraceStream([])
        assert stream.next_chunk() is None
        assert stream.next_chunk() is None

    def test_nonpositive_chunk_size_rejected(self, trace_file):
        with pytest.raises(ValueError):
            ChunkedTraceStream(trace_file, chunk_accesses=0)

    @pytest.mark.parametrize("prefetcher_name", ["none", "gaze", "vberti"])
    def test_streamed_equality_tiny_chunks(self, trace_file, prefetcher_name):
        scalar = simulate_trace(
            trace_file, prefetcher=create_prefetcher(prefetcher_name),
            batch="off",
        )
        for chunk_accesses in (64, 509):
            chunked = simulate_trace(
                ChunkedTraceStream(trace_file, chunk_accesses=chunk_accesses),
                prefetcher=create_prefetcher(prefetcher_name),
            )
            _assert_identical(
                scalar, chunked, f"{prefetcher_name}, chunk={chunk_accesses}"
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_instructions": 9_000},  # budget beyond one pass: replay
            {"warmup_instructions": 1_234},
            {"max_instructions": 6_000, "warmup_instructions": 2_000},
        ],
    )
    def test_budgets_and_warmup_across_pass_boundaries(self, trace_file, kwargs):
        scalar = simulate_trace(
            trace_file, prefetcher=create_prefetcher("gaze"),
            batch="off", **kwargs,
        )
        chunked = simulate_trace(
            ChunkedTraceStream(trace_file, chunk_accesses=450),
            prefetcher=create_prefetcher("gaze"), **kwargs,
        )
        _assert_identical(scalar, chunked, f"chunked stream, {kwargs}")

    def test_file_trace_auto_batch_takes_chunked_path(self, trace_file):
        # batch="auto" over a re-openable file source must now match the
        # materialized batched kernel bit-for-bit (it used to run scalar).
        materialized = simulate_trace(
            list(iter(trace_file)), prefetcher=create_prefetcher("gaze"),
        )
        streamed = simulate_trace(
            trace_file, prefetcher=create_prefetcher("gaze"), batch="auto"
        )
        _assert_identical(materialized, streamed, "file trace, batch=auto")

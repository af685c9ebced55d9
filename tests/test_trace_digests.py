"""Pins the exact content of every generated trace.

Each digest is the first 16 hex digits of the sha256 of one
``pc,address,access_type,instr_gap`` line per access.  The values were
recorded before the generators learned to write decoded columns directly,
so any change to the RNG stream, the draw order or the record layout shows
up here before it can move a golden or a cached result.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.jobs import batched_trace_cached
from repro.sim.batch import BatchedTrace
from repro.sim.types import AccessType
from repro.workloads import GENERATORS, SUITES, TraceSpec

#: Accesses per pinned trace.
DIGEST_LENGTH = 2_000

#: Seed offset of the reseeded copies (``seed + 9001 * 1000``, the held-back
#: benchmark seed's spec offset).
RESEED_OFFSET = 9001 * 1000

#: Seed of the edge-case generators below.
EDGE_SEED = 7


def trace_digest(trace) -> str:
    """Short sha256 over every ``(pc, address, access_type, instr_gap)``."""
    digest = hashlib.sha256()
    for access in trace:
        digest.update(
            f"{access.pc},{access.address},{access.access_type.value},"
            f"{access.instr_gap}\n".encode()
        )
    return digest.hexdigest()[:16]


def suite_specs():
    """Every suite spec once, keyed by name (QMM specs appear in two suites)."""
    specs = {}
    for suite in SUITES.values():
        for spec in suite:
            specs.setdefault(spec.name, spec)
    return specs


def edge_specs():
    """Edge-case specs: gap-free and sub-unit-gap generators, wide ring stores."""
    specs = {}
    for kind in sorted(GENERATORS):
        for gap in (0.0, 0.3):
            specs[f"{kind}/gap={gap}"] = TraceSpec(
                name=f"{kind}-gap{gap}",
                suite="edge",
                generator=kind,
                params={"mean_instr_gap": gap},
                seed=EDGE_SEED,
            )
    specs["ring/stores"] = TraceSpec(
        name="ring-stores",
        suite="edge",
        generator="ring",
        params={"item_blocks": 3, "burst": 5, "lag": 17},
        seed=EDGE_SEED,
    )
    return specs


SUITE_DIGESTS = {
    "BC-like": "38c898f06619e0ac",
    "BFS-init-like": "d72659e17b2baadd",
    "BFS-like": "b315c8aeae1b4d2a",
    "BellmanFord-like": "54f6fe9f883bbddf",
    "Components-like": "b31ce6caff5e9d8c",
    "GemsFDTD-like": "beef222c3c9e487b",
    "MIS-like": "6f4bae34adf6ca60",
    "PageRank-init-like": "33955d9b1a194d76",
    "PageRank-like": "b1590c4265874a1b",
    "bwaves_s-like": "f75f8e227d56a4ae",
    "cactuBSSN_s-like": "6683deb66d84d64b",
    "cactusADM-like": "627455e49acd4492",
    "cam4_s-like": "c928dc9efc724b30",
    "canneal-like": "56998cef3d5bd069",
    "cassandra-like": "af87d4efaf19508c",
    "cc.twi-like": "eeb66e8830e9c4e2",
    "cc.web-like": "e60926e318af620a",
    "classification-like": "01c3d36df3cdd907",
    "cloud9-like": "ee70391d02fddda2",
    "clt.fp.06-like": "180ee0f478ac98de",
    "clt.int.01-like": "b36fe0e0c504d890",
    "clt.int.19-like": "77018b3c633e8788",
    "facesim-like": "309a4f8fe405b882",
    "fluidanimate-like": "4dfcdef4d1de4875",
    "fotonik3d_s-like": "f63da011e8d21382",
    "gcc-like": "f98e09bbddc25b97",
    "gcc_s-like": "b3da84ac8db9612a",
    "kvprobe-hot-like": "ca967331b86bcebd",
    "kvprobe-like": "a03306d15f36d7ce",
    "lbm-like": "03f6f78d3de8d7d4",
    "lbm_s-like": "ffba39fb90aec474",
    "leslie3d-like": "dc5da404dbc77cf9",
    "libquantum-like": "b7b526d1ade7c67e",
    "linkwalk-deep-like": "ca9eaa4d96c46ce2",
    "linkwalk-like": "620b2305ea6bfec2",
    "mcf-like": "54142a83f304a21f",
    "mcf_s-like": "a5ba8c651f90d19e",
    "milc-like": "9626b5cc3ef59c6a",
    "nutch-like": "5017f242c019ae03",
    "omnetpp-like": "351b7c55e59baef6",
    "omnetpp_s-like": "581b67fac615eebd",
    "pop2_s-like": "1d6b3404e4e1cef0",
    "pr.twi-like": "4fbc4b626fd21901",
    "pr.web-like": "d5d5e49bd1148259",
    "ringqueue-like": "9f5c7c89150aed38",
    "ringqueue-wide-like": "b2e74412b3de9117",
    "roms_s-like": "9ff0dc3fe36ec6ce",
    "soplex-like": "0c1ee8e5432adfa7",
    "sphinx3-like": "f81d55bc005e5f1e",
    "srv.09-like": "52712a6a9cf63412",
    "srv.27-like": "989defb91c9c20ad",
    "srv.46-like": "735374172271b113",
    "streamcluster-like": "147da9cce97eab8a",
    "streaming-srv-like": "f636289c7ff3051d",
    "tc.twi-like": "7c386b894f38dc3b",
    "tc.web-like": "3fb2a22f4808e795",
    "wrf-like": "cdab0a52b34eb5fc",
    "wrf_s-like": "86b914894c77713e",
    "xalancbmk_s-like": "b92f63ed4847d271",
}

RESEEDED_DIGESTS = {
    "BC-like": "81c5699c10bec6b1",
    "BFS-init-like": "1a54182001d12177",
    "BFS-like": "104d56f0d361da1c",
    "BellmanFord-like": "51b46717c0d3cb21",
    "Components-like": "c941408920ac590c",
    "GemsFDTD-like": "f351ab5e7162a5db",
    "MIS-like": "48f39be6b0c39c93",
    "PageRank-init-like": "a057e0dfc5af01a3",
    "PageRank-like": "303e429738cbeabd",
    "bwaves_s-like": "fefe74d3e63fa037",
    "cactuBSSN_s-like": "4440bf8ed3db074b",
    "cactusADM-like": "c5747357460864f9",
    "cam4_s-like": "ce705a796695022a",
    "canneal-like": "ea2ae0aea74b7798",
    "cassandra-like": "97e76f664eaaa445",
    "cc.twi-like": "eba5ff3dcb4b15de",
    "cc.web-like": "b757d8480b4d3286",
    "classification-like": "0df75d2d82cc89d9",
    "cloud9-like": "e414ad85906c9470",
    "clt.fp.06-like": "028c456be2ae9936",
    "clt.int.01-like": "f052c5de23ea2524",
    "clt.int.19-like": "7374550961041c15",
    "facesim-like": "d6996f258fa53644",
    "fluidanimate-like": "351541175e867998",
    "fotonik3d_s-like": "0c95256265baa260",
    "gcc-like": "128a55a30aedf249",
    "gcc_s-like": "749a65af23536bbe",
    "kvprobe-hot-like": "2473cd4a2cc0ab18",
    "kvprobe-like": "d9238b7bc0ab07b2",
    "lbm-like": "fcae8264a9b570bf",
    "lbm_s-like": "263e5571b9acb634",
    "leslie3d-like": "455a5fc355b9de90",
    "libquantum-like": "1d66565c7376902d",
    "linkwalk-deep-like": "969130abec725e08",
    "linkwalk-like": "90deda0ef767b341",
    "mcf-like": "929d2c44df287b4e",
    "mcf_s-like": "d46107aded6011fe",
    "milc-like": "6dc8d3786412a9b2",
    "nutch-like": "c8b557368e95bde0",
    "omnetpp-like": "ba2858c2bca6629c",
    "omnetpp_s-like": "910ee42c081b48b4",
    "pop2_s-like": "1356170688c0f5da",
    "pr.twi-like": "2fd1b5781e14bc03",
    "pr.web-like": "4a1df078b1d0bd78",
    "ringqueue-like": "5d1544c59b9c44d5",
    "ringqueue-wide-like": "6fdb3a7fbbf342aa",
    "roms_s-like": "cb2b9bb51b940eaf",
    "soplex-like": "a15b81f4b477d4be",
    "sphinx3-like": "b770439ba180bd1d",
    "srv.09-like": "a0dac00e6ffae482",
    "srv.27-like": "b473601f1865b8b1",
    "srv.46-like": "ea26ad6a0e078e5b",
    "streamcluster-like": "3c6626a35d869000",
    "streaming-srv-like": "98920ab4ad0937df",
    "tc.twi-like": "94c82d13ceb81d90",
    "tc.web-like": "b836868bb4566c9c",
    "wrf-like": "76470cb4dd362482",
    "wrf_s-like": "7c4f4b692bf8ec8a",
    "xalancbmk_s-like": "c8574e57a34f184c",
}

EDGE_DIGESTS = {
    "cloud/gap=0.0": "c40a79be11106aa1",
    "cloud/gap=0.3": "f6ba835e591e5f44",
    "graph/gap=0.0": "c7929d1c2fce7cd6",
    "graph/gap=0.3": "dd5c174cfb1184e2",
    "hash-probe/gap=0.0": "64de7b6a9af55c3b",
    "hash-probe/gap=0.3": "79e86725b6bd88c3",
    "mixed/gap=0.0": "02717444fe4ca67c",
    "mixed/gap=0.3": "d2214edf9bc4e70a",
    "pointer-chase/gap=0.0": "844f0588d7e7e092",
    "pointer-chase/gap=0.3": "18277b9d600e45b6",
    "ring/gap=0.0": "89847800f1009144",
    "ring/gap=0.3": "7f4c062d8b62c407",
    "ring/stores": "fe15192cd1cadd2b",
    "spatial/gap=0.0": "8e27840ccf89a3ae",
    "spatial/gap=0.3": "b16f7245f4ced8f6",
    "streaming/gap=0.0": "9de1b0d6cf16dc18",
    "streaming/gap=0.3": "bca2bfec6bdc363d",
    "strided/gap=0.0": "3904cbde60194739",
    "strided/gap=0.3": "1a611e785f6df5f3",
    "temporal-pointer/gap=0.0": "49fe88c636b7b079",
    "temporal-pointer/gap=0.3": "64ccf8d1334bf362",
}


def _reseeded(spec: TraceSpec) -> TraceSpec:
    return dataclasses.replace(spec, seed=spec.seed + RESEED_OFFSET)


def test_every_suite_spec_is_pinned():
    assert sorted(SUITE_DIGESTS) == sorted(suite_specs())
    assert sorted(RESEEDED_DIGESTS) == sorted(suite_specs())
    assert sorted(EDGE_DIGESTS) == sorted(edge_specs())


@pytest.mark.parametrize("name", sorted(suite_specs()))
def test_suite_trace_digest(name):
    trace = suite_specs()[name].build(length=DIGEST_LENGTH)
    assert trace_digest(trace) == SUITE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(suite_specs()))
def test_reseeded_trace_digest(name):
    trace = _reseeded(suite_specs()[name]).build(length=DIGEST_LENGTH)
    assert trace_digest(trace) == RESEEDED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(edge_specs()))
def test_edge_trace_digest(name):
    trace = edge_specs()[name].build(length=DIGEST_LENGTH)
    assert trace_digest(trace) == EDGE_DIGESTS[name]


def test_gap_free_traces_have_no_gaps():
    for name, spec in edge_specs().items():
        if name.endswith("gap=0.0"):
            assert all(a.instr_gap == 0 for a in spec.build(length=500)), name


def test_ring_trace_emits_stores():
    trace = edge_specs()["ring/stores"].build(length=DIGEST_LENGTH)
    kinds = {access.access_type for access in trace}
    assert kinds == {AccessType.LOAD, AccessType.STORE}


@pytest.mark.parametrize(
    "name", sorted(suite_specs()) + sorted(edge_specs())
)
def test_decoded_columns_match_accesses(name):
    spec = {**suite_specs(), **edge_specs()}[name]
    columns = batched_trace_cached(spec, DIGEST_LENGTH)
    decoded = BatchedTrace.from_accesses(list(spec.build(length=DIGEST_LENGTH)))
    for field in (
        "addresses", "pcs", "gaps", "kinds", "blocks", "instruction_total"
    ):
        assert getattr(columns, field) == getattr(decoded, field), field

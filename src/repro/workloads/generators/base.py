"""Base class for synthetic workload generators."""

from __future__ import annotations

import abc
import random
from itertools import islice
from typing import Iterator, List, Tuple

from repro.sim.batch import KIND_LOAD, BatchedTrace

#: One generated access: ``(pc, address, kind, instr_gap)``, ``kind`` being a
#: :mod:`repro.sim.batch` ``KIND_*`` code.
AccessRecord = Tuple[int, int, int, int]


class WorkloadGenerator(abc.ABC):
    """A deterministic, seeded producer of memory-access traces.

    Subclasses implement :meth:`_generate`, yielding :data:`AccessRecord`
    tuples built with :meth:`access`.  The base class provides the seeded
    RNG, common address-layout helpers and the public :meth:`generate`
    entry point, which enforces the requested length and writes the records
    straight into the columns of a :class:`~repro.sim.batch.BatchedTrace`
    (no :class:`~repro.sim.types.MemoryAccess` is built per access).
    """

    #: Short name used in trace specifications and reports.
    kind: str = "base"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        if length <= 0:
            raise ValueError("trace length must be positive")
        if mean_instr_gap < 0:
            raise ValueError("mean_instr_gap must be non-negative")
        if region_size <= 0 or region_size % 64:
            raise ValueError(
                f"region_size must be a positive multiple of 64, got {region_size}"
            )
        self.seed = seed
        self.length = length
        self.mean_instr_gap = mean_instr_gap
        self.region_size = region_size
        self.blocks_per_region = region_size // 64
        self.rng = random.Random(seed)
        self._pc_counter = 0x400000 + (seed & 0xFFFF) * 0x100
        # instr_gap() draws uniformly from [low, high], exactly as
        # ``rng.randint(low, high)`` would; the bounds are fixed per trace.
        if mean_instr_gap == 0:
            self._gap_low = self._gap_width = self._gap_bits = 0
        else:
            self._gap_low = max(0, int(mean_instr_gap * 0.5))
            self._gap_width = int(mean_instr_gap * 1.5) + 2 - self._gap_low
            self._gap_bits = self._gap_width.bit_length()
        self._getrandbits = self.rng.getrandbits

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def new_pc(self) -> int:
        """Allocate a fresh, stable program-counter value."""
        self._pc_counter += 4
        return self._pc_counter

    def instr_gap(self) -> int:
        """Draw a non-memory instruction gap around the configured mean.

        The rejection loop ``Random.randint`` runs internally (CPython's
        ``_randbelow_with_getrandbits``) on precomputed bounds: the same
        draws, so the same stream, at a fraction of the call overhead.  A
        zero mean draws nothing.
        """
        width = self._gap_width
        if not width:
            return 0
        bits = self._gap_bits
        getrandbits = self._getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return self._gap_low + r

    def below(self, n: int) -> int:
        """A uniform draw from ``[0, n)``: ``rng.randrange(n)``, inlined.

        ``randrange(n)``, ``randint`` and ``choice`` all end in the same
        rejection loop as :meth:`instr_gap`; running it directly returns the
        same value from the same stream without their argument handling.
        """
        if n <= 0:
            raise ValueError(f"empty range for below({n})")
        getrandbits = self._getrandbits
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    def access(self, pc: int, address: int, kind: int = KIND_LOAD) -> AccessRecord:
        """One access record with a freshly drawn instruction gap.

        The gap is drawn here, when the record is built, not when it is
        yielded: generators that materialise a whole region ahead of
        yielding it draw its gaps in that order.
        """
        return (pc, address, kind, self.instr_gap())

    def region_base(self, region: int) -> int:
        """Byte address of the start of ``region``."""
        return region * self.region_size

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> BatchedTrace:
        """Produce exactly ``self.length`` accesses as decoded columns.

        A finite :meth:`_generate` is replayed (a fresh pass continues the
        same RNG stream) until the length is reached; a pass that yields
        nothing raises :class:`ValueError` instead of spinning forever.
        """
        records: List[AccessRecord] = []
        while len(records) < self.length:
            before = len(records)
            records.extend(islice(self._generate(), self.length - before))
            if len(records) == before:
                raise ValueError(
                    f"{type(self).__name__}._generate() yielded no accesses"
                )
        return BatchedTrace.from_records(records)

    @abc.abstractmethod
    def _generate(self) -> Iterator[AccessRecord]:
        """Yield access records (may be finite or infinite)."""

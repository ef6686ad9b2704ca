"""Stream and memory allocation (Sections IV-A, IV-B of the paper).

Two resources are allocated here:

* **MEM words** — tensors live in byte-plane layout: a dtype of ``b`` bytes
  occupies ``b`` distinct MEM slices (so its ``b`` streams can be fed
  concurrently), each holding one word per tensor row at consecutive
  addresses.  *Parallel* layout instead spreads rows across slices — one
  word per slice — so 16 rows can be read in the same cycle, which the
  16-stream transpose requires.  The allocator separates producers and
  consumers by SRAM bank: program *inputs* sit in bank 0 (even word
  addresses) and *results* in bank 1 (odd), so a slice can stream operands
  out of one bank while results land in the other — the concurrency trick
  of Section IV-A.

* **Streams** — 32 per direction, granted as naturally aligned groups
  (int32 needs an aligned quad).  Allocation is interval-based in the
  stream's *moving frame*: an eastward value's ``c = t - position`` is
  invariant as it flows one hop per cycle, so two values on the same stream
  collide exactly when their ``c`` windows overlap.  This books precisely
  the slots a value occupies — values launched behind one another on the
  same stream never conflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..arch.geometry import Direction, Floorplan, Hemisphere
from ..config import ArchConfig
from ..errors import AllocationError
from .placement import MemSlice, split_rows

#: bank policy: program inputs/constants in bank 0, results in bank 1
INPUT_BANK = 0
RESULT_BANK = 1


@dataclass(frozen=True)
class WordPlacement:
    """One byte-plane of a tensor in one MEM slice."""

    hemisphere: Hemisphere
    slice_index: int
    base_address: int
    n_words: int
    stride: int = 2  # bank-interleaved allocation steps by 2


@dataclass
class TensorLayout:
    """Where a tensor lives in MEM.

    ``planes[b]`` is the placement of byte-plane ``b`` (sequential layout);
    ``parallel[j]`` is the placement of row ``j`` (parallel layout, int8
    only).  Exactly one of the two lists is populated.

    A sequential layout may split its rows into ``row_blocks`` contiguous
    blocks, each with its own slice per byte-plane (``planes`` lists them
    block after block), so the blocks can stream side by side — how a
    matmul spread over several MXM planes feeds and drains them at once.
    The blocks may sit in both hemispheres (a matmul split into one part
    per MXM, :meth:`join`).  :meth:`address_of` hides the split: hosts
    bind and fetch by row.
    """

    planes: list[WordPlacement] = field(default_factory=list)
    parallel: list[WordPlacement] = field(default_factory=list)
    row_blocks: int = 1

    @property
    def is_parallel(self) -> bool:
        return bool(self.parallel)

    @staticmethod
    def join(parts: list["TensorLayout"]) -> "TensorLayout":
        """One layout over the row blocks of ``parts``, in order — the
        parts of one tensor, their blocks all cut to one size."""
        if len(parts) == 1:
            return parts[0]
        return TensorLayout(
            planes=[p for part in parts for p in part.planes],
            row_blocks=sum(part.row_blocks for part in parts),
        )

    def shifted(self, words: int) -> "TensorLayout":
        """This layout ``words`` addresses further up every slice."""
        return TensorLayout(
            planes=[replace(p, base_address=p.base_address + words)
                    for p in self.planes],
            parallel=[replace(p, base_address=p.base_address + words)
                      for p in self.parallel],
            row_blocks=self.row_blocks,
        )

    def address_of(self, plane: int, row: int) -> tuple[Hemisphere, int, int]:
        """(hemisphere, slice, word address) of one row of one byte-plane."""
        if self.is_parallel:
            p = self.parallel[row]
            return p.hemisphere, p.slice_index, p.base_address
        # every block but the last is as long as the first
        block, row = divmod(row, self.planes[plane].n_words)
        p = self.planes[block * (len(self.planes) // self.row_blocks) + plane]
        return (
            p.hemisphere,
            p.slice_index,
            p.base_address + row * p.stride,
        )


class MemoryAllocator:
    """Bank-interleaved bump allocation across all MEM slices.

    The allocator answers two questions without changing state — which
    slices exist near a position (:meth:`slices_near`) and whether one has
    room (:meth:`fits`, :meth:`fits_contiguous`) — so the scheduler can
    score candidates freely; words are taken only by the ``alloc_*``
    calls, on exactly the slices the caller chose.

    ``blacklisted_slices`` — ``(hemisphere, slice_index)`` pairs a
    degraded-mode recompilation must route around (dead SRAM tiles, see
    :mod:`repro.resil.degrade`) — are simply never offered as candidates.
    """

    def __init__(
        self,
        config: ArchConfig,
        blacklisted_slices: frozenset[tuple[Hemisphere, int]] = frozenset(),
    ) -> None:
        self.config = config
        self._words = config.mem_words_per_slice_tile
        floorplan = Floorplan(config)
        self._slices = [
            MemSlice(a.hemisphere, a.index, floorplan.position(a))
            for a in floorplan.mem_slices()
            if (a.hemisphere, a.index) not in blacklisted_slices
        ]
        # slices are keyed by their position (one int, unique per slice):
        # next free address per (slice, bank), bank b starting at address b
        self._cursor: dict[tuple[int, int], int] = {}
        # contiguous blocks (gather tables) grow down from the slice top
        self._top: dict[int, int] = {}

    def slices_near(self, position: int) -> list[MemSlice]:
        """Every healthy slice of both hemispheres, nearest first.

        Section V-b asks that tensors be laid out "so that data transit
        from memory slice MEM_i to MXM is minimized"; transit is the
        position difference (Equation 4), so this is the order in which a
        value driven at (or wanted at) ``position`` reaches the slices.
        """
        return sorted(self._slices, key=lambda s: abs(s.position - position))

    # ------------------------------------------------------------------
    def _span(self, s: MemSlice, bank: int, n_words: int) -> tuple[int, int]:
        base = self._cursor.get((s.position, bank), bank)
        return base, base + 2 * (n_words - 1)

    def _ceiling(self, s: MemSlice) -> int:
        return self._top.get(s.position, self._words)

    def fits(self, s: MemSlice, bank: int, n_words: int) -> bool:
        """Whether ``n_words`` bank-strided words still fit in a slice.

        (:meth:`_span` against :meth:`_ceiling`, spelled out: placement
        asks this of every slice for every option it scores.)"""
        last = self._cursor.get((s.position, bank), bank) + 2 * (n_words - 1)
        return last < self._top.get(s.position, self._words)

    def room(self, s: MemSlice, bank: int) -> int:
        """How many bank-strided words still fit in a slice."""
        free = self._ceiling(s) - self._cursor.get((s.position, bank), bank)
        return max(0, (free + 1) // 2)

    def fits_contiguous(self, s: MemSlice, n_words: int) -> bool:
        """Whether a stride-1 ``n_words`` table still fits in a slice."""
        used = max(self._span(s, bank, 1)[0] for bank in (0, 1))
        return self._ceiling(s) - n_words >= used

    def candidates(
        self, position: int, count: int, bank: int, n_words: int
    ) -> list[MemSlice]:
        """The slices a value can be placed in: healthy, with ``n_words``
        free in ``bank``, nearest ``position`` first.  Fewer than the
        ``count`` the value needs at once is an allocation failure."""
        roomy = [
            s for s in self.slices_near(position)
            if self.fits(s, bank, n_words)
        ]
        if len(roomy) < count:
            raise AllocationError(
                f"need {count} concurrent MEM slices with {n_words} free "
                f"words in bank {bank}, the chip has {len(roomy)}"
            )
        return roomy

    def _take(self, s: MemSlice, bank: int, n_words: int) -> WordPlacement:
        if not self.fits(s, bank, n_words):
            raise AllocationError(
                f"MEM_{s.hemisphere.value}{s.index} bank {bank} is full"
            )
        base, end = self._span(s, bank, n_words)
        self._cursor[(s.position, bank)] = end + 2
        return WordPlacement(s.hemisphere, s.index, base, n_words)

    # ------------------------------------------------------------------
    def alloc_sequential(
        self,
        slices: list[MemSlice],
        n_words: int,
        bank: int = INPUT_BANK,
        row_blocks: int | list[int] = 1,
    ) -> TensorLayout:
        """One of ``slices`` per byte-plane — per byte-plane of each row
        block, block after block, when the ``n_words`` rows are split —
        rows at consecutive (bank-strided) addresses.  ``row_blocks`` is
        how many even blocks to cut, or the block sizes themselves (a part
        of a tensor cuts to the whole tensor's block size, not its own)."""
        sizes = (
            split_rows(n_words, row_blocks)
            if isinstance(row_blocks, int) else row_blocks
        )
        per_block = len(slices) // len(sizes)
        return TensorLayout(
            planes=[
                self._take(s, bank, sizes[i // per_block])
                for i, s in enumerate(slices)
            ],
            row_blocks=len(sizes),
        )

    def alloc_parallel(
        self, slices: list[MemSlice], bank: int = INPUT_BANK
    ) -> TensorLayout:
        """One of ``slices`` per row — all rows readable in the same
        cycle."""
        return TensorLayout(parallel=[self._take(s, bank, 1) for s in slices])

    def alloc_contiguous(self, s: MemSlice, n_words: int) -> WordPlacement:
        """A stride-1 block in one slice, for stream-indirect tables.

        Gather offsets address consecutive words, so the table cannot use
        the bank-interleaved stride; contiguous blocks grow down from the
        top of the slice, away from both bank cursors.
        """
        if not self.fits_contiguous(s, n_words):
            raise AllocationError(
                f"MEM_{s.hemisphere.value}{s.index} cannot fit a "
                f"{n_words}-word contiguous table"
            )
        base = self._top[s.position] = self._ceiling(s) - n_words
        return WordPlacement(s.hemisphere, s.index, base, n_words, stride=1)


@dataclass(frozen=True)
class StreamGrant:
    """An allocated, naturally aligned stream group."""

    direction: Direction
    base: int
    width: int
    t_start: int
    t_end: int
    #: booked for every period of a periodic schedule, not just the first
    recurs: bool = False

    @property
    def streams(self) -> list[int]:
        return list(range(self.base, self.base + self.width))


def recurrence_meets(
    a: tuple[int, int], b: tuple[int, int], period: int,
    first: int | None = 0,
) -> bool:
    """Whether window ``a`` shifted by ``k * period`` meets window ``b``
    for some ``k >= first`` (any ``k`` when ``first`` is None)."""
    lo, hi = -((a[1] - b[0]) // period), (b[1] - a[0]) // period
    return max(lo, first) <= hi if first is not None else lo <= hi


class StreamAllocator:
    """Interval allocation of the 32+32 logical streams.

    With a ``period``, a grant marked ``recurs`` is booked at every
    ``t + k * period``, ``k >= 0``: a periodic schedule repeats it.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.period: int | None = None
        self._grants: dict[Direction, list[StreamGrant]] = {
            Direction.EASTWARD: [],
            Direction.WESTWARD: [],
        }

    def _free(
        self, direction: Direction, base: int, width: int, t0: int, t1: int,
        recurs: bool,
    ) -> bool:
        for grant in self._grants[direction]:
            if grant.base + grant.width <= base or base + width <= grant.base:
                continue  # disjoint stream ranges
            window, wanted = (grant.t_start, grant.t_end), (t0, t1)
            if recurs and grant.recurs:
                met = recurrence_meets(wanted, window, self.period, None)
            elif recurs:
                met = recurrence_meets(wanted, window, self.period)
            elif grant.recurs:
                met = recurrence_meets(window, wanted, self.period)
            else:
                met = not (window[1] < t0 or t1 < window[0])
            if met:
                return False
        return True

    def allocate(
        self, direction: Direction, width: int, t_start: int, t_end: int,
        recurs: bool = False,
    ) -> StreamGrant:
        """Grant an aligned group of ``width`` streams for a window.

        The window is expressed in moving-frame coordinates (which may be
        negative).  ``width`` must be a power-of-two group size (1, 2, 4)
        or 16 for the transpose group; alignment follows the SG rules of
        Section I-B.  A ``recurs`` grant books every period of the window.
        """
        if t_end < t_start:
            raise AllocationError("stream window ends before it starts")
        align = width if width in (1, 2, 4, 8, 16) else 4
        limit = self.config.streams_per_direction
        bases = list(range(0, limit - width + 1, align))
        if width < 8:
            # narrow grants pack from the top so wide aligned groups
            # (weight feeds, transpose groups) keep the low blocks free
            bases.reverse()
        for base in bases:
            if self._free(direction, base, width, t_start, t_end, recurs):
                grant = StreamGrant(
                    direction, base, width, t_start, t_end, recurs
                )
                self._grants[direction].append(grant)
                return grant
        raise AllocationError(
            f"no {width}-wide {direction.value} stream group free during "
            f"[{t_start}, {t_end}] — program needs more stream parallelism "
            "than the chip has"
        )

    def release(self, grant: StreamGrant) -> None:
        """Return a grant (used when a tentative schedule is rolled back)."""
        self._grants[grant.direction].remove(grant)

    def utilization(self) -> dict[str, int]:
        return {
            d.value: len(grants) for d, grants in self._grants.items()
        }

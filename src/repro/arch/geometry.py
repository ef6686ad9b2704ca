"""Chip floorplan: functional-slice placement and stream-register geometry.

The paper (Figures 2, 4, 5) arranges each superlane as a West-to-East row of
functional slices with stream registers between adjacent slices.  Streams
advance exactly one stream-register hop per cycle, so the transit delay
``delta(j, i)`` between two slices is simply the absolute difference of their
X positions (Equation 4).

The exact slice order is not fully specified in the paper; DESIGN.md section 3
documents the layout we adopt:

```
C2C_W MXM_W SXM_W MEM_W43 .. MEM_W0 | VXM | MEM_E0 .. MEM_E43 SXM_E MXM_E C2C_E
```

which satisfies the stated constraints ("MEM0 closest to the VXM, MEM43
nearest the SXM"; MXM outboard of SXM per the die photo).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import ArchConfig
from ..errors import ConfigError


class _Member(enum.Enum):
    """An enum whose members hash by identity.

    ``Enum.__hash__`` is a Python-level ``hash(self._name_)``, re-entered
    for every dict lookup keyed on a slice or queue; members are
    singletons, so the object hash is the same relation for free.
    """

    __hash__ = object.__hash__


class SliceKind(_Member):
    """Functional-slice families (Table I)."""

    VXM = "VXM"
    MEM = "MEM"
    SXM = "SXM"
    MXM = "MXM"
    C2C = "C2C"


class Hemisphere(_Member):
    """The chip is bisected into East and West hemispheres (Figure 5)."""

    WEST = "W"
    EAST = "E"

    @property
    def other(self) -> "Hemisphere":
        return Hemisphere.EAST if self is Hemisphere.WEST else Hemisphere.WEST


class Direction(_Member):
    """Dataflow direction of a stream (Section II-B).

    Streams flow East or West; the paper also uses *inward* (toward the chip
    bisection) and *outward* (toward the die edge), which depend on the
    hemisphere — see :meth:`inward_for`.
    """

    EASTWARD = "E"
    WESTWARD = "W"

    @property
    def opposite(self) -> "Direction":
        if self is Direction.EASTWARD:
            return Direction.WESTWARD
        return Direction.EASTWARD

    @property
    def step(self) -> int:
        """Position increment per cycle along the X axis (East = +1)."""
        return 1 if self is Direction.EASTWARD else -1

    @staticmethod
    def inward_for(hemisphere: Hemisphere) -> "Direction":
        """The direction that flows toward the chip bisection."""
        if hemisphere is Hemisphere.WEST:
            return Direction.EASTWARD
        return Direction.WESTWARD

    @staticmethod
    def outward_for(hemisphere: Hemisphere) -> "Direction":
        """The direction that flows toward the die edge."""
        return Direction.inward_for(hemisphere).opposite


@dataclass(frozen=True, order=True)
class SliceAddress:
    """Identity of one functional slice.

    ``index`` is meaningful only for MEM slices (0..43 per hemisphere, with
    MEM0 adjacent to the VXM).  The VXM has no hemisphere: it sits on the
    chip bisection.
    """

    kind: SliceKind
    hemisphere: Hemisphere | None = None
    index: int = 0

    def __post_init__(self) -> None:
        # addresses key the floorplan, every queue and every probe of one:
        # hashed once here, not field by field at each lookup
        object.__setattr__(
            self, "_hash", hash((self.kind, self.hemisphere, self.index))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a cached hash is this process's own
        return SliceAddress, (self.kind, self.hemisphere, self.index)

    def __str__(self) -> str:
        if self.kind is SliceKind.VXM:
            return "VXM"
        if self.kind is SliceKind.MEM:
            return f"MEM_{self.hemisphere.value}{self.index}"
        return f"{self.kind.value}_{self.hemisphere.value}"


class Floorplan:
    """Maps every functional slice to an X position and back.

    Positions are integer stream-register hops: adjacent slices differ by 1,
    and a stream value moves one position per cycle.  The VXM sits at the
    center; position grows Eastward.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self._order: list[SliceAddress] = self._build_order(config)
        self._position: dict[SliceAddress, int] = {
            addr: x for x, addr in enumerate(self._order)
        }

    @staticmethod
    def _build_order(config: ArchConfig) -> list[SliceAddress]:
        n = config.mem_slices_per_hemisphere
        west: list[SliceAddress] = [
            SliceAddress(SliceKind.C2C, Hemisphere.WEST),
            SliceAddress(SliceKind.MXM, Hemisphere.WEST),
            SliceAddress(SliceKind.SXM, Hemisphere.WEST),
        ]
        west += [
            SliceAddress(SliceKind.MEM, Hemisphere.WEST, i)
            for i in range(n - 1, -1, -1)
        ]
        center = [SliceAddress(SliceKind.VXM)]
        east: list[SliceAddress] = [
            SliceAddress(SliceKind.MEM, Hemisphere.EAST, i) for i in range(n)
        ]
        east += [
            SliceAddress(SliceKind.SXM, Hemisphere.EAST),
            SliceAddress(SliceKind.MXM, Hemisphere.EAST),
            SliceAddress(SliceKind.C2C, Hemisphere.EAST),
        ]
        return west + center + east

    # ------------------------------------------------------------------
    @property
    def slices(self) -> list[SliceAddress]:
        """All slices in West-to-East order."""
        return list(self._order)

    @property
    def n_positions(self) -> int:
        """Number of stream-register positions along a superlane."""
        return len(self._order)

    def position(self, address: SliceAddress) -> int:
        """X position (stream-register index) of a slice."""
        try:
            return self._position[address]
        except KeyError:
            raise ConfigError(f"slice {address} is not on this floorplan")

    def at(self, x: int) -> SliceAddress:
        """Slice occupying position ``x``."""
        if not 0 <= x < len(self._order):
            raise ConfigError(f"position {x} is off-chip")
        return self._order[x]

    def delta(self, a: SliceAddress, b: SliceAddress) -> int:
        """Transit delay in cycles between two slices (Equation 4).

        Streams advance one hop per cycle, so delay is |x_a - x_b|.
        """
        return abs(self.position(a) - self.position(b))

    def direction_from(self, src: SliceAddress, dst: SliceAddress) -> Direction:
        """The stream direction that carries data from ``src`` to ``dst``."""
        dx = self.position(dst) - self.position(src)
        if dx == 0:
            raise ConfigError(
                f"{src} and {dst} are the same position; no direction"
            )
        return Direction.EASTWARD if dx > 0 else Direction.WESTWARD

    def hemisphere_of(self, address: SliceAddress) -> Hemisphere | None:
        """Which hemisphere a position falls in (None for the VXM)."""
        return address.hemisphere

    # ------------------------------------------------------------------
    def mem_slice(self, hemisphere: Hemisphere, index: int) -> SliceAddress:
        """Address of MEM slice ``index`` in ``hemisphere`` (0 = innermost)."""
        n = self.config.mem_slices_per_hemisphere
        if not 0 <= index < n:
            raise ConfigError(f"MEM index {index} out of range 0..{n - 1}")
        return SliceAddress(SliceKind.MEM, hemisphere, index)

    def mem_slices(self) -> list[SliceAddress]:
        """All MEM slices, West hemisphere first."""
        return [s for s in self._order if s.kind is SliceKind.MEM]

    def vxm(self) -> SliceAddress:
        return SliceAddress(SliceKind.VXM)

    def sxm(self, hemisphere: Hemisphere) -> SliceAddress:
        return SliceAddress(SliceKind.SXM, hemisphere)

    def mxm(self, hemisphere: Hemisphere) -> SliceAddress:
        return SliceAddress(SliceKind.MXM, hemisphere)

    def c2c(self, hemisphere: Hemisphere) -> SliceAddress:
        return SliceAddress(SliceKind.C2C, hemisphere)

    def icu_count(self) -> dict[SliceKind, int]:
        """Decomposition of the 144 independent instruction queues.

        The paper states the total (144) but not the split; DESIGN.md section
        3 documents the decomposition we adopt: one ICU per MEM slice (88),
        16 VXM, 8 MXM, 16 SXM, 16 C2C.
        """
        mem = self.config.n_mem_slices
        return {
            SliceKind.MEM: mem,
            SliceKind.VXM: 16,
            SliceKind.MXM: 8,
            SliceKind.SXM: 16,
            SliceKind.C2C: 16,
        }

"""Program representation: one instruction queue per ICU.

The compiler has explicit control of program order in each of the chip's 144
independent instruction queues (Section II).  A :class:`Program` maps each
:class:`IcuId` to its ordered instruction list; the simulator dispatches each
queue independently, and the assembly listing regenerates the kind of
schedule shown in the paper's Figure 11.

ICU decomposition (DESIGN.md section 3): one queue per MEM slice (88); 16
VXM queues (one per ALU mesh slot); 8 MXM queues (4 planes x {weight,
activation} queues); 16 SXM queues (8 functional units per hemisphere); 16
C2C queues (one per link) — 144 total on the full chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.geometry import Floorplan, Hemisphere, SliceAddress, SliceKind
from ..config import ArchConfig
from ..errors import IsaError
from .base import Instruction

#: SXM functional units, each with its own instruction queue.
SXM_UNITS = (
    "shift_n",
    "shift_s",
    "select",
    "permute",
    "distribute",
    "rotate",
    "transpose0",
    "transpose1",
)
#: MXM queues per plane: one feeding weights, one driving activations/results.
MXM_UNITS = ("weights", "compute")


@dataclass(frozen=True)
class IcuId:
    """Identity of one independent instruction queue.

    ``unit`` distinguishes queues within a slice: the VXM ALU slot (0..15),
    the MXM plane queue (``plane*2 + {0=weights, 1=compute}``), the SXM
    functional unit (index into :data:`SXM_UNITS`), or the C2C link.
    MEM slices have a single queue (unit 0).
    """

    address: SliceAddress
    unit: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.address, self.unit)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a cached hash is this process's own
        return IcuId, (self.address, self.unit)

    def __str__(self) -> str:
        if self.address.kind is SliceKind.MEM:
            return str(self.address)
        if self.address.kind is SliceKind.VXM:
            return f"VXM.alu{self.unit}"
        if self.address.kind is SliceKind.SXM:
            return f"{self.address}.{SXM_UNITS[self.unit]}"
        if self.address.kind is SliceKind.MXM:
            plane, queue = divmod(self.unit, 2)
            return f"{self.address}.plane{plane}.{MXM_UNITS[queue]}"
        return f"{self.address}.link{self.unit}"

    def sort_key(self) -> tuple:
        hem = "" if self.address.hemisphere is None else (
            self.address.hemisphere.value
        )
        return (self.address.kind.value, hem, self.address.index, self.unit)


def all_icu_ids(config: ArchConfig, floorplan: Floorplan) -> list[IcuId]:
    """Every independent instruction queue on the chip (144 on the full TSP)."""
    ids: list[IcuId] = []
    for mem in floorplan.mem_slices():
        ids.append(IcuId(mem, 0))
    for alu in range(16):
        ids.append(IcuId(floorplan.vxm(), alu))
    for hemisphere in (Hemisphere.WEST, Hemisphere.EAST):
        for unit in range(config.mxm_planes_per_hemisphere * len(MXM_UNITS)):
            ids.append(IcuId(floorplan.mxm(hemisphere), unit))
        for unit in range(len(SXM_UNITS)):
            ids.append(IcuId(floorplan.sxm(hemisphere), unit))
        for link in range(config.c2c_links // config.hemispheres):
            ids.append(IcuId(floorplan.c2c(hemisphere), link))
    return ids


class Program:
    """Per-ICU instruction queues plus compiler bookkeeping."""

    def __init__(self) -> None:
        self._queues: dict[IcuId, list[Instruction]] = {}
        #: optional human annotations keyed by (icu, instruction index)
        self.annotations: dict[tuple[IcuId, int], str] = {}

    # ------------------------------------------------------------------
    def add(
        self, icu: IcuId, instruction: Instruction, note: str | None = None
    ) -> None:
        """Append one instruction to an ICU's queue."""
        if (
            instruction.slice_kinds
            and icu.address.kind not in instruction.slice_kinds
        ):
            raise IsaError(
                f"{instruction.mnemonic} cannot execute on a "
                f"{icu.address.kind.value} slice"
            )
        queue = self._queues.setdefault(icu, [])
        if note is not None:
            self.annotations[(icu, len(queue))] = note
        queue.append(instruction)

    def extend(self, icu: IcuId, instructions: list[Instruction]) -> None:
        for instruction in instructions:
            self.add(icu, instruction)

    # ------------------------------------------------------------------
    def queue(self, icu: IcuId) -> list[Instruction]:
        """The (possibly empty) instruction list for an ICU."""
        return self._queues.get(icu, [])

    @property
    def icus(self) -> list[IcuId]:
        """ICUs with at least one instruction, in deterministic order."""
        return sorted(self._queues, key=IcuId.sort_key)

    def n_instructions(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def text_bytes(self) -> int:
        """Total program-text size across all queues."""
        return sum(
            instruction.encoded_size()
            for queue in self._queues.values()
            for instruction in queue
        )

    def dispatch_length(self, icu: IcuId) -> int:
        """Cycles the queue occupies the dispatcher (NOPs count in full)."""
        return sum(i.issue_cycles() for i in self.queue(icu))

    def makespan_lower_bound(self) -> int:
        """Longest single-queue dispatch length — a floor on execution time."""
        if not self._queues:
            return 0
        return max(self.dispatch_length(icu) for icu in self._queues)

    # ------------------------------------------------------------------
    def listing(self, max_width: int = 100) -> str:
        """Human-readable assembly listing, one section per ICU."""
        lines: list[str] = []
        for icu in self.icus:
            lines.append(f"{icu}:")
            cycle = 0
            for index, instruction in enumerate(self.queue(icu)):
                note = self.annotations.get((icu, index), "")
                suffix = f"  ; {note}" if note else ""
                text = f"  t+{cycle:<6} {instruction}{suffix}"
                if len(text) > max_width:
                    text = text[: max_width - 3] + "..."
                lines.append(text)
                cycle += instruction.issue_cycles()
            lines.append("")
        return "\n".join(lines)

    def __len__(self) -> int:
        return self.n_instructions()

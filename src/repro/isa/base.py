"""Instruction base classes and the ISA registry.

Instructions are immutable dataclasses carrying only architectural fields —
their execution semantics live in :mod:`repro.sim`, and their scheduling
metadata (``d_func``/``d_skew``) in :mod:`repro.arch.timing`.  Every concrete
instruction registers itself by mnemonic so Table I can be regenerated from
the registry and the binary encoder can round-trip any instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

from ..arch.geometry import SliceKind
from ..arch.timing import TimingModel
from ..errors import IsaError

#: mnemonic -> instruction class
INSTRUCTION_REGISTRY: dict[str, type["Instruction"]] = {}
#: mnemonic -> stable opcode number (order of registration)
OPCODE_BY_MNEMONIC: dict[str, int] = {}


def register_instruction(cls: type["Instruction"]) -> type["Instruction"]:
    """Class decorator adding an instruction to the global registry."""
    mnemonic = cls.mnemonic
    if not mnemonic:
        raise IsaError(f"{cls.__name__} lacks a mnemonic")
    if mnemonic in INSTRUCTION_REGISTRY:
        raise IsaError(f"duplicate mnemonic {mnemonic!r}")
    INSTRUCTION_REGISTRY[mnemonic] = cls
    OPCODE_BY_MNEMONIC[mnemonic] = len(OPCODE_BY_MNEMONIC)
    return cls


@dataclass(frozen=True)
class Instruction:
    """Base class for every TSP instruction.

    Class attributes:

    * ``mnemonic`` — the Table I name.
    * ``slice_kinds`` — which functional-slice families may execute it.
      ICU-common instructions (NOP, Ifetch, Sync, Notify, Config, Repeat)
      are valid on every slice because every slice has an ICU tile.
    * ``description`` — the Table I description, used to regenerate the
      table.
    """

    mnemonic: ClassVar[str] = ""
    slice_kinds: ClassVar[frozenset[SliceKind]] = frozenset()
    description: ClassVar[str] = ""

    @property
    def opcode(self) -> int:
        return OPCODE_BY_MNEMONIC[self.mnemonic]

    # -- timing ---------------------------------------------------------
    @property
    def timing_mnemonic(self) -> str:
        """Key into the timing tables (subclasses of a family share one)."""
        return self.mnemonic

    def dfunc(self, timing: TimingModel) -> int:
        """Functional delay: dispatch to result-on-stream (Section III)."""
        return timing.functional_delay(self.timing_mnemonic)

    def dskew(self, timing: TimingModel) -> int:
        """Operand skew: dispatch to operand-sampling time (Section III)."""
        return timing.operand_skew(self.timing_mnemonic)

    # -- occupancy ------------------------------------------------------
    def issue_cycles(self) -> int:
        """Dispatch slots this instruction occupies in its queue.

        Almost every instruction issues in one cycle; ``NOP n`` and
        ``Repeat n, d`` occupy the queue for their whole duration.
        """
        return 1

    def encoded_size(self) -> int:
        """Bytes of instruction text this occupies in the IQ.

        Used by the IFetch model: the compiler must refill 640-byte chunks
        fast enough that no queue runs dry.  The size is the structural
        length of the wire encoding (no bytes are built), so occupancy
        matches the actual program text exactly.
        """
        from .encoding import encoded_length  # local import: avoids a cycle

        return encoded_length(self)

    def payload(self) -> bytes:
        """Variable-length payload (e.g. permutation maps)."""
        return b""

    # -- presentation ---------------------------------------------------
    def operands_str(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            parts.append(f"{f.name}={value}")
        return ", ".join(parts)

    def __str__(self) -> str:
        ops = self.operands_str()
        return f"{self.mnemonic} {ops}" if ops else self.mnemonic


def instructions_for_slice(kind: SliceKind) -> list[type[Instruction]]:
    """All instruction classes executable on a slice family."""
    result = []
    for cls in INSTRUCTION_REGISTRY.values():
        if not cls.slice_kinds or kind in cls.slice_kinds:
            result.append(cls)
    return result


def iter_instruction_classes() -> Iterator[type[Instruction]]:
    yield from INSTRUCTION_REGISTRY.values()

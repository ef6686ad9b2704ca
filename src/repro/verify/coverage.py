"""ISA coverage tracking: which opcodes, dtypes, and slices ran.

The ISA registry (:mod:`repro.isa.base`) is the source of truth for what
*can* be dispatched; this module records what a test run *did* dispatch and
fails a threshold check per instruction class.  Classes follow the paper's
functional-slice families — MEM, VXM, MXM, SXM, C2C — plus ``ICU`` for the
slice-agnostic control instructions (NOP, Ifetch, Sync, Notify, Config,
Repeat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.streams import DType
from ..errors import CoverageError
from ..isa.base import INSTRUCTION_REGISTRY, Instruction
from ..isa.program import Program

COVERAGE_CLASSES = ("MEM", "VXM", "MXM", "SXM", "ICU", "C2C")


def instruction_class(cls: type[Instruction]) -> str:
    """Coverage class of an instruction type."""
    kinds = cls.slice_kinds
    if not kinds or len(kinds) > 1:
        return "ICU"  # slice-agnostic control instructions
    return next(iter(kinds)).value


def mnemonics_by_class() -> dict[str, list[str]]:
    """Every registered mnemonic, grouped by coverage class."""
    groups: dict[str, list[str]] = {name: [] for name in COVERAGE_CLASSES}
    for mnemonic, cls in INSTRUCTION_REGISTRY.items():
        groups[instruction_class(cls)].append(mnemonic)
    for mnemonics in groups.values():
        mnemonics.sort()
    return groups


@dataclass
class ClassCoverage:
    """Coverage of one instruction class."""

    name: str
    total: list[str]
    exercised: list[str]

    @property
    def missing(self) -> list[str]:
        return sorted(set(self.total) - set(self.exercised))

    @property
    def fraction(self) -> float:
        if not self.total:
            return 1.0
        return len(self.exercised) / len(self.total)


class CoverageTracker:
    """Accumulates exercised opcodes and dtypes across runs."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.dtypes: set[str] = set()

    # ------------------------------------------------------------------
    def record_instruction(self, instruction: Instruction) -> None:
        mnemonic = instruction.mnemonic
        self.counts[mnemonic] = self.counts.get(mnemonic, 0) + 1
        for value in vars(instruction).values():
            if isinstance(value, DType):
                self.dtypes.add(value.label)

    def record_program(self, program: Program) -> None:
        """Static coverage: every instruction a program would dispatch."""
        for icu in program.icus:
            for instruction in program.queue(icu):
                self.record_instruction(instruction)

    def record_trace(self, trace) -> None:
        """Runtime coverage: every dispatch of a run's trace."""
        for event in trace:
            self.record_instruction(event.instruction)

    # ------------------------------------------------------------------
    def by_class(self) -> list[ClassCoverage]:
        groups = mnemonics_by_class()
        seen = set(self.counts)
        return [
            ClassCoverage(
                name=name,
                total=mnemonics,
                exercised=sorted(seen & set(mnemonics)),
            )
            for name, mnemonics in groups.items()
        ]

    def overall_fraction(self) -> float:
        total = sum(len(c.total) for c in self.by_class())
        exercised = sum(len(c.exercised) for c in self.by_class())
        return exercised / total if total else 1.0

    def as_dict(self) -> dict:
        return {
            "classes": {
                c.name: {
                    "fraction": c.fraction,
                    "exercised": c.exercised,
                    "missing": c.missing,
                }
                for c in self.by_class()
            },
            "overall": self.overall_fraction(),
            "dtypes": sorted(self.dtypes),
            "dispatch_counts": dict(sorted(self.counts.items())),
        }

    def render(self) -> str:
        lines = [
            f"{'class':<6} {'covered':>8} {'fraction':>9}  missing",
            "-" * 60,
        ]
        for c in self.by_class():
            missing = ", ".join(c.missing) if c.missing else "-"
            lines.append(
                f"{c.name:<6} {len(c.exercised):>3}/{len(c.total):<4} "
                f"{c.fraction:>8.0%}  {missing}"
            )
        lines.append("-" * 60)
        lines.append(
            f"overall {self.overall_fraction():.0%}; dtypes exercised: "
            + (", ".join(sorted(self.dtypes)) or "-")
        )
        return "\n".join(lines)

    def check(self, threshold: float = 0.9) -> None:
        """Raise :class:`CoverageError` if any class is below threshold."""
        failing = [
            c for c in self.by_class() if c.fraction < threshold
        ]
        if failing:
            detail = "; ".join(
                f"{c.name} at {c.fraction:.0%} (missing {', '.join(c.missing)})"
                for c in failing
            )
            raise CoverageError(
                f"ISA coverage below {threshold:.0%}: {detail}"
            )

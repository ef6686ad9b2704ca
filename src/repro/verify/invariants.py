"""Runtime invariant checkers for the cycle simulator.

Checkers attach to a chip via :meth:`TspChip.attach_checker` and observe
three event streams during a run:

* ``on_drive(cycle, direction, stream, position)`` — every stream-register
  drive, *including* ones the simulator is about to fault on;
* ``on_mem_access(cycle, slice, kind, bank, address)`` — every SRAM access
  a MEM slice performs, before conflict faulting;
* ``on_dispatch(cycle, icu, instruction)`` — every instruction dispatch.

Unlike the simulator's own hard faults (which raise and abort the run),
checkers *record* violations, so a test can assert that a seeded defect was
observed — and so several defects can be collected from one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..arch.geometry import Direction
from ..compiler.allocator import INPUT_BANK, RESULT_BANK
from ..errors import InvariantViolationError
from ..isa.base import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler.scheduler import ScheduleIntent


@dataclass(frozen=True)
class Violation:
    """One recorded invariant breach."""

    cycle: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[cycle {self.cycle}] {self.kind}: {self.message}"


class InvariantChecker:
    """Base checker: no-op hooks plus violation bookkeeping."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    # hooks ------------------------------------------------------------
    def on_dispatch(
        self, cycle: int, icu: str, instruction: Instruction
    ) -> None:  # pragma: no cover - overridden
        pass

    def on_drive(
        self, cycle: int, direction: Direction, stream: int, position: int
    ) -> None:  # pragma: no cover - overridden
        pass

    def on_mem_access(
        self, cycle: int, slice_name: str, kind: str, bank: int, address: int
    ) -> None:  # pragma: no cover - overridden
        pass

    def finish(self, cycle: int) -> None:
        pass

    # reporting --------------------------------------------------------
    def record(self, cycle: int, kind: str, message: str) -> None:
        self.violations.append(Violation(cycle, kind, message))

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            summary = "\n".join(str(v) for v in self.violations[:20])
            extra = len(self.violations) - 20
            if extra > 0:
                summary += f"\n... and {extra} more"
            raise InvariantViolationError(
                f"{self.name}: {len(self.violations)} violation(s)\n{summary}"
            )


class StreamCollisionChecker(InvariantChecker):
    """Two producers driving one stream register in one cycle.

    The simulator also hard-faults on this; the checker exists so the
    condition is *observable* (negative tests, multi-defect collection) and
    so a future relaxation of the hard fault cannot silently lose coverage.
    """

    name = "stream-collision"

    def __init__(self) -> None:
        super().__init__()
        self._cycle = -1
        self._driven: set[tuple[Direction, int, int]] = set()

    def on_drive(
        self, cycle: int, direction: Direction, stream: int, position: int
    ) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._driven.clear()
        key = (direction, stream, position)
        if key in self._driven:
            self.record(
                cycle,
                "stream-collision",
                f"two producers drove stream {stream}{direction.value} at "
                f"position {position}",
            )
        self._driven.add(key)


class BankDisciplineChecker(InvariantChecker):
    """MEM pseudo-dual-port constraint plus the compiler's bank discipline.

    Section IV-A: one read and one write may share a cycle only on opposite
    banks.  The stream compiler additionally keeps a convention — operand
    reads come from bank 0 (``INPUT_BANK``) and result writes land in bank 1
    (``RESULT_BANK``) — which is what makes same-cycle read+write physically
    schedulable.  ``strict_discipline`` enforces that convention; leave it
    off for hand-built programs that address banks freely.
    """

    name = "bank-discipline"

    def __init__(self, strict_discipline: bool = False) -> None:
        super().__init__()
        self.strict_discipline = strict_discipline
        self._accesses: dict[tuple[str, int], list[tuple[str, int]]] = {}

    def on_mem_access(
        self, cycle: int, slice_name: str, kind: str, bank: int, address: int
    ) -> None:
        key = (slice_name, cycle)
        accesses = self._accesses.setdefault(key, [])
        for other_kind, other_bank in accesses:
            if other_kind == kind:
                self.record(
                    cycle,
                    "bank-conflict",
                    f"{slice_name}: two {kind}s in one cycle",
                )
            elif other_bank == bank:
                self.record(
                    cycle,
                    "bank-conflict",
                    f"{slice_name}: read and write hit bank {bank}",
                )
        accesses.append((kind, bank))
        if len(self._accesses) > 256:
            for old in [k for k in self._accesses if k[1] < cycle - 8]:
                del self._accesses[old]
        if self.strict_discipline:
            expected = INPUT_BANK if kind == "read" else RESULT_BANK
            if bank != expected:
                self.record(
                    cycle,
                    "bank-discipline",
                    f"{slice_name}: {kind} of address {address} hit bank "
                    f"{bank}, compiler convention is bank {expected}",
                )


class TimingContractChecker(InvariantChecker):
    """Replays a :class:`ScheduleIntent` against the observed run.

    Verifies both halves of Equation 4/5: every reserved dispatch cell fires
    with the promised mnemonic at the promised cycle, and the run drives
    exactly the streams the lowerings noted — ``t_drive = t_dispatch +
    d_func``, positions per the moving frame, a temporal shift's re-drives
    included.  The drive check runs both ways: a promised drive never
    observed is ``missing-drive``, an observed drive nobody promised is
    ``unexpected-drive``.  Valid only for a program executed exactly as
    compiled: a warmup barrier or an ``insert_ifetch`` pass shifts every
    queue and the contract no longer applies.
    """

    name = "timing-contract"

    def __init__(self, intent: "ScheduleIntent") -> None:
        super().__init__()
        self.intent = intent
        self._seen_dispatch: set[tuple[str, int]] = set()
        self._seen_drives: set[tuple[Direction, int, int, int]] = set()

    def on_dispatch(
        self, cycle: int, icu: str, instruction: Instruction
    ) -> None:
        if instruction.mnemonic == "NOP":
            return  # padding, not a reserved cell
        cells = self.intent.dispatch_cells.get(icu)
        expected = None if cells is None else cells.get(cycle)
        if expected is None:
            self.record(
                cycle,
                "unexpected-dispatch",
                f"{icu}: dispatched {instruction.mnemonic} with no "
                "reserved cell at this cycle",
            )
        elif expected != instruction.mnemonic:
            self.record(
                cycle,
                "dispatch-mismatch",
                f"{icu}: dispatched {instruction.mnemonic}, schedule "
                f"reserved {expected}",
            )
        self._seen_dispatch.add((icu, cycle))

    def on_drive(
        self, cycle: int, direction: Direction, stream: int, position: int
    ) -> None:
        self._seen_drives.add((direction, stream, position, cycle))

    def finish(self, cycle: int) -> None:
        for icu, cells in self.intent.dispatch_cells.items():
            for t, mnemonic in sorted(cells.items()):
                if (icu, t) not in self._seen_dispatch:
                    self.record(
                        t,
                        "missing-dispatch",
                        f"{icu}: schedule reserved {mnemonic} at cycle {t} "
                        "but nothing dispatched",
                    )
        promised = set(self.intent.drives)
        self._report_drives(
            "missing-drive", promised - self._seen_drives,
            "promised but not observed",
        )
        self._report_drives(
            "unexpected-drive", self._seen_drives - promised,
            "observed but never promised",
        )

    def _report_drives(self, kind: str, drives: set, what: str) -> None:
        """One violation per drive, earliest first; past the eighth, one
        that counts the rest."""
        ordered = sorted(drives, key=lambda e: (e[3], e[0].value, e[1], e[2]))
        for direction, stream, position, t in ordered[:8]:
            self.record(
                t, kind,
                f"drive of stream {stream}{direction.value} at position "
                f"{position}, cycle {t}: {what}",
            )
        if len(ordered) > 8:
            self.record(
                ordered[8][3], kind,
                f"{len(ordered) - 8} further drives {what}",
            )

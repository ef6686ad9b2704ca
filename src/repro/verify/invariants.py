"""Invariant checks of a run's record.

The TSP has no arbiter and no reactive element, so a stream collision, a
bank conflict or a broken timing contract is a fact of what ran: which
instruction dispatched where and when (a run's ``trace`` of
:class:`~repro.sim.chip.TraceEvent`), and which stream register was driven
when (the chip's ``drives``, ``(direction, stream, position, cycle)``,
kept whenever it keeps its dispatches).  Each check here is a function of
that record returning the :class:`Violation` records it finds:

* :func:`stream_collisions` — two drives of one register in one cycle;
* :func:`bank_violations` — the Section IV-A pseudo-dual-port rule over
  the SRAM accesses :func:`mem_accesses` reads off the trace, plus the
  compiler's bank convention;
* :func:`contract_violations` — a :class:`ScheduleIntent` (Equation 4/5)
  against the dispatches and the drives, both ways.

A chip appends a dispatch and a drive to its record before either can
fault, so a run the simulator aborts with its own hard fault
(``BankConflictError``, ``StreamContentionError``) is still checked, and
several defects are collected from one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..arch.geometry import Direction
from ..arch.timing import TimingModel
from ..compiler.allocator import INPUT_BANK, RESULT_BANK
from ..isa.mem import Read, Write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler.scheduler import ScheduleIntent
    from ..sim.chip import TraceEvent

#: ``(direction, stream, position, cycle)``: one stream-register drive
Drive = tuple[Direction, int, int, int]


@dataclass(frozen=True)
class Violation:
    """One invariant breach."""

    cycle: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[cycle {self.cycle}] {self.kind}: {self.message}"


def drive_order(drive: Drive) -> tuple:
    """Sort key of a drive: cycle, then direction, stream and position."""
    direction, stream, position, cycle = drive
    return cycle, direction.value, stream, position


def stream_collisions(drives: list[Drive]) -> list[Violation]:
    """Two producers driving one stream register in one cycle.

    The simulator also hard-faults on this; the check keeps the condition
    *observable* (negative tests, multi-defect collection), so a
    relaxation of the hard fault cannot silently lose coverage.
    """
    seen: set[Drive] = set()
    found = []
    for drive in drives:
        if drive in seen:
            direction, stream, position, cycle = drive
            found.append(Violation(
                cycle, "stream-collision",
                f"two producers drove stream {stream}{direction.value} at "
                f"position {position}",
            ))
        seen.add(drive)
    return found


def mem_accesses(
    trace: list["TraceEvent"], timing: TimingModel | None = None
) -> list[tuple[int, str, str, int, int]]:
    """``(cycle, slice, kind, bank, address)`` of each SRAM access the
    trace's dispatches make, by the simulator's own rule: a ``Read`` at
    its dispatch cycle, a ``Write`` when it samples, ``d_skew`` later."""
    timing = timing or TimingModel()
    accesses = []
    for event in trace:
        instruction = event.instruction
        if type(instruction) is Read:
            cycle, kind = event.cycle, "read"
        elif type(instruction) is Write:
            cycle, kind = event.cycle + instruction.dskew(timing), "write"
        else:
            continue
        accesses.append((
            cycle, str(event.queue.address), kind, instruction.bank,
            instruction.address,
        ))
    return accesses


def bank_violations(
    accesses: list[tuple[int, str, str, int, int]], strict: bool = False
) -> list[Violation]:
    """MEM pseudo-dual-port constraint plus the compiler's bank discipline.

    Section IV-A: one read and one write may share a cycle only on
    opposite banks.  The stream compiler additionally keeps a convention —
    operand reads come from bank 0 (``INPUT_BANK``) and result writes land
    in bank 1 (``RESULT_BANK``) — which is what makes same-cycle
    read+write physically schedulable.  ``strict`` enforces that
    convention; leave it off for hand-built programs that address banks
    freely.
    """
    by_slot: dict[tuple[str, int], list[tuple[str, int]]] = {}
    found = []
    for cycle, slice_name, kind, bank, address in accesses:
        slot = by_slot.setdefault((slice_name, cycle), [])
        for other_kind, other_bank in slot:
            if other_kind == kind:
                found.append(Violation(
                    cycle, "bank-conflict",
                    f"{slice_name}: two {kind}s in one cycle",
                ))
            elif other_bank == bank:
                found.append(Violation(
                    cycle, "bank-conflict",
                    f"{slice_name}: read and write hit bank {bank}",
                ))
        slot.append((kind, bank))
        expected = INPUT_BANK if kind == "read" else RESULT_BANK
        if strict and bank != expected:
            found.append(Violation(
                cycle, "bank-discipline",
                f"{slice_name}: {kind} of address {address} hit bank "
                f"{bank}, compiler convention is bank {expected}",
            ))
    return found


def contract_violations(
    intent: "ScheduleIntent", trace: list["TraceEvent"], drives: list[Drive]
) -> list[Violation]:
    """A :class:`ScheduleIntent` against the run's record.

    Verifies both halves of Equation 4/5: every reserved dispatch cell
    fires with the promised mnemonic at the promised cycle, and the run
    drives exactly the streams the lowerings noted — ``t_drive =
    t_dispatch + d_func``, positions per the moving frame, a temporal
    shift's re-drives included.  The drive check runs both ways: a
    promised drive never observed is ``missing-drive``, an observed drive
    nobody promised is ``unexpected-drive``.  Valid only for a program
    executed exactly as compiled: a warmup barrier or an ``insert_ifetch``
    pass shifts every queue and the contract no longer applies.
    """
    found = []
    fired: set[tuple[str, int]] = set()
    for event in trace:
        mnemonic, icu, cycle = event.mnemonic, event.icu, event.cycle
        if mnemonic == "NOP":
            continue  # padding, not a reserved cell
        expected = intent.dispatch_cells.get(icu, {}).get(cycle)
        if expected is None:
            found.append(Violation(
                cycle, "unexpected-dispatch",
                f"{icu}: dispatched {mnemonic} with no reserved cell at "
                "this cycle",
            ))
        elif expected != mnemonic:
            found.append(Violation(
                cycle, "dispatch-mismatch",
                f"{icu}: dispatched {mnemonic}, schedule reserved {expected}",
            ))
        fired.add((icu, cycle))
    for icu, cells in intent.dispatch_cells.items():
        for t, mnemonic in sorted(cells.items()):
            if (icu, t) not in fired:
                found.append(Violation(
                    t, "missing-dispatch",
                    f"{icu}: schedule reserved {mnemonic} at cycle {t} but "
                    "nothing dispatched",
                ))
    promised, seen = set(intent.drives), set(drives)
    found += _drive_violations(
        "missing-drive", promised - seen, "promised but not observed")
    found += _drive_violations(
        "unexpected-drive", seen - promised, "observed but never promised")
    return found


def _drive_violations(kind: str, drives: set, what: str) -> list[Violation]:
    """One violation per drive, earliest first; past the eighth, one that
    counts the rest."""
    ordered = sorted(drives, key=drive_order)
    found = [
        Violation(t, kind, f"drive of stream {stream}{direction.value} at "
                  f"position {position}, cycle {t}: {what}")
        for direction, stream, position, t in ordered[:8]
    ]
    if len(ordered) > 8:
        found.append(Violation(
            ordered[8][3], kind, f"{len(ordered) - 8} further drives {what}"
        ))
    return found


def check_run(
    trace: list["TraceEvent"],
    drives: list[Drive],
    timing: TimingModel | None = None,
    intent: "ScheduleIntent | None" = None,
    strict_banks: bool = False,
) -> list[str]:
    """Every check of one run's record, a ``<check>: <violation>`` line
    each: stream collisions, bank discipline (``strict_banks``: the
    compiler's convention too) and, given ``intent``, the timing
    contract."""
    found = {
        "stream-collision": stream_collisions(drives),
        "bank-discipline": bank_violations(
            mem_accesses(trace, timing), strict_banks),
        "timing-contract": [] if intent is None
        else contract_violations(intent, trace, drives),
    }
    return [f"{name}: {v}" for name, vs in found.items() for v in vs]

"""Invariant-checker and ISA-coverage tests.

Each checker gets a unit test against its hooks plus an integration test
where a real defect — two producers on one stream register, a same-bank
read+write, an off-by-one NOP against the schedule's timing contract — is
planted in a program and must be *observed* (recorded) by the checker even
when the simulator also hard-faults.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import DType
from repro.arch.geometry import Direction, Hemisphere, SliceKind
from repro.compiler import StreamProgramBuilder
from repro.compiler.runner import load_compiled
from repro.errors import (
    BankConflictError,
    CoverageError,
    InvariantViolationError,
    StreamContentionError,
)
from repro.isa import BinaryOp, Gather, IcuId, Nop, Program, Read, Write
from repro.sim import TspChip
from repro.verify import (
    BankDisciplineChecker,
    CoverageTracker,
    StreamCollisionChecker,
    TimingContractChecker,
    run_conformance,
)

E = Direction.EASTWARD
W = Direction.WESTWARD


def _int8(shape, offset=0):
    count = int(np.prod(shape))
    return ((np.arange(count) * 7 + offset) % 40 - 20).astype(
        np.int8
    ).reshape(shape)


def _add_pair(config):
    """A small compiled program plus its builder, for contract replays."""
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((2, 32)))
    y = b.constant_tensor("y", _int8((2, 32), offset=3))
    b.write_back(b.add(x, y), "sum")
    return b, b.compile()


def _contract(b, compiled, program=None):
    """The timing contract of ``compiled`` checked over a run of
    ``program`` (by default its own text) on a freshly loaded chip."""
    checker = TimingContractChecker(compiled.intent)
    chip = TspChip(b.config, timing=b.timing)
    chip.attach_checker(checker)
    load_compiled(chip, compiled)
    chip.run(compiled.program if program is None else program)
    return checker


def _edited(compiled, kind, edit):
    """``compiled``'s program with the queue of the one ICU on a ``kind``
    slice replaced by ``edit(its instructions)``."""
    program = Program()
    for icu in compiled.program.icus:
        queue = list(compiled.program.queue(icu))
        program.extend(icu, edit(queue) if icu.address.kind is kind else queue)
    return program


# ----------------------------------------------------------------------
class TestStreamCollision:
    def test_same_cycle_double_drive_recorded(self):
        c = StreamCollisionChecker()
        c.on_drive(5, E, 3, 10)
        c.on_drive(5, E, 3, 10)
        assert not c.ok
        assert c.violations[0].kind == "stream-collision"
        with pytest.raises(InvariantViolationError, match="stream-collision"):
            c.raise_if_violated()

    def test_distinct_cycle_stream_direction_ok(self):
        c = StreamCollisionChecker()
        c.on_drive(5, E, 3, 10)
        c.on_drive(6, E, 3, 10)  # next cycle: fine
        c.on_drive(6, W, 3, 10)  # other direction: fine
        c.on_drive(6, E, 4, 10)  # other stream: fine
        assert c.ok

    def test_integration_gather_read_same_register(self, config):
        """Gather at t drives at t+7; Read at t+2 drives at t+7 — collision.

        The simulator hard-faults too; the checker must have recorded the
        collision before the raise (its hook fires first).
        """
        chip = TspChip(config)
        checker = StreamCollisionChecker()
        chip.attach_checker(checker)
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program = Program()
        program.add(icu, Gather(stream=5, map_stream=6, direction=E))
        program.add(icu, Nop(1))
        program.add(icu, Read(address=0, stream=5, direction=E))
        with pytest.raises(StreamContentionError):
            chip.run(program)
        assert [v.kind for v in checker.violations] == ["stream-collision"]


# ----------------------------------------------------------------------
class TestBankDiscipline:
    def test_same_bank_read_write_recorded(self):
        c = BankDisciplineChecker()
        c.on_mem_access(4, "MEM_W0", "read", 0, 2)
        c.on_mem_access(4, "MEM_W0", "write", 0, 6)
        assert [v.kind for v in c.violations] == ["bank-conflict"]

    def test_two_reads_one_cycle_recorded(self):
        c = BankDisciplineChecker()
        c.on_mem_access(4, "MEM_W0", "read", 0, 2)
        c.on_mem_access(4, "MEM_W0", "read", 1, 3)
        assert [v.kind for v in c.violations] == ["bank-conflict"]

    def test_opposite_banks_and_convention_ok(self):
        c = BankDisciplineChecker(strict_discipline=True)
        c.on_mem_access(4, "MEM_W0", "read", 0, 2)  # INPUT_BANK
        c.on_mem_access(4, "MEM_W0", "write", 1, 7)  # RESULT_BANK
        assert c.ok

    def test_strict_discipline_flags_read_of_result_bank(self):
        c = BankDisciplineChecker(strict_discipline=True)
        c.on_mem_access(5, "MEM_W0", "read", 1, 7)
        assert [v.kind for v in c.violations] == ["bank-discipline"]

    def test_integration_write_then_read_same_bank(self, config):
        """Write at t samples (and occupies its bank) at t+1; a Read
        dispatched at t+1 hitting the same bank violates Section IV-A."""
        chip = TspChip(config)
        checker = BankDisciplineChecker()
        chip.attach_checker(checker)
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program = Program()
        program.add(icu, Write(address=3, stream=0, direction=E))  # bank 1
        program.add(icu, Read(address=1, stream=1, direction=E))  # bank 1
        with pytest.raises(BankConflictError):
            chip.run(program)
        assert any(v.kind == "bank-conflict" for v in checker.violations)

    def test_compiled_programs_keep_the_convention(self, config):
        """The stream compiler reads bank 0 and writes bank 1, always."""
        b, compiled = _add_pair(config)
        checker = BankDisciplineChecker(strict_discipline=True)
        chip = TspChip(b.config, timing=b.timing)
        chip.attach_checker(checker)
        load_compiled(chip, compiled)
        chip.run(compiled.program)
        assert checker.ok, [str(v) for v in checker.violations]


# ----------------------------------------------------------------------
class TestTimingContract:
    def test_clean_run_satisfies_contract(self, config):
        b, compiled = _add_pair(config)
        checker = _contract(b, compiled)
        assert checker.ok, [str(v) for v in checker.violations]

    def test_off_by_one_nop_detected(self, config):
        """Stretch one NOP in a Write queue by a cycle: the delayed Write
        dispatches outside its reserved cell and the cell goes unfired —
        exactly the defect class the delta(j,i) contract exists to catch."""
        b, compiled = _add_pair(config)
        target = next(
            icu
            for icu in compiled.program.icus
            if any(isinstance(i, Write) for i in compiled.program.queue(icu))
            and any(isinstance(i, Nop) for i in compiled.program.queue(icu))
        )
        perturbed = Program()
        for icu in compiled.program.icus:
            queue = list(compiled.program.queue(icu))
            if icu == target:
                k = next(
                    j for j, ins in enumerate(queue) if isinstance(ins, Nop)
                )
                queue[k] = Nop(queue[k].count + 1)
            perturbed.extend(icu, queue)

        checker = _contract(b, compiled, perturbed)
        kinds = {v.kind for v in checker.violations}
        assert "missing-dispatch" in kinds, checker.violations
        assert kinds & {"unexpected-dispatch", "dispatch-mismatch"}, (
            checker.violations
        )

    def test_dropped_queue_detected_as_missing_drive(self, config):
        """Deleting the VXM queue silences its predicted drives: the
        checker reports both the unfired cells and the unobserved drives."""
        b, compiled = _add_pair(config)
        checker = _contract(
            b, compiled, _edited(compiled, SliceKind.VXM, lambda q: [])
        )
        kinds = {v.kind for v in checker.violations}
        assert "missing-dispatch" in kinds
        assert "missing-drive" in kinds

    def test_an_unplanned_drive_is_unexpected(self, config):
        """The add re-issued at its own cell, widened to INT16 from stream
        29: it still drives the promised stream 30, and stream 29 too —
        a drive nobody promised, on an otherwise faithful run."""
        b, compiled = _add_pair(config)

        def widen(queue):
            k = next(j for j, i in enumerate(queue) if isinstance(i, BinaryOp))
            queue[k] = replace(
                queue[k], dtype=DType.INT16, src1_stream=30, src2_stream=30,
                dst_stream=29,
            )
            return queue

        checker = _contract(
            b, compiled, _edited(compiled, SliceKind.VXM, widen)
        )
        (violation,) = checker.violations
        assert (violation.kind, violation.cycle) == ("unexpected-drive", 7)
        assert "stream 29E at position 19, cycle 7" in violation.message

    def test_a_late_temporal_shift_misses_its_redrives(self, config):
        """A temporal shift's COPYs re-drive the stream at the VXM one row
        a cycle; one NOP ahead of them moves every re-drive a cycle later,
        so the first promised one goes unobserved and one past the last
        is observed unpromised."""
        b = StreamProgramBuilder(config)
        x = b.constant_tensor("x", _int8((4, 32)))
        b.write_back(b.temporal_shift(x, 1), "late")
        compiled = b.compile()
        (vxm,) = [
            icu for icu in compiled.program.icus
            if icu.address.kind is SliceKind.VXM
        ]
        position = TspChip(config).floorplan.position(vxm.address)
        copies = sorted(
            t for _d, _s, p, t in compiled.intent.drives if p == position
        )
        assert len(copies) == 4
        checker = _contract(
            b, compiled,
            _edited(compiled, SliceKind.VXM, lambda q: [Nop(1), *q]),
        )
        drives = [v for v in checker.violations if v.kind.endswith("-drive")]
        assert [(v.kind, v.cycle) for v in drives] == [
            ("missing-drive", copies[0]), ("unexpected-drive", copies[-1] + 1)
        ], checker.violations
        assert all(f"at position {position}," in v.message for v in drives)


# ----------------------------------------------------------------------
class TestCoverage:
    def test_partial_program_fails_threshold(self, config):
        _, compiled = _add_pair(config)
        tracker = CoverageTracker()
        tracker.record_program(compiled.program)
        by = {c.name: c for c in tracker.by_class()}
        assert 0 < by["MEM"].fraction < 1  # Read/Write but not Gather/Scatter
        assert by["MXM"].fraction == 0
        with pytest.raises(CoverageError) as err:
            tracker.check(0.9)
        assert "MXM" in str(err.value)
        assert "LW" in str(err.value)  # missing mnemonics are named

    def test_dtype_harvest(self, config):
        b = StreamProgramBuilder(config)
        x = b.constant_tensor("x", _int8((2, 16)))
        from repro.arch import DType

        b.write_back(b.convert(x, DType.INT32), "wide")
        tracker = CoverageTracker()
        tracker.record_program(b.compile().program)
        assert "int32" in tracker.dtypes

    def test_conformance_sweep_reaches_full_coverage(self):
        """Acceptance: every case passes, every class at 100% (>= 90%)."""
        summary = run_conformance()
        assert summary.ok, summary.render()
        for cov in summary.tracker.by_class():
            assert cov.fraction >= 0.9, (cov.name, cov.missing)
            assert cov.fraction == 1.0, (cov.name, cov.missing)

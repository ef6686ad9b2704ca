"""Invariant-check and ISA-coverage tests.

Each check gets a unit test against a hand-written record plus an
integration test where a real defect — two producers on one stream
register, a same-bank read+write, an off-by-one NOP against the
schedule's timing contract — is planted in a program and must be found in
the run's record (its ``trace`` and ``drives``) even when the simulator
also hard-faults.
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
    StreamContentionError,
)
from repro.isa import BinaryOp, Gather, IcuId, Nop, Program, Read, Write
from repro.sim import TspChip
from repro.verify import (
    CoverageTracker,
    bank_violations,
    check_run,
    contract_violations,
    mem_accesses,
    run_conformance,
    stream_collisions,
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
    """The timing-contract violations of ``compiled`` over the record of
    a run of ``program`` (by default its own text) on a freshly loaded
    chip."""
    chip = TspChip(b.config, timing=b.timing, trace=True)
    load_compiled(chip, compiled)
    run = chip.run(compiled.program if program is None else program)
    return contract_violations(compiled.intent, run.trace, chip.drives)


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
        drives = [(E, 3, 10, 5), (E, 3, 10, 5)]
        (found,) = stream_collisions(drives)
        assert (found.kind, found.cycle) == ("stream-collision", 5)
        (line,) = check_run([], drives)
        assert line.startswith("stream-collision: [cycle 5]"), line

    def test_distinct_cycle_stream_direction_ok(self):
        assert stream_collisions([
            (E, 3, 10, 5),
            (E, 3, 10, 6),  # next cycle: fine
            (W, 3, 10, 6),  # other direction: fine
            (E, 4, 10, 6),  # other stream: fine
        ]) == []

    def test_integration_gather_read_same_register(self, config):
        """Gather at t drives at t+7; Read at t+2 drives at t+7 — collision.

        The simulator hard-faults too; the chip kept the second drive
        before the raise, so the collision is in the run's record.
        """
        chip = TspChip(config, trace=True)
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program = Program()
        program.add(icu, Gather(stream=5, map_stream=6, direction=E))
        program.add(icu, Nop(1))
        program.add(icu, Read(address=0, stream=5, direction=E))
        with pytest.raises(StreamContentionError):
            chip.run(program)
        found = stream_collisions(chip.drives)
        assert [v.kind for v in found] == ["stream-collision"]


# ----------------------------------------------------------------------
class TestBankDiscipline:
    def test_same_bank_read_write_recorded(self):
        found = bank_violations([
            (4, "MEM_W0", "read", 0, 2), (4, "MEM_W0", "write", 0, 6),
        ])
        assert [v.kind for v in found] == ["bank-conflict"]

    def test_two_reads_one_cycle_recorded(self):
        found = bank_violations([
            (4, "MEM_W0", "read", 0, 2), (4, "MEM_W0", "read", 1, 3),
        ])
        assert [v.kind for v in found] == ["bank-conflict"]

    def test_opposite_banks_and_convention_ok(self):
        assert bank_violations([
            (4, "MEM_W0", "read", 0, 2),  # INPUT_BANK
            (4, "MEM_W0", "write", 1, 7),  # RESULT_BANK
        ], strict=True) == []

    def test_strict_discipline_flags_read_of_result_bank(self):
        found = bank_violations([(5, "MEM_W0", "read", 1, 7)], strict=True)
        assert [v.kind for v in found] == ["bank-discipline"]

    def test_integration_write_then_read_same_bank(self, config):
        """Write at t samples (and occupies its bank) at t+1; a Read
        dispatched at t+1 hitting the same bank violates Section IV-A.
        The chip kept the Read's dispatch before its access faulted."""
        chip = TspChip(config, trace=True)
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program = Program()
        program.add(icu, Write(address=3, stream=0, direction=E))  # bank 1
        program.add(icu, Read(address=1, stream=1, direction=E))  # bank 1
        with pytest.raises(BankConflictError):
            chip.run(program)
        accesses = mem_accesses(chip.trace, chip.timing)
        assert accesses == [(1, "MEM_W0", "write", 1, 3),
                            (1, "MEM_W0", "read", 1, 1)]
        found = bank_violations(accesses)
        assert [v.kind for v in found] == ["bank-conflict"]

    def test_compiled_programs_keep_the_convention(self, config):
        """The stream compiler reads bank 0 and writes bank 1, always."""
        b, compiled = _add_pair(config)
        chip = TspChip(b.config, timing=b.timing, trace=True)
        load_compiled(chip, compiled)
        run = chip.run(compiled.program)
        accesses = mem_accesses(run.trace, chip.timing)
        assert accesses
        found = bank_violations(accesses, strict=True)
        assert found == [], [str(v) for v in found]


# ----------------------------------------------------------------------
class TestTimingContract:
    def test_clean_run_satisfies_contract(self, config):
        b, compiled = _add_pair(config)
        found = _contract(b, compiled)
        assert found == [], [str(v) for v in found]

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

        found = _contract(b, compiled, perturbed)
        kinds = {v.kind for v in found}
        assert "missing-dispatch" in kinds, found
        assert kinds & {"unexpected-dispatch", "dispatch-mismatch"}, found

    def test_dropped_queue_detected_as_missing_drive(self, config):
        """Deleting the VXM queue silences its predicted drives: the
        check reports both the unfired cells and the unobserved drives."""
        b, compiled = _add_pair(config)
        found = _contract(
            b, compiled, _edited(compiled, SliceKind.VXM, lambda q: [])
        )
        kinds = {v.kind for v in found}
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

        (violation,) = _contract(
            b, compiled, _edited(compiled, SliceKind.VXM, widen)
        )
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
        found = _contract(
            b, compiled,
            _edited(compiled, SliceKind.VXM, lambda q: [Nop(1), *q]),
        )
        drives = [v for v in found if v.kind.endswith("-drive")]
        assert [(v.kind, v.cycle) for v in drives] == [
            ("missing-drive", copies[0]), ("unexpected-drive", copies[-1] + 1)
        ], found
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

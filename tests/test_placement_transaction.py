"""The placement transaction: what an ``Attempt`` owns, and the one loop
every unit op is placed by.

An attempt plans dispatch cells and takes stream grants; nothing reaches a
queue before ``commit()``, and an attempt left uncommitted gives everything
back.  ``Scheduler._place`` is the only search loop for VXM, SXM, gather
and temporal-shift nodes — each lowering only describes its node as a
``UnitOp``.
"""

import numpy as np
import pytest

from repro.arch import Direction, DType
from repro.arch.geometry import SliceKind
from repro.compiler import Scheduler, StreamProgramBuilder
from repro.compiler.graph import OpKind
from repro.compiler.schedule import Attempt
from repro.errors import ScheduleError
from repro.isa import Nop, Read


def snapshot(scheduler):
    """Everything an attempt may touch: grants, queues, their cells, the
    plan ops and the stream drives kept."""
    return (
        scheduler.streams.utilization(),
        {icu: dict(q.cells) for icu, q in scheduler.queues.items()},
        list(scheduler.queues),
        list(scheduler.attempt.emitted),
        list(scheduler.attempt.drives),
    )


def read(stream):
    return Read(address=0, stream=stream, direction=Direction.EASTWARD)


@pytest.fixture()
def scheduler(config):
    return Scheduler(config)


@pytest.fixture()
def icus(scheduler):
    slices = scheduler.mem.slices_near(scheduler._vxm_position)
    return [scheduler._mem_icu(s) for s in slices[:3]]


class TestAttempt:
    def test_abandoned_attempt_leaves_no_trace(self, scheduler, icus):
        with scheduler.attempt as attempt:  # something already committed
            attempt.plan(icus[0], 4, read(0))
            assert attempt.grant(Direction.EASTWARD, 1, 5, 3, False, 2)
            attempt.drive(Direction.EASTWARD, 0, 1, 2, 5)
            attempt.commit()
        before = snapshot(scheduler)
        assert before[-1] == [(Direction.EASTWARD, 0, 2, 5)]

        with scheduler.attempt as attempt:
            attempt.plan(icus[0], 5, read(1))  # a queue that exists
            attempt.plan(icus[1], 0, read(2))  # and one that does not
            attempt.hold(icus[2], 7, 4)
            assert attempt.grant(Direction.EASTWARD, 4, 9, 6, False, 3)
            assert attempt.grant(Direction.WESTWARD, 16, 9, 1, True, 3)
            attempt.drive(Direction.WESTWARD, 16, 16, 3, 9)
        assert snapshot(scheduler) == before
        assert not (attempt.cells or attempt.reservations or attempt.grants)
        with scheduler.attempt as attempt:  # nothing left for a later commit
            attempt.commit()
        assert snapshot(scheduler) == before

    def test_an_error_mid_attempt_abandons_it(self, scheduler, icus):
        before = snapshot(scheduler)
        with pytest.raises(ScheduleError):
            with scheduler.attempt as attempt:
                attempt.plan(icus[0], 3, read(0))
                attempt.grant(Direction.EASTWARD, 2, 1, 2, False, 0)
                raise ScheduleError("mid-attempt")
        assert snapshot(scheduler) == before

    def test_commit_reserves_each_planned_cell_once(self, scheduler, icus):
        first, second = read(0), read(1)
        with scheduler.attempt as attempt:
            attempt.hold(icus[1], 2)  # claimed first: its queue comes first
            attempt.plan(icus[0], 8, first, "named")
            attempt.plan(icus[0], 9, first)
            attempt.plan(icus[1], 2, second)
            grant = attempt.grant(Direction.EASTWARD, 1, 9, 2, False, 0)
            attempt.commit(note="default")
        assert list(scheduler.queues) == [icus[1], icus[0]]
        assert scheduler.queues[icus[0]].cells == {8: first, 9: first}
        assert scheduler.queues[icus[0]].notes == {8: "named", 9: "default"}
        assert scheduler.queues[icus[1]].cells == {2: second}
        # the grants stay taken, and leaving the block releases nothing
        assert scheduler.streams.utilization()["E"] == 1
        assert grant in scheduler.streams._grants[Direction.EASTWARD]
        # a committed cell cannot be committed again
        with pytest.raises(ScheduleError, match="already taken"):
            with scheduler.attempt as attempt:
                attempt.plan(icus[0], 8, second)
                attempt.commit()
        assert scheduler.queues[icus[0]].cells[8] is first

    def test_planned_cells_are_not_free_to_later_probes(self, scheduler, icus):
        icu = icus[0]
        with scheduler.attempt as attempt:
            assert attempt.cells_free(icu, 5, 3)
            attempt.plan(icu, 6, read(0))
            assert not attempt.cells_free(icu, 6)
            assert not attempt.cells_free(icu, 5, 3)
            assert attempt.cells_free(icu, 7, 3)
            attempt.hold(icu, 7, 2)
            assert not attempt.cells_free(icu, 8)
            assert not attempt.cells_free(icu, -1)
            # the scheduler's probes see the live attempt, and none of
            # them brought the queue into being
            near = scheduler.mem.slices_near(scheduler._vxm_position)[0]
            assert not scheduler._slice_free(near, 6)
            assert icu not in scheduler.queues
        assert scheduler._slice_free(near, 6)

    def test_give_back_returns_one_grant(self, scheduler):
        with scheduler.attempt as attempt:
            kept = attempt.grant(Direction.EASTWARD, 1, 0, 4, False, 0)
            tried = attempt.grant(Direction.EASTWARD, 4, 0, 4, False, 0)
            attempt.give_back(tried)
            assert attempt.grants == [kept]
            assert scheduler.streams.utilization()["E"] == 1
            attempt.commit()
        assert scheduler.streams.utilization() == {"E": 1, "W": 0}

    def test_a_refused_grant_is_none(self, config):
        queues, streams = {}, Scheduler(config).streams
        with Attempt(queues, streams) as attempt:
            limit = config.streams_per_direction
            for _ in range(limit // 16):
                assert attempt.grant(Direction.WESTWARD, 16, 0, 1, True, 0)
            assert attempt.grant(Direction.WESTWARD, 16, 0, 1, True, 0) is None
            # the moving frame: the same streams are free one cycle later
            assert attempt.grant(Direction.WESTWARD, 16, 1, 1, True, 0)
        assert streams.utilization() == {"E": 0, "W": 0}
        assert queues == {}


# ----------------------------------------------------------------------
# the shared loop
# ----------------------------------------------------------------------
def vxm_program(g, lanes):
    x = g.input_tensor("x", (3, lanes))
    return g.add(x, x)  # one operand, delivered once, on both ports


def sxm_program(g, lanes):
    return g.shift(g.input_tensor("x", (3, lanes)), 2)


def gather_program(g, lanes):
    table = (np.arange(5 * lanes) % 100).astype(np.int8).reshape(5, lanes)
    return g.gather(table, g.input_tensor("idx", (3, lanes), DType.UINT8))


def temporal_program(g, lanes):
    return g.temporal_shift(g.input_tensor("x", (3, lanes)), 2)


#: (program, node kind, mnemonic, slice kind the op dispatches on,
#:  dispatch cells, distinctive descriptor fields)
LOOP_CASES = [
    (vxm_program, OpKind.BINARY, "BinaryOp", SliceKind.VXM, 3,
     {"retime": True}),
    (sxm_program, OpKind.SHIFT, "Shift", SliceKind.SXM, 3, {}),
    (gather_program, OpKind.GATHER, "Gather", SliceKind.MEM, 3, {}),
    (temporal_program, OpKind.TEMPORAL_SHIFT, "UnaryOp", SliceKind.VXM, 6,
     {"redrive": 2, "icus": ()}),
]


def dispatched(program, icu):
    """{dispatch cycle: instruction} of one NOP-padded queue."""
    cells, cursor = {}, 0
    for instruction in program.queue(icu):
        if not isinstance(instruction, Nop):
            cells[cursor] = instruction
        cursor += instruction.issue_cycles()
    return cells


@pytest.mark.parametrize(
    "build, kind, mnemonic, slice_kind, n_cells, fields", LOOP_CASES,
    ids=[case[1].value for case in LOOP_CASES],
)
def test_every_unit_op_is_placed_by_the_shared_loop(
    config, monkeypatch, build, kind, mnemonic, slice_kind, n_cells, fields
):
    placed = []
    original = Scheduler._place

    def watching(self, node, inputs, op):
        placed.append((node, op))
        return original(self, node, inputs, op)

    monkeypatch.setattr(Scheduler, "_place", watching)
    g = StreamProgramBuilder(config)
    g.write_back(build(g, config.n_lanes), "out")
    scheduler = Scheduler(config)
    compiled = scheduler.schedule(g.graph)

    ((node, op),) = placed
    assert node.kind is kind
    for name, expected in fields.items():
        assert getattr(op, name) == expected
    assert not scheduler.attempt.cells and not scheduler.attempt.grants

    # the op's instruction sits in the emitted queues exactly where the
    # intent says it dispatches
    promised = {
        (icu, t)
        for icu, cells in compiled.intent.dispatch_cells.items()
        for t, name in cells.items() if name == mnemonic
    }
    assert len(promised) == n_cells
    found = {
        (str(icu), t): instruction
        for icu in compiled.program.icus
        if icu.address.kind is slice_kind
        for t, instruction in dispatched(compiled.program, icu).items()
        if instruction.mnemonic == mnemonic
    }
    assert set(found) == promised
    if op.icus:
        (icu,) = {icu for icu, _t in promised}
        assert icu in {str(c) for c in op.icus}
        assert len(set(found.values())) == 1  # one instruction, n cells
        # and the value it drives is promised d_func later
        t_first = min(t for _icu, t in promised)
        (drive,) = [d for d in compiled.intent.drives if d.name == node.name]
        assert drive.t0 == t_first + scheduler.dfunc(mnemonic)
        assert drive.position == op.position and drive.width == op.width
    else:
        # a temporal shift is k COPYs, each re-driving all n rows
        assert len(set(found.values())) == op.redrive
        value = scheduler.values[node.id]
        assert max(t for _icu, t in promised) == value.t0 + op.redrive + 1


def test_an_unplaceable_node_leaves_the_scheduler_clean(config):
    """Every cycle of the search window refused: the loop raises, and the
    4 096 abandoned attempts left nothing behind."""
    tight = config.with_overrides(streams_per_direction=8)
    g = StreamProgramBuilder(tight)
    x = g.constant_tensor("x", np.zeros((16, tight.n_lanes), np.int8))
    g.write_back(g.transpose16(x), "t")
    scheduler = Scheduler(tight)
    with pytest.raises(ScheduleError, match="could not place"):
        scheduler.schedule(g.graph)
    assert scheduler.streams.utilization() == {"E": 0, "W": 0}
    assert not scheduler.queues

"""The corpus sweep: :func:`repro.verify.check` on every corpus program.

With no reactive element on the chip, any disagreement between compiler,
plan and simulator is a bug, so checking the whole corpus
(``tests/corpus.py``) is exact, not a sample.  Seeded mutations show the
check bites, each naming the check that must catch it.
"""

from dataclasses import replace

import numpy as np
import pytest

from corpus import REJECTED, corpus
from repro.compiler import PartitionPlan, execute, partition
from repro.compiler.graph import OpKind
from repro.compiler.repeat import join_passes, split_passes
from repro.compiler.scheduler import Scheduler
from repro.errors import ScheduleError, VerificationError
from repro.isa import Instruction
from repro.config import small_test_chip
from repro.obs import PerfettoTraceBuilder, TelemetryCollector
from repro.sim import MultiChipSystem
from repro.sim.chip import TspChip
from repro.sim.replay import ReplayPlan, ScheduleRecorder
from repro.verify import check, run_transfer_lockstep

CORPUS = {entry.name: entry for entry in corpus()}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_program_passes_the_check(name, monkeypatch):
    entry = CORPUS[name]
    if name in REJECTED:
        with pytest.raises(ScheduleError, match=f"could not place "
                           f"{REJECTED[name]} within the search window"):
            entry.compile()
        return
    compiled = entry.compile()
    assert compiled.schedule.passes == entry.passes
    plan = compiled.schedule.plan
    # every program but one that gathers has a plan the lockstep replays,
    # and one record of its drives
    nodes = entry.builder.graph.nodes.values()
    assert (plan is None) == any(n.kind is OpKind.GATHER for n in nodes)
    if plan is not None:
        assert compiled.intent.drives is plan.drives
        assert compiled.replay.ok, compiled.replay.reason
    # the program simulates once, and a sibling with a plan to replay once
    # more: every other check reads those runs
    runs, simulate = [], TspChip.run

    def counted(chip, *args, **kwargs):
        runs.append(chip)
        return simulate(chip, *args, **kwargs)

    monkeypatch.setattr(TspChip, "run", counted)
    check(entry.builder, entry.inputs, compiled=compiled)
    assert len(runs) == 1 + (plan is not None)


def planned():
    """``(name, entry, compiled)`` of every corpus program with a plan."""
    for name, entry in CORPUS.items():
        if name not in REJECTED:
            compiled = entry.compile()
            if compiled.schedule.plan is not None:
                yield name, entry, compiled


def test_a_bound_plan_touches_its_schedules_footprint():
    """A bound plan reads its footprint off its schedule's plan, worked
    out once per schedule: worked out from the bound plan's own ops and
    words, it is the same set of slices on every planned program."""
    for name, _entry, compiled in planned():
        bound, plan = compiled.replay, compiled.schedule.plan
        assert bound.schedule is plan, name
        assert replace(bound, schedule=None).footprint == plan.footprint, name
        assert bound.footprint is plan.footprint, name


class ReadOnlySlots:
    """A plan's value slots, each value set read-only as it is stored: an
    op that then writes into a stored value in place raises."""

    def __init__(self, values) -> None:
        self.values = values

    def __getitem__(self, slot):
        return self.values[slot]

    def __setitem__(self, slot, value) -> None:
        value.setflags(write=False)
        self.values[slot] = value


@pytest.fixture()
def read_only_slots(monkeypatch):
    execute_ops = ReplayPlan._execute_ops

    def guarded(plan, ops, values, *args):
        return execute_ops(plan, ops, ReadOnlySlots(values), *args)

    monkeypatch.setattr(ReplayPlan, "_execute_ops", guarded)


def test_no_op_writes_a_stored_value_in_place(read_only_slots):
    """A stored byte plane is a view of its op's one narrowed vector, so
    an op that wrote into what it reads would corrupt its siblings: every
    planned program replays — written through a chip and batched — with
    every stored value read-only, and both routes agree."""
    for name, entry, compiled in planned():
        plan = compiled.replay
        replayed = execute(
            compiled, chip=TspChip(compiled.config), inputs=entry.inputs
        )
        assert replayed.run.skipped_cycles == replayed.run.cycles, name
        batched = join_passes(plan.run_batched(
            split_passes(entry.inputs, plan.inputs, plan.passes)
        ))
        for output, value in replayed.outputs.items():
            assert batched[output].tobytes() == value.tobytes(), name


def test_the_read_only_slots_catch_an_in_place_write(read_only_slots):
    """The guard bites: a route that sliced its operand instead of
    gathering it would zero its masked lanes in the stored value."""
    config = small_test_chip()
    plan = ReplayPlan(config=config, timing=None, program=None, cycles=1)
    ops = [("read", 0, "word"),
           ("route", 1, [("s", 0)], None, slice(None), [0])]
    with pytest.raises(ValueError, match="read-only"):
        plan._execute_ops(
            ops, [None, None],
            lambda _key: np.ones((1, config.n_lanes), np.uint8), None, 1,
        )


def failures(name) -> list[str]:
    """The ``<check>: <what>`` lines the check fails ``name`` with."""
    entry = CORPUS[name]
    with pytest.raises(VerificationError) as failed:
        check(entry.builder, entry.inputs, compiled=entry.compile())
    return str(failed.value).splitlines()


def test_unnoted_copy_drives_fail_the_contract_and_the_activity(monkeypatch):
    """A temporal shift's COPYs re-drive its rows.  Unnoted, they drive
    streams the contract never promised, and the plan's hop count (swept
    over the noted drives) comes up short."""
    redrive = Scheduler._redrive

    def unnoted(self, *args, **kwargs):
        self.attempt.drive = lambda *_: None
        try:
            return redrive(self, *args, **kwargs)
        finally:
            del self.attempt.drive

    monkeypatch.setattr(Scheduler, "_redrive", unnoted)
    lines = failures("suite/temporal-shift")
    assert any(line.startswith("timing-contract: ")
               and "unexpected-drive" in line for line in lines), lines
    assert any(line.startswith("lockstep: activity: ") for line in lines)


def test_a_miscounted_read_fails_the_activity(monkeypatch):
    """One vector too many SRAM read bytes: right outputs, wrong activity,
    and only the lockstep sees it."""
    finish = ScheduleRecorder.finish

    def miscounted(self):
        plan = finish(self)
        read = plan.activity.sram_read_bytes + plan.lanes
        return replace(plan, activity=replace(
            plan.activity, sram_read_bytes=read))

    monkeypatch.setattr(ScheduleRecorder, "finish", miscounted)
    lines = failures("golden/matmul")
    assert all(line.startswith("lockstep: ") for line in lines), lines
    assert any(line.startswith("lockstep: activity: ") for line in lines)


def test_a_short_footprint_fails_the_lockstep(monkeypatch):
    """The footprint that lets a plan answer for a chip with dead slices
    is held to the slices a simulation touches: a plan that forgets one
    fails, and only the lockstep sees it."""
    footprint = ReplayPlan.footprint.func
    monkeypatch.setattr(ReplayPlan, "footprint", property(
        lambda plan: frozenset(sorted(footprint(plan), key=str)[1:])
    ))
    lines = failures("golden/matmul")
    assert all(line.startswith("lockstep: ") for line in lines), lines
    assert "lockstep: footprint: the run touched MEM slice MEM_E0 off the " \
        "plan's" in lines


def test_a_moved_barrier_drive_fails_the_lockstep(monkeypatch):
    """A plan finished for the warmup barrier charges its drives shifted
    to the release: one a cycle late is held to the barrier run's drives
    on both legs, and only the lockstep sees it."""
    finish = ScheduleRecorder.finish

    def moved(self):
        plan = finish(self)
        if not self.warmup_barrier:
            return plan
        (direction, stream, position, cycle), *rest = plan.drives
        return replace(plan, drives=[(direction, stream, position, cycle + 1),
                                     *rest])

    monkeypatch.setattr(ScheduleRecorder, "finish", moved)
    entry = CORPUS["suite/warmup-barrier"]
    with pytest.raises(VerificationError) as failed:
        check(entry.builder, entry.inputs, compiled=entry.compile(),
              warmup=True)
    lines = str(failed.value).splitlines()
    assert all(line.startswith("lockstep: ") for line in lines), lines
    assert any(line.startswith("lockstep: drives") for line in lines), lines
    assert any(line.startswith("lockstep: sibling: drives")
               for line in lines), lines


def test_a_wrong_landing_slice_fails_the_transfer_lockstep(monkeypatch):
    """A transfer plan that lands its words one slice off from where its
    Receives emplace them: the landed words and the receiver's MEM differ
    from a simulation of the programs, and only the transfer's lockstep
    leg sees it."""
    build = partition.build_ring_transfer

    def misplaced(*args, **kwargs):
        transfer = build(*args, **kwargs)
        return replace(transfer, hops=tuple(
            (a, source, b, (hemisphere, index + 1))
            for a, source, b, (hemisphere, index) in transfer.hops
        ))

    monkeypatch.setattr(partition, "build_ring_transfer", misplaced)
    config = small_test_chip()

    def make_system():
        return MultiChipSystem.ring(config, 2)

    plan = PartitionPlan.plan(["a", "b"], [1.0, 1.0], 2, config, 24)
    words = np.arange(2 * config.n_lanes).astype(np.uint8).reshape(2, -1)
    results = run_transfer_lockstep(
        plan.transfer(make_system(), 0, len(words)), make_system, words
    )
    assert [m for result in results for m in result.mismatches] == [
        "chip 1: output 'landed' differs bit-wise",
        "chip 1: MEM slice MEM_W0 differs bit-wise",
        "chip 1: MEM slice MEM_W1 materialized on only one route",
    ]


def test_no_instruction_is_formatted_until_a_trace_is_rendered(monkeypatch):
    """A dispatch is recorded as its instruction: simulating with a trace
    and a collector, replaying into a traced chip and the whole check
    (lockstep included) format nothing.  Text is made when a trace is
    rendered, and only then."""
    entry = CORPUS["golden/matmul"]
    compiled = entry.compile()

    def unformatted(instruction):
        raise AssertionError(f"{instruction.mnemonic} was formatted")

    monkeypatch.setattr(Instruction, "__str__", unformatted)
    check(entry.builder, entry.inputs, compiled=compiled)
    collector = TelemetryCollector()
    simulated = TspChip(compiled.config, trace=True)
    simulated.attach_telemetry(collector)
    run = execute(compiled, chip=simulated, inputs=entry.inputs,
                  replay=False).run
    # what the collector derived from the run, against the simulator's
    # own tally of it
    assert run.skipped_cycles == 0 and collector.rollup() == run.activity
    replayed = TspChip(compiled.config, trace=True)
    run = execute(compiled, chip=replayed, inputs=entry.inputs).run
    assert run.skipped_cycles == run.cycles
    monkeypatch.undo()

    # one record per dispatch: the collector keeps the chip's own events
    assert len(collector.dispatch_log) == len(simulated.trace)
    assert all(a is b for a, b in zip(collector.dispatch_log, simulated.trace))
    assert replayed.trace == simulated.trace
    builder = PerfettoTraceBuilder()
    builder.add_chip(collector=collector)
    builder.add_chip(pid=1, trace=replayed.trace)
    texts = {0: [], 1: []}
    for event in builder.build():
        if event.get("cat") == "dispatch":
            texts[event["pid"]].append(event["args"]["text"])
    assert texts[0] == texts[1] == [
        str(event.instruction) for event in simulated.trace
        if event.mnemonic != "NOP"
    ]

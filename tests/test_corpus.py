"""The corpus sweep: :func:`repro.verify.check` on every corpus program.

With no reactive element on the chip, any disagreement between compiler,
plan and simulator is a bug, so checking the whole corpus
(``tests/corpus.py``) is exact, not a sample.  Seeded mutations show the
check bites, each naming the check that must catch it.
"""

from dataclasses import replace

import pytest

from corpus import REJECTED, corpus
from repro.compiler import execute
from repro.compiler.graph import OpKind
from repro.compiler.scheduler import Scheduler
from repro.errors import ScheduleError, VerificationError
from repro.isa import Instruction
from repro.obs import PerfettoTraceBuilder, TelemetryCollector
from repro.sim.chip import TspChip
from repro.sim.replay import ReplayPlan, ScheduleRecorder
from repro.verify import check

CORPUS = {entry.name: entry for entry in corpus()}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_program_passes_the_check(name):
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
    check(entry.builder, entry.inputs, compiled=compiled)


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

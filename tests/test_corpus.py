"""The corpus sweep: :func:`repro.verify.check` on every corpus program.

With no reactive element on the chip, any disagreement between compiler,
plan and simulator is a bug, so checking the whole corpus
(``tests/corpus.py``) is exact, not a sample.  Two seeded mutations show
the check bites, each naming the check that must catch it.
"""

from dataclasses import replace

import pytest

from corpus import REJECTED, corpus
from repro.compiler.graph import OpKind
from repro.compiler.scheduler import Scheduler
from repro.errors import ScheduleError, VerificationError
from repro.sim.replay import ScheduleRecorder
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

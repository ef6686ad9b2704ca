"""Lockstep comparator: a simulation against its replays.

A compiled program has two execution routes: the cycle simulator
(:meth:`repro.sim.chip.TspChip.run`) and the replay of the plan the
compiler emitted with its schedule (:mod:`repro.sim.replay`), which walks
no cycle.  The replay claims to be *equivalent* to the simulation because
the TSP's timing is fully deterministic and compiler-known (Section IV-F).
This module turns that claim into a checkable property: :func:`run_lockstep`
simulates the program on a fresh chip, replays its schedule's plan
write-through onto a second chip and evaluates it batched with no chip at
all — and, given a *sibling* (another program of the same schedule, other
constants), does the same for the sibling, since a plan belongs to a
schedule — then compares every observable surface bit-for-bit:

* output tensors and the full materialized MEM image;
* cycle count, per-run instruction count, and every activity tally
  (including ``stream_hop_bytes``), which the compiler counted;
* the run's record: the dispatch trace, and the stream drives the
  simulated chip kept against the plan's ``drives``;
* ECC correction counts.

That is everything a caller reads back from a run.  A telemetry
collector's counts are a function of three of these — the dispatch
trace, the stream drives and the cycle count — so a replayed chip's
collector reads what a simulated one does, and the invariant checks
(:mod:`repro.verify.invariants`) read the simulated leg's record.

A program of ``n`` passes (:mod:`repro.compiler.repeat`) is held to the
same surfaces: the simulation runs its repeated text on every pass's
inputs (named by ``pass_name``), the write-through replay runs the
pass's plan once a pass and charges the run once, and the batched leg
takes a binding per pass — so the cycles and activity a pass-count
charges are checked against a real run of the repeated program.

``assert_lockstep`` raises :class:`~repro.errors.DivergenceError` with a
rendered report on any mismatch, mirroring the differential oracle's
contract.  :func:`repro.verify.check` runs it with a sibling, and the
tier-1 corpus sweep (``tests/test_corpus.py``) runs that check on every
program of the test corpus, so each test run re-proves the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import SliceAddress, SliceKind
from ..compiler.repeat import join_passes, split_passes
from ..compiler.runner import bind_input, fetch_output, load_compiled
from ..compiler.scheduler import CompiledProgram
from ..errors import DivergenceError, SimulationError
from ..sim.chip import RunResult, TspChip
from .invariants import Drive, drive_order


@dataclass
class LockstepExecution:
    """One leg of the comparison: its run, its outputs, the MEM image it
    left and the stream drives it made."""

    run: RunResult
    outputs: dict[str, np.ndarray]
    memory: dict[str, bytes]
    drives: list[Drive]


@dataclass
class LockstepResult:
    """All executions plus every detected divergence.

    ``simulated`` is the reference: the cycle simulator with tracing on,
    so its run keeps its whole record.  ``replay`` is
    the schedule's :class:`repro.sim.replay.ReplayPlan`, bound to the
    program and re-executed as fused numpy kernels, write-through, on a
    fresh chip.  It is ``None`` when the program has no plan (``plan`` is
    then None) or the plan refused to bind or run (``plan.reason``).
    ``batched`` rides with it: the same plan's pure evaluation of the
    inputs bound twice, one output dict per row — the route that serves.
    ``sibling`` holds the same comparison for another program of the
    schedule, replaying the same schedule plan bound to its constants.
    """

    simulated: LockstepExecution
    replay: LockstepExecution | None = None
    plan: object | None = None
    batched: list[dict[str, np.ndarray]] | None = None
    sibling: "LockstepResult | None" = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = ["lockstep comparator: simulation and replay disagree"]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def run_lockstep(
    compiled: CompiledProgram,
    inputs: dict[str, np.ndarray] | None = None,
    timing=None,
    max_cycles: int = 1_000_000,
    warmup_barrier: bool = False,
    enable_ecc: bool = False,
    sibling: CompiledProgram | None = None,
) -> LockstepResult:
    """Simulate ``compiled``, replay its plan; compare all state.

    Every leg starts from a fresh chip with the same memory image and
    inputs.  The simulation runs with tracing on — it moves no counter —
    and the replay traces too: the plan reads its dispatch events off the
    program and they must equal the simulated ones, cycle, queue,
    instruction and occupancy; its ``drives`` must equal the drives the
    simulated chip kept.
    With ``warmup_barrier`` the schedule's plan is finished for the
    barrier first (:class:`~repro.sim.replay.ScheduleRecorder`).

    ``sibling`` — another program of ``compiled``'s schedule, its
    constants other bytes (:func:`repro.testing.redrawn`) — adds the leg
    that proves the plan belongs to the schedule: the schedule's plan is
    bound to the sibling's memory image and compared with the sibling's
    own simulation on every surface above.  A weight that leaked into a
    folded constant differs there (``result.sibling``, its mismatches
    prefixed ``sibling:``).
    """
    # imported on use, as in compiler.runner: ``repro.serve`` reaches this
    # module through ``repro.resil``, and loading the replay engine at
    # import time instead of at first execute read +1.2 MiB of peak RSS on
    # the benchmark's open-mix workload (EXPERIMENTS.md E28)
    from ..sim.replay import ScheduleRecorder

    inputs = inputs or {}
    if sibling is not None and sibling.program is not compiled.program:
        raise SimulationError("a lockstep sibling must share the schedule")

    def fresh_chip(program: CompiledProgram) -> TspChip:
        chip = TspChip(
            program.config, timing=timing, trace=True, enable_ecc=enable_ecc,
        )
        load_compiled(chip, program)
        for name, spec in program.inputs.items():
            if name not in inputs:
                raise SimulationError(f"input {name!r} was not bound")
            bind_input(chip, spec, inputs[name])
        return chip

    def execution(chip: TspChip, run: RunResult,
                  drives: list[Drive]) -> LockstepExecution:
        return LockstepExecution(
            run=run,
            outputs={
                name: fetch_output(chip, spec)
                for name, spec in compiled.outputs.items()
            },
            memory=chip.memory_image(),
            drives=list(drives),
        )

    def simulate(program: CompiledProgram) -> LockstepResult:
        chip = fresh_chip(program)
        run = chip.run(
            compiled.program,
            max_cycles=max_cycles,
            warmup_barrier=warmup_barrier,
        )
        return LockstepResult(simulated=execution(chip, run, chip.drives))

    def replay(result: LockstepResult, program: CompiledProgram,
               plan) -> LockstepResult:
        if plan is not None:
            result.plan = plan.bind(program.image)
        if result.plan is not None and result.plan.ok:
            chip = fresh_chip(program)
            result.replay = execution(
                chip, result.plan.replay_into(chip), result.plan.drives
            )
            # the batch axis takes a binding per pass, under pass-0 names
            passes = result.plan.passes
            rows = result.plan.run_batched(
                split_passes(inputs, result.plan.inputs, passes) * 2
            )
            result.batched = [
                join_passes(rows[:passes]), join_passes(rows[passes:])
            ]
            _compare(result)
        return result

    plan = getattr(compiled.schedule, "plan", None)
    if plan is not None and warmup_barrier:
        plan = ScheduleRecorder(plan, warmup_barrier=True).finish()
    result = replay(simulate(compiled), compiled, plan)
    if sibling is not None and result.replay is not None:
        result.sibling = replay(simulate(sibling), sibling, plan)
        result.mismatches += [
            f"sibling: {m}" for m in result.sibling.mismatches
        ]
    return result


def assert_lockstep(compiled: CompiledProgram, **kwargs) -> LockstepResult:
    """``run_lockstep`` that raises :class:`DivergenceError` on mismatch."""
    result = run_lockstep(compiled, **kwargs)
    if not result.ok:
        raise DivergenceError(result.render())
    return result


def run_transfer_lockstep(transfer, make_system,
                          words: np.ndarray) -> list[LockstepResult]:
    """A C2C transfer's plan against a simulation of its programs.

    ``transfer`` is a :class:`~repro.compiler.RingTransferPlan` and
    ``make_system()`` a fresh :class:`~repro.sim.MultiChipSystem` of the
    kind it was planned for, one per leg: ``words`` is staged on each, the
    whole system simulates the programs on one and the plan replays on
    the other.  Each chip's leg is held to the single-chip surfaces —
    its MEM words, cycles, instructions, activity, dispatch trace, its
    plan's drives against the simulated chip's, and the landed words on
    the route's last chip — and to ``now`` and the counters of its C2C
    links.  One :class:`LockstepResult` per chip, its mismatches prefixed
    ``chip <i>:``.
    """
    from ..sim.c2c import C2cLink
    from ..sim.chip import BENIGN, STATE

    counters = [name for name, entry in STATE[C2cLink].items()
                if entry.tag == BENIGN and name != "rx_queue"]

    def leg(replay: bool) -> tuple:
        system = make_system()
        for chip in system.chips:
            chip.trace_enabled = True
        landed, runs = transfer.run(system, words, replay=replay)
        return landed, runs, system.chips

    (sim_landed, sim_runs, sim_chips), (landed, runs, chips) = (
        leg(False), leg(True)
    )
    def execution(chip, run, outputs, drives) -> LockstepExecution:
        return LockstepExecution(run=run, outputs=outputs,
                                 memory=chip.memory_image(),
                                 drives=list(drives))

    results = []
    for index, (plan, sim_run, run, sim_chip, chip) in enumerate(
        zip(transfer.plans, sim_runs, runs, sim_chips, chips)
    ):
        last = index == transfer.route[-1]
        result = LockstepResult(
            simulated=execution(sim_chip, sim_run,
                                {"landed": sim_landed} if last else {},
                                sim_chip.drives),
            replay=execution(chip, run, {"landed": landed} if last else {},
                             plan.drives),
            plan=plan, batched=[],
        )
        _compare(result)
        if sim_chip.now != chip.now:
            result.mismatches.append(
                f"now: simulated={sim_chip.now} replay={chip.now}"
            )
        for a, b in zip(sim_chip.parts[C2cLink], chip.parts[C2cLink]):
            for name in counters:
                if getattr(a, name) != getattr(b, name):
                    result.mismatches.append(
                        f"{a.hemisphere.value} link {a.index} {name}: "
                        f"simulated={getattr(a, name)} "
                        f"replay={getattr(b, name)}"
                    )
        result.mismatches[:] = [f"chip {index}: {m}"
                                for m in result.mismatches]
        results.append(result)
    return results


def assert_transfer_lockstep(transfer, make_system,
                             words: np.ndarray) -> list[LockstepResult]:
    """``run_transfer_lockstep`` that raises :class:`DivergenceError` on
    any chip's mismatch."""
    results = run_transfer_lockstep(transfer, make_system, words)
    mismatches = [m for result in results for m in result.mismatches]
    if mismatches:
        raise DivergenceError("\n".join(
            ["lockstep comparator: transfer simulation and replay disagree"]
            + [f"  {m}" for m in mismatches]
        ))
    return results


# ----------------------------------------------------------------------
def _compare(result: LockstepResult) -> None:
    """The replayed plan against the simulation.

    Everything the replay engine reconstructs must be bit-identical to
    the simulated run: outputs, memory, cycle/instruction counts, ECC
    corrections, activity, the dispatch trace and the stream drives (in
    cycle order: the simulator keeps a cycle's drives in the order its
    units make them).  A simulation walks
    every cycle and a replay none, so ``skipped_cycles`` must be 0 and
    ``cycles`` respectively.  Both rows of the pure batched evaluation
    must equal the simulated outputs too — a constant that failed to
    broadcast against a batched slot shows up there, not in the batch of
    one.
    """
    sim, replay = result.simulated, result.replay
    note = result.mismatches.append

    for what in ("cycles", "instructions", "ecc_corrections", "activity"):
        a, b = getattr(sim.run, what), getattr(replay.run, what)
        if a != b:
            note(f"{what}: simulated={a} replay={b}")
    if sim.run.skipped_cycles or replay.run.skipped_cycles != replay.run.cycles:
        note(
            f"skipped cycles: simulated={sim.run.skipped_cycles} "
            f"replay={replay.run.skipped_cycles} of {replay.run.cycles}"
        )

    def first_difference(what: str, a: list, b: list) -> None:
        if a == b:
            return
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                note(f"{what}[{i}]: simulated={x} replay={y}")
                return
        note(f"{what} length: simulated={len(a)} replay={len(b)}")

    first_difference("trace", sim.run.trace, replay.run.trace)
    first_difference(
        "drives",
        sorted(sim.drives, key=drive_order),
        sorted(replay.drives, key=drive_order),
    )

    for name in sorted(set(sim.outputs) | set(replay.outputs)):
        a, b = sim.outputs.get(name), replay.outputs.get(name)
        if a is None or b is None:
            note(f"output {name!r} missing from one route")
        elif a.shape != b.shape or a.tobytes() != b.tobytes():
            note(f"output {name!r} differs bit-wise")
    for row, outputs in enumerate(result.batched):
        for name, a in sim.outputs.items():
            b = outputs.get(name)
            if b is None or a.shape != b.shape or a.tobytes() != b.tobytes():
                note(f"batched replay row {row}: output {name!r} differs")

    for name in sorted(set(sim.memory) | set(replay.memory)):
        a, b = sim.memory.get(name), replay.memory.get(name)
        if a is None or b is None:
            note(f"MEM slice {name} materialized on only one route")
        elif a != b:
            note(f"MEM slice {name} differs bit-wise")
    # a plan answers for a chip whose dead slices lie off its footprint,
    # so the footprint must hold every slice the simulated run touched
    footprint = {
        str(SliceAddress(SliceKind.MEM, hemisphere, index))
        for hemisphere, index in result.plan.footprint
    }
    for name in sorted(set(sim.memory) - footprint):
        note(f"footprint: the run touched MEM slice {name} off the plan's")


# ----------------------------------------------------------------------
def assert_trace_lockstep(tracer_a, tracer_b) -> None:
    """Assert two request traces did cycle-identical on-chip work.

    The cycle-domain projection of a request trace
    (:meth:`repro.obs.rtrace.RequestTracer.cycle_signature` — span cycle
    counts plus retained instruction-dispatch events, host microseconds
    excluded, order-insensitive) is a pure function of the executed
    programs, so two serve sessions that ran the same programs — one
    simulating them, one replaying them — must agree exactly.  Raises
    :class:`~repro.errors.DivergenceError` at the first differing entry.
    """
    sig_a = tracer_a.cycle_signature()
    sig_b = tracer_b.cycle_signature()
    if sig_a == sig_b:
        return
    if len(sig_a) != len(sig_b):
        raise DivergenceError(
            f"trace cycle signatures differ in size: "
            f"{len(sig_a)} vs {len(sig_b)} anchored spans"
        )
    for index, (entry_a, entry_b) in enumerate(zip(sig_a, sig_b)):
        if entry_a != entry_b:
            raise DivergenceError(
                f"trace cycle signatures diverge at anchored span "
                f"{index}: {entry_a[:4]} vs {entry_b[:4]}"
            )
    raise DivergenceError("trace cycle signatures differ")

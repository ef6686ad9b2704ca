"""Lockstep fast-vs-slow comparator for the fast-forward core.

The fast-forward execution core (:meth:`repro.sim.chip.TspChip.run` with
``fast_forward=True``) claims to be *provably equivalent* to the
cycle-by-cycle reference path: skipping a quiescent span changes no
architectural outcome because the TSP's timing is fully deterministic and
compiler-known (Section IV-F).  This module turns that claim into a
checkable property: :func:`run_lockstep` executes the same compiled
program on two fresh chips — one per mode — and compares every observable
surface bit-for-bit:

* output tensors and the full materialized MEM image;
* cycle count, per-run instruction count, and every activity tally
  (including the analytically integrated ``stream_hop_bytes``);
* the dispatch trace;
* the checker event streams (every dispatch, stream drive, and SRAM
  access observed by an attached recorder);
* ECC correction counts;
* the full telemetry snapshot of an attached
  :class:`~repro.obs.TelemetryCollector` — every per-unit counter in
  every sampling window, proving that observability is *exact* under
  fast-forward, not merely the architectural end state.

``assert_lockstep`` raises :class:`~repro.errors.DivergenceError` with a
rendered report on any mismatch, mirroring the differential oracle's
contract.  The compiler fuzz suite routes every generated program through
it, so the corpus continuously re-proves the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.runner import bind_input, load_compiled
from ..compiler.scheduler import CompiledProgram
from ..errors import DivergenceError, SimulationError
from ..obs.counters import TelemetryCollector
from ..sim.chip import RunResult, TspChip
from .invariants import InvariantChecker


class RecordingChecker(InvariantChecker):
    """Records the full observable event stream of one run.

    Attached to both the fast and slow chips so the comparator can assert
    that the two modes presented *identical* streams to the invariant
    layer — not merely identical end states.
    """

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple] = []
        self.skips: list[tuple[int, int]] = []
        self.final_cycle: int | None = None

    def on_dispatch(self, cycle, icu, instruction) -> None:
        self.events.append(
            ("dispatch", cycle, icu, instruction.mnemonic, str(instruction))
        )

    def on_drive(self, cycle, direction, stream, position) -> None:
        self.events.append(("drive", cycle, direction.value, stream, position))

    def on_mem_access(self, cycle, slice_name, kind, bank, address) -> None:
        self.events.append(("mem", cycle, slice_name, kind, bank, address))

    def on_cycles_skipped(self, first_cycle, n_cycles) -> None:
        # bookkeeping only: skips are a fast-path artifact, not an
        # architectural event, so they are excluded from the comparison
        self.skips.append((first_cycle, n_cycles))

    def finish(self, cycle) -> None:
        self.final_cycle = cycle


@dataclass
class LockstepExecution:
    """One half of a lockstep pair."""

    run: RunResult
    outputs: dict[str, np.ndarray]
    memory: dict[str, bytes]
    recorder: RecordingChecker
    telemetry: dict


@dataclass
class LockstepResult:
    """All executions plus every detected divergence.

    ``replay`` is the third leg of the comparator: the program recorded
    once into a :class:`repro.sim.replay.ReplayPlan` and re-executed as
    fused numpy kernels on a fresh chip.  It is ``None`` when the
    program is outside the replay engine's supported set (``plan`` then
    carries the reason) or when the harness cannot record (raw
    ``Program`` without tensor I/O, ``chip_setup`` fault campaigns).
    ``batched`` rides with it: the same plan's pure evaluation of the
    inputs bound twice, one output dict per row — the route that serves.
    """

    slow: LockstepExecution
    fast: LockstepExecution
    replay: LockstepExecution | None = None
    plan: object | None = None
    batched: list[dict[str, np.ndarray]] | None = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [
            "lockstep comparator: fast-forward and cycle-by-cycle paths "
            "disagree"
        ]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def _execute_mode(
    compiled,
    inputs: dict[str, np.ndarray],
    fast_forward: bool,
    timing,
    max_cycles: int,
    warmup_barrier: bool,
    enable_ecc: bool,
    config=None,
    chip_setup=None,
) -> LockstepExecution:
    from ..compiler.runner import fetch_output

    is_compiled = isinstance(compiled, CompiledProgram)
    if not is_compiled and config is None:
        raise SimulationError(
            "lockstep over a raw Program needs an explicit config"
        )
    chip = TspChip(
        compiled.config if is_compiled else config,
        timing=timing,
        trace=True,
        enable_ecc=enable_ecc,
    )
    recorder = RecordingChecker()
    chip.attach_checker(recorder)
    # small windows so a typical corpus program spans several of them —
    # the per-window comparison then exercises count_span's head/full/tail
    # distribution, not just the grand totals
    chip.attach_telemetry(TelemetryCollector(window_cycles=64))
    if is_compiled:
        load_compiled(chip, compiled)
        for name, spec in compiled.inputs.items():
            if name not in inputs:
                raise SimulationError(f"input {name!r} was not bound")
            bind_input(chip, spec, inputs[name])
    if chip_setup is not None:
        # fault-campaign hook: wire C2C loopbacks, attach link error
        # models, preload raw payloads, arm watchdogs — identically on
        # the fast and slow chips
        chip_setup(chip)
    run = chip.run(
        compiled.program if is_compiled else compiled,
        max_cycles=max_cycles,
        warmup_barrier=warmup_barrier,
        fast_forward=fast_forward,
    )
    outputs = (
        {
            name: fetch_output(chip, spec)
            for name, spec in compiled.outputs.items()
        }
        if is_compiled
        else {}
    )
    return LockstepExecution(
        run=run,
        outputs=outputs,
        memory=chip.memory_image(),
        recorder=recorder,
        telemetry=chip.obs.snapshot(),
    )


def run_lockstep(
    compiled,
    inputs: dict[str, np.ndarray] | None = None,
    timing=None,
    max_cycles: int = 1_000_000,
    warmup_barrier: bool = False,
    enable_ecc: bool = False,
    config=None,
    chip_setup=None,
) -> LockstepResult:
    """Execute ``compiled`` in both modes on fresh chips; compare all state.

    ``compiled`` is normally a :class:`CompiledProgram`; a raw
    :class:`~repro.isa.Program` is also accepted (pass ``config``), in
    which case no memory image or tensor I/O is involved and the final
    MEM comparison covers whatever the program itself materialized.
    ``chip_setup(chip)``, when given, runs on *each* fresh chip just
    before its run — the fault-campaign hook for wiring links, attaching
    :class:`~repro.sim.LinkErrorModel` s, preloading payloads, or arming
    watchdogs, applied identically to both modes.
    """
    inputs = inputs or {}
    slow = _execute_mode(
        compiled, inputs, False, timing, max_cycles, warmup_barrier,
        enable_ecc, config, chip_setup,
    )
    fast = _execute_mode(
        compiled, inputs, True, timing, max_cycles, warmup_barrier,
        enable_ecc, config, chip_setup,
    )
    replay = plan = batched = None
    if chip_setup is None and isinstance(compiled, CompiledProgram):
        replay, plan, batched = _execute_replay(
            compiled, inputs, timing, max_cycles, warmup_barrier, enable_ecc
        )
    result = LockstepResult(
        slow=slow, fast=fast, replay=replay, plan=plan, batched=batched
    )
    _compare(result)
    return result


def _execute_replay(
    compiled: CompiledProgram,
    inputs: dict[str, np.ndarray],
    timing,
    max_cycles: int,
    warmup_barrier: bool,
    enable_ecc: bool,
):
    """Record the program on one fresh chip, replay it on another.

    Returns ``(execution, plan, batched)``; ``execution`` and ``batched``
    are ``None`` when the recorder marked the plan unsupported (the
    reason rides on ``plan``).
    Checkers are deliberately absent from both chips — a chip with
    checkers attached is outside the replay engine's bypass predicate by
    design, so the recording must happen without them.
    """
    from ..compiler.runner import fetch_output
    from ..sim.replay import ScheduleRecorder

    def _fresh_chip(trace: bool) -> TspChip:
        chip = TspChip(
            compiled.config, timing=timing, trace=trace,
            enable_ecc=enable_ecc,
        )
        chip.attach_telemetry(TelemetryCollector(window_cycles=64))
        load_compiled(chip, compiled)
        for name, spec in compiled.inputs.items():
            bind_input(chip, spec, inputs[name])
        return chip

    # recorded with tracing off, replayed with it on: the plan keeps raw
    # dispatches and must format a trace equal to the simulated one
    chip = _fresh_chip(trace=False)
    recorder = ScheduleRecorder(chip, compiled, warmup_barrier=warmup_barrier)
    chip.recorder = recorder
    try:
        run = chip.run(
            compiled.program,
            max_cycles=max_cycles,
            warmup_barrier=warmup_barrier,
            fast_forward=True,
        )
    finally:
        chip.recorder = None
    plan = recorder.finish(run)
    if not plan.ok:
        return None, plan, None

    chip = _fresh_chip(trace=True)
    run = plan.replay_into(chip)
    outputs = {
        name: fetch_output(chip, spec)
        for name, spec in compiled.outputs.items()
    }
    return (
        LockstepExecution(
            run=run,
            outputs=outputs,
            memory=chip.memory_image(),
            recorder=RecordingChecker(),
            telemetry=chip.obs.snapshot(),
        ),
        plan,
        plan.run_batched([inputs, inputs]),
    )


def assert_lockstep(compiled: CompiledProgram, **kwargs) -> LockstepResult:
    """``run_lockstep`` that raises :class:`DivergenceError` on mismatch."""
    result = run_lockstep(compiled, **kwargs)
    if not result.ok:
        raise DivergenceError(result.render())
    return result


# ----------------------------------------------------------------------
def _compare(result: LockstepResult) -> None:
    slow, fast = result.slow, result.fast
    note = result.mismatches.append

    if slow.run.cycles != fast.run.cycles:
        note(
            f"cycle count: slow={slow.run.cycles} fast={fast.run.cycles}"
        )
    if slow.run.instructions != fast.run.instructions:
        note(
            f"instructions: slow={slow.run.instructions} "
            f"fast={fast.run.instructions}"
        )
    if slow.run.ecc_corrections != fast.run.ecc_corrections:
        note(
            f"ecc corrections: slow={slow.run.ecc_corrections} "
            f"fast={fast.run.ecc_corrections}"
        )
    if slow.run.activity != fast.run.activity:
        note(
            f"activity counts: slow={slow.run.activity} "
            f"fast={fast.run.activity}"
        )

    if slow.run.trace != fast.run.trace:
        for i, (a, b) in enumerate(zip(slow.run.trace, fast.run.trace)):
            if a != b:
                note(f"trace[{i}]: slow={a} fast={b}")
                break
        else:
            note(
                f"trace length: slow={len(slow.run.trace)} "
                f"fast={len(fast.run.trace)}"
            )

    sev, fev = slow.recorder.events, fast.recorder.events
    if sev != fev:
        for i, (a, b) in enumerate(zip(sev, fev)):
            if a != b:
                note(f"checker event[{i}]: slow={a} fast={b}")
                break
        else:
            note(f"checker events: slow={len(sev)} fast={len(fev)}")
    if slow.recorder.final_cycle != fast.recorder.final_cycle:
        note(
            f"checker finish cycle: slow={slow.recorder.final_cycle} "
            f"fast={fast.recorder.final_cycle}"
        )

    if slow.telemetry != fast.telemetry:
        note(_telemetry_divergence(slow.telemetry, fast.telemetry))

    for name in sorted(set(slow.outputs) | set(fast.outputs)):
        a, b = slow.outputs.get(name), fast.outputs.get(name)
        if a is None or b is None:
            note(f"output {name!r} missing from one mode")
        elif a.shape != b.shape or a.tobytes() != b.tobytes():
            note(f"output {name!r} differs bit-wise")

    slices = sorted(set(slow.memory) | set(fast.memory))
    for name in slices:
        a, b = slow.memory.get(name), fast.memory.get(name)
        if a is None or b is None:
            note(f"MEM slice {name} materialized in only one mode")
        elif a != b:
            note(f"MEM slice {name} differs bit-wise")

    if result.replay is not None:
        _compare_replay(result)


def _compare_replay(result: LockstepResult) -> None:
    """Third leg: the replayed plan against the cycle-by-cycle reference.

    Everything the replay engine reconstructs must be bit-identical to
    the dense run: outputs, memory, cycle/instruction counts, activity,
    the dispatch trace, and the merged telemetry snapshot.  A replay
    walks no cycle, so its ``skipped_cycles`` must equal its ``cycles``.
    Both rows of the pure batched evaluation must equal the dense outputs
    too — a constant that failed to broadcast against a batched slot
    shows up there, not in the batch of one.
    """
    slow, replay = result.slow, result.replay
    note = result.mismatches.append

    if replay.run.cycles != slow.run.cycles:
        note(
            f"replay cycle count: slow={slow.run.cycles} "
            f"replay={replay.run.cycles}"
        )
    if replay.run.instructions != slow.run.instructions:
        note(
            f"replay instructions: slow={slow.run.instructions} "
            f"replay={replay.run.instructions}"
        )
    if replay.run.skipped_cycles != replay.run.cycles:
        note(
            f"replay skipped cycles: cycles={replay.run.cycles} "
            f"skipped={replay.run.skipped_cycles}"
        )
    if replay.run.activity != slow.run.activity:
        note(
            f"replay activity counts: slow={slow.run.activity} "
            f"replay={replay.run.activity}"
        )
    if replay.run.trace != slow.run.trace:
        for i, (a, b) in enumerate(zip(slow.run.trace, replay.run.trace)):
            if a != b:
                note(f"replay trace[{i}]: slow={a} replay={b}")
                break
        else:
            note(
                f"replay trace length: slow={len(slow.run.trace)} "
                f"replay={len(replay.run.trace)}"
            )
    if replay.telemetry != slow.telemetry:
        note("replay " + _telemetry_divergence(slow.telemetry, replay.telemetry))
    for name in sorted(set(slow.outputs) | set(replay.outputs)):
        a, b = slow.outputs.get(name), replay.outputs.get(name)
        if a is None or b is None:
            note(f"replay output {name!r} missing from one mode")
        elif a.shape != b.shape or a.tobytes() != b.tobytes():
            note(f"replay output {name!r} differs bit-wise")
    for row, outputs in enumerate(result.batched):
        for name, a in slow.outputs.items():
            b = outputs.get(name)
            if b is None or a.shape != b.shape or a.tobytes() != b.tobytes():
                note(f"batched replay row {row}: output {name!r} differs")
    for name in sorted(set(slow.memory) | set(replay.memory)):
        a, b = slow.memory.get(name), replay.memory.get(name)
        if a is None or b is None:
            note(f"replay MEM slice {name} materialized in only one mode")
        elif a != b:
            note(f"replay MEM slice {name} differs bit-wise")


def _telemetry_divergence(slow: dict, fast: dict) -> str:
    """Locate the first differing counter between two telemetry snapshots."""
    for scope in ("window_cycles", "cycles"):
        if slow.get(scope) != fast.get(scope):
            return (
                f"telemetry {scope}: slow={slow.get(scope)} "
                f"fast={fast.get(scope)}"
            )
    sc, fc = slow.get("counters", {}), fast.get("counters", {})
    for unit in sorted(set(sc) | set(fc)):
        a, b = sc.get(unit, {}), fc.get(unit, {})
        for counter in sorted(set(a) | set(b)):
            wa, wb = a.get(counter, {}), b.get(counter, {})
            if wa == wb:
                continue
            for window in sorted(set(wa) | set(wb), key=int):
                va, vb = wa.get(window), wb.get(window)
                if va != vb:
                    return (
                        f"telemetry {unit}.{counter} window {window}: "
                        f"slow={va} fast={vb}"
                    )
    ss, fs = slow.get("scalars", {}), fast.get("scalars", {})
    for key in sorted(set(ss) | set(fs)):
        if ss.get(key) != fs.get(key):
            return (
                f"telemetry scalar {key}: slow={ss.get(key)} "
                f"fast={fs.get(key)}"
            )
    return "telemetry snapshots differ (structure mismatch)"


# ----------------------------------------------------------------------
def assert_trace_lockstep(tracer_a, tracer_b) -> None:
    """Assert two request traces did cycle-identical on-chip work.

    The cycle-domain projection of a request trace
    (:meth:`repro.obs.rtrace.RequestTracer.cycle_signature` — span cycle
    counts plus retained instruction-dispatch events, host microseconds
    excluded, order-insensitive) is a pure function of the executed
    programs, so a serve session traced under the dense core and one
    traced under the fast-forward core must agree exactly.  Raises
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

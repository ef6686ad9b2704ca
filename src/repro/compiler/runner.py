"""Execute compiled programs on the simulator and marshal host tensors.

The runner is the "host side" of the system: it emplaces the memory image
(model weights and constants) over the simulated PCIe DMA path, binds input
tensors, runs the chip, and reads results back out of MEM into numpy
arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..arch.streams import pack_tensor, unpack_tensor
from ..errors import SimulationError
from ..sim.chip import RunResult, TspChip
from .schedule import CompiledProgram, TensorSpec


@dataclass
class ExecutionResult:
    """Host-visible outcome: output tensors plus cycle-exact run facts."""

    outputs: dict[str, np.ndarray]
    run: RunResult

    def __getitem__(self, name: str) -> np.ndarray:
        return self.outputs[name]


def _slice_units(chip: TspChip):
    """:meth:`TspChip.mem_unit`, memoised for one host transfer.

    A transfer touches a handful of slices word after word; the floorplan
    lookup is paid per slice, not per word.
    """
    return functools.cache(chip.mem_unit)


def load_compiled(chip: TspChip, compiled: CompiledProgram) -> None:
    """Emplace the memory image (weights, constants) into chip SRAM."""
    unit = _slice_units(chip)
    for word in compiled.memory_image:
        unit(word.hemisphere, word.slice_index).host_write(
            word.address, word.data[None, :]
        )


def bind_input(
    chip: TspChip, spec: TensorSpec, data: np.ndarray
) -> None:
    """Write one host input tensor into its compiled MEM placement."""
    planes = pack_tensor(data, spec.dtype, chip.config.n_lanes)
    if planes.shape[1] != spec.n_vectors:
        raise SimulationError(
            f"input {spec.name}: expected {spec.n_vectors} vectors, got "
            f"{planes.shape[1]}"
        )
    n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
    unit = _slice_units(chip)
    for p in range(n_planes):
        for j in range(spec.n_vectors):
            hemisphere, s, a = spec.layout.address_of(p, j)
            unit(hemisphere, s).host_write(a, planes[p, j][None, :])


def fetch_output(chip: TspChip, spec: TensorSpec) -> np.ndarray:
    """Read one output tensor back out of MEM."""
    n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
    planes = np.zeros(
        (n_planes, spec.n_vectors, chip.config.n_lanes), dtype=np.uint8
    )
    unit = _slice_units(chip)
    for p in range(n_planes):
        for j in range(spec.n_vectors):
            hemisphere, s, a = spec.layout.address_of(p, j)
            planes[p, j] = unit(hemisphere, s).host_read(a)[0]
    return unpack_tensor(planes, spec.dtype, spec.length)


def _plan(compiled: CompiledProgram):
    """``compiled``'s replay plan — bound now from its schedule's if the
    schedule's was finished after this program was bound — or None, also
    for a program whose text is not its schedule's."""
    schedule = compiled.schedule
    if schedule is None or compiled.program is not schedule.program:
        return None
    if compiled.replay is None and schedule.replay is not None:
        compiled.replay = schedule.replay.bind(compiled.image)
    return compiled.replay


def _owes_plan(compiled: CompiledProgram) -> bool:
    """Whether a run of ``compiled`` would finish its schedule's plan: the
    compiler emitted one, and no run has finished it yet."""
    schedule = compiled.schedule
    return (
        schedule is not None and schedule.plan is not None
        and schedule.replay is None and compiled.program is schedule.program
    )


def finish_plan(compiled: CompiledProgram, chip: TspChip) -> None:
    """Give ``compiled``'s schedule its finished replay plan now if it can
    have one and has none: one simulation on ``chip``, zero inputs — the
    only run that plan ever needs — which leaves the chip scrubbed."""
    if _owes_plan(compiled):
        execute(compiled, chip=chip, inputs={
            name: np.zeros((spec.n_vectors, spec.length),
                           spec.dtype.numpy_dtype)
            for name, spec in compiled.inputs.items()
        })
        chip.scrub()


def execute(
    compiled: CompiledProgram,
    chip: TspChip | None = None,
    inputs: dict[str, np.ndarray] | None = None,
    max_cycles: int = 1_000_000,
    warmup_barrier: bool = False,
    record: bool = True,
) -> ExecutionResult:
    """Load, bind, run, and read back a compiled program.

    The first clean execution of any program of a schedule finishes the
    :class:`repro.sim.replay.ReplayPlan` the compiler emitted with it onto
    ``compiled.schedule.replay`` and binds it to ``compiled.replay`` (see
    :mod:`repro.sim.replay`); later calls with matching run parameters on
    pristine chips — for this program or any other of its schedule —
    execute a bound plan directly instead of simulating.  ``record=False``
    disables both sides, forcing a real simulation run — the reference a
    replay is compared against.
    """
    from ..sim import replay as replay_mod

    throwaway = chip is None
    if throwaway:
        chip = TspChip(compiled.config)
    load_compiled(chip, compiled)
    inputs = inputs or {}
    for name, spec in compiled.inputs.items():
        if name not in inputs:
            raise SimulationError(f"input {name!r} was not bound")
        bind_input(chip, spec, inputs[name])
    unknown = set(inputs) - set(compiled.inputs)
    if unknown:
        raise SimulationError(f"unknown inputs bound: {sorted(unknown)}")

    plan = _plan(compiled) if record else None
    if replay_mod.replay_allowed(
        plan, chip, max_cycles=max_cycles, warmup_barrier=warmup_barrier
    ):
        run = plan.replay_into(chip)
    else:
        schedule = compiled.schedule
        recorder = None
        if record and _owes_plan(compiled) and replay_mod.record_allowed(chip):
            recorder = replay_mod.ScheduleRecorder(
                schedule.plan, warmup_barrier=warmup_barrier
            )
        run = chip.run(
            compiled.program,
            max_cycles=max_cycles,
            warmup_barrier=warmup_barrier,
        )
        if recorder is not None:
            schedule.replay = recorder.finish(run)
            compiled.replay = schedule.replay.bind(compiled.image)
    outputs = {
        name: fetch_output(chip, spec)
        for name, spec in compiled.outputs.items()
    }
    if throwaway:
        # nobody else will see this chip, and it is cyclic garbage (units
        # point back at it): hand its SRAM back now, not when the cycle
        # collector gets to it — a program spread over both hemispheres
        # materialises twice the MEM slices
        chip.scrub()
    return ExecutionResult(outputs=outputs, run=run)


def execute_batched(
    compiled: CompiledProgram,
    inputs_list: list[dict[str, np.ndarray]],
    chip: TspChip | None = None,
    max_cycles: int = 1_000_000,
    warmup_barrier: bool = False,
) -> list[ExecutionResult] | None:
    """Evaluate B input bindings through the program's plan in one pass.

    Returns ``None`` when the batch cannot be replayed (the program has no
    plan, its schedule's is not finished yet, or the chip is in a state
    that demands real simulation) — the caller falls back to sequential
    :func:`execute` calls.  On success the results are bit-identical to B
    sequential executions; when a chip is given, the B runs land on it as B
    back-to-back runs would (:meth:`~repro.sim.replay.ReplayPlan.charge`),
    but its memory is untouched (the batch never materializes per-input
    SRAM state).
    """
    from ..sim import replay as replay_mod

    if not inputs_list:
        return []
    plan = _plan(compiled)
    if not replay_mod.replay_allowed(
        plan, chip, max_cycles=max_cycles, warmup_barrier=warmup_barrier
    ):
        return None
    outputs_list = plan.run_batched(inputs_list)
    if chip is not None:
        plan.charge(chip, len(inputs_list))
    return [
        ExecutionResult(outputs=outputs, run=plan.run_result(chip))
        for outputs in outputs_list
    ]

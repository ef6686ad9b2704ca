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
    """``compiled``'s replay plan, or None — also for a program whose text
    is not its schedule's."""
    schedule = compiled.schedule
    if schedule is None or compiled.program is not schedule.program:
        return None
    return compiled.replay


def execute(
    compiled: CompiledProgram,
    chip: TspChip | None = None,
    inputs: dict[str, np.ndarray] | None = None,
    max_cycles: int = 1_000_000,
    warmup_barrier: bool = False,
    replay: bool = True,
) -> ExecutionResult:
    """Load, bind, run, and read back a compiled program.

    A program bound from a schedule carries that schedule's
    :class:`repro.sim.replay.ReplayPlan`, finished by the compiler (see
    :mod:`repro.sim.replay`), so a call whose run parameters match it on
    a pristine chip executes the plan instead of simulating.
    ``replay=False`` forces a real simulation run — the reference a
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

    plan = _plan(compiled) if replay else None
    if replay_mod.replay_allowed(
        plan, chip, max_cycles=max_cycles, warmup_barrier=warmup_barrier
    ):
        run = plan.replay_into(chip)
    else:
        run = chip.run(
            compiled.program,
            max_cycles=max_cycles,
            warmup_barrier=warmup_barrier,
        )
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
    plan, or the chip is in a state that demands real simulation) — the
    caller falls back to sequential :func:`execute` calls.  On success the
    results are bit-identical to B sequential executions; when a chip is
    given, the B runs land on it as B back-to-back runs would
    (:meth:`~repro.sim.replay.ReplayPlan.charge`), but its memory is
    untouched (the batch never materializes per-input SRAM state).

    A program of ``n`` passes (:mod:`repro.compiler.repeat`) takes one
    binding per pass, under its pass-0 names: B bindings are B / n runs,
    and each result carries its run's :class:`RunResult`.
    """
    from ..sim import replay as replay_mod

    if not inputs_list:
        return []
    plan = _plan(compiled)
    if not replay_mod.replay_allowed(
        plan, chip, max_cycles=max_cycles, warmup_barrier=warmup_barrier
    ):
        return None
    runs, odd = divmod(len(inputs_list), plan.passes)
    if odd:
        raise SimulationError(
            f"{len(inputs_list)} bindings are not whole runs of a "
            f"{plan.passes}-pass program"
        )
    outputs_list = plan.run_batched(inputs_list)
    if chip is not None:
        plan.charge(chip, runs)
    return [
        ExecutionResult(outputs=outputs, run=plan.run_result(chip))
        for outputs in outputs_list
    ]

"""The differential oracle: cycle simulator vs. graph interpreter.

``run_differential`` executes a built program on both models and compares
every output bit-for-bit.  On a mismatch it assembles a
:class:`DivergenceReport` — the minimized repro an engineer needs: which
output, the first divergent element, expected/actual values, the ancestor
op subgraph feeding that output, the builder seed (when provided), and the
cycle of the Write that committed the divergent row, recovered from the
dispatch trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.api import StreamProgramBuilder
from ..compiler.graph import OpKind
from ..compiler.repeat import join_passes, split_passes
from ..compiler.runner import bind_input, fetch_output, load_compiled
from ..compiler.scheduler import CompiledProgram
from ..errors import DivergenceError, SimulationError
from ..sim.chip import RunResult, TspChip
from .interpreter import GraphInterpreter
from .invariants import InvariantChecker


@dataclass
class OutputDivergence:
    """First divergent element of one output tensor."""

    name: str
    row: int
    lane: int
    expected: object
    actual: object
    write_cycle: int | None = None

    def __str__(self) -> str:
        cycle = (
            "commit cycle unknown"
            if self.write_cycle is None
            else f"committed by Write dispatched at cycle {self.write_cycle}"
        )
        return (
            f"{self.name}[{self.row}, {self.lane}]: expected "
            f"{self.expected!r}, simulator produced {self.actual!r} ({cycle})"
        )


@dataclass
class DivergenceReport:
    """A minimized repro for a simulator/interpreter disagreement."""

    divergences: list[OutputDivergence]
    subgraph: list[str]
    seed: int | None = None

    def render(self) -> str:
        lines = ["differential oracle: simulator and interpreter disagree"]
        if self.seed is not None:
            lines.append(f"repro seed: {self.seed}")
        lines.extend(f"  {d}" for d in self.divergences)
        lines.append("op subgraph feeding the first divergent output:")
        lines.extend(f"  {s}" for s in self.subgraph)
        return "\n".join(lines)


@dataclass
class DifferentialResult:
    """Both executions plus the comparison verdict."""

    outputs: dict[str, np.ndarray]
    reference: dict[str, np.ndarray]
    run: RunResult
    report: DivergenceReport | None = None
    checkers: list[InvariantChecker] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report is None


def run_differential(
    builder: StreamProgramBuilder,
    compiled: CompiledProgram | None = None,
    inputs: dict[str, np.ndarray] | None = None,
    seed: int | None = None,
    after_load=None,
    checkers: list[InvariantChecker] | None = None,
    warmup_barrier: bool = False,
    max_cycles: int = 1_000_000,
) -> DifferentialResult:
    """Execute on the simulator and the interpreter; compare bit-exactly.

    ``after_load(chip)`` runs after the memory image and inputs are
    emplaced but before the program starts — the hook used by negative
    tests to seed faults.  ``checkers`` are attached to the chip for the
    run and returned on the result for inspection.
    """
    compiled = compiled if compiled is not None else builder.compile()
    inputs = inputs or {}
    checkers = checkers or []

    chip = TspChip(builder.config, timing=builder.timing, trace=True)
    for checker in checkers:
        chip.attach_checker(checker)
    load_compiled(chip, compiled)
    for name, spec in compiled.inputs.items():
        if name not in inputs:
            raise SimulationError(f"input {name!r} was not bound")
        bind_input(chip, spec, inputs[name])
    if after_load is not None:
        after_load(chip)
    run = chip.run(
        compiled.program,
        max_cycles=max_cycles,
        warmup_barrier=warmup_barrier,
    )
    outputs = {
        name: fetch_output(chip, spec)
        for name, spec in compiled.outputs.items()
    }

    # a program of n passes is the graph n times over, a binding a pass
    names = [n.name for n in builder.graph.nodes.values()
             if n.kind is OpKind.INPUT]
    passes = compiled.schedule.passes if compiled.schedule else 1
    interpreter = GraphInterpreter(builder.config)
    reference = join_passes([
        interpreter.run(builder.graph, bound)
        for bound in split_passes(inputs, names, passes)
    ])
    report = _compare(builder, compiled, outputs, reference, run, seed)
    return DifferentialResult(
        outputs=outputs,
        reference=reference,
        run=run,
        report=report,
        checkers=checkers,
    )


def assert_conformance(
    builder: StreamProgramBuilder, **kwargs
) -> DifferentialResult:
    """``run_differential`` that raises :class:`DivergenceError` on mismatch."""
    result = run_differential(builder, **kwargs)
    if result.report is not None:
        raise DivergenceError(result.report.render())
    return result


# ----------------------------------------------------------------------
def _compare(
    builder: StreamProgramBuilder,
    compiled: CompiledProgram,
    outputs: dict[str, np.ndarray],
    reference: dict[str, np.ndarray],
    run: RunResult,
    seed: int | None,
) -> DivergenceReport | None:
    divergences: list[OutputDivergence] = []
    first_bad_name: str | None = None
    for name in compiled.outputs:
        actual = outputs[name]
        expected = reference.get(name)
        if expected is None:
            continue
        expected = np.asarray(expected, dtype=actual.dtype)
        # bit-exact: compare raw storage, so -0.0 != 0.0 and NaN == NaN
        if actual.shape == expected.shape and (
            actual.tobytes() == expected.tobytes()
        ):
            continue
        row, lane = _first_difference(expected, actual)
        divergences.append(
            OutputDivergence(
                name=name,
                row=row,
                lane=lane,
                expected=expected[row, lane],
                actual=actual[row, lane],
                write_cycle=_write_cycle_of(compiled, run, name, row),
            )
        )
        if first_bad_name is None:
            first_bad_name = name
    if not divergences:
        return None
    return DivergenceReport(
        divergences=divergences,
        subgraph=_ancestor_subgraph(builder, first_bad_name),
        seed=seed,
    )


def _first_difference(
    expected: np.ndarray, actual: np.ndarray
) -> tuple[int, int]:
    if expected.shape != actual.shape:
        return 0, 0
    diff = expected.view(np.uint8) != actual.view(np.uint8)
    flat = int(np.argmax(diff.reshape(expected.shape[0], -1).any(axis=1)))
    row = flat
    row_diff = (
        expected[row : row + 1].tobytes() != actual[row : row + 1].tobytes()
    )
    assert row_diff
    lane_mask = expected[row] != actual[row]
    if not lane_mask.any():
        # value differs only at the bit level (e.g. -0.0 vs 0.0)
        byte_mask = (
            expected[row : row + 1].view(np.uint8)
            != actual[row : row + 1].view(np.uint8)
        ).reshape(-1)
        lane = int(np.argmax(byte_mask)) // expected.dtype.itemsize
    else:
        lane = int(np.argmax(lane_mask))
    return row, lane


def _write_cycle_of(
    compiled: CompiledProgram, run: RunResult, name: str, row: int
) -> int | None:
    """Dispatch cycle of the Write that stored plane 0 of ``row``."""
    layout = compiled.outputs[name].layout
    hemisphere, slice_index, address = layout.address_of(0, row)
    icu_name = f"MEM_{hemisphere.value}{slice_index}"
    needle = f"address={address},"
    for event in run.trace:
        if (
            event.mnemonic == "Write"
            and event.icu == icu_name
            and needle in event.text
        ):
            return event.cycle
    return None


def _ancestor_subgraph(
    builder: StreamProgramBuilder, output_name: str | None
) -> list[str]:
    graph = builder.graph
    write_node = next(
        (
            graph.node(i)
            for i in graph.outputs
            if graph.node(i).name == output_name
        ),
        None,
    )
    if write_node is None:
        return []
    keep: set[int] = set()
    stack = [write_node.id]
    while stack:
        nid = stack.pop()
        if nid in keep:
            continue
        keep.add(nid)
        stack.extend(graph.node(nid).inputs)
    return [str(graph.node(i)) for i in sorted(keep)]

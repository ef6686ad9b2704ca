"""The conformance layer: differential oracle, invariants, ISA coverage.

The paper's premise is that the compiler "precisely tracks the chip's
architectural state" and the hardware executes bit-exactly what was
scheduled.  This package makes that claim checkable for the reproduction:

* :mod:`repro.verify.interpreter` — a pure-numpy graph interpreter that
  computes what a compiled program *should* produce, without any notion of
  cycles, streams, or placement;
* :mod:`repro.verify.oracle` — runs a program on both the cycle simulator
  and the interpreter, compares bit-for-bit, and renders a minimized repro
  on divergence;
* :mod:`repro.verify.invariants` — runtime checkers pluggable into
  :class:`~repro.sim.chip.TspChip` that watch stream drives, SRAM bank
  accesses, and instruction dispatch against the scheduler's predictions
  (Equation 4/5);
* :mod:`repro.verify.lockstep` — simulates one compiled program, records
  and replays it (write-through and batched), and asserts bit-identical
  memory, outputs, traces, cycle counts, activity and checker dispatch
  streams — everything a caller reads back from a run, the equivalence
  proof-obligation of the replay engine;
* :mod:`repro.verify.coverage` — tracks which opcodes, dtypes, and slice
  families a run exercises and enforces a coverage threshold;
* :mod:`repro.verify.suite` — :func:`check`, the one check of a compiled
  program (interpreter, checkers and lockstep together), and the
  conformance sweep exercising every instruction class, runnable
  standalone via ``python -m repro.verify``.
"""

from .coverage import COVERAGE_CLASSES, CoverageChecker, CoverageTracker
from .interpreter import GraphInterpreter, interpret
from .invariants import (
    BankDisciplineChecker,
    InvariantChecker,
    StreamCollisionChecker,
    TimingContractChecker,
    Violation,
)
from .lockstep import (
    LockstepResult,
    RecordingChecker,
    assert_lockstep,
    assert_trace_lockstep,
    run_lockstep,
)
from .oracle import (
    DifferentialResult,
    DivergenceReport,
    assert_conformance,
    run_differential,
)
from .suite import ConformanceSummary, check, run_conformance

__all__ = [
    "BankDisciplineChecker",
    "COVERAGE_CLASSES",
    "ConformanceSummary",
    "CoverageChecker",
    "CoverageTracker",
    "DifferentialResult",
    "DivergenceReport",
    "GraphInterpreter",
    "InvariantChecker",
    "LockstepResult",
    "RecordingChecker",
    "StreamCollisionChecker",
    "TimingContractChecker",
    "Violation",
    "assert_conformance",
    "assert_lockstep",
    "assert_trace_lockstep",
    "check",
    "interpret",
    "run_conformance",
    "run_differential",
    "run_lockstep",
]

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
* :mod:`repro.verify.invariants` — checks of a run's record (its
  dispatch trace and stream drives): stream collisions, SRAM bank
  discipline, and the scheduler's timing contract (Equation 4/5), each a
  function returning the violations it finds;
* :mod:`repro.verify.lockstep` — simulates one compiled program, replays
  its plan (write-through and batched), and asserts bit-identical memory,
  outputs, traces, stream drives, cycle counts and activity — everything
  a caller reads back from a run, the equivalence proof-obligation of the
  replay engine;
* :mod:`repro.verify.coverage` — tracks which opcodes, dtypes, and slice
  families a run exercises and enforces a coverage threshold;
* :mod:`repro.verify.suite` — :func:`check`, the one check of a compiled
  program (one simulation held to the interpreter, the invariant checks
  and its replays), and the conformance sweep exercising every
  instruction class, runnable standalone via ``python -m repro.verify``.
"""

from .coverage import COVERAGE_CLASSES, CoverageTracker
from .interpreter import GraphInterpreter, interpret
from .invariants import (
    Violation,
    bank_violations,
    check_run,
    contract_violations,
    mem_accesses,
    stream_collisions,
)
from .lockstep import (
    LockstepResult,
    assert_lockstep,
    assert_trace_lockstep,
    assert_transfer_lockstep,
    run_lockstep,
    run_transfer_lockstep,
)
from .oracle import (
    DifferentialResult,
    DivergenceReport,
    assert_conformance,
    run_differential,
)
from .suite import ConformanceSummary, check, run_conformance

__all__ = [
    "COVERAGE_CLASSES",
    "ConformanceSummary",
    "CoverageTracker",
    "DifferentialResult",
    "DivergenceReport",
    "GraphInterpreter",
    "LockstepResult",
    "Violation",
    "assert_conformance",
    "assert_lockstep",
    "assert_trace_lockstep",
    "assert_transfer_lockstep",
    "bank_violations",
    "check",
    "check_run",
    "contract_violations",
    "interpret",
    "mem_accesses",
    "run_conformance",
    "run_differential",
    "run_lockstep",
    "run_transfer_lockstep",
    "stream_collisions",
]

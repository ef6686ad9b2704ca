"""Exception hierarchy for the TSP reproduction.

Every error raised by the library derives from :class:`TspError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish compiler, simulator, and configuration faults.

Errors carry optional location context — which chip, which cycle, which
functional unit — filled in progressively as the exception propagates
outward: a raise site deep in the ECC layer knows none of these, the
capturing unit knows the unit and cycle, and the chip's run loop knows the
chip.  :meth:`TspError.with_context` only fills fields that are still
unset, so the most specific information always wins.
"""

from __future__ import annotations


class TspError(Exception):
    """Base class for all errors raised by this library.

    ``chip_id``/``cycle``/``unit`` locate the fault; any may be ``None``
    when unknown.  They render as a ``[chip 0, cycle 41, MEM_E3]`` prefix
    in ``str()`` so the location survives being raised past the chip.
    """

    def __init__(
        self,
        message: str = "",
        *,
        chip: int | str | None = None,
        cycle: int | None = None,
        unit: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.chip_id = chip
        self.cycle = cycle
        self.unit = unit

    def with_context(
        self,
        chip: int | str | None = None,
        cycle: int | None = None,
        unit: str | None = None,
    ) -> "TspError":
        """Fill in any location fields that are still unset; returns self."""
        if self.chip_id is None:
            self.chip_id = chip
        if self.cycle is None:
            self.cycle = cycle
        if self.unit is None:
            self.unit = unit
        return self

    def context(self) -> str:
        """The known location fields, rendered ``chip 0, cycle 41, MEM_E3``."""
        parts = []
        if self.chip_id is not None:
            parts.append(f"chip {self.chip_id}")
        if self.cycle is not None:
            parts.append(f"cycle {self.cycle}")
        if self.unit is not None:
            parts.append(str(self.unit))
        return ", ".join(parts)

    def __str__(self) -> str:
        ctx = self.context()
        return f"[{ctx}] {self.message}" if ctx else self.message


class ConfigError(TspError):
    """An architecture configuration is internally inconsistent."""


class IsaError(TspError):
    """An instruction is malformed or used outside its functional slice."""


class EncodingError(IsaError):
    """An instruction could not be encoded to or decoded from bytes."""


class CompileError(TspError):
    """The stream compiler could not produce a valid schedule."""


class AllocationError(CompileError):
    """Stream or memory allocation failed (out of streams, slices, or banks)."""


class ScheduleError(CompileError):
    """A schedule violates the timing model (operand/instruction mismatch)."""


class SimulationError(TspError):
    """The simulator detected an illegal condition at run time."""


class IqUnderflowError(SimulationError):
    """An instruction queue ran dry while the program still had instructions.

    The paper requires that "IQs never go empty so that a precise notion of
    logical time is maintained"; in strict-ifetch mode, underflow is fatal.
    """


class MemoryFaultError(SimulationError):
    """An uncorrectable (double-bit) ECC error was consumed by a slice."""


class BankConflictError(SimulationError):
    """A read and a write targeted the same SRAM bank in the same cycle."""


class StreamContentionError(SimulationError):
    """Two producers drove the same stream register in the same cycle."""


class C2cLinkError(SimulationError):
    """A C2C link fault: an uncorrectable transfer, a dead link, a deskew
    epoch mismatch, or a Receive scheduled without enough retry slack."""


class WatchdogError(SimulationError):
    """An armed watchdog deadline elapsed with work still unfinished."""


class ServeError(TspError):
    """The inference serving layer could not accept or complete a request."""


class RequestError(ServeError):
    """One request's terminal serving failure, with full attribution.

    ``outcome`` distinguishes why the request died:

    * ``"failed"`` — a non-retryable error (a software bug, a model
      contract violation) failed the batch outright.
    * ``"retryable_exhausted"`` — the failure was retryable hardware
      trouble, but the request ran out of budget: either its attempt
      counter hit the retry policy's ``max_attempts`` or its deadline no
      longer had one estimated batch-latency of slack.
    * ``"shed"`` — admission control rejected it (pool capacity down and
      the queue full of more valuable work).
    * ``"shutdown"`` — the server closed while it was still queued.

    ``attempt`` is the attempt that failed (0-based) and ``chip_index``
    the ring index of the chip the last failure was localized to (None
    for single-chip workers or when unknown) — together with the
    inherited chip/cycle/unit context, every retry and shed is
    attributable in logs, metrics, and traces.
    """

    def __init__(
        self,
        message: str = "",
        *,
        outcome: str = "failed",
        attempt: int = 0,
        chip_index: int | None = None,
        chip: int | str | None = None,
        cycle: int | None = None,
        unit: str | None = None,
    ) -> None:
        super().__init__(message, chip=chip, cycle=cycle, unit=unit)
        self.outcome = outcome
        self.attempt = attempt
        self.chip_index = chip_index


class VerificationError(TspError):
    """The conformance layer found a disagreement or a coverage gap."""


class DivergenceError(VerificationError):
    """The simulator and the graph interpreter disagreed bit-for-bit."""


class InvariantViolationError(VerificationError):
    """An invariant check of a run's record found one or more violations."""


class CoverageError(VerificationError):
    """ISA coverage fell below the required threshold."""

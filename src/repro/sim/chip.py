"""Top-level TSP chip simulator.

One :class:`TspChip` owns a floorplan, a stream register file, a functional
unit per slice, and one :class:`IcuQueue` per independent instruction queue.
``run()`` executes a :class:`~repro.isa.program.Program` cycle by cycle with
a fixed intra-cycle phase order that realizes the paper's timing contract:

1. **DRIVE** — results whose ``d_func`` elapsed land on stream registers;
2. **dispatch** — every ICU queue issues at most one instruction;
3. **CAPTURE** — operand samples (``d_skew``) read the current registers;
4. **step** — every stream value advances one hop.

Because the phase order, queue order, and event order are all fixed, two
runs of the same program are bit-identical — the determinism the TSP
guarantees by construction (Section IV-F).

There is one cycle loop, :func:`run_lockstep`, and one step body,
:meth:`TspChip.step_cycle`; ``TspChip.run`` drives it over one chip and
:class:`~repro.sim.multichip.MultiChipSystem` over several.  Every cycle
is walked — this simulator is the oracle a replayed plan
(:mod:`repro.sim.replay`) is compared against, and the engine for any
chip a plan cannot stand in for — but a cycle's host cost follows
dispatches and events, not queues: queues are indexed by wake cycle
(:class:`~repro.sim.icu.QueueSet`), events by due cycle, and a stream hop
is a ring rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import (
    Direction,
    Floorplan,
    Hemisphere,
    SliceAddress,
    SliceKind,
)
from ..arch.power import ActivityCounts, PowerModel
from ..arch.timing import TimingModel
from ..config import ArchConfig
from ..errors import SimulationError, TspError, WatchdogError
from ..isa.base import Instruction
from ..isa.program import IcuId, Program
from .c2c import C2cUnit
from .events import EventQueue, Phase
from .icu import BarrierController, QueueSet
from .memory import MemSliceUnit
from .mxm import MxmUnit
from .streamreg import StreamRegisterFile
from .sxm import SxmUnit
from .tracer import instruction_duration
from .unit import FunctionalUnit
from .vxm import VxmUnit


@dataclass(slots=True)
class TraceEvent:
    """One dispatch: when, on which queue, what, and for how long.

    The one dispatch record (a chip's ``trace``, a collector's
    ``dispatch_log``, a replay plan's ``trace``).  ``icu`` names the queue
    ``queue``; ``occupancy`` is fixed when the dispatch is recorded
    (:func:`~repro.sim.tracer.instruction_duration`) — the TSP knows a
    dispatch's timing ahead of time, so a renderer reads it, never
    guesses.  Nothing is formatted until ``text`` is read.
    """

    cycle: int
    icu: str
    queue: IcuId
    instruction: Instruction
    occupancy: int

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic

    @property
    def text(self) -> str:
        return str(self.instruction)


@dataclass
class RunResult:
    """Outcome of one program execution.

    All counts are per-run windows: a chip reused for back-to-back runs
    keeps its own cumulative tallies, but each result reports only what
    its run contributed.  ``skipped_cycles`` counts the cycles nobody
    walked: 0 for a simulation, which visits every cycle, and all of them
    for a replayed plan (:mod:`repro.sim.replay`).  They are included in
    ``cycles``, so ``cycles - skipped_cycles`` is the walked-cycle count
    on either route.
    """

    cycles: int
    instructions: int
    activity: ActivityCounts
    trace: list[TraceEvent] = field(default_factory=list)
    ecc_corrections: int = 0
    skipped_cycles: int = 0

    def seconds(self, clock_ghz: float) -> float:
        return self.cycles / (clock_ghz * 1e9)


class TspChip:
    """A deterministic, cycle-accurate functional model of one TSP."""

    #: when set (see :class:`repro.obs.AutoTelemetry`), every newly
    #: constructed chip gets a telemetry collector attached automatically —
    #: how ``python -m repro.obs`` profiles unmodified scripts
    auto_telemetry = None

    def __init__(
        self,
        config: ArchConfig,
        timing: TimingModel | None = None,
        enable_ecc: bool = False,
        strict_ifetch: bool = False,
        strict_c2c: bool = False,
        trace: bool = False,
        chip_id: int | str | None = None,
    ) -> None:
        config.validate()
        self.config = config
        #: identity in a multi-chip system (threaded into error context)
        self.chip_id = chip_id
        #: armed deadline monitor (see repro.resil.health.Watchdog), or None
        self.watchdog = None
        self.timing = timing or TimingModel()
        self.floorplan = Floorplan(config)
        self.srf = StreamRegisterFile(config, self.floorplan)
        self.events = EventQueue()
        self.barrier = BarrierController(config.barrier_latency_cycles)
        self.strict_ifetch = strict_ifetch
        self.strict_c2c = strict_c2c
        self.trace_enabled = trace
        self.trace: list[TraceEvent] = []
        self.activity = ActivityCounts()
        self.power_model = PowerModel()
        self.superlane_enabled = np.ones(config.n_superlanes, dtype=bool)
        self.weights_installed_cycle: int | None = None
        self.weights_installed_bytes = 0
        self.now = 0
        #: runtime invariant checkers (see repro.verify.invariants)
        self.checkers: list = []
        #: count of host-injected hardware faults since the last scrub;
        #: non-zero disqualifies the chip from schedule replay
        self.faults_injected = 0
        #: set by the serving pool when persistent hardware-fault hooks
        #: were applied at checkout; cleared by scrub()
        self.external_fault_hooks = False
        #: attached telemetry collector (repro.obs), or None — every
        #: instrumentation site in the simulator guards on this, so a chip
        #: without a collector runs zero telemetry code
        self.obs = None
        self.srf.on_drive = self._notify_drive

        if enable_ecc:
            self.srf.enable_ecc(True)

        self._units: dict[SliceAddress, FunctionalUnit] = {}
        for address in self.floorplan.slices:
            self._units[address] = self._make_unit(address)
        self._mem_units = [
            u for u in self._units.values() if isinstance(u, MemSliceUnit)
        ]

        if TspChip.auto_telemetry is not None:
            TspChip.auto_telemetry.register(self)

    # ------------------------------------------------------------------
    def _make_unit(self, address: SliceAddress) -> FunctionalUnit:
        if address.kind is SliceKind.MEM:
            return MemSliceUnit(self, address)
        if address.kind is SliceKind.VXM:
            return VxmUnit(self, address)
        if address.kind is SliceKind.MXM:
            return MxmUnit(self, address)
        if address.kind is SliceKind.SXM:
            return SxmUnit(self, address)
        return C2cUnit(self, address)

    # ------------------------------------------------------------------
    @property
    def srf_ecc_enabled(self) -> bool:
        return self.srf.ecc_enabled

    def unit_for(self, icu: IcuId) -> FunctionalUnit:
        return self._units[icu.address]

    def unit_at(self, address: SliceAddress) -> FunctionalUnit:
        return self._units[address]

    def mem_unit(self, hemisphere: Hemisphere, index: int) -> MemSliceUnit:
        address = self.floorplan.mem_slice(hemisphere, index)
        unit = self._units[address]
        assert isinstance(unit, MemSliceUnit)
        return unit

    def c2c_unit(self, hemisphere: Hemisphere) -> C2cUnit:
        unit = self._units[self.floorplan.c2c(hemisphere)]
        assert isinstance(unit, C2cUnit)
        return unit

    def mem_units(self) -> list[MemSliceUnit]:
        """All 88 MEM slices, in floorplan order."""
        return self._mem_units

    # ------------------------------------------------------------------
    def set_superlane_power(self, superlane: int, on: bool) -> None:
        if not 0 <= superlane < self.config.n_superlanes:
            raise SimulationError(f"superlane {superlane} does not exist")
        self.superlane_enabled[superlane] = on

    def record_dispatch(
        self, icu: IcuId, name: str, instruction: Instruction, cycle: int
    ) -> None:
        """Account one dispatch on queue ``icu`` (``name`` is its label).

        Its :class:`TraceEvent` is built once, and only when the chip's
        trace or its telemetry collector will keep it; checkers see the
        instruction itself.  Nothing is formatted.
        """
        self.activity.instructions += 1
        if self.trace_enabled or self.obs is not None:
            event = TraceEvent(
                cycle, name, icu, instruction,
                instruction_duration(instruction, self.timing, self.config),
            )
            if self.trace_enabled:
                self.trace.append(event)
            if self.obs is not None:
                self.obs.on_dispatch(event)
        for checker in self.checkers:
            checker.on_dispatch(cycle, name, instruction)

    # ------------------------------------------------------------------
    # invariant-checker hooks (repro.verify.invariants)
    # ------------------------------------------------------------------
    def attach_checker(self, checker) -> None:
        """Register a runtime invariant checker for subsequent runs."""
        self.checkers.append(checker)

    # ------------------------------------------------------------------
    # watchdog (repro.resil.health)
    # ------------------------------------------------------------------
    def arm_watchdog(self, watchdog) -> None:
        """Arm a deadline monitor for subsequent runs.

        ``watchdog`` only needs ``deadline`` (a cycle number) and ``label``
        attributes — see :class:`repro.resil.health.Watchdog`.  If the
        program has not finished by the deadline the run aborts with a
        :class:`~repro.errors.WatchdogError` naming the hung queues.
        """
        self.watchdog = watchdog

    def disarm_watchdog(self) -> None:
        self.watchdog = None

    def check_watchdog(self, queues, cycle: int) -> None:
        """Raise :class:`WatchdogError` if the armed deadline has passed
        with work still pending.  Called with the cycle *about to begin*.
        """
        wd = self.watchdog
        if wd is None or cycle < wd.deadline:
            return
        # the same completion test run() uses: a retired queue still
        # burning a trailing NOP horizon is unfinished timed behaviour
        busy = [
            q for q in queues if not q.done or cycle < q.busy_until
        ]
        if not busy and self.events.pending == 0:
            return
        stuck = [q for q in busy if not q.done]
        detail = ", ".join(
            f"{q.icu} at pc {q.pc}/{len(q.instructions)}"
            + (" (parked)" if q.parked else "")
            for q in stuck[:4]
        )
        if not detail and busy:
            detail = ", ".join(
                f"{q.icu} draining until cycle {q.busy_until}"
                for q in busy[:4]
            )
        if not detail:
            detail = f"{self.events.pending} events still pending"
        raise WatchdogError(
            f"watchdog '{wd.label}' fired: deadline cycle {wd.deadline} "
            f"passed with unfinished work — {detail}",
            chip=self.chip_id,
            cycle=cycle,
            unit=str(stuck[0].icu)
            if stuck
            else (str(busy[0].icu) if busy else None),
        )

    def attach_telemetry(self, collector) -> None:
        """Attach a :class:`repro.obs.TelemetryCollector` to this chip.

        One collector per chip; attaching replaces any previous one.  The
        stream register file gets a direct reference so hop/occupancy
        counting needs no indirection through the chip.
        """
        collector.bind(self)
        self.obs = collector
        self.srf.collector = collector

    def detach_telemetry(self) -> None:
        self.obs = None
        self.srf.collector = None

    def _notify_drive(
        self, direction: Direction, stream: int, position: int
    ) -> None:
        for checker in self.checkers:
            checker.on_drive(self.now, direction, stream, position)

    def notify_mem_access(
        self,
        slice_address: SliceAddress,
        cycle: int,
        kind: str,
        bank: int,
        address: int,
    ) -> None:
        """A MEM slice is about to access SRAM (before conflict faulting)."""
        for checker in self.checkers:
            checker.on_mem_access(cycle, str(slice_address), kind, bank, address)

    def note_weights_installed(self, cycle: int, n_bytes: int) -> None:
        """Bookkeeping for the weight-load experiment (E09)."""
        self.weights_installed_bytes += n_bytes
        if (
            self.weights_installed_cycle is None
            or cycle > self.weights_installed_cycle
        ):
            self.weights_installed_cycle = cycle

    # ------------------------------------------------------------------
    # host-side memory access
    # ------------------------------------------------------------------
    def load_memory(
        self,
        hemisphere: Hemisphere,
        slice_index: int,
        address: int,
        data: np.ndarray,
    ) -> None:
        """Emplace host data into a MEM slice (the PCIe DMA path)."""
        self.mem_unit(hemisphere, slice_index).host_write(address, data)

    def read_memory(
        self,
        hemisphere: Hemisphere,
        slice_index: int,
        address: int,
        n_words: int = 1,
    ) -> np.ndarray:
        return self.mem_unit(hemisphere, slice_index).host_read(
            address, n_words
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        max_cycles: int = 1_000_000,
        warmup_barrier: bool = False,
    ) -> RunResult:
        """Execute a program to completion; returns cycle-exact results.

        ``warmup_barrier`` prepends the paper's compulsory post-reset
        barrier: every queue parks on ``Sync`` and a designated notifier
        releases them, aligning all 144 queues to the same logical time.
        """
        queues = self.make_queues(program, warmup_barrier)
        window = self.open_run()
        try:
            cycles = run_lockstep(
                [self], [queues], max_cycles, standalone=True
            )
        except TspError as fault:
            fault.with_context(chip=self.chip_id, cycle=self.now)
            raise
        for checker in self.checkers:
            checker.finish(cycles)
        return self.close_run(window, cycles)

    def open_run(self) -> tuple:
        """Reset per-run state and snapshot the cumulative tallies.

        The chip's tallies stay cumulative across back-to-back runs; the
        snapshot lets :meth:`close_run` report only this run's window.
        """
        self.begin_run()
        self.activity.stream_hop_bytes = self.srf.hop_bytes_total
        return self.activity.copy(), len(self.trace), self.srf.corrections

    def close_run(self, window: tuple, cycles: int) -> RunResult:
        """The :class:`RunResult` of the run opened by :meth:`open_run`."""
        activity_start, trace_start, corrections_start = window
        if self.obs is not None:
            self.obs.on_run_end(cycles)
        self.activity.stream_hop_bytes = self.srf.hop_bytes_total
        return RunResult(
            cycles=cycles,
            instructions=self.activity.instructions
            - activity_start.instructions,
            activity=self.activity.delta(activity_start),
            trace=list(self.trace[trace_start:]),
            ecc_corrections=self.srf.corrections - corrections_start,
        )

    # ------------------------------------------------------------------
    def step_cycle(self, queues: QueueSet, cycle: int) -> None:
        """Advance one cycle — the one step body of every driver."""
        self.now = cycle
        events = self.events
        try:
            events.run_phase(cycle, Phase.DRIVE)
            queues.dispatch(cycle)
            events.run_phase(cycle, Phase.CAPTURE)
            self.srf.step(cycle)
        except TspError as fault:
            fault.with_context(chip=self.chip_id, cycle=cycle)
            raise
        self.activity.cycles += 1

    # ------------------------------------------------------------------
    def memory_image(self) -> dict[str, bytes]:
        """Raw bytes of every materialized MEM slice, keyed by slice name.

        Used by the lockstep comparator to assert that two execution
        routes left bit-identical architectural memory state.
        """
        image: dict[str, bytes] = {}
        for address, unit in self._units.items():
            if isinstance(unit, MemSliceUnit) and unit._storage is not None:
                image[str(address)] = unit._storage.tobytes()
        return image

    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset cycle-keyed transient state before a run starts at cycle 0.

        Durable state (SRAM, installed weights, cumulative tallies) is
        kept; only logs and epochs indexed by the previous run's cycle
        numbers are dropped, so back-to-back ``run()`` calls on one chip
        behave like runs on a freshly powered chip with warm memory.
        """
        self.barrier.begin_run()
        for unit in self._units.values():
            unit.begin_run()
        # anything still in flight drains off the edge during the idle
        # gap between runs; its remaining hops are billed to that gap —
        # callers snapshot hop_bytes_total after this, so neither run's
        # reported window is polluted by the other's traffic (the telemetry
        # collector is likewise blind to the drain)
        self.srf.flush()

    def scrub(self) -> None:
        """Factory-reset the chip for checkout by a new program.

        The worker-pool reuse discipline (``repro.serve``): ``begin_run``
        deliberately keeps SRAM, installed weights, and cumulative tallies
        warm so back-to-back runs of *one* program behave like a powered
        chip; a pooled chip handed to a *different* program must instead be
        indistinguishable from a freshly constructed one — no tenant's
        data, trace, telemetry, armed watchdog, or checker may leak into
        the next checkout.  Wiring (C2C topology, ECC enables, strict
        modes) is configuration and survives.
        """
        self.barrier = BarrierController(self.config.barrier_latency_cycles)
        self.events = EventQueue()
        self.srf.scrub()
        for unit in self._units.values():
            unit.scrub()
        self.trace.clear()
        self.activity = ActivityCounts()
        self.superlane_enabled[:] = True
        self.weights_installed_cycle = None
        self.weights_installed_bytes = 0
        self.now = 0
        self.checkers.clear()
        self.faults_injected = 0
        self.external_fault_hooks = False
        self.disarm_watchdog()
        self.detach_telemetry()

    def make_queues(
        self, program: Program, warmup_barrier: bool = False
    ) -> QueueSet:
        return QueueSet(self, program, warmup_barrier)

    def is_idle(self, queues: QueueSet) -> bool:
        return queues.live == 0 and self.events.pending == 0


def run_lockstep(
    chips: list[TspChip],
    queue_sets: list[QueueSet],
    max_cycles: int,
    standalone: bool,
) -> int:
    """The cycle loop: run ``chips`` in lockstep until all have finished.

    Returns the cycle count.  Every chip takes :meth:`TspChip.step_cycle`
    at every cycle; an armed watchdog is checked from its deadline cycle
    on.

    ``standalone`` is the single-chip contract: a chip whose every live
    queue is parked with no Notify in flight faults as a barrier deadlock.
    A multi-chip system leaves a hung barrier to its armed watchdogs (or
    ``max_cycles``).

    A run that aborts takes its pending events with it: they are keyed by
    this run's cycle numbers and must not fire in the next one.  (Events
    armed *before* a run — :meth:`FaultInjector.inject_stream_fault_at` —
    are the next run's own, which is why ``begin_run`` keeps the store.)
    """
    pairs = list(zip(chips, queue_sets))
    armed = [pair for pair in pairs if pair[0].watchdog is not None]
    deadline = min(
        (chip.watchdog.deadline for chip, _ in armed), default=None
    )
    cycle = 0
    try:
        while True:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"{'program' if standalone else 'system'} did not "
                    f"finish within {max_cycles} cycles"
                )
            for chip, queues in pairs:
                chip.step_cycle(queues, cycle)
            cycle += 1
            for chip, queues in pairs:
                # a queue still burning a trailing NOP is not finished:
                # its delay is part of the program's timed behaviour
                if (
                    queues.live
                    or chip.events.pending
                    or cycle < queues.drain
                ):
                    break
            else:
                return cycle
            if deadline is not None and cycle >= deadline:
                for chip, queues in armed:
                    if cycle >= chip.watchdog.deadline:
                        chip.check_watchdog(queues, cycle)
            if standalone:
                for chip, queues in pairs:
                    if queues.deadlocked and not chip.events.pending:
                        raise SimulationError(
                            "barrier deadlock: Sync parked with no Notify"
                        )
    except BaseException:
        for chip in chips:
            chip.events.clear()
        raise

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

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import (
    Direction,
    Floorplan,
    Hemisphere,
    SliceAddress,
    SliceKind,
)
from ..arch.power import ActivityCounts
from ..arch.timing import TimingModel
from ..config import ArchConfig
from ..errors import SimulationError, TspError, WatchdogError
from ..isa.base import Instruction
from ..isa.program import IcuId, Program
from .c2c import C2cLink, C2cUnit
from .events import EventQueue, Phase
from .icu import BarrierController, QueueSet
from .memory import MemSliceUnit
from .mxm import MxmUnit, dark_planes
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
        self.chip_id = chip_id
        self.timing = timing or TimingModel()
        self.floorplan = Floorplan(config)
        self.srf = StreamRegisterFile(config, self.floorplan)
        self.strict_ifetch = strict_ifetch
        self.strict_c2c = strict_c2c
        self.trace_enabled = trace
        self.obs = None
        self.srf.on_drive = self._notify_drive

        if enable_ecc:
            self.srf.enable_ecc(True)

        self._units: dict[SliceAddress, FunctionalUnit] = {
            address: self._make_unit(address)
            for address in self.floorplan.slices
        }
        self.parts: dict[type, list] = {kind: [] for kind in STATE}
        for part in [self, self.srf, *self._units.values()]:
            self.parts[type(part)].append(part)
        self.parts[C2cLink] = [
            link for unit in self.parts[C2cUnit] for link in unit.links
        ]
        self.watched = [
            (part, name, entry.tag)
            for kind, parts in self.parts.items() for part in parts
            for name, entry in STATE[kind].items()
            if entry.tag in (INSTRUMENT, UNIT_FAULT)
        ]
        # the rest of every part's state is what a scrub leaves
        _FRESH(self.parts)

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
        return self.parts[MemSliceUnit]

    # ------------------------------------------------------------------
    def set_superlane_power(self, superlane: int, on: bool) -> None:
        if not 0 <= superlane < self.config.n_superlanes:
            raise SimulationError(f"superlane {superlane} does not exist")
        off = self.superlanes_off
        self.superlanes_off = off - {superlane} if on else off | {superlane}

    @property
    def keeps_dispatches(self) -> bool:
        """Whether each dispatch's :class:`TraceEvent` is kept on
        ``trace``, and each stream drive on ``drives``: the chip traces,
        or it charges a telemetry collector."""
        return self.trace_enabled or self.obs is not None

    def record_dispatch(
        self, icu: IcuId, name: str, instruction: Instruction, cycle: int,
        occupancy: int | None,
    ) -> None:
        """Account one dispatch on queue ``icu`` (``name`` is its label).

        Its :class:`TraceEvent` is built once, and only when the chip
        keeps it (the queue then passes ``occupancy``).  It is kept before
        the instruction executes, so the record of a run that faults
        holds the dispatch that faulted.
        """
        self.activity.instructions += 1
        if self.keeps_dispatches:
            self.trace.append(
                TraceEvent(cycle, name, icu, instruction, occupancy)
            )

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

        One collector per chip; attaching replaces any previous one.  Each
        finished run charges it once — with the dispatches and stream
        drives the chip kept, or, replayed, with its plan's
        (:meth:`repro.sim.replay.ReplayPlan.charge`) — and a chip with a
        collector replays like any other.  A :meth:`scrub` keeps it, so a
        pooled chip's collector counts every checkout's runs.
        """
        collector.bind(self)
        self.obs = collector

    def detach_telemetry(self) -> None:
        self.obs = None

    def _notify_drive(
        self, direction: Direction, stream: int, position: int
    ) -> None:
        """A stream register is about to be driven (before a collision
        can fault)."""
        if self.keeps_dispatches:
            self.drives.append((direction, stream, position, self.now))

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
            self.obs.charge(self.trace[trace_start:], self.drives, cycles)
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
            self.srf.step()
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
        kept; only the entries of :data:`STATE` keyed by the previous
        run's cycle numbers (``State.run``) get their fresh values, so
        back-to-back ``run()`` calls on one chip behave like runs on a
        freshly powered chip with warm memory.
        """
        _RUN_FRESH(self.parts)
        # anything still in flight drains off the edge during the idle
        # gap between runs; its remaining hops are billed to that gap —
        # callers snapshot hop_bytes_total after this, so neither run's
        # reported window is polluted by the other's traffic (nor is a
        # telemetry collector charged with the drain)
        self.srf.flush()

    def scrub(self) -> None:
        """Factory-reset the chip for checkout by a new program.

        ``begin_run`` keeps SRAM, installed weights and tallies warm for
        back-to-back runs of *one* program; a pooled chip handed to a
        *different* program (``repro.serve``) must be indistinguishable
        from a fresh one, so each entry of :data:`STATE` with a fresh
        value — benign, instrument, soft fault — gets it back, on the chip
        and on each of its parts.  Configuration (C2C wiring, ECC enables,
        strict modes, the telemetry collector) and physical damage (dead
        slices, link error models) survive.
        """
        _FRESH(self.parts)

    def make_queues(
        self, program: Program, warmup_barrier: bool = False
    ) -> QueueSet:
        queues = QueueSet(self, program, warmup_barrier)
        if self.keeps_dispatches:
            # a kept dispatch's occupancy: once per instruction object
            memo: dict[int, int] = {}  # id(instruction) -> occupancy >= 1
            for queue in queues:
                queue.occupancy = [memo.get(id(i)) or memo.setdefault(
                    id(i), instruction_duration(i, self.timing, self.config)
                ) for i in queue.instructions]
        return queues

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


# ---------------------------------------------------------------------------
# the chip's state, declared once
# ---------------------------------------------------------------------------

#: what a scrub and the replay verdict make of an attribute: a scrub keeps
#: *configuration* (its observers too: what is traced, the telemetry
#: collector); *benign* is what a program loads, a run leaves or is
#: told of it; while an *instrument* (watching or steering a run as it
#: goes) is set (truthy) the chip simulates, as it does a plan whose run
#: meets a set *unit fault*
CONFIGURATION, BENIGN, INSTRUMENT = "configuration", "benign", "instrument"
UNIT_FAULT = "unit fault"
#: the ``fresh`` of what a scrub keeps
KEPT = object()


@dataclass(frozen=True)
class State:
    """One attribute of a chip or of one of its parts (:data:`STATE`)."""

    tag: str
    """One of the four tags above."""
    doc: str
    """What the attribute holds."""
    fresh: object = KEPT
    """What construction and a scrub set: a new empty one of an empty
    container type (:data:`_EMPTY`), else ``fresh(part)`` if callable;
    :data:`KEPT` for configuration and physical damage."""
    run: bool = False
    """Keyed by a run's cycle numbers: each run begins with it fresh."""


def _emptied(srf: StreamRegisterFile, array: np.ndarray) -> np.ndarray:
    """``array`` of ``srf`` zeroed, unless nothing is live or corrupted
    and it already is (:meth:`StreamRegisterFile.flush`'s shortcut)."""
    if srf._n_live[0] or srf._n_live[1] or srf._dirty:
        array[...] = 0
    return array


#: what every functional unit holds: where it sits
_UNIT = {
    "chip": State(CONFIGURATION, "the chip the unit belongs to"),
    "address": State(CONFIGURATION, "the slice the unit models"),
    "name": State(CONFIGURATION, "``str(address)``, for error context"),
    "position": State(CONFIGURATION, "its stream-register position"),
}

#: every attribute of a chip and of its parts, by kind of part
STATE: dict[type, dict[str, State]] = {
    TspChip: {
        "config": State(CONFIGURATION, "the architecture"),
        "chip_id": State(CONFIGURATION, "identity in a multi-chip system"),
        "timing": State(CONFIGURATION, "the timing model"),
        "floorplan": State(CONFIGURATION, "where each slice sits"),
        "strict_ifetch": State(CONFIGURATION, "a dry queue faults"),
        "strict_c2c": State(CONFIGURATION, "an un-deskewed link faults"),
        "trace_enabled": State(CONFIGURATION, "dispatches are kept"),
        "srf": State(CONFIGURATION, "the stream register file"),
        "_units": State(CONFIGURATION, "the functional unit of each slice"),
        "parts": State(CONFIGURATION, "it and all its parts, by kind"),
        "watched": State(CONFIGURATION, "``(part, name, tag)`` to watch"),
        "trace": State(BENIGN, "the dispatches kept", list),
        "activity": State(BENIGN, "counters", lambda c: ActivityCounts()),
        "barrier": State(BENIGN, "this run's barrier", lambda c:
                         BarrierController(c.config.barrier_latency_cycles),
                         run=True),
        "now": State(BENIGN, "the cycle being stepped", 0),
        "obs": State(CONFIGURATION, "the telemetry collector each run "
                     "charges: an observer, like ``trace_enabled``"),
        "drives": State(BENIGN, "this run's stream drives, kept with "
                        "``trace``", list, run=True),
        "weights_installed_cycle": State(BENIGN, "last MXM install", None),
        "weights_installed_bytes": State(BENIGN, "bytes installed", 0),
        "watchdog": State(INSTRUMENT, "the armed deadline monitor", None),
        "events": State(INSTRUMENT, "pending events", lambda c: EventQueue()),
        "faults_injected": State(INSTRUMENT, "SRAM bits flipped", 0),
        "external_fault_hooks": State(INSTRUMENT, "checkout hooks", False),
        "superlanes_off": State(UNIT_FAULT, "powered down", set),
    },
    StreamRegisterFile: {
        "config": State(CONFIGURATION, "the architecture"),
        "floorplan": State(CONFIGURATION, "where each slice sits"),
        "_n_pos": State(CONFIGURATION, "positions along a stream"),
        "_n_streams": State(CONFIGURATION, "streams per direction"),
        "_ecc_enabled": State(CONFIGURATION, "values carry ECC checks"),
        "on_drive": State(CONFIGURATION, "called before a drive can fault"),
        "_hops": State(BENIGN, "hops so far, mod ``_n_pos``: the ring", 0),
        "_values": State(BENIGN, "values", lambda s: _emptied(s, s._values)),
        "_valid": State(BENIGN, "occupancy", lambda s: _emptied(s, s._valid)),
        "_checks": State(BENIGN, "checks", lambda s: _emptied(s, s._checks)),
        "_driven_this_cycle": State(BENIGN, "driven now", set),
        "_live": State(BENIGN, "live counts, by column", lambda s: ({}, {})),
        "_n_live": State(BENIGN, "their totals", lambda s: [0, 0]),
        "hop_bytes_total": State(BENIGN, "bytes that hopped", 0),
        "corrections": State(BENIGN, "corrected stream errors (CSR)", 0),
        "_dirty": State(BENIGN, "changed behind ``drive``: the next "
                        "flush zeroes it all, whatever is live", False),
    },
    MemSliceUnit: {
        **_UNIT,
        "n_words": State(CONFIGURATION, "words per slice"),
        "_storage": State(BENIGN, "SRAM words, made on first touch", None),
        "_checks": State(BENIGN, "their stored ECC checks", None),
        "_checks_valid_arr": State(BENIGN, "which checks are current", None),
        "_accesses": State(BENIGN, "this run's log", dict, run=True),
        "dead": State(UNIT_FAULT, "a hard failure: every access faults"),
    },
    MxmUnit: {**_UNIT, "planes": State(BENIGN, "weights", dark_planes)},
    VxmUnit: _UNIT,
    SxmUnit: _UNIT,
    C2cUnit: {**_UNIT, "links": State(CONFIGURATION, "its link endpoints")},
    C2cLink: {
        "index": State(CONFIGURATION, "the link's number on its unit"),
        "hemisphere": State(CONFIGURATION, "the hemisphere of its unit"),
        "peer": State(CONFIGURATION, "the ``(unit, link)`` it is wired to"),
        "latency": State(CONFIGURATION, "cycles a flight takes"),
        "deskewed": State(BENIGN, "deskew training done", False),
        "deskew_epoch": State(BENIGN, "``Deskew``s: a vector's epoch", 0),
        "rx_queue": State(BENIGN, "in flight", deque, run=True),
        "tx_seq": State(BENIGN, "egress sequence number", 0),
        "sent_vectors": State(BENIGN, "vectors sent", 0),
        "received_vectors": State(BENIGN, "vectors received", 0),
        "corrected": State(BENIGN, "FEC corrections (CSR)", 0),
        "retries": State(BENIGN, "retransmissions consumed (CSR)", 0),
        "uncorrectable": State(BENIGN, "transfers lost to FEC (CSR)", 0),
        "dropped": State(BENIGN, "vectors lost to a dead link (CSR)", 0),
        "error_model": State(UNIT_FAULT, "the egress's error process"),
    },
}


#: fresh values written into a refresh function's text as themselves
_LITERAL = (bool, int, type(None))
#: fresh container types, and the literal of a new empty one
_EMPTY = {list: "[]", dict: "{}", set: "set()", deque: "deque()"}


def _compile_refresh(run: bool):
    """``refresh(parts)``: give every entry of :data:`STATE` that has a
    fresh value (only the ``run`` ones, with ``run``) that value, on each
    part of ``parts`` — one function of literal stores, written from the
    state record once, as :mod:`dataclasses` writes an ``__init__``."""
    lines, scope = ["def refresh(parts):"], {"deque": deque}
    for k, (kind, record) in enumerate(STATE.items()):
        entries = [(name, e.fresh) for name, e in record.items()
                   if e.fresh is not KEPT and (e.run or not run)]
        if not entries:
            continue
        scope[f"kind{k}"] = kind
        lines.append(f"    for part in parts[kind{k}]:")
        # the callables first: each sees the part as it was
        for name, fresh in sorted(entries, key=lambda e: not callable(e[1])):
            if type(fresh) in _LITERAL:
                value = repr(fresh)
            elif isinstance(fresh, type) and fresh in _EMPTY:
                value = _EMPTY[fresh]
            else:
                value = f"fresh{k}_{name}" + ("(part)" if callable(fresh)
                                              else "")
                scope[f"fresh{k}_{name}"] = fresh
            lines.append(f"        part.{name} = {value}")
    exec("\n".join(lines), scope)
    return scope["refresh"]


_FRESH, _RUN_FRESH = _compile_refresh(run=False), _compile_refresh(run=True)

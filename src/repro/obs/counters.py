"""The counter registry, in its two kinds.

A :class:`CounterRegistry` is the whole book of a *host*: running totals
and high/low-water marks keyed ``unit`` → ``counter name``, behind one
lock, because a server is counted from many threads and lives for an
unbounded number of batches — it keeps no history, only what its readers
(``totals()``, ``snapshot()``) ask for.  A :class:`TelemetryCollector` is
the registry of a *chip*: the same totals and marks, plus the cycle each
increment happened at.

The collector is the observability analogue of the paper's determinism
argument: every instruction's time and place on the TSP is fixed by the
program, so *telemetry does not need to watch* — every counter increment
is a function of what ran, attributed to an exact cycle, bucketed into
fixed-width windows, and the result is a fact, not an estimate.

Its registry is hierarchical: counters are keyed ``domain:unit`` →
``counter name`` → ``window index`` → value, e.g.

    mem:MEM_W3   read_bytes / write_bytes
    icu:MEM_W3   dispatches / dispatch_cycles / stall_cycles /
                 parked_cycles / ifetch_bytes
    mxm:MXM_E.plane0   macc_ops / weight_bytes
    vxm:alu5     alu_ops
    sxm:SXM_E    bytes
    c2c:C2C_E.link0    sent_bytes / received_bytes
    srf:E, srf:W       hop_bytes / occupancy_cycles

plus scalar high/low-water marks (instruction-queue depth).

**One count.**  A chip charges its collector once per finished run, with
the run's dispatches (:class:`~repro.sim.chip.TraceEvent` s), its stream
drives and its cycle count (:meth:`TelemetryCollector.charge`).  Each
count is the one the chip's own activity tally makes of the same event,
at the cycle the bound chip's timing model puts it: a dispatch's unit
work at its skew or functional delay, a queue's stall over its occupancy,
a parked ``Sync`` until its ``Notify`` releases, an ``Ifetch`` refill
through the queue's text budget, a stream value over every register it
occupies.  A simulated run hands over what the chip kept; a replayed one
(:meth:`repro.sim.replay.ReplayPlan.charge`) its plan's dispatches and
drives — so a chip with a collector replays like any other, and
:meth:`rollup` equals the run's ``RunResult.activity`` on either route.
The one count a run must be watched for is a C2C link's fault-protocol
events under an error model (:meth:`TelemetryCollector.on_link_event`).

Collectors are opt-in: a chip with no collector attached runs no
telemetry code at all.
"""

from __future__ import annotations

import threading
from ..arch.power import ActivityCounts

#: the mnemonics of the VXM's ALU work and of the SXM's routes
_ALU = frozenset(("UnaryOp", "BinaryOp", "Convert"))
_ROUTES = frozenset(
    ("Shift", "Select", "Permute", "Distribute", "Rotate", "Transpose")
)

def _by_unit(flat: dict[tuple[str, str], int]) -> dict[str, dict[str, int]]:
    """``(unit, counter) -> value`` nested as ``unit -> counter -> value``."""
    nested: dict[str, dict[str, int]] = {}
    for (unit, name), value in flat.items():
        nested.setdefault(unit, {})[name] = value
    return nested


class CounterRegistry:
    """Thread-safe running totals and high/low-water marks.

    Keys are ``unit`` → ``counter name`` (``serve:cnn`` → ``batches``,
    ``slo:cnn`` → ``hits``).  Every write and every read-out takes the
    registry's lock, so concurrent writers never lose an update and a
    read-out is one consistent image.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._lock = threading.Lock()
        #: (unit, counter) -> running total
        self._totals: dict[tuple[str, str], int] = {}
        #: (unit, counter) -> extremum scalars (queue depth marks)
        self._high: dict[tuple[str, str], int] = {}
        self._low: dict[tuple[str, str], int] = {}

    def count(self, unit: str, counter: str, amount: int = 1) -> None:
        key = (unit, counter)
        with self._lock:
            self._totals[key] = self._totals.get(key, 0) + amount

    def mark_high(self, unit: str, counter: str, value: int) -> None:
        key = (unit, counter)
        with self._lock:
            if key not in self._high or value > self._high[key]:
                self._high[key] = value

    def mark_low(self, unit: str, counter: str, value: int) -> None:
        key = (unit, counter)
        with self._lock:
            if key not in self._low or value < self._low[key]:
                self._low[key] = value

    def totals(self) -> dict[str, dict[str, int]]:
        """Running totals per unit."""
        with self._lock:
            flat = dict(self._totals)
        return _by_unit(flat)

    def snapshot(self) -> dict:
        """JSON-able image of every total and scalar, one consistent read."""
        with self._lock:
            totals, marks = dict(self._totals), {**self._high, **self._low}
        return {"totals": _by_unit(totals), "scalars": _by_unit(marks)}


class TelemetryCollector(CounterRegistry):
    """Hierarchical per-unit perf counters in fixed-width cycle windows.

    Attach to a chip with :meth:`~repro.sim.chip.TspChip.attach_telemetry`;
    the chip :meth:`charge` s it with every run it finishes.  One collector
    is meant to observe one chip; cycle numbering restarts at 0 on every
    ``run()``, so windows of back-to-back runs on the same chip alias onto
    each other (totals stay exact; attach a fresh collector per run when
    per-window data matters).

    One chip runs on one thread, so a charge (and :meth:`count`, which
    here takes the cycle the amount belongs to) writes the inherited
    dicts directly, without the lock.

    ``dispatch_log`` keeps the chip's :class:`~repro.sim.chip.TraceEvent`
    of every dispatch it was charged with — the chip builds each event
    once, with its occupancy, and a chip's ``trace`` holds the same
    objects.  The collector keeps its own list because a chip's trace
    does not outlive ``scrub()``; the trace builder draws the log, and
    its flow arrows place each queue with the geometry :meth:`bind`
    remembered.
    """

    def __init__(
        self, window_cycles: int = 256, name: str | None = None
    ) -> None:
        if window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        super().__init__(name=name)
        self.window_cycles = window_cycles
        #: (unit, counter) -> {window index -> amount}; the inherited
        #: running total of a counter == the sum of its windows
        self._windows: dict[tuple[str, str], dict[int, int]] = {}
        #: cycles of the runs charged
        self.cycles = 0
        #: the chip's ``TraceEvent`` per dispatch, for the trace builder
        self.dispatch_log: list = []
        # bound at attach time: the geometry and timing a charge reads
        self.config = None
        self.floorplan = None
        self.timing = None
        #: ``(MXM, plane) -> rows * cols`` of the tile each plane holds
        self._tiles: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def bind(self, chip) -> None:
        """Remember the observed chip's geometry and timing model, and the
        tile each of its MXM planes holds: a plane keeps its weights from
        run to run, so a run may multiply by a tile installed before."""
        from ..sim.mxm import MxmUnit

        self.config = chip.config
        self.floorplan = chip.floorplan
        self.timing = chip.timing
        self._tiles = {
            (unit.name, k): plane.rows * plane.cols
            for unit in chip.parts[MxmUnit]
            for k, plane in enumerate(unit.planes)
        }

    # ------------------------------------------------------------------
    # primitive accumulation
    # ------------------------------------------------------------------
    def _bucket(self, key: tuple[str, str]) -> dict[int, int]:
        """Resolve (registering if new) the window dict of one counter."""
        buckets = self._windows.get(key)
        if buckets is None:
            buckets = self._windows[key] = {}
            self._totals[key] = 0
        return buckets

    def count(self, unit: str, counter: str, cycle: int, amount: int = 1) -> None:
        """Attribute ``amount`` to the window containing ``cycle``."""
        key = (unit, counter)
        window = cycle // self.window_cycles
        buckets = self._bucket(key)
        buckets[window] = buckets.get(window, 0) + amount
        self._totals[key] += amount

    def count_span(
        self,
        unit: str,
        counter: str,
        start_cycle: int,
        n_cycles: int,
        per_cycle: int = 1,
    ) -> None:
        """Attribute ``per_cycle`` to each of ``n_cycles`` starting at
        ``start_cycle``, distributed over windows in closed form.

        Bit-identical to calling :meth:`count` once per covered cycle.
        """
        if n_cycles <= 0 or per_cycle == 0:
            return
        key = (unit, counter)
        width = self.window_cycles
        buckets = self._bucket(key)
        first = start_cycle // width
        last = (start_cycle + n_cycles - 1) // width
        if first == last:
            buckets[first] = buckets.get(first, 0) + n_cycles * per_cycle
        else:
            head = (first + 1) * width - start_cycle
            buckets[first] = buckets.get(first, 0) + head * per_cycle
            full = width * per_cycle
            for w in range(first + 1, last):
                buckets[w] = buckets.get(w, 0) + full
            tail = start_cycle + n_cycles - last * width
            buckets[last] = buckets.get(last, 0) + tail * per_cycle
        self._totals[key] += n_cycles * per_cycle

    # ------------------------------------------------------------------
    # what a run leaves
    # ------------------------------------------------------------------
    def charge(self, trace: list, drives: list, cycles: int) -> None:
        """Count one finished run of the bound chip from what it ran.

        ``trace`` is its dispatches in the order the chip made them (a
        ``Repeat``'s iterations right behind it), ``drives`` its stream
        drives ``(direction, stream, position, cycle)`` and ``cycles``
        its length.
        """
        self.cycles += cycles
        self.dispatch_log.extend(trace)
        self._charge_queues(self._charge_units(trace), trace)
        self._charge_streams(drives, cycles)

    def _charge_units(self, trace: list) -> dict[str, list]:
        """What each dispatch does on its unit, when the timing model says
        it happens; returns each queue's own dispatches, in order."""
        timing, lanes = self.timing, self.config.n_lanes
        count = self.count
        steps: dict[str, list] = {}
        # MXM installs and samples, in (cycle, dispatch order): a plane's
        # MACCs are its installed tile's size when the sample is taken
        planes: list[tuple] = []
        iterations = 0
        for order, event in enumerate(trace):
            t, ins, kind = event.cycle, event.instruction, event.mnemonic
            count(f"icu:{event.icu}", "dispatches", t)
            if iterations:  # a Repeat's, issued by the unit
                iterations -= 1
            else:
                steps.setdefault(event.icu, []).append(event)
                iterations = ins.n if kind == "Repeat" else 0
            unit = str(event.queue.address)
            if kind == "Read":
                count(f"mem:{unit}", "read_bytes", t, lanes)
            elif kind == "Gather":
                count(f"mem:{unit}", "read_bytes", t + ins.dskew(timing), lanes)
            elif kind in ("Write", "Scatter"):
                count(f"mem:{unit}", "write_bytes", t + ins.dskew(timing), lanes)
            elif kind in _ALU:
                count(f"vxm:alu{event.queue.unit}", "alu_ops",
                      t + ins.dfunc(timing), lanes)
            elif kind in _ROUTES:
                streams = (ins.n * ins.n if kind == "Rotate" else
                           self.config.lanes_per_superlane
                           if kind == "Transpose" else 1)
                count(f"sxm:{unit}", "bytes", t + ins.dfunc(timing),
                      streams * lanes)
            elif kind == "Send":
                count(f"c2c:{unit}.link{ins.link}", "sent_bytes",
                      t + ins.dskew(timing), lanes)
            elif kind == "Receive":
                landed = t + ins.dfunc(timing)
                count(f"c2c:{unit}.link{ins.link}", "received_bytes",
                      landed, lanes)
                mem = self.floorplan.mem_slice(event.queue.address.hemisphere,
                                               ins.mem_slice)
                count(f"mem:{mem}", "write_bytes", landed, lanes)
            elif kind == "IW":
                done = t + ins.dskew(timing) + (
                    0 if ins.from_buffer else ins.install_cycles(lanes) - 1
                )
                size = ins.rows * ins.cols
                count(f"mxm:{unit}.plane{ins.plane}", "weight_bytes", done,
                      size * ins.dtype.n_bytes)
                planes.append((done, order, unit, ins.plane, size))
            elif kind == "ABC":
                sample = t + ins.dskew(timing)
                planes += [(sample + k, order, unit, ins.plane, None)
                           for k in range(ins.n_vectors)]
        tile = self._tiles
        for at, _order, unit, plane, size in sorted(
            planes, key=lambda entry: entry[:2]
        ):
            if size is not None:
                tile[unit, plane] = size
            else:
                count(f"mxm:{unit}.plane{plane}", "macc_ops", at,
                      tile[unit, plane])
        return steps

    def _charge_queues(self, steps: dict[str, list], trace: list) -> None:
        """Each queue's dispatch slots, stalls, parked spans and text
        supply: a ``NOP n`` or a ``Repeat`` holds its queue for its
        occupancy, a ``Sync`` parks until the first ``Notify`` release at
        or after it, and the queue's buffer starts with as much of its
        program text as fits, pays each dispatch's encoded size and takes
        an ``Ifetch``'s refill when it lands (before that cycle's
        dispatch)."""
        from ..isa.encoding import encoded_length
        from ..sim.icu import RESET_SEQUENCE

        config, timing, count = self.config, self.timing, self.count
        capacity, fetch = config.iq_capacity_bytes, config.ifetch_bytes
        releases = sorted(e.cycle + config.barrier_latency_cycles
                          for e in trace if e.mnemonic == "Notify")
        reset = {id(instruction) for instruction in RESET_SEQUENCE}
        for name, queue in steps.items():
            unit = f"icu:{name}"
            self._bucket((unit, "stall_cycles"))  # a queue has one, if 0
            sizes = [encoded_length(e.instruction) for e in queue]
            text = sum(size for e, size in zip(queue, sizes)
                       if id(e.instruction) not in reset)
            buffer = min(text, capacity)
            unfetched = text - buffer
            self.mark_high(unit, "iq_high_water_bytes", buffer)
            self.mark_low(unit, "iq_low_water_bytes", buffer)
            # each refill lands (None) ahead of its cycle's dispatch
            timeline = sorted(
                [(e.cycle + e.instruction.dfunc(timing), 0, None, 0)
                 for e in queue if e.mnemonic == "Ifetch"]
                + [(e.cycle, 1, e, size) for e, size in zip(queue, sizes)],
                key=lambda entry: entry[:2],
            )
            for t, _phase, event, size in timeline:
                if event is None:
                    take = max(0, min(fetch, unfetched, capacity - buffer))
                    unfetched -= take
                    buffer += take
                    count(unit, "ifetch_bytes", t, take)
                    self.mark_high(unit, "iq_high_water_bytes", buffer)
                    continue
                buffer = max(buffer, size) - size
                count(unit, "dispatch_cycles", t)
                if event.mnemonic in ("NOP", "Repeat"):
                    self.count_span(unit, "stall_cycles", t + 1,
                                    event.occupancy - 1)
                elif event.mnemonic == "Sync":
                    release = next(r for r in releases if r >= t)
                    self.count_span(unit, "parked_cycles", t + 1,
                                    release - t - 1)
                self.mark_low(unit, "iq_low_water_bytes", buffer)

    def _charge_streams(self, drives: list, cycles: int) -> None:
        """Each stream value's registers: one occupied per cycle, and a
        hop's bytes for each it lands on (:func:`repro.sim.replay.flights`)."""
        from ..sim.replay import flights

        if not drives:
            return
        for direction in "EW":  # registered together, whichever flowed
            self._bucket((f"srf:{direction}", "hop_bytes"))
            self._bucket((f"srf:{direction}", "occupancy_cycles"))
        lanes = self.config.n_lanes
        for direction, t, hops, occupancy in flights(
            drives, self.floorplan.n_positions, cycles
        ):
            unit = f"srf:{direction.value}"
            self.count_span(unit, "occupancy_cycles", t, occupancy)
            self.count_span(unit, "hop_bytes", t, hops, lanes)

    def on_link_event(
        self, unit_name: str, link: int, cycle: int, kind: str, n: int = 1
    ) -> None:
        """A link fault-protocol event: ``corrected`` / ``retry`` /
        ``uncorrectable`` / ``dropped`` (see repro.sim.c2c) — what an error
        model draws, so the run reports it as it happens."""
        self.count(f"c2c:{unit_name}.link{link}", f"{kind}_events", cycle, n)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical, JSON-able image of every counter and scalar.

        Dict comparison is order-blind, so two runs of one program give
        equal snapshots whatever order their counters were charged in.
        """
        counters: dict[str, dict[str, dict[str, int]]] = {}
        for (unit, name), buckets in self._windows.items():
            counters.setdefault(unit, {})[name] = {
                str(w): buckets[w] for w in sorted(buckets)
            }
        return {
            "window_cycles": self.window_cycles,
            "cycles": self.cycles,
            "counters": counters,
            "scalars": _by_unit({**self._high, **self._low}),
        }

    def windows_for(self, unit: str, counter: str) -> dict[int, int]:
        """The window series of one counter (empty dict if never touched)."""
        return dict(self._windows.get((unit, counter), {}))

    def domain_windows(self, domain: str, counter: str) -> dict[int, int]:
        """Window series summed over every unit of one domain prefix."""
        merged: dict[int, int] = {}
        prefix = domain + ":"
        for (unit, name), buckets in self._windows.items():
            if name == counter and unit.startswith(prefix):
                for w, v in buckets.items():
                    merged[w] = merged.get(w, 0) + v
        return merged

    def rollup(self) -> ActivityCounts:
        """The coarse :class:`ActivityCounts` view of the fine registry.

        Exactly equals the chip's own ``RunResult.activity`` window for
        the run(s) this collector observed — asserted by the telemetry
        test suite — making the flat power-model tally a derived view of
        the counter hierarchy rather than an independent set of books.
        """
        return ActivityCounts.from_fine(self.totals(), cycles=self.cycles)


class AutoTelemetry:
    """Attach a fresh collector to every chip constructed while active.

    Used by ``python -m repro.obs <script.py>`` to profile an unmodified
    script: set :attr:`repro.sim.chip.TspChip.auto_telemetry` to an
    instance, run the script, and read ``collectors``.
    """

    def __init__(self, window_cycles: int = 256) -> None:
        self.window_cycles = window_cycles
        self.collectors: list[TelemetryCollector] = []

    def register(self, chip) -> TelemetryCollector:
        collector = TelemetryCollector(
            window_cycles=self.window_cycles,
            name=f"chip{len(self.collectors)}",
        )
        chip.attach_telemetry(collector)
        self.collectors.append(collector)
        return collector

    def install(self) -> "AutoTelemetry":
        from ..sim.chip import TspChip

        TspChip.auto_telemetry = self
        return self

    def uninstall(self) -> None:
        from ..sim.chip import TspChip

        if TspChip.auto_telemetry is self:
            TspChip.auto_telemetry = None

    def __enter__(self) -> "AutoTelemetry":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

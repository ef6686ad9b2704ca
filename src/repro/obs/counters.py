"""The counter registry, in its two kinds.

A :class:`CounterRegistry` is the whole book of a *host*: running totals
and high/low-water marks keyed ``unit`` → ``counter name``, behind one
lock, because a server is counted from many threads and lives for an
unbounded number of batches — it keeps no history, only what its readers
(``totals()``, ``snapshot()``) ask for.  A :class:`TelemetryCollector` is
the registry of a *chip*: the same totals and marks, plus the cycle each
increment happened at.

The collector is the observability analogue of the paper's determinism
argument: because every state transition on the TSP happens at a
compiler-known cycle, *telemetry does not need to sample* — every counter
increment can be attributed to an exact cycle, bucketed into fixed-width
windows, and the result is a fact, not an estimate.

Its registry is hierarchical: counters are keyed ``domain:unit`` →
``counter name`` → ``window index`` → value, e.g.

    mem:MEM_W3   read_bytes / write_bytes / bank_conflicts
    icu:MEM_W3   dispatches / dispatch_cycles / stall_cycles /
                 parked_cycles / ifetch_bytes
    mxm:MXM_E.plane0   macc_ops / weight_bytes
    vxm:alu5     alu_ops
    sxm:SXM_E    bytes
    c2c:C2C_E.link0    sent_bytes / received_bytes
    srf:E, srf:W       hop_bytes / occupancy_cycles

plus scalar high/low-water marks (instruction-queue depth).

**Exactness.**  Counters fall into two classes:

* *Transition-attributed* counters (dispatches, SRAM bytes, MACCs, ALU
  ops, stall/parked spans) are incremented at state transitions —
  dispatches and scheduled events.  Multi-cycle spans (a ``NOP 500``'s
  occupancy, a parked ``Sync``) are known in full at the transition that
  starts or ends them, so :meth:`count_span` distributes them over
  windows in closed form.
* *Flow-counted* counters (stream hop bytes, per-direction SRF
  occupancy) change on every cycle a value is in flight; the stream
  register file reports each hop's totals to :meth:`on_stream_flow`.

A collector counts only what its chip simulates.  A chip with one
attached never replays a plan (:mod:`repro.sim.replay` refuses
it as it refuses a checker), so every count is a transition the collector
watched, and :meth:`rollup` equals the run's own ``RunResult.activity``.

Collectors are opt-in: a chip with no collector attached executes zero
telemetry code beyond one ``is not None`` test per instrumentation site
(and none per cycle).
"""

from __future__ import annotations

import threading
from ..arch.power import ActivityCounts

# registry keys of the four SRF counters — the only ones touched on every
# live cycle, so the hot paths below pre-resolve their buckets
_SRF_E_HOP = ("srf:E", "hop_bytes")
_SRF_W_HOP = ("srf:W", "hop_bytes")
_SRF_E_OCC = ("srf:E", "occupancy_cycles")
_SRF_W_OCC = ("srf:W", "occupancy_cycles")


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
    every instrumentation hook in the simulator feeds it.  One collector
    is meant to observe one chip; cycle numbering restarts at 0 on every
    ``run()``, so windows of back-to-back runs on the same chip alias onto
    each other (totals stay exact; attach a fresh collector per run when
    per-window data matters).

    One chip runs on one thread, so the hooks (and :meth:`count`, which
    here takes the cycle the amount belongs to) write the inherited
    dicts directly, without the lock.
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
        #: observed cycles, accumulated by ``on_run_end``
        self.cycles = 0
        #: (cycle, IcuId, Instruction) per dispatch, for the trace builder
        self.dispatch_log: list[tuple] = []
        # hot-path caches: pre-resolved (key, bucket) slots for the
        # counters touched on every dispatch and every live SRF cycle,
        # so those hooks skip :meth:`count`'s key construction + lookups
        self._dispatch_state: dict = {}
        self._icu_state: dict = {}
        self._mem_state: dict = {}
        self._srf_eh: dict[int, int] | None = None
        self._srf_wh: dict[int, int] | None = None
        self._srf_eo: dict[int, int] | None = None
        self._srf_wo: dict[int, int] | None = None
        # bound at attach time (used by the trace/attribution layers)
        self.config = None
        self.floorplan = None
        self.timing = None

    # ------------------------------------------------------------------
    def bind(self, chip) -> None:
        """Remember the observed chip's geometry and timing model."""
        self.config = chip.config
        self.floorplan = chip.floorplan
        self.timing = chip.timing

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
        buckets = self._windows.get(key)
        if buckets is None:
            buckets = self._windows[key] = {}
            self._totals[key] = 0
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
        buckets = self._windows.get(key)
        if buckets is None:
            buckets = self._windows[key] = {}
            self._totals[key] = 0
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
    # simulator hooks (see the instrumentation sites in repro.sim)
    # ------------------------------------------------------------------
    def on_dispatch(self, cycle: int, icu, instruction) -> None:
        """Every dispatched instruction, including Repeat iterations."""
        state = self._dispatch_state.get(icu)
        if state is None:
            key = (f"icu:{icu}", "dispatches")
            state = self._dispatch_state[icu] = (key, self._bucket(key))
        key, buckets = state
        window = cycle // self.window_cycles
        buckets[window] = buckets.get(window, 0) + 1
        self._totals[key] += 1
        self.dispatch_log.append((cycle, icu, instruction))

    def on_icu_dispatch(
        self,
        icu_name: str,
        cycle: int,
        instruction,
        busy_until: int,
        buffer_bytes: int,
    ) -> None:
        """A queue consumed one dispatch slot (Repeat iterations excluded)."""
        state = self._icu_state.get(icu_name)
        if state is None:
            unit = f"icu:{icu_name}"
            dc_key = (unit, "dispatch_cycles")
            sc_key = (unit, "stall_cycles")
            state = self._icu_state[icu_name] = (
                dc_key,
                self._bucket(dc_key),
                sc_key,
                self._bucket(sc_key),
                (unit, "iq_low_water_bytes"),
            )
        dc_key, dc_buckets, sc_key, sc_buckets, low_key = state
        width = self.window_cycles
        window = cycle // width
        dc_buckets[window] = dc_buckets.get(window, 0) + 1
        totals = self._totals
        totals[dc_key] += 1
        if busy_until > cycle + 1:
            # NOP burn, Repeat pacing, multi-cycle occupancy: the queue is
            # stalled (cannot dispatch) from cycle+1 until busy_until —
            # same closed-form window split as count_span, inlined
            start = cycle + 1
            first = start // width
            last = (busy_until - 1) // width
            if first == last:
                sc_buckets[first] = (
                    sc_buckets.get(first, 0) + busy_until - start
                )
            else:
                head = (first + 1) * width - start
                sc_buckets[first] = sc_buckets.get(first, 0) + head
                for w in range(first + 1, last):
                    sc_buckets[w] = sc_buckets.get(w, 0) + width
                tail = busy_until - last * width
                sc_buckets[last] = sc_buckets.get(last, 0) + tail
            totals[sc_key] += busy_until - start
        low = self._low
        if low_key not in low or buffer_bytes < low[low_key]:
            low[low_key] = buffer_bytes

    def on_icu_parked(
        self, icu_name: str, park_cycle: int, release_cycle: int
    ) -> None:
        """A parked ``Sync`` released; bill the wait to its span."""
        self.count_span(
            f"icu:{icu_name}",
            "parked_cycles",
            park_cycle + 1,
            release_cycle - park_cycle - 1,
        )

    def on_iq_depth(self, icu_name: str, buffer_bytes: int) -> None:
        unit = f"icu:{icu_name}"
        self.mark_high(unit, "iq_high_water_bytes", buffer_bytes)
        self.mark_low(unit, "iq_low_water_bytes", buffer_bytes)

    def on_ifetch(
        self, icu_name: str, cycle: int, n_bytes: int, buffer_bytes: int
    ) -> None:
        unit = f"icu:{icu_name}"
        self.count(unit, "ifetch_bytes", cycle, n_bytes)
        self.mark_high(unit, "iq_high_water_bytes", buffer_bytes)

    def on_mem_traffic(
        self, slice_name: str, cycle: int, kind: str, n_bytes: int
    ) -> None:
        state = self._mem_state.get((slice_name, kind))
        if state is None:
            key = (f"mem:{slice_name}", f"{kind}_bytes")
            state = self._mem_state[(slice_name, kind)] = (
                key, self._bucket(key),
            )
        key, buckets = state
        window = cycle // self.window_cycles
        buckets[window] = buckets.get(window, 0) + n_bytes
        self._totals[key] += n_bytes

    def on_bank_conflict(self, slice_name: str, cycle: int) -> None:
        self.count(f"mem:{slice_name}", "bank_conflicts", cycle)

    def on_macc(
        self, unit_name: str, plane: int, cycle: int, n_ops: int
    ) -> None:
        self.count(f"mxm:{unit_name}.plane{plane}", "macc_ops", cycle, n_ops)

    def on_weights(
        self, unit_name: str, plane: int, cycle: int, n_bytes: int
    ) -> None:
        self.count(
            f"mxm:{unit_name}.plane{plane}", "weight_bytes", cycle, n_bytes
        )

    def on_alu(self, alu: int, cycle: int, n_ops: int) -> None:
        self.count(f"vxm:alu{alu}", "alu_ops", cycle, n_ops)

    def on_sxm(self, unit_name: str, cycle: int, n_bytes: int) -> None:
        self.count(f"sxm:{unit_name}", "bytes", cycle, n_bytes)

    def on_c2c(
        self, unit_name: str, link: int, cycle: int, kind: str, n_bytes: int
    ) -> None:
        self.count(f"c2c:{unit_name}.link{link}", f"{kind}_bytes", cycle, n_bytes)

    def on_link_event(
        self, unit_name: str, link: int, cycle: int, kind: str, n: int = 1
    ) -> None:
        """A link fault-protocol event: ``corrected`` / ``retry`` /
        ``uncorrectable`` / ``dropped`` (see repro.sim.c2c)."""
        self.count(f"c2c:{unit_name}.link{link}", f"{kind}_events", cycle, n)

    def on_run_end(self, final_cycle: int) -> None:
        self.cycles += final_cycle

    # ------------------------------------------------------------------
    def _init_srf(self) -> None:
        """Resolve and cache the four SRF counter buckets.

        All four are registered together on the first live hop, whichever
        direction carried it.
        """
        self._srf_eh = self._bucket(_SRF_E_HOP)
        self._srf_wh = self._bucket(_SRF_W_HOP)
        self._srf_eo = self._bucket(_SRF_E_OCC)
        self._srf_wo = self._bucket(_SRF_W_OCC)

    def on_stream_flow(
        self,
        cycle: int,
        lanes: int,
        live_e: int,
        hops_e: int,
        fell_e: int,
        live_w: int,
        hops_w: int,
        fell_w: int,
    ) -> None:
        """Charge the stream hop that completes ``cycle``.

        Per direction, ``live`` values were in flight, ``hops`` of them
        landed on the next register and ``fell`` left the chip.  Those
        integers settle the whole charge: the hop charge is ``hops *
        lanes`` and the occupancy is ``hops + fell`` (a value that leaves
        still occupied its register this cycle, but is never billed the
        hop — the same contract as ``StreamRegisterFile.hop_bytes_total``).
        """
        if live_e == 0 and live_w == 0:
            return
        eh = self._srf_eh
        if eh is None:
            self._init_srf()
            eh = self._srf_eh
        totals = self._totals
        window = cycle // self.window_cycles
        if live_e:
            occ = hops_e + fell_e
            eo = self._srf_eo
            eo[window] = eo.get(window, 0) + occ
            totals[_SRF_E_OCC] += occ
            if hops_e:
                amount = hops_e * lanes
                eh[window] = eh.get(window, 0) + amount
                totals[_SRF_E_HOP] += amount
        if live_w:
            occ = hops_w + fell_w
            wo = self._srf_wo
            wo[window] = wo.get(window, 0) + occ
            totals[_SRF_W_OCC] += occ
            if hops_w:
                wh = self._srf_wh
                amount = hops_w * lanes
                wh[window] = wh.get(window, 0) + amount
                totals[_SRF_W_HOP] += amount

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical, JSON-able image of every counter and scalar.

        Dict comparison is order-blind, so two simulations of one program
        give equal snapshots even where hook order differs *within* a
        cycle.
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

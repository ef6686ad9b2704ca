"""Dataflow-aware Perfetto/Chrome trace building.

Converts one or more observed runs into the Chrome trace-event JSON that
``chrome://tracing`` / https://ui.perfetto.dev render:

* one *process* (pid) per chip, one *thread* (tid) per instruction queue;
* ``"X"`` duration spans per dispatched instruction with **true
  durations** derived from the timing model (``d_func``/``d_skew``, NOP
  counts, Repeat cadences, MXM install/stream lengths) rather than a
  fixed one-cycle slice;
* ``"C"`` counter tracks sampled from the telemetry windows (SRAM
  traffic, MACCs, ALU ops, SRF occupancy);
* ``"s"``/``"f"`` flow arrows from each producing drive to the consumers
  that sample the value downstream — computable exactly because a stream
  value's trajectory is ``position ± (t - t0)``: eastward producer/
  consumer pairs share the invariant ``t - p``, westward ``t + p``;
* optional ``schedule.intent`` rows replaying the stream drives the
  compiler promised (:class:`~repro.compiler.schedule.ScheduleIntent`)
  next to what actually ran: one one-cycle span per direction, position
  and cycle, naming the streams driven there.

Timestamps are microseconds of simulated time (the unit the Chrome trace
format expects); one cycle at ``clock_ghz`` GHz is ``1e-3 / clock_ghz``
microseconds.
"""

from __future__ import annotations

import json

from ..arch.geometry import Direction
from ..errors import IsaError
from ..isa.c2c import Receive, Send
from ..isa.icu import Ifetch, Nop, Repeat
from ..isa.mem import Gather, Read, Scatter, Write
from ..isa.mxm import (
    Accumulate,
    ActivationBufferControl,
    InstallWeights,
    LoadWeights,
)
from ..isa.sxm import Distribute, Permute, Rotate, Select, Shift, Transpose
from ..isa.vxm import BinaryOp, Convert, UnaryOp
from ..sim.tracer import mnemonic_duration

#: domain-level counter tracks emitted when a collector is given
_COUNTER_TRACKS = (
    ("mem", "read_bytes", "MEM read bytes"),
    ("mem", "write_bytes", "MEM write bytes"),
    ("mxm", "macc_ops", "MXM MACCs"),
    ("vxm", "alu_ops", "VXM ALU ops"),
    ("sxm", "bytes", "SXM bytes"),
    ("srf", "occupancy_cycles", "SRF live values"),
    ("srf", "hop_bytes", "SRF hop bytes"),
)


def instruction_duration(instruction, timing, config) -> int:
    """True occupancy of one instruction, in cycles.

    The span a profiler should draw: from dispatch until the instruction's
    last architecturally-timed effect (result drive, final operand sample,
    NOP expiry).  Always >= 1.
    """
    if isinstance(instruction, Nop):
        return max(1, instruction.count)
    if isinstance(instruction, Repeat):
        return max(1, (instruction.n - 1) * instruction.d + 1)
    if isinstance(instruction, InstallWeights):
        skew = instruction.dskew(timing)
        if instruction.from_buffer:
            return max(1, skew + 1)
        return max(1, skew + instruction.install_cycles(config.n_lanes))
    if isinstance(instruction, ActivationBufferControl):
        return max(1, instruction.dskew(timing) + instruction.n_vectors)
    if isinstance(instruction, Accumulate):
        return max(1, instruction.dfunc(timing) + instruction.n_vectors)
    try:
        return max(
            1, instruction.dfunc(timing), instruction.dskew(timing) + 1
        )
    except IsaError:
        return 1


# ----------------------------------------------------------------------
# stream endpoints, for flow arrows
# ----------------------------------------------------------------------
def instruction_endpoints(instruction, cycle, position, timing, config):
    """(drives, captures) of one dispatch, as (direction, stream, pos, t).

    Best-effort: instruction classes with no stream traffic (or unknown
    extensions) return empty lists, which simply means no flow arrows.
    """
    drives: list[tuple] = []
    captures: list[tuple] = []

    def dfunc():
        return instruction.dfunc(timing)

    def dskew():
        return instruction.dskew(timing)

    if isinstance(instruction, Read):
        drives.append(
            (instruction.direction, instruction.stream, position,
             cycle + dfunc())
        )
    elif isinstance(instruction, Write):
        captures.append(
            (instruction.direction, instruction.stream, position,
             cycle + dskew())
        )
    elif isinstance(instruction, Gather):
        captures.append(
            (instruction.map_direction, instruction.map_stream, position,
             cycle + dskew())
        )
        drives.append(
            (instruction.direction, instruction.stream, position,
             cycle + dfunc())
        )
    elif isinstance(instruction, Scatter):
        t = cycle + dskew()
        captures.append(
            (instruction.direction, instruction.map_stream, position, t)
        )
        captures.append(
            (instruction.direction, instruction.stream, position, t)
        )
    elif isinstance(instruction, UnaryOp):
        t = cycle + dskew()
        for k in range(instruction.dtype.n_streams):
            captures.append(
                (instruction.src_direction, instruction.src_stream + k,
                 position, t)
            )
        out = cycle + dfunc()
        for k in range(instruction.dtype.n_streams):
            drives.append(
                (instruction.dst_direction, instruction.dst_stream + k,
                 position, out)
            )
    elif isinstance(instruction, BinaryOp):
        t = cycle + dskew()
        for k in range(instruction.dtype.n_streams):
            captures.append(
                (instruction.src1_direction, instruction.src1_stream + k,
                 position, t)
            )
            captures.append(
                (instruction.src2_direction, instruction.src2_stream + k,
                 position, t)
            )
        out = cycle + dfunc()
        for k in range(instruction.dtype.n_streams):
            drives.append(
                (instruction.dst_direction, instruction.dst_stream + k,
                 position, out)
            )
    elif isinstance(instruction, Convert):
        t = cycle + dskew()
        for k in range(instruction.from_dtype.n_streams):
            captures.append(
                (instruction.src_direction, instruction.src_stream + k,
                 position, t)
            )
        out = cycle + dfunc()
        for k in range(instruction.to_dtype.n_streams):
            drives.append(
                (instruction.dst_direction, instruction.dst_stream + k,
                 position, out)
            )
    elif isinstance(instruction, (Shift, Permute, Distribute)):
        captures.append(
            (instruction.direction, instruction.src_stream, position,
             cycle + dskew())
        )
        drives.append(
            (instruction.dst_direction, instruction.dst_stream, position,
             cycle + dfunc())
        )
    elif isinstance(instruction, Select):
        t = cycle + dskew()
        captures.append(
            (instruction.direction, instruction.src_stream_a, position, t)
        )
        captures.append(
            (instruction.direction, instruction.src_stream_b, position, t)
        )
        drives.append(
            (instruction.dst_direction, instruction.dst_stream, position,
             cycle + dfunc())
        )
    elif isinstance(instruction, Rotate):
        captures.append(
            (instruction.direction, instruction.src_stream, position,
             cycle + dskew())
        )
        out = cycle + dfunc()
        for r in range(instruction.n * instruction.n):
            drives.append(
                (instruction.dst_direction,
                 instruction.dst_base_stream + r, position, out)
            )
    elif isinstance(instruction, Transpose):
        t = cycle + dskew()
        out = cycle + dfunc()
        per = config.lanes_per_superlane
        for s in range(per):
            captures.append(
                (instruction.direction, instruction.src_base_stream + s,
                 position, t)
            )
            drives.append(
                (instruction.dst_direction, instruction.dst_base_stream + s,
                 position, out)
            )
    elif isinstance(instruction, LoadWeights):
        captures.append(
            (instruction.direction, instruction.stream, position,
             cycle + dskew())
        )
    elif isinstance(instruction, InstallWeights):
        if not instruction.from_buffer:
            skew = dskew()
            for c in range(instruction.install_cycles(config.n_lanes)):
                for s in range(instruction.n_streams):
                    captures.append(
                        (instruction.direction,
                         instruction.base_stream + s, position,
                         cycle + skew + c)
                    )
    elif isinstance(instruction, ActivationBufferControl):
        skew = dskew()
        for k in range(instruction.n_vectors):
            for s in range(instruction.dtype.n_streams):
                captures.append(
                    (instruction.direction, instruction.base_stream + s,
                     position, cycle + skew + k)
                )
    elif isinstance(instruction, Accumulate):
        if instruction.emit:
            base = cycle + dfunc()
            for k in range(instruction.n_vectors):
                for s in range(instruction.out_dtype.n_streams):
                    drives.append(
                        (instruction.direction,
                         instruction.base_stream + s, position, base + k)
                    )
    elif isinstance(instruction, Send):
        captures.append(
            (instruction.direction, instruction.stream, position,
             cycle + dskew())
        )
    elif isinstance(instruction, Receive):
        pass
    return drives, captures


def _flow_key(direction: Direction, stream: int, position: int, t: int):
    """Trajectory invariant: equal keys = same moving stream value."""
    if direction is Direction.EASTWARD:
        return (direction.value, stream, t - position)
    return (direction.value, stream, t + position)


# ----------------------------------------------------------------------
class PerfettoTraceBuilder:
    """Accumulate one or more chips' runs into one trace-event list."""

    def __init__(self, clock_ghz: float = 1.0) -> None:
        self.clock_ghz = clock_ghz
        self.events: list[dict] = []
        self._next_flow_id = 1

    def _us(self, cycle: int) -> float:
        return round(cycle * 1e-3 / self.clock_ghz, 9)

    # ------------------------------------------------------------------
    def add_chip(
        self,
        name: str = "tsp",
        pid: int = 0,
        trace=None,
        collector=None,
        timing=None,
        intent=None,
    ) -> None:
        """Add one chip's run.

        ``collector`` (a bound :class:`TelemetryCollector`) is the richest
        source: its dispatch log carries instruction objects, enabling
        exact durations and flow arrows, and its windows become counter
        tracks.  ``trace`` (a ``TraceEvent`` list) is the fallback with
        mnemonic-derived durations.  ``intent`` adds the compile-time
        schedule promises as their own row.
        """
        if collector is not None:
            timing = timing or collector.timing
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name},
        })
        self.events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid,
            "args": {"sort_index": pid},
        })
        if collector is not None and collector.dispatch_log:
            self._add_spans_from_log(pid, collector, timing)
        elif trace:
            self._add_spans_from_trace(pid, trace, timing)
        if collector is not None:
            self._add_counter_tracks(pid, collector)
        if intent is not None:
            self._add_intent(pid, intent)

    # ------------------------------------------------------------------
    def _thread_metadata(self, pid: int, icu_names: list[str]) -> dict:
        tids = {icu: i for i, icu in enumerate(sorted(icu_names))}
        for icu, tid in tids.items():
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": icu},
            })
        return tids

    def _add_spans_from_log(self, pid, collector, timing) -> None:
        log = collector.dispatch_log
        config = collector.config
        floorplan = collector.floorplan
        tids = self._thread_metadata(
            pid, list({str(icu) for _, icu, _ in log})
        )
        # index every capture endpoint by its trajectory invariant so each
        # drive finds its downstream consumers in O(1)
        captures_by_key: dict[tuple, list[tuple]] = {}
        entries = []
        for cycle, icu, instruction in log:
            name = str(icu)
            position = floorplan.position(icu.address)
            drives, captures = instruction_endpoints(
                instruction, cycle, position, timing, config
            )
            entries.append((cycle, name, instruction, drives))
            for direction, stream, pos, t in captures:
                key = _flow_key(direction, stream, pos, t)
                captures_by_key.setdefault(key, []).append(
                    (t, pos, direction, tids[name])
                )
        for cycle, name, instruction, drives in entries:
            tid = tids[name]
            if instruction.mnemonic != "NOP":
                self.events.append({
                    "name": instruction.mnemonic, "cat": "dispatch",
                    "ph": "X", "ts": self._us(cycle),
                    "dur": self._us(
                        instruction_duration(instruction, timing, config)
                    ),
                    "pid": pid, "tid": tid,
                    "args": {"text": str(instruction), "cycle": cycle},
                })
            for direction, stream, pos, t0 in drives:
                key = _flow_key(direction, stream, pos, t0)
                for t1, p1, _d, consumer_tid in captures_by_key.get(key, ()):
                    downstream = (
                        p1 >= pos if direction is Direction.EASTWARD
                        else p1 <= pos
                    )
                    if not downstream or t1 < t0:
                        continue
                    flow_id = self._next_flow_id
                    self._next_flow_id += 1
                    common = {
                        "cat": "dataflow",
                        "name": f"stream {stream}{direction.value}",
                        "id": flow_id, "pid": pid,
                    }
                    self.events.append({
                        **common, "ph": "s", "ts": self._us(t0), "tid": tid,
                    })
                    self.events.append({
                        **common, "ph": "f", "bp": "e",
                        "ts": self._us(t1), "tid": consumer_tid,
                    })

    def _add_spans_from_trace(self, pid, trace, timing) -> None:
        tids = self._thread_metadata(pid, list({e.icu for e in trace}))
        for event in trace:
            if event.mnemonic == "NOP":
                continue
            dur = (
                mnemonic_duration(event.mnemonic, timing)
                if timing is not None else 1
            )
            self.events.append({
                "name": event.mnemonic, "cat": "dispatch", "ph": "X",
                "ts": self._us(event.cycle), "dur": self._us(dur),
                "pid": pid, "tid": tids[event.icu],
                "args": {"text": event.text, "cycle": event.cycle},
            })

    def _add_counter_tracks(self, pid, collector) -> None:
        width = collector.window_cycles
        for domain, counter, label in _COUNTER_TRACKS:
            if domain == "srf":
                series: dict[int, int] = {}
                for direction in ("E", "W"):
                    for w, v in collector.windows_for(
                        f"srf:{direction}", counter
                    ).items():
                        series[w] = series.get(w, 0) + v
            else:
                series = collector.domain_windows(domain, counter)
            if not series:
                continue
            last_window = max(series)
            for w in range(last_window + 2):
                self.events.append({
                    "name": label, "cat": "telemetry", "ph": "C",
                    "ts": self._us(w * width), "pid": pid,
                    "args": {counter: series.get(w, 0)},
                })

    def _add_intent(self, pid, intent) -> None:
        tid = 10_000  # well past any ICU tid
        self.events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": "schedule.intent"},
        })
        streams: dict[tuple, set[int]] = {}
        for direction, stream, position, t in intent.drives:
            streams.setdefault((t, position, direction.value), set()).add(
                stream
            )
        for (t, position, direction), driven in sorted(streams.items()):
            self.events.append({
                "name": f"drive {direction}@{position}", "cat": "intent",
                "ph": "X", "ts": self._us(t), "dur": self._us(1),
                "pid": pid, "tid": tid,
                "args": {
                    "direction": direction,
                    "position": position,
                    "streams": sorted(driven),
                },
            })

    # ------------------------------------------------------------------
    def add_request_trace(
        self,
        tracer,
        name: str = "serve",
        pid: int = 100,
        chip_pid_base: int = 200,
        timing=None,
    ) -> None:
        """Render a :class:`~repro.obs.rtrace.RequestTracer` as ONE
        unified trace: host phases and on-chip events share a timeline.

        * The host process (``pid``) gets one thread row per span track
          (the request row, the batcher-form row, each pool worker), with
          every recorded phase as an ``"X"`` duration span.
        * Each request additionally becomes an async ``"b"``/``"e"`` pair
          (``id`` = request id), so Perfetto's "Async" rows show one bar
          per request spanning its whole life.
        * Spans that carry a clock anchor (a chip run: ``chip``,
          ``cycles``, ``clock_ghz``) and retained chip events get one
          process per chip (``chip_pid_base + i``); every cycle-stamped
          instruction event is placed at
          ``span.start_us + cycle * 1e-3 / clock_ghz`` — the anchor math
          that folds the deterministic cycle domain into the host µs
          domain — and a flow arrow connects the owning host span to the
          span's earliest on-chip event, on that event's queue row.
        """
        spans = tracer.spans()
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name},
        })
        self.events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid,
            "args": {"sort_index": pid},
        })
        tids = {
            track: i
            for i, track in enumerate(sorted({s.track for s in spans}))
        }
        for track, tid in tids.items():
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        chip_pids: dict[str, int] = {}
        chip_icus: dict[str, dict[str, int]] = {}
        for chip in sorted(
            {s.chip for s in spans if s.chip and s.chip_events}
        ):
            chip_pid = chip_pid_base + len(chip_pids)
            chip_pids[chip] = chip_pid
            chip_icus[chip] = {}
            self.events.append({
                "name": "process_name", "ph": "M", "pid": chip_pid,
                "args": {"name": chip},
            })
            self.events.append({
                "name": "process_sort_index", "ph": "M", "pid": chip_pid,
                "args": {"sort_index": chip_pid},
            })
        for span in spans:
            args = {
                "span": span.id,
                **({"parent": span.parent_id}
                   if span.parent_id is not None else {}),
                **({"request": span.request_id}
                   if span.request_id is not None else {}),
                **({"batch": span.batch_id}
                   if span.batch_id is not None else {}),
                **({"model": span.model} if span.model else {}),
                **({"chip": span.chip} if span.chip else {}),
                **({"cycles": span.cycles}
                   if span.cycles is not None else {}),
                **span.args,
            }
            tid = tids[span.track]
            self.events.append({
                "name": span.name, "cat": "rtrace", "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(max(span.dur_us, 0.001), 3),
                "pid": pid, "tid": tid,
                "args": args,
            })
            if span.name == "request" and span.request_id is not None:
                common = {
                    "cat": "request",
                    "name": f"request {span.request_id}",
                    "id": span.request_id, "pid": pid, "tid": tid,
                }
                self.events.append({
                    **common, "ph": "b", "ts": round(span.start_us, 3),
                    "args": args,
                })
                self.events.append({
                    **common, "ph": "e", "ts": round(span.end_us, 3),
                })
            if span.chip and span.chip_events and span.clock_ghz:
                self._add_anchored_chip_events(
                    span, chip_pids[span.chip], chip_icus[span.chip],
                    pid, tid, timing,
                )

    def _add_anchored_chip_events(
        self, span, chip_pid, icu_tids, host_pid, host_tid, timing
    ) -> None:
        """Place one anchored run's cycle-stamped events on the host
        timeline and draw the host-span -> chip flow arrow."""
        cycle_us = 1e-3 / span.clock_ghz
        first_ts = first_tid = None
        for event in span.chip_events:
            if event.mnemonic == "NOP":
                continue
            tid = icu_tids.get(event.icu)
            if tid is None:
                tid = icu_tids[event.icu] = len(icu_tids)
                self.events.append({
                    "name": "thread_name", "ph": "M", "pid": chip_pid,
                    "tid": tid, "args": {"name": event.icu},
                })
            ts = round(span.start_us + event.cycle * cycle_us, 6)
            if first_ts is None or ts < first_ts:
                first_ts, first_tid = ts, tid
            dur = (
                mnemonic_duration(event.mnemonic, timing)
                if timing is not None else 1
            )
            self.events.append({
                "name": event.mnemonic, "cat": "dispatch", "ph": "X",
                "ts": ts, "dur": round(dur * cycle_us, 6),
                "pid": chip_pid, "tid": tid,
                "args": {
                    "text": event.text, "cycle": event.cycle,
                    "span": span.id,
                },
            })
        if first_ts is not None:
            flow_id = self._next_flow_id
            self._next_flow_id += 1
            common = {
                "cat": "rtrace", "name": f"{span.name} anchor",
                "id": flow_id,
            }
            self.events.append({
                **common, "ph": "s", "ts": round(span.start_us, 3),
                "pid": host_pid, "tid": host_tid,
            })
            self.events.append({
                **common, "ph": "f", "bp": "e", "ts": first_ts,
                "pid": chip_pid, "tid": first_tid,
            })

    # ------------------------------------------------------------------
    def add_system(self, system, collectors=None, intents=None) -> None:
        """One process per chip of a :class:`MultiChipSystem`."""
        for i, chip in enumerate(system.chips):
            collector = None
            if collectors is not None:
                collector = collectors[i]
            elif chip.obs is not None:
                collector = chip.obs
            self.add_chip(
                name=f"chip{i}",
                pid=i,
                trace=chip.trace,
                collector=collector,
                timing=chip.timing,
                intent=intents[i] if intents else None,
            )

    def build(self) -> list[dict]:
        return list(self.events)


def write_trace(events: list[dict], path: str) -> None:
    """Write trace events as a Chrome/Perfetto-loadable JSON array."""
    with open(path, "w") as handle:
        json.dump(events, handle, indent=1, sort_keys=True)
        handle.write("\n")

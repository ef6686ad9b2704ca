"""Dataflow-aware Perfetto/Chrome trace building.

Converts one or more observed runs into the Chrome trace-event JSON that
``chrome://tracing`` / https://ui.perfetto.dev render:

* one *process* (pid) per chip, one *thread* (tid) per instruction queue;
* ``"X"`` duration spans per dispatched instruction, each as long as
  the occupancy its :class:`~repro.sim.chip.TraceEvent` carries — the
  **true duration** the chip stamped from the timing model
  (``d_func``/``d_skew``, NOP counts, Repeat cadences, MXM
  install/stream lengths) rather than a fixed one-cycle slice;
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
from collections.abc import Sequence

from ..arch.geometry import Direction
from ..isa.c2c import Receive, Send
from ..isa.mem import Gather, Read, Scatter, Write
from ..isa.mxm import (
    Accumulate,
    ActivationBufferControl,
    InstallWeights,
    LoadWeights,
)
from ..isa.sxm import Distribute, Permute, Rotate, Select, Shift, Transpose
from ..isa.vxm import BinaryOp, Convert, UnaryOp
# ``repro.sim`` loads with this module: loaded later instead (at
# serving's first chip import), the benchmark's cold-churn read +1.6 MiB
# of peak RSS with the same Python allocations (EXPERIMENTS.md E42)
from ..sim.chip import TraceEvent

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
        intent=None,
    ) -> None:
        """Add one chip's run.

        Its dispatches are ``collector.dispatch_log`` when a collector (a
        bound :class:`TelemetryCollector`) has one, else ``trace`` (a
        ``TraceEvent`` list); both are the chip's own events, each drawn
        as long as the occupancy it carries.  A collector also knows the
        chip's geometry, so its dispatches get flow arrows, and its
        windows become counter tracks.  ``intent`` adds the compile-time
        schedule promises as their own row.
        """
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name},
        })
        self.events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid,
            "args": {"sort_index": pid},
        })
        if collector is not None and collector.dispatch_log:
            dispatches, flows = collector.dispatch_log, collector
        else:
            dispatches, flows = trace or [], None
        tids: dict[str, int] = {}
        for icu in sorted({event.icu for event in dispatches}):
            self._tid(pid, tids, icu)
        self._add_dispatches(
            pid, tids, dispatches, 0.0, 1e-3 / self.clock_ghz, flows=flows
        )
        if collector is not None:
            self._add_counter_tracks(pid, collector)
        if intent is not None:
            self._add_intent(pid, intent)

    # ------------------------------------------------------------------
    def _tid(self, pid: int, tids: dict[str, int], icu: str) -> int:
        """The thread row of queue ``icu`` in process ``pid``, named on
        first use."""
        tid = tids.get(icu)
        if tid is None:
            tid = tids[icu] = len(tids)
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": icu},
            })
        return tid

    def _add_dispatches(
        self, pid, tids, dispatches: Sequence[TraceEvent], origin_us,
        cycle_us, args=None, flows=None,
    ):
        """Draw every dispatch one way: an ``"X"`` slice per non-NOP
        ``TraceEvent`` at ``origin_us + cycle * cycle_us``, its
        ``occupancy`` long, on its queue's row.

        ``flows`` — a collector bound to the chip that ran them — adds an
        arrow from each drive to every capture downstream on the same
        moving stream value.  ``args`` are added to each slice's.
        Returns the earliest slice's ``(ts, tid)``, or None.
        """
        # index every capture endpoint by its trajectory invariant so each
        # drive finds its downstream consumers in O(1)
        captures_by_key: dict[tuple, list[tuple]] = {}
        drives_of = [()] * len(dispatches)
        if flows is not None:
            for index, event in enumerate(dispatches):
                drives_of[index], captures = instruction_endpoints(
                    event.instruction, event.cycle,
                    flows.floorplan.position(event.queue.address),
                    flows.timing, flows.config,
                )
                for direction, stream, pos, t in captures:
                    key = _flow_key(direction, stream, pos, t)
                    captures_by_key.setdefault(key, []).append(
                        (t, pos, direction, self._tid(pid, tids, event.icu))
                    )
        first = None
        for index, event in enumerate(dispatches):
            if event.mnemonic == "NOP":
                continue
            tid = self._tid(pid, tids, event.icu)
            ts = round(origin_us + event.cycle * cycle_us, 9)
            if first is None or ts < first[0]:
                first = (ts, tid)
            self.events.append({
                "name": event.mnemonic, "cat": "dispatch", "ph": "X",
                "ts": ts, "dur": round(event.occupancy * cycle_us, 9),
                "pid": pid, "tid": tid,
                "args": {
                    "text": event.text, "cycle": event.cycle, **(args or {})
                },
            })
            for direction, stream, pos, t0 in drives_of[index]:
                key = _flow_key(direction, stream, pos, t0)
                for t1, p1, _d, consumer_tid in captures_by_key.get(key, ()):
                    downstream = (
                        p1 >= pos if direction is Direction.EASTWARD
                        else p1 <= pos
                    )
                    if not downstream or t1 < t0:
                        continue
                    self._add_flow(
                        f"stream {stream}{direction.value}", "dataflow",
                        (pid, tid, self._us(t0)),
                        (pid, consumer_tid, self._us(t1)),
                    )
        return first

    def _add_flow(self, name, cat, start, finish) -> None:
        """One arrow from ``start`` to ``finish``, each ``(pid, tid, ts)``."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        common = {"cat": cat, "name": name, "id": flow_id}
        for ph, (pid, tid, ts) in (("s", start), ("f", finish)):
            self.events.append({
                **common, "ph": ph, "ts": ts, "pid": pid, "tid": tid,
                **({"bp": "e"} if ph == "f" else {}),
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
          process per chip (``chip_pid_base + i``); every dispatch is
          drawn as :meth:`add_chip` draws it (its occupancy long), placed
          at ``span.start_us + cycle * 1e-3 / clock_ghz`` — the anchor
          math that folds the deterministic cycle domain into the host µs
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
                chip_pid = chip_pids[span.chip]
                first = self._add_dispatches(
                    chip_pid, chip_icus[span.chip], span.chip_events,
                    span.start_us, 1e-3 / span.clock_ghz,
                    args={"span": span.id},
                )
                if first is not None:
                    self._add_flow(
                        f"{span.name} anchor", "rtrace",
                        (pid, tid, round(span.start_us, 3)),
                        (chip_pid, first[1], first[0]),
                    )

    def build(self) -> list[dict]:
        return list(self.events)


def write_trace(events: list[dict], path: str) -> None:
    """Write trace events as a Chrome/Perfetto-loadable JSON array."""
    with open(path, "w") as handle:
        json.dump(events, handle, indent=1, sort_keys=True)
        handle.write("\n")

"""Golden Perfetto-trace regression artifact.

Runs the ``matmul`` golden program (see :mod:`tests.golden_programs`) with
a :class:`repro.obs.TelemetryCollector` attached and freezes the full
Perfetto/Chrome trace — dispatch spans with true durations, counter
tracks, flow arrows, and the compiler's schedule-intent rows (one span
per direction, position and cycle the schedule promises a drive at) — in
``tests/goldens/trace_matmul.json``.  Because the simulator is
deterministic, the trace is a bit-exact artifact: any change to dispatch
timing, instruction durations, window accounting, or the trace schema
fails ``tests/test_obs_trace.py``.

Regenerate deliberately (after an intended timing or schema change) with::

    PYTHONPATH=src python tests/golden_trace.py
"""

from __future__ import annotations

import json
import os

from repro.compiler import execute
from repro.obs import PerfettoTraceBuilder, TelemetryCollector, write_trace
from repro.sim.chip import TspChip

from golden_programs import GOLDEN_DIR, build_matmul

TRACE_NAME = "trace_matmul"


def trace_path() -> str:
    return os.path.join(GOLDEN_DIR, f"{TRACE_NAME}.json")


def compute_trace() -> list[dict]:
    """Run the matmul golden with telemetry and build its Perfetto trace."""
    compiled = build_matmul().compile()
    chip = TspChip(compiled.config)
    collector = TelemetryCollector(window_cycles=64, name="matmul")
    chip.attach_telemetry(collector)
    execute(compiled, chip=chip)
    builder = PerfettoTraceBuilder(clock_ghz=1.0)
    builder.add_chip(
        name="matmul",
        pid=1,
        collector=collector,
        intent=compiled.intent,
    )
    return builder.build()


def load_golden() -> list[dict]:
    with open(trace_path()) as handle:
        return json.load(handle)


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    events = compute_trace()
    write_trace(events, trace_path())
    kinds = {}
    for event in events:
        kinds[event["ph"]] = kinds.get(event["ph"], 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"wrote {trace_path()}: {len(events)} events ({summary})")


if __name__ == "__main__":
    regenerate()

"""Observability: one way to count, one way to trace, on chip and host.

What is here, all exact — a fact per cycle, never a sample:

* :mod:`repro.obs.counters` — the counter registry in its two kinds:
  :class:`CounterRegistry` (locked totals and high/low-water marks — a
  server's whole book) and :class:`TelemetryCollector`, which extends it
  with cycle windows; a chip with a collector always simulates, so every
  count is one it watched.
* :mod:`repro.obs.trace` — :class:`PerfettoTraceBuilder`, the one
  renderer of chip traces and request traces: it joins compile-time
  schedule intent with runtime dispatch into Chrome/Perfetto trace JSON
  (each dispatch drawn one way, at the occupancy its
  :class:`~repro.sim.chip.TraceEvent` carries; counter tracks;
  producer→consumer flows).
* :mod:`repro.obs.attribution` — :func:`attribute` /
  :func:`render_report`, the per-phase roofline + top-slices + stall
  taxonomy report behind ``python -m repro.obs``.
* :mod:`repro.obs.rtrace` — request-scoped tracing across the serving
  stack (:class:`RequestTracer`, :class:`TraceContext`), the one record
  of every host span, anchoring the chip cycle domain to host µs.
* :mod:`repro.obs.metrics` — bounded-memory serving metrics
  (:class:`LatencyHistogram`, :class:`SloTracker`,
  :class:`MetricsExporter`); ``python -m repro.serve --prom/--json``
  writes them.

The attribution names load on first use (PEP 562): the report pulls in
:mod:`repro.baselines`, which a serving process never runs.
"""

import importlib

from .counters import AutoTelemetry, CounterRegistry, TelemetryCollector
from .metrics import (
    LatencyHistogram,
    MetricsExporter,
    SloTracker,
    percentile,
)
from .rtrace import RequestTracer, Span, TraceContext
from .trace import PerfettoTraceBuilder, write_trace

__all__ = [
    "AutoTelemetry",
    "CounterRegistry",
    "LatencyHistogram",
    "MetricsExporter",
    "PerfettoTraceBuilder",
    "RequestTracer",
    "SloTracker",
    "Span",
    "TelemetryCollector",
    "TraceContext",
    "attribute",
    "percentile",
    "render_report",
    "write_report",
    "write_trace",
]

#: public name -> the submodule that defines it, imported on first access
_LAZY = dict.fromkeys(("attribute", "render_report", "write_report"),
                      "attribution")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

"""Resilience subsystem: fault campaigns, health monitoring, degradation.

Three pillars on top of the deterministic simulator:

* :mod:`repro.resil.health` — CSR/link-counter polling into per-chip
  :class:`HealthReport` s, wearout trends, and the :class:`Watchdog`
  that bounds hangs at an exact deadline.
* :mod:`repro.resil.degrade` — degraded-mode recompilation against a
  :class:`Blacklist` of dead hardware, plus ring re-routing and fully
  timed store-and-forward transfer plans.
* :mod:`repro.resil.campaign` — the seeded fault-campaign runner behind
  ``python -m repro.resil`` (detection latency, recovery rate, degraded
  slowdown -> ``BENCH_resil.json``).

The campaign names load on first use (PEP 562): the campaign pulls in the
whole of :mod:`repro.verify`, which a serving process never runs.
"""

import importlib

from .degrade import (
    Blacklist,
    RingTransferPlan,
    TimedProgram,
    assert_avoids,
    blacklist_from_fault,
    build_ring_transfer,
    compile_degraded,
    plan_ring_route,
    read_transferred,
)
from .health import (
    WEAROUT_THRESHOLD,
    HealthMonitor,
    HealthReport,
    LinkHealth,
    Watchdog,
)

__all__ = [
    "Blacklist",
    "HealthMonitor",
    "HealthReport",
    "LinkHealth",
    "RingTransferPlan",
    "SCENARIOS",
    "ScenarioResult",
    "TimedProgram",
    "WEAROUT_THRESHOLD",
    "Watchdog",
    "assert_avoids",
    "blacklist_from_fault",
    "build_ring_transfer",
    "compile_degraded",
    "plan_ring_route",
    "read_transferred",
    "render_campaign",
    "run_campaign",
]

#: public name -> the submodule that defines it, imported on first access
_LAZY = dict.fromkeys(
    ("SCENARIOS", "ScenarioResult", "render_campaign", "run_campaign"),
    "campaign",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

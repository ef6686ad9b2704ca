"""Resilience subsystem: fault campaigns, health monitoring, degradation.

Three pillars on top of the deterministic simulator:

* :mod:`repro.resil.health` — CSR/link-counter polling into per-chip
  :class:`HealthReport` s, wearout trends, and the :class:`Watchdog`
  that bounds hangs at an exact deadline.
* :mod:`repro.resil.degrade` — degraded-mode recompilation against a
  :class:`Blacklist` of dead hardware, and the check that a recompiled
  program keeps off it.  Ring re-routing and the timed C2C transfer
  programs are the compiler's (:mod:`repro.compiler.partition`); a
  blacklisted cable is one more input to them.
* :mod:`repro.resil.campaign` — the one seeded fault campaign behind
  ``python -m repro.resil``: chip scenarios (detection latency, recovery,
  degraded slowdown) and serving scenarios (a live server through a
  fault window: wrong answers, availability, recovery waves) in one
  table, byte-identical run to run -> ``BENCH_resil.json``.

The campaign names load on first use (PEP 562): the campaign pulls in the
whole of :mod:`repro.verify`, which a serving process never runs.
"""

import importlib

from .degrade import (
    Blacklist,
    assert_avoids,
    blacklist_from_fault,
    compile_degraded,
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
    "SCENARIOS",
    "ScenarioResult",
    "WEAROUT_THRESHOLD",
    "Watchdog",
    "assert_avoids",
    "blacklist_from_fault",
    "compile_degraded",
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

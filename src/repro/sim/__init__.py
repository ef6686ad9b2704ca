"""Cycle-accurate functional simulation of the TSP.

The simulator enforces the paper's two pillars end to end: (1) deterministic
data paths — streams advance exactly one register hop per cycle, there are
no arbiters, caches, or queues in the data plane; and (2) compiler-visible
timing — every instruction's ``d_func``/``d_skew`` is honoured exactly, so a
schedule that is correct under Equation 4 produces correct data, and one
that is not raises or yields wrong values that tests catch.
"""

from .chip import RunResult, TraceEvent, TspChip
from .events import EventQueue, Phase
from .faults import CorrectionRecord, FaultInjector
from .icu import BarrierController, IcuQueue, QueueSet
from .memory import MemSliceUnit
from .multichip import LinkSpec, MultiChipSystem
from .mxm import MxmPlane, MxmUnit
from .streamreg import StreamRegisterFile
from .sxm import SxmUnit
from .tracer import (
    dispatch_counts,
    render_schedule,
    render_stagger,
)
from .vxm import VxmUnit
from .c2c import (
    DEFAULT_LINK_LATENCY,
    C2cLink,
    C2cUnit,
    Flight,
    LinkErrorModel,
)

__all__ = [
    "BarrierController",
    "C2cLink",
    "C2cUnit",
    "CorrectionRecord",
    "DEFAULT_LINK_LATENCY",
    "Flight",
    "LinkErrorModel",
    "EventQueue",
    "FaultInjector",
    "IcuQueue",
    "LinkSpec",
    "MemSliceUnit",
    "MultiChipSystem",
    "MxmPlane",
    "MxmUnit",
    "Phase",
    "QueueSet",
    "RunResult",
    "StreamRegisterFile",
    "SxmUnit",
    "TraceEvent",
    "TspChip",
    "VxmUnit",
    "dispatch_counts",
    "render_schedule",
    "render_stagger",
]

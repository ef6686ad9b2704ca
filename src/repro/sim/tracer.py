"""Dispatch occupancy and schedule rendering (the paper's Figure 6 and
Figure 11 views).

:func:`instruction_duration` is how long a dispatch occupies its unit;
the chip stamps it on every :class:`~repro.sim.chip.TraceEvent` it
records, so every renderer reads it off the event.

Figure 11 shows an instruction schedule as a grid — functional units
down the side, cycles across the top, one glyph per dispatched
instruction.  Figure 6 shows the staggered SIMD execution of a single
instruction across the 20 tiles of a slice.  Both are regenerated here
as ASCII from a chip's trace.  (The Perfetto rendering of the same trace is
:meth:`repro.obs.trace.PerfettoTraceBuilder.add_chip`.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..errors import IsaError
from ..isa.icu import Nop, Repeat
from ..isa.mxm import Accumulate, ActivationBufferControl, InstallWeights

if TYPE_CHECKING:
    from .chip import TraceEvent


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


#: Compact glyphs for the mnemonics that appear in schedule plots.
_GLYPHS = {
    "Read": "R",
    "Write": "W",
    "Gather": "G",
    "Scatter": "S",
    "UnaryOp": "u",
    "BinaryOp": "b",
    "Convert": "c",
    "NOP": ".",
    "Ifetch": "f",
    "Sync": "y",
    "Notify": "n",
    "Config": "g",
    "Repeat": "r",
    "LW": "l",
    "IW": "I",
    "ABC": "A",
    "ACC": "C",
    "Shift": "s",
    "Select": "e",
    "Permute": "p",
    "Distribute": "d",
    "Rotate": "o",
    "Transpose": "T",
    "Deskew": "k",
    "Send": ">",
    "Receive": "<",
}


def render_schedule(
    trace: list[TraceEvent],
    start_cycle: int | None = None,
    end_cycle: int | None = None,
    max_width: int = 120,
) -> str:
    """ASCII schedule grid: one row per ICU, one column per cycle.

    This is the Figure 11 view — "example instruction schedule" — where
    solid glyph sequences show operand reads feeding transforms feeding
    result writes.
    """
    if not trace:
        return "(empty trace)"
    lo = min(e.cycle for e in trace) if start_cycle is None else start_cycle
    hi = max(e.cycle for e in trace) if end_cycle is None else end_cycle
    hi = min(hi, lo + max_width - 1)

    by_icu: dict[str, dict[int, str]] = defaultdict(dict)
    for event in trace:
        if lo <= event.cycle <= hi:
            glyph = _GLYPHS.get(event.mnemonic, "?")
            by_icu[event.icu][event.cycle] = glyph

    label_width = max(len(name) for name in by_icu) + 1
    header = " " * label_width + "".join(
        "|" if c % 10 == 0 else " " for c in range(lo, hi + 1)
    )
    lines = [f"cycles {lo}..{hi}  (| marks every 10th cycle)", header]
    for icu in sorted(by_icu):
        cells = by_icu[icu]
        row = "".join(cells.get(c, " ") for c in range(lo, hi + 1))
        lines.append(f"{icu:<{label_width}}{row}")
    legend = ", ".join(
        f"{glyph}={name}"
        for name, glyph in sorted(_GLYPHS.items(), key=lambda kv: kv[1])
        if any(glyph in line for line in lines[2:])
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def render_stagger(
    n_tiles: int, issue_cycle: int, max_width: int = 60
) -> str:
    """The Figure 6 view: one instruction pipelining up a slice's tiles.

    At the scheduled time the instruction issues to the bottom tile
    (superlane 0); each subsequent cycle it propagates one tile northward,
    so tile t executes at ``issue_cycle + t`` and the vector data shows a
    one-cycle spatial stagger per superlane.
    """
    lines = [
        "tile (superlane) execution stagger — one SIMD instruction",
        " " * 18
        + "".join(
            "|" if c % 5 == 0 else " "
            for c in range(issue_cycle, issue_cycle + n_tiles + 5)
        ),
    ]
    for tile in range(n_tiles - 1, -1, -1):
        offset = tile
        row = [" "] * (n_tiles + 5)
        if offset < len(row):
            row[offset] = "#"
        lines.append(f"tile {tile:>2} (t+{offset:>2})  " + "".join(row))
    lines.append(
        f"# marks the execute cycle: tile t fires at issue+t "
        f"(issue={issue_cycle})"
    )
    return "\n".join(lines)


def dispatch_counts(trace: list[TraceEvent]) -> dict[str, int]:
    """Instructions dispatched per ICU — utilization summary."""
    counts: dict[str, int] = defaultdict(int)
    for event in trace:
        counts[event.icu] += 1
    return dict(counts)

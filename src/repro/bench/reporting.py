"""Benchmark reporting: paper-vs-measured tables and ASCII series plots.

Every experiment bench prints through these helpers so EXPERIMENTS.md and
the bench output share one format.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PaperComparison:
    """One paper-vs-measured row."""

    metric: str
    paper: float | str
    measured: float | str
    unit: str = ""
    note: str = ""

    def ratio(self) -> float | None:
        try:
            p = float(self.paper)
            m = float(self.measured)
        except (TypeError, ValueError):
            return None
        if p == 0:
            return None
        return m / p


@dataclass
class ExperimentReport:
    """A named experiment with its comparison rows and, when it plots
    one, its figure (an :func:`ascii_series`) under the table."""

    experiment: str
    title: str
    rows: list[PaperComparison] = field(default_factory=list)
    figure: str = ""

    def add(
        self,
        metric: str,
        paper: float | str,
        measured: float | str,
        unit: str = "",
        note: str = "",
    ) -> None:
        self.rows.append(PaperComparison(metric, paper, measured, unit, note))

    def render(self) -> str:
        lines = [f"== {self.experiment}: {self.title} =="]
        header = f"{'metric':<38} {'paper':>14} {'measured':>14} {'ratio':>7}  unit"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            ratio = row.ratio()
            ratio_s = f"{ratio:6.2f}x" if ratio is not None else "     —"
            paper_s = _fmt(row.paper)
            measured_s = _fmt(row.measured)
            line = (
                f"{row.metric:<38} {paper_s:>14} {measured_s:>14} "
                f"{ratio_s}  {row.unit}"
            )
            if row.note:
                line += f"  ({row.note})"
            lines.append(line)
        if self.figure:
            lines += ["", self.figure]
        return "\n".join(lines)


def merge_rendered(previous: str, rendered: list[str]) -> str:
    """A reports file: the sections of ``previous`` (a file this wrote
    before) with each of ``rendered`` — :meth:`ExperimentReport.render`
    texts — in place of the section of its title, or added; every
    section once, in the order of their title lines.

    So a run of some benchmarks refreshes their sections and keeps the
    others' as the last run that rendered them left them.
    """
    sections: dict[str, list[str]] = {}
    title = None
    for line in previous.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            title = line
            sections[title] = []
        if title is not None:
            sections[title].append(line)
    texts = {key: "\n".join(lines) for key, lines in sections.items()}
    for text in rendered:
        texts[text.splitlines()[0]] = text
    return "\n\n".join(
        texts[key].strip("\n") for key in sorted(texts)
    ) + "\n"


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def ascii_series(
    points: list[tuple[float, float]],
    width: int = 64,
    height: int = 16,
    logx: bool = False,
    title: str = "",
    marks: list[tuple[float, float, str]] | None = None,
) -> str:
    """A terminal scatter/line plot — used for the roofline and power
    trace figures."""
    import math

    if not points:
        return "(no data)"

    def tx(x: float) -> float:
        return math.log10(max(x, 1e-12)) if logx else x

    xs = [tx(x) for x, _ in points]
    ys = [y for _, y in points]
    all_marks = marks or []
    xs += [tx(x) for x, _y, _c in all_marks]
    ys += [y for _x, y, _c in all_marks]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, char: str) -> None:
        col = int((tx(x) - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[max(0, min(row, height - 1))][max(0, min(col, width - 1))] = char

    for x, y in points:
        plot(x, y, "·")
    for x, y, char in all_marks:
        plot(x, y, char)

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {y_lo:.3g} .. {y_hi:.3g}")
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    x_label = "log10(x)" if logx else "x"
    lines.append(
        f" {x_label}: "
        f"{(10 ** x_lo if logx else x_lo):.3g} .. "
        f"{(10 ** x_hi if logx else x_hi):.3g}"
    )
    return "\n".join(lines)

"""Bottleneck attribution: where did the cycles go?

Turns one :class:`~repro.obs.counters.TelemetryCollector` into the
counter-driven performance explanation the TPU paper (Jouppi et al., ISCA
2017) made standard: a roofline placement per program *phase*, the top-k
busiest functional slices, and a stall taxonomy over the instruction
control units.  Because the TSP is fully deterministic, every number here
is a fact of the schedule, not a sampled estimate.

Phases are derived from the counter windows themselves: consecutive
windows with the same dominant activity class (``mxm`` / ``vxm`` / ``sxm``
/ ``mem`` / ``idle``) merge into one phase, each placed on the roofline by
its own operational intensity.  The report is emitted both as JSON
(schema ``tsp-obs/1``, the ``BENCH_obs.json`` artifact) and as a
human-readable text table via :func:`render_report`.
"""

from __future__ import annotations

import json

from ..baselines.roofline import Roofline

SCHEMA = "tsp-obs/1"

#: ops charged per counted unit when ranking a window's dominant activity
_DOMAIN_OPS = {
    "mxm": ("macc_ops", 2.0),  # each MACC is a multiply + an add
    "vxm": ("alu_ops", 1.0),
    "sxm": ("bytes", 1.0),
}


def _phase_windows(collector) -> list[dict]:
    """Per-window activity classes, ordered by window index."""
    width = collector.window_cycles
    n_windows = max(1, -(-max(1, collector.cycles) // width))
    series = {
        domain: collector.domain_windows(domain, counter)
        for domain, (counter, _w) in _DOMAIN_OPS.items()
    }
    mem = {}
    for counter in ("read_bytes", "write_bytes"):
        for w, v in collector.domain_windows("mem", counter).items():
            mem[w] = mem.get(w, 0) + v
    windows = []
    for w in range(n_windows):
        ops = {}
        for domain, (_counter, weight) in _DOMAIN_OPS.items():
            value = series[domain].get(w, 0)
            if value:
                ops[domain] = value * weight
        mem_bytes = mem.get(w, 0)
        if ops:
            dominant = max(ops, key=ops.get)
        elif mem_bytes:
            dominant = "mem"
        else:
            dominant = "idle"
        windows.append({
            "window": w,
            "class": dominant,
            "ops": sum(ops.values()),
            "mem_bytes": mem_bytes,
        })
    return windows


def _merge_phases(windows: list[dict], width: int) -> list[dict]:
    phases: list[dict] = []
    for win in windows:
        if phases and phases[-1]["class"] == win["class"]:
            phase = phases[-1]
            phase["end_window"] = win["window"]
            phase["ops"] += win["ops"]
            phase["mem_bytes"] += win["mem_bytes"]
        else:
            phases.append({
                "class": win["class"],
                "start_window": win["window"],
                "end_window": win["window"],
                "ops": win["ops"],
                "mem_bytes": win["mem_bytes"],
            })
    for phase in phases:
        phase["start_cycle"] = phase.pop("start_window") * width
        phase["end_cycle"] = (phase.pop("end_window") + 1) * width
    return phases


def _place_phases(phases: list[dict], roofline: Roofline) -> None:
    clock = roofline.clock_ghz
    for phase in phases:
        cycles = phase["end_cycle"] - phase["start_cycle"]
        seconds = cycles / (clock * 1e9)
        achieved = phase["ops"] / seconds / 1e12 if seconds else 0.0
        if phase["mem_bytes"] > 0:
            intensity = phase["ops"] / phase["mem_bytes"]
            bound = roofline.bound_for(intensity)
            attainable = roofline.attainable_teraops(intensity)
        else:
            intensity = None
            bound = "compute" if phase["ops"] else "idle"
            attainable = roofline.peak_teraops if phase["ops"] else 0.0
        phase["intensity_ops_per_byte"] = intensity
        phase["achieved_teraops"] = round(achieved, 6)
        phase["attainable_teraops"] = round(attainable, 6)
        phase["roofline_fraction"] = round(
            achieved / attainable, 6
        ) if attainable else 0.0
        phase["bound"] = bound


def _top_slices(collector, config, top_k: int) -> list[dict]:
    """Busiest units chip-wide, ranked by utilization of their own peak."""
    cycles = max(1, collector.cycles)
    totals = collector.totals()
    word = config.mem_word_bytes
    plane_peak = config.mxm_plane_rows * config.mxm_plane_cols
    ranked = []
    for unit, counters in totals.items():
        domain = unit.split(":", 1)[0]
        if domain == "mem":
            busy = (
                counters.get("read_bytes", 0) + counters.get("write_bytes", 0)
            ) / word
            detail = {
                "read_bytes": counters.get("read_bytes", 0),
                "write_bytes": counters.get("write_bytes", 0),
            }
        elif domain == "mxm":
            busy = counters.get("macc_ops", 0) / plane_peak
            detail = {
                "macc_ops": counters.get("macc_ops", 0),
                "weight_bytes": counters.get("weight_bytes", 0),
            }
        elif domain == "vxm":
            busy = counters.get("alu_ops", 0) / config.n_lanes
            detail = {"alu_ops": counters.get("alu_ops", 0)}
        elif domain == "sxm":
            busy = counters.get("bytes", 0) / config.n_lanes
            detail = {"bytes": counters.get("bytes", 0)}
        else:  # icu / srf / c2c rank elsewhere
            continue
        ranked.append({
            "unit": unit,
            "utilization": round(min(1.0, busy / cycles), 6),
            "busy_cycles": round(busy, 3),
            **detail,
        })
    ranked.sort(key=lambda r: (-r["utilization"], r["unit"]))
    return ranked[:top_k]


def _stall_taxonomy(collector, config) -> dict:
    """Where ICU issue slots went: dispatching, stalled, parked, or idle.

    The three counted classes are disjoint by construction — an ICU
    dispatches at cycle ``c``, stalls over ``c+1 .. busy_until-1``, and a
    parked ICU counts ``park+1 .. release-1`` — so idle is the exact
    remainder of the issue-slot budget.
    """
    cycles = max(1, collector.cycles)
    dispatch = 0
    stall = 0
    parked = 0
    active_icus = 0
    deepest = {"icu": None, "iq_high_water_bytes": 0}
    for unit, counters in collector.totals().items():
        if not unit.startswith("icu:"):
            continue
        active_icus += 1
        dispatch += counters.get("dispatch_cycles", 0)
        stall += counters.get("stall_cycles", 0)
        parked += counters.get("parked_cycles", 0)
    for unit, scalars in collector.snapshot()["scalars"].items():
        high = scalars.get("iq_high_water_bytes", 0)
        if unit.startswith("icu:") and high > deepest["iq_high_water_bytes"]:
            deepest = {"icu": unit[4:], "iq_high_water_bytes": high}
    slots = config.n_icus * cycles
    idle = slots - dispatch - stall - parked
    return {
        "issue_slots": slots,
        "active_icus": active_icus,
        "dispatch_cycles": dispatch,
        "stall_cycles": stall,
        "parked_cycles": parked,
        "idle_cycles": idle,
        "dispatch_fraction": round(dispatch / slots, 6),
        "stall_fraction": round(stall / slots, 6),
        "parked_fraction": round(parked / slots, 6),
        "idle_fraction": round(idle / slots, 6),
        "deepest_queue": deepest,
    }


def attribute(
    collector,
    config=None,
    top_k: int = 8,
    name: str = "run",
) -> dict:
    """Full attribution report for one collected run.

    Requires the collector to have been bound to a chip (so it knows the
    :class:`~repro.config.ArchConfig`) unless ``config`` is passed.
    """
    config = config or collector.config
    if config is None:
        raise ValueError(
            "collector was never bound to a chip; pass config= explicitly"
        )
    roofline = Roofline(config)
    phases = _merge_phases(
        _phase_windows(collector), collector.window_cycles
    )
    _place_phases(phases, roofline)
    totals = collector.totals()
    total_ops = sum(
        counters.get("macc_ops", 0) * 2 + counters.get("alu_ops", 0)
        for counters in totals.values()
    )
    total_mem = sum(
        counters.get("read_bytes", 0) + counters.get("write_bytes", 0)
        for unit, counters in totals.items()
        if unit.startswith("mem:")
    )
    seconds = collector.cycles / (roofline.clock_ghz * 1e9)
    overall = {
        "cycles": collector.cycles,
        "total_ops": total_ops,
        "mem_bytes": total_mem,
        "intensity_ops_per_byte": (
            round(total_ops / total_mem, 6) if total_mem else None
        ),
        "achieved_teraops": (
            round(total_ops / seconds / 1e12, 6) if seconds else 0.0
        ),
        "peak_teraops": round(roofline.peak_teraops, 6),
        "ridge_intensity": round(roofline.ridge_intensity(), 6),
        "bound": (
            roofline.bound_for(total_ops / total_mem)
            if total_mem else "idle"
        ),
    }
    rollup = collector.rollup()
    return {
        "schema": SCHEMA,
        "name": name,
        "window_cycles": collector.window_cycles,
        "overall": overall,
        "phases": phases,
        "top_slices": _top_slices(collector, config, top_k),
        "stalls": _stall_taxonomy(collector, config),
        "activity_rollup": {
            "macc_ops": rollup.macc_ops,
            "alu_ops": rollup.alu_ops,
            "sram_read_bytes": rollup.sram_read_bytes,
            "sram_write_bytes": rollup.sram_write_bytes,
            "stream_hop_bytes": rollup.stream_hop_bytes,
            "sxm_bytes": rollup.sxm_bytes,
            "instructions": rollup.instructions,
        },
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of one :func:`attribute` report."""
    lines = []
    overall = report["overall"]
    lines.append(f"== bottleneck attribution: {report['name']} ==")
    lines.append(
        f"cycles {overall['cycles']}  ops {overall['total_ops']}  "
        f"mem bytes {overall['mem_bytes']}"
    )
    intensity = overall["intensity_ops_per_byte"]
    lines.append(
        "roofline: "
        f"{overall['achieved_teraops']:.4f} / "
        f"{overall['peak_teraops']:.1f} TeraOps/s, "
        + (
            f"intensity {intensity:.3f} ops/B "
            f"(ridge {overall['ridge_intensity']:.1f}) -> "
            if intensity is not None else ""
        )
        + f"{overall['bound']}-bound"
    )
    lines.append("")
    lines.append("phases:")
    lines.append(
        "  cycles           class  ops          achieved/attainable TOps  "
        "bound"
    )
    for phase in report["phases"]:
        lines.append(
            f"  [{phase['start_cycle']:>6}, {phase['end_cycle']:>6})  "
            f"{phase['class']:>5}  {phase['ops']:<11.0f}  "
            f"{phase['achieved_teraops']:.4f} / "
            f"{phase['attainable_teraops']:<8.4f}"
            f"          {phase['bound']}"
        )
    lines.append("")
    lines.append("top slices (by utilization of own peak):")
    for entry in report["top_slices"]:
        extras = ", ".join(
            f"{k}={v}" for k, v in entry.items()
            if k not in ("unit", "utilization", "busy_cycles")
        )
        lines.append(
            f"  {entry['unit']:<16} {entry['utilization']:>8.2%}  {extras}"
        )
    stalls = report["stalls"]
    lines.append("")
    lines.append(
        "icu issue slots: "
        f"{stalls['dispatch_fraction']:.2%} dispatch, "
        f"{stalls['stall_fraction']:.2%} stalled, "
        f"{stalls['parked_fraction']:.2%} parked, "
        f"{stalls['idle_fraction']:.2%} idle"
    )
    deepest = stalls["deepest_queue"]
    if deepest["icu"]:
        lines.append(
            f"deepest instruction queue: {deepest['icu']} "
            f"({deepest['iq_high_water_bytes']} bytes high water)"
        )
    return "\n".join(lines) + "\n"


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

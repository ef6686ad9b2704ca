"""Deterministic fault campaigns over the simulated TSP.

A campaign is a fixed set of seeded fault scenarios spanning the three
resilience pillars — link-error recovery, health/watchdog detection, and
degraded-mode recompilation — each reporting the metrics the paper's
fleet-operations story cares about: *was the fault detected*, *how many
cycles after onset*, *did the system recover*, and *what did recovery
cost* (reserved slack, re-routed hops, degraded-schedule slowdown).

Every scenario is bit-deterministic: faults are pure functions of seeds
and sequence numbers, so a campaign re-run reproduces byte-identical
results — the property that makes a failing campaign entry a usable bug
report.  ``python -m repro.resil`` runs the campaign and emits
``BENCH_resil.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..config import ArchConfig
from ..errors import C2cLinkError, MemoryFaultError, TspError, WatchdogError
from ..isa.icu import Sync
from ..isa.mem import Read, Write
from ..isa.program import IcuId, Program
from ..sim.c2c import LinkErrorModel
from ..sim.chip import TspChip
from ..sim.faults import FaultInjector
from ..sim.multichip import MultiChipSystem
from ..verify.oracle import run_differential
from .degrade import (
    Blacklist,
    build_ring_transfer,
    compile_degraded,
    plan_ring_route,
    read_transferred,
)
from .health import HealthMonitor, Watchdog

SCHEMA = "tsp-resil-campaign/1"


@dataclass
class ScenarioResult:
    """Outcome of one fault scenario."""

    name: str
    fault: str
    detected: bool
    recovered: bool
    #: cycles from fault onset to the simulator surfacing it (0 when the
    #: fault is corrected transparently in the datapath)
    detection_latency: int = 0
    #: data bit-exact with the fault-free reference
    bit_exact: bool | None = None
    #: a second run of the same seeds reproduced cycles and bits
    deterministic: bool | None = None
    #: degraded-path cycles / healthy-path cycles (1.0 = free recovery)
    slowdown: float | None = None
    verdicts: list[str] = field(default_factory=list)
    notes: str = ""


def _payload(config: ArchConfig, n_words: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (n_words, config.n_lanes), dtype=np.uint8)


def _two_chip_transfer(
    config: ArchConfig,
    payload: np.ndarray,
    model: LinkErrorModel | None,
):
    """Run one chip-0 -> chip-1 transfer, optionally through an error
    process on the cable; returns (landed, cycles, link, monitor)."""
    system = MultiChipSystem.ring(config, 2)
    if model is not None:
        system.set_link_error_model(0, Hemisphere.EAST, 0, model)
    plan = build_ring_transfer(system, [0, 1], payload)
    results = system.run(plan.programs)
    monitor = HealthMonitor()
    monitor.poll_system(system)
    landed = read_transferred(system, plan)
    # corrections/retries are counted where decode happens: the ingress
    ingress = system.chips[1].c2c_unit(Hemisphere.WEST).links[0]
    return landed, results[0].cycles, ingress, monitor


# ----------------------------------------------------------------------
# link-error scenarios


def scenario_correctable_link_noise(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """Seeded BER on a cable: FEC corrects in-line, bits and timing are
    identical to the fault-free run, and a second run reproduces them."""
    n_words = 4 if quick else 16
    payload = _payload(config, n_words, seed=11)
    # high enough that vectors of either size take single-bit hits, low
    # enough that no 128-bit word of the 16 takes two on both its copies
    model = LinkErrorModel(seed=3, ber=1e-3, max_retries=1)
    clean, clean_cycles, _, _ = _two_chip_transfer(config, payload, None)
    noisy, noisy_cycles, link, monitor = _two_chip_transfer(
        config, payload, model
    )
    again, again_cycles, _, _ = _two_chip_transfer(config, payload, model)
    bit_exact = bool(
        np.array_equal(noisy, payload) and np.array_equal(clean, payload)
    )
    deterministic = bool(
        np.array_equal(noisy, again) and noisy_cycles == again_cycles
    )
    return ScenarioResult(
        name="correctable_link_noise",
        fault=f"ber={model.ber} seed={model.seed} on cable 0",
        detected=link.corrected > 0,
        recovered=bit_exact,
        detection_latency=0,
        bit_exact=bit_exact,
        deterministic=deterministic,
        slowdown=noisy_cycles / clean_cycles,
        verdicts=[r.verdict for r in monitor.reports],
        notes=f"{link.corrected} bits corrected across {n_words} vectors",
    )


def scenario_burst_retransmission(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A burst makes the first copy uncorrectable; the pre-scheduled
    retransmission copy recovers inside the reserved slack."""
    n_words = 4 if quick else 8
    payload = _payload(config, n_words, seed=12)
    model = LinkErrorModel(seed=5, burst=(1, 2), max_retries=1)
    clean, clean_cycles, _, _ = _two_chip_transfer(config, payload, None)
    landed, cycles, link, monitor = _two_chip_transfer(config, payload, model)
    bit_exact = bool(np.array_equal(landed, payload))
    return ScenarioResult(
        name="burst_retransmission",
        fault="burst seqs 1-2 uncorrectable on first copy",
        detected=link.retries > 0,
        recovered=bit_exact,
        # the retry consumed exactly one extra link flight of the slack
        detection_latency=link.retry_latency,
        bit_exact=bit_exact,
        deterministic=None,
        slowdown=cycles / clean_cycles,
        verdicts=[r.verdict for r in monitor.reports],
        notes=(
            f"{link.retries} retransmission copies consumed; schedule "
            f"reserved {model.max_retries} per vector"
        ),
    )


def scenario_uncorrectable_abort(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """No retry budget and a burst hit: the Receive must abort with full
    chip/cycle/unit context rather than emplace corrupt data."""
    payload = _payload(config, 2, seed=13)
    model = LinkErrorModel(seed=5, burst=(0, 1), max_retries=0)
    try:
        _two_chip_transfer(config, payload, model)
    except C2cLinkError as fault:
        context_ok = (
            fault.chip_id is not None
            and fault.cycle is not None
            and fault.unit is not None
        )
        system = MultiChipSystem.ring(config, 2)
        link = system.chips[0].c2c_unit(Hemisphere.EAST).links[0]
        return ScenarioResult(
            name="uncorrectable_abort",
            fault="burst with max_retries=0 on cable 0",
            detected=True,
            recovered=False,
            # surfaced at the scheduled emplace: one link flight after
            # the corrupted capture left the sender
            detection_latency=link.latency,
            bit_exact=None,
            notes=f"aborted with context: {fault}"
            + ("" if context_ok else " [MISSING CONTEXT]"),
        )
    return ScenarioResult(
        name="uncorrectable_abort",
        fault="burst with max_retries=0 on cable 0",
        detected=False,
        recovered=False,
        notes="run completed but should have aborted",
    )


def scenario_dead_cable_reroute(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A dark cable on the direct path: detection by the scheduled
    Receive, recovery by re-planning the transfer the long way around."""
    n_chips = 4
    payload = _payload(config, 2 if quick else 4, seed=14)
    dead_cable = 0  # East(0) <-> West(1)

    # healthy baseline: the one-hop direct route
    healthy = MultiChipSystem.ring(config, n_chips)
    direct = plan_ring_route(n_chips, 0, 1)
    plan = build_ring_transfer(healthy, direct, payload)
    healthy_cycles = healthy.run(plan.programs)[0].cycles

    # the same route over the now-dark cable aborts deterministically
    broken = MultiChipSystem.ring(config, n_chips)
    broken.set_link_error_model(
        0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
    )
    detected = False
    detection_cycle = 0
    try:
        bplan = build_ring_transfer(broken, direct, payload)
        broken.run(bplan.programs)
    except C2cLinkError as fault:
        detected = True
        detection_cycle = fault.cycle or 0

    # recovery: re-plan around the dead cable and run on a fresh system
    rerouted = MultiChipSystem.ring(config, n_chips)
    rerouted.set_link_error_model(
        0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
    )
    route = plan_ring_route(n_chips, 0, 1, {dead_cable})
    rplan = build_ring_transfer(rerouted, route, payload)
    rerouted_cycles = rerouted.run(rplan.programs)[0].cycles
    landed = read_transferred(rerouted, rplan)
    bit_exact = bool(np.array_equal(landed, payload))
    return ScenarioResult(
        name="dead_cable_reroute",
        fault=f"ring cable {dead_cable} dark",
        detected=detected,
        recovered=bit_exact,
        detection_latency=detection_cycle,
        bit_exact=bit_exact,
        slowdown=rerouted_cycles / healthy_cycles,
        notes=f"re-routed {direct} -> {route}",
    )


# ----------------------------------------------------------------------
# degraded-recompilation scenarios


def _matmul_builder(config: ArchConfig, seed: int):
    from ..compiler.api import StreamProgramBuilder

    rng = np.random.default_rng(seed)
    k, m, n = 32, 32, 4
    w = rng.integers(-8, 8, (k, m)).astype(np.int8)
    x = rng.integers(-8, 8, (n, k)).astype(np.int8)
    g = StreamProgramBuilder(config)
    r = g.matmul(w, g.constant_tensor("x", x))
    g.write_back(r, name="r")
    return g


def _degraded_scenario(
    name: str, config: ArchConfig, blacklist: Blacklist
) -> ScenarioResult:
    builder = _matmul_builder(config, seed=21)
    healthy = builder.compile()
    ref = run_differential(builder, compiled=healthy)
    degraded = compile_degraded(builder, blacklist)
    result = run_differential(builder, compiled=degraded)
    bit_exact = result.ok and all(
        np.array_equal(result.outputs[k], ref.outputs[k])
        for k in ref.outputs
    )
    return ScenarioResult(
        name=name,
        fault=f"blacklist: {blacklist.describe()}",
        detected=True,  # the blacklist *is* the detection input
        recovered=bool(bit_exact),
        bit_exact=bool(bit_exact),
        slowdown=result.run.cycles / ref.run.cycles,
        notes=(
            f"healthy {ref.run.cycles} cycles, degraded "
            f"{result.run.cycles} cycles"
        ),
    )


def scenario_dead_mem_slice(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """Dead SRAM tiles: the allocator places around them and the
    recompiled program still matches the interpreter bit-for-bit."""
    blacklist = Blacklist(
        mem_slices=frozenset(
            {(Hemisphere.EAST, 0), (Hemisphere.EAST, 1), (Hemisphere.WEST, 0)}
        )
    )
    return _degraded_scenario("dead_mem_slice", config, blacklist)


def scenario_dead_mxm_plane(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A dead MXM plane: matmuls fall onto the surviving planes."""
    blacklist = Blacklist(
        mxm_planes=frozenset({(Hemisphere.WEST, 0), (Hemisphere.EAST, 0)})
    )
    return _degraded_scenario("dead_mxm_plane", config, blacklist)


# ----------------------------------------------------------------------
# health / watchdog scenarios


def scenario_sram_double_bit(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """An uncorrectable SRAM double: detected at consumption, aborts
    with location context, never silently forwards corrupt data."""
    chip = TspChip(config, chip_id=0, enable_ecc=True)
    rng = np.random.default_rng(31)
    data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
    chip.load_memory(Hemisphere.WEST, 0, 4, data)
    FaultInjector(chip).inject_double_sram_fault(
        Hemisphere.WEST, 0, address=4, bits=(3, 77)
    )
    program = Program()
    src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
    dst = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
    program.add(
        src, Read(address=4, stream=0, direction=Direction.EASTWARD)
    )
    from ..isa.icu import Nop

    program.add(dst, Nop(6))
    program.add(
        dst, Write(address=9, stream=0, direction=Direction.EASTWARD)
    )
    try:
        chip.run(program)
    except MemoryFaultError as fault:
        context_ok = fault.chip_id is not None and fault.cycle is not None
        return ScenarioResult(
            name="sram_double_bit",
            fault="two bits flipped in one stored MEM word",
            detected=True,
            recovered=False,
            # checked at the Read that consumes the word
            detection_latency=fault.cycle or 0,
            notes=f"aborted with context: {fault}"
            + ("" if context_ok else " [MISSING CONTEXT]"),
        )
    return ScenarioResult(
        name="sram_double_bit",
        fault="two bits flipped in one stored MEM word",
        detected=False,
        recovered=False,
        notes="run completed but should have aborted",
    )


def scenario_watchdog_hang(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A cross-chip hang — one chip parks on a barrier its peer never
    releases — caught by the armed watchdog at its exact deadline."""
    deadline = 400
    system = MultiChipSystem.ring(config, 2)
    system.chips[1].arm_watchdog(Watchdog(deadline, "campaign"))
    hung = Program()
    icu = IcuId(system.chips[1].floorplan.mem_slice(Hemisphere.WEST, 0))
    hung.add(icu, Sync())  # no Notify anywhere: parks forever
    try:
        system.run([Program(), hung], max_cycles=100_000)
    except WatchdogError as fault:
        return ScenarioResult(
            name="watchdog_hang",
            fault="chip 1 parked on a barrier never released",
            detected=True,
            recovered=False,
            # the hang begins at park (cycle ~0); the watchdog bounds
            # detection at its deadline instead of max_cycles
            detection_latency=fault.cycle or deadline,
            notes=f"aborted with context: {fault}",
        )
    return ScenarioResult(
        name="watchdog_hang",
        fault="chip 1 parked on a barrier never released",
        detected=False,
        recovered=False,
        notes="run completed but should have hung until the watchdog",
    )


# ----------------------------------------------------------------------

SCENARIOS = [
    scenario_correctable_link_noise,
    scenario_burst_retransmission,
    scenario_uncorrectable_abort,
    scenario_dead_cable_reroute,
    scenario_dead_mem_slice,
    scenario_dead_mxm_plane,
    scenario_sram_double_bit,
    scenario_watchdog_hang,
]


def _run_scenario(scenario, config: ArchConfig, quick: bool) -> ScenarioResult:
    """One scenario's result; a fault it did not catch itself is a failed
    result carrying the error text, never a traceback out of the campaign."""
    try:
        return scenario(config, quick)
    except TspError as fault:
        return ScenarioResult(
            name=scenario.__name__.removeprefix("scenario_"),
            fault="scenario did not complete",
            detected=False,
            recovered=False,
            bit_exact=False,
            notes=f"uncaught {type(fault).__name__}: {fault}",
        )


def run_campaign(
    config: ArchConfig | None = None, quick: bool = False
) -> dict:
    """Run every scenario; return the ``BENCH_resil.json`` payload."""
    from ..testing import make_small_config

    config = config or make_small_config()
    results = [_run_scenario(s, config, quick) for s in SCENARIOS]
    detected = sum(r.detected for r in results)
    recoverable = [r for r in results if r.bit_exact is not None]
    recovered = sum(r.recovered for r in recoverable)
    slowdowns = [r.slowdown for r in results if r.slowdown is not None]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "scenarios": [asdict(r) for r in results],
        "summary": {
            "n_scenarios": len(results),
            "detected": detected,
            "detection_rate": detected / len(results),
            "recovery_attempts": len(recoverable),
            "recovered": recovered,
            "recovery_rate": (
                recovered / len(recoverable) if recoverable else None
            ),
            "max_degraded_slowdown": max(slowdowns) if slowdowns else None,
        },
    }


def render_campaign(payload: dict) -> str:
    lines = [f"resilience campaign ({payload['schema']})"]
    for s in payload["scenarios"]:
        flags = []
        flags.append("detected" if s["detected"] else "MISSED")
        if s["bit_exact"] is not None:
            flags.append("recovered" if s["recovered"] else "aborted")
        if s["slowdown"] is not None:
            flags.append(f"slowdown {s['slowdown']:.2f}x")
        if s["detection_latency"]:
            flags.append(f"latency {s['detection_latency']}")
        lines.append(f"  {s['name']:28s} {', '.join(flags)}")
        lines.append(f"      {s['fault']}; {s['notes']}")
    summary = payload["summary"]
    rate = summary["recovery_rate"]
    worst = summary["max_degraded_slowdown"]
    lines.append(
        f"  -- {summary['detected']}/{summary['n_scenarios']} detected, "
        f"recovery rate "
        f"{'n/a' if rate is None else f'{rate:.0%}'}, "
        f"max degraded slowdown "
        f"{'n/a' if worst is None else f'{worst:.2f}x'}"
    )
    return "\n".join(lines)

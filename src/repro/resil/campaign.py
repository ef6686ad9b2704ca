"""Deterministic fault campaigns over the simulated TSP and its server.

A campaign is a fixed set of seeded fault scenarios, each one row of a
table with the same columns — *was the fault detected*, *how many cycles
after onset*, *did the system recover*, *were the answers bit-exact*, and
*what did recovery cost* — filled where the column applies:

* chip scenarios span the three resilience pillars: link-error recovery
  (FEC in line, retransmission in the reserved slack, re-routing around a
  dark cable), health/watchdog detection (aborts with chip/cycle/unit
  context), and degraded-mode recompilation (slowdown against healthy);
* serving scenarios run a live :class:`~repro.serve.InferenceServer`
  through a fault window — a watchdog storm on a pooled chip, an
  FEC-swamping burst on a sharded ring's cable, a MEM slice dying under
  traffic — and report request outcomes, availability, the waves to
  recover and the health transitions the server counted.

Every scenario is a function of its seeds.  Chip faults are pure
functions of seeds and sequence numbers; the serving scenarios run one
worker on a held serving clock, so a batch leaves only when it is full,
and between waves the driver waits for every answer and every repair.  A
re-run therefore writes byte-identical JSON — the property that makes a
failing row a usable bug report.  ``python -m repro.resil`` runs the
campaign, writes ``BENCH_resil.json`` and exits with its gates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..compiler.partition import build_ring_transfer, plan_ring_route
from ..config import ArchConfig, small_test_chip
from ..errors import (
    C2cLinkError,
    MemoryFaultError,
    RequestError,
    ServeError,
    TspError,
    WatchdogError,
)
from ..isa.icu import Nop, Sync
from ..isa.mem import Read, Write
from ..isa.program import IcuId, Program
from ..nn.layers import Dense, ReLU
from ..nn.model import Sequential
from ..nn.transformer import TransformerConfig
from ..sim.c2c import LinkErrorModel
from ..sim.chip import TspChip
from ..sim.faults import FaultInjector
from ..sim.multichip import MultiChipSystem
from ..verify.oracle import run_differential
from .degrade import Blacklist, compile_degraded
from .health import HealthMonitor, Watchdog

SCHEMA = "tsp-resil-campaign/2"


@dataclass
class ScenarioResult:
    """One row of the campaign table; a column that does not apply to
    the scenario is None (or empty)."""

    name: str
    fault: str
    detected: bool
    recovered: bool
    #: cycles from fault onset to the simulator surfacing it (0 when the
    #: fault is corrected transparently in the datapath)
    detection_latency: int = 0
    #: data bit-exact with the fault-free reference (a serving scenario:
    #: every answer equal to the sequential oracle)
    bit_exact: bool | None = None
    #: a second run of the same seeds reproduced cycles and bits
    deterministic: bool | None = None
    #: degraded-path cycles / healthy-path cycles (1.0 = free recovery)
    slowdown: float | None = None
    #: serving: requests by outcome over every wave (``ok``, ``wrong``,
    #: ``retryable_exhausted``, ``shed``, ...)
    outcomes: dict[str, int] = field(default_factory=dict)
    #: serving: answered right / submitted
    availability: float | None = None
    #: serving: the fault-free first wave was answered right
    warmup_ok: bool | None = None
    #: serving: waves after the fault window until full capacity and an
    #: all-right wave
    recovery_waves: int | None = None
    #: serving: health transitions by kind, as the server counted them
    health: dict[str, int] = field(default_factory=dict)
    verdicts: list[str] = field(default_factory=list)
    notes: str = ""


def _must_abort(
    name: str, fault: str, expected: type, run, latency: int | None = None
) -> ScenarioResult:
    """A fault no schedule absorbs: ``run()`` must raise ``expected``
    naming chip, cycle and unit rather than finish on corrupt data.  The
    detection latency is the fault's cycle unless ``latency`` is given."""
    try:
        run()
    except expected as error:
        located = None not in (error.chip_id, error.cycle, error.unit)
        return ScenarioResult(
            name, fault, detected=True, recovered=False,
            detection_latency=(
                error.cycle or 0 if latency is None else latency
            ),
            notes=f"aborted with context: {error}"
            + ("" if located else " [MISSING CONTEXT]"),
        )
    return ScenarioResult(
        name, fault, detected=False, recovered=False,
        notes="run completed but should have aborted",
    )


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
    plan = build_ring_transfer(system, [0, 1], len(payload))
    landed, results = plan.run(system, payload)
    monitor = HealthMonitor()
    monitor.poll_system(system)
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
    link = MultiChipSystem.ring(config, 2).chips[0].c2c_unit(
        Hemisphere.EAST
    ).links[0]
    return _must_abort(
        "uncorrectable_abort", "burst with max_retries=0 on cable 0",
        C2cLinkError, lambda: _two_chip_transfer(config, payload, model),
        # surfaced at the scheduled emplace: one link flight after the
        # corrupted capture left the sender
        latency=link.latency,
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
    plan = build_ring_transfer(healthy, direct, len(payload))
    healthy_cycles = plan.run(healthy, payload)[1][0].cycles

    # the same route over the now-dark cable aborts deterministically
    broken = MultiChipSystem.ring(config, n_chips)
    broken.set_link_error_model(
        0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
    )
    detected = False
    detection_cycle = 0
    try:
        build_ring_transfer(broken, direct, len(payload)).run(
            broken, payload
        )
    except C2cLinkError as fault:
        detected = True
        detection_cycle = fault.cycle or 0

    # recovery: re-plan around the dead cable and run on a fresh system
    rerouted = MultiChipSystem.ring(config, n_chips)
    rerouted.set_link_error_model(
        0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
    )
    route = plan_ring_route(n_chips, 0, 1, {dead_cable})
    rplan = build_ring_transfer(rerouted, route, len(payload))
    landed, runs = rplan.run(rerouted, payload)
    rerouted_cycles = runs[0].cycles
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
    """An uncorrectable SRAM double: detected at the Read that consumes
    it, aborts with location context, never forwards corrupt data."""
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
    program.add(dst, Nop(6))
    program.add(
        dst, Write(address=9, stream=0, direction=Direction.EASTWARD)
    )
    return _must_abort(
        "sram_double_bit", "two bits flipped in one stored MEM word",
        MemoryFaultError, lambda: chip.run(program),
    )


def scenario_watchdog_hang(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A cross-chip hang — one chip parks on a barrier its peer never
    releases — caught by the armed watchdog at its exact deadline, not at
    ``max_cycles``."""
    system = MultiChipSystem.ring(config, 2)
    system.chips[1].arm_watchdog(Watchdog(400, "campaign"))
    hung = Program()
    icu = IcuId(system.chips[1].floorplan.mem_slice(Hemisphere.WEST, 0))
    hung.add(icu, Sync())  # no Notify anywhere: parks forever
    return _must_abort(
        "watchdog_hang", "chip 1 parked on a barrier never released",
        WatchdogError,
        lambda: system.run([Program(), hung], max_cycles=100_000),
    )


# ----------------------------------------------------------------------
# serving scenarios
#
# One worker and a held serving clock (it always reads 0.0): a batch
# leaves only on the size trigger, every wave is whole batches, and a
# retried batch goes back to the head of the queue whole.  Between waves
# the driver waits for every answer and every repair the wave set off, so
# the next wave starts from the same pool state on every run.

#: (fault waves, requests per wave): full size, ``--quick``
SERVING_WAVES = {False: (3, 8), True: (1, 4)}
#: requests per batch — every wave is a whole number of batches
SERVING_BATCH = 4
SERVING_SEED = 0
#: a serving scenario must be back at full capacity and answer a whole
#: wave right within this many waves after its fault window
MAX_RECOVERY_WAVES = 12
#: the share of submitted requests a serving scenario must answer right
MIN_AVAILABILITY = 0.5
#: a hang guard, not a deadline: a healthy run never comes near it, and
#: reaching it fails the scenario instead of hanging the campaign
HANG_GUARD_S = 60.0


def _mlp(config: ArchConfig):
    from ..serve import TransformerMlpServeModel

    return TransformerMlpServeModel(
        "mlp",
        TransformerConfig(
            d_model=16, n_heads=2, d_ff=32, seq_len=8, n_layers=1, vocab=64,
        ),
        config, seed=SERVING_SEED, max_vectors_per_program=8,
    )


def _sharded(config: ArchConfig):
    from ..serve import ShardedCnnServeModel

    rng = np.random.default_rng(SERVING_SEED)
    model = Sequential([
        Dense(16, 32, rng=np.random.default_rng(SERVING_SEED + 1)),
        ReLU(),
        Dense(32, 8, rng=np.random.default_rng(SERVING_SEED + 2)),
    ])
    return ShardedCnnServeModel(
        "sharded", model, config, rng.standard_normal((16, 16)),
        n_chips=2, max_vectors_per_program=8,
    )


def _server(config: ArchConfig, model, **pool):
    """A one-worker server on the held serving clock."""
    from ..serve import BatchPolicy, InferenceServer

    server = InferenceServer(
        config, [model], n_workers=1,
        # any positive delay: the held clock never reaches it
        default_policy=BatchPolicy(max_batch=SERVING_BATCH, max_delay_s=1.0),
        **pool,
    )
    server.batcher.clock = lambda: 0.0
    return server


def _used_mem_slice(cache):
    """A (hemisphere, slice index) some cached program actually uses.

    The dead-slice scenario wants to kill SRAM the serving programs
    depend on — killing an unused slice proves nothing.  Input-tensor
    placements are ideal: the executor host-writes them every batch, so
    a dead slice there faults on the very next request.
    """
    for program in list(cache._programs.values()):
        for spec in getattr(program, "inputs", {}).values():
            layout = spec.layout
            placements = (
                layout.parallel if layout.is_parallel else layout.planes
            )
            for p in placements:
                return (p.hemisphere, p.slice_index)
    return (Hemisphere.WEST, 0)


def _pool_restored(server) -> bool:
    pool = server.pool
    return (
        not pool.active_quarantined
        and pool.capacity() == len(pool.workers)
    )


def _wave(server, model, payloads, references, outcomes: Counter) -> bool:
    """Submit one wave, wait for every answer and for every repair it set
    off, and check each answer against the oracle; True when the whole
    wave was answered right."""
    futures = []
    for payload, reference in zip(payloads, references):
        try:
            futures.append((server.submit(model, payload), reference))
        except RequestError as refusal:
            outcomes[refusal.outcome] += 1
    right = 0
    for future, reference in futures:
        error = future.error(HANG_GUARD_S)
        if error is not None:
            outcomes[error.outcome] += 1
        elif np.array_equal(future.result().output, reference):
            right += 1
        else:
            outcomes["wrong"] += 1
    outcomes["ok"] += right
    pool = server.pool
    with pool._cond:  # notified when repair hands hardware back
        if not pool._cond.wait_for(
            lambda: not pool.active_quarantined, HANG_GUARD_S
        ):
            raise ServeError("quarantined hardware was never repaired")
    return right == len(payloads)


def _serve_through_fault(
    name, fault, server, model, quick, inject, clear=None,
    restored=_pool_restored,
) -> ScenarioResult:
    """Warm-up wave, ``inject``, the fault waves, ``clear``, then waves
    until ``restored(server)`` holds after a wave answered right."""
    fault_waves, wave_size = SERVING_WAVES[quick]
    rng = np.random.default_rng(SERVING_SEED)
    outcomes = Counter()
    try:
        shape = server.models[model].payload_shape
        payloads = [rng.standard_normal(shape) for _ in range(wave_size)]
        references = [
            server.sequential_reference(model, p) for p in payloads
        ]
        warmup_ok = _wave(server, model, payloads, references, outcomes)
        inject(server)
        for _ in range(fault_waves):
            _wave(server, model, payloads, references, outcomes)
        if clear is not None:
            clear(server)
        recovered, recovery_waves = False, 0
        while not recovered and recovery_waves < MAX_RECOVERY_WAVES:
            recovery_waves += 1
            recovered = _wave(
                server, model, payloads, references, outcomes
            ) and restored(server)
    finally:
        server.close()
    # read once the worker and repair threads have joined: every batch
    # and every health event has been counted
    stats = server.stats()
    counted = server.registry.totals().get("serve", {})
    health = {
        kind.removeprefix("health_"): n
        for kind, n in sorted(counted.items())
        if kind.startswith("health_")
    }
    (state,) = stats["pool"]["states"].values()
    return ScenarioResult(
        name, fault, detected=bool(health), recovered=recovered,
        bit_exact=not outcomes["wrong"],
        outcomes=dict(sorted(outcomes.items())),
        availability=round(
            outcomes["ok"] / max(sum(outcomes.values()), 1), 4
        ),
        warmup_ok=warmup_ok, recovery_waves=recovery_waves, health=health,
        notes=f"{stats['requests']['retried']} retried; worker {state}",
    )


def scenario_serving_watchdog_storm(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A pooled chip trips its watchdog at every checkout.

    Unlocalizable and persistent: requests retry onto the same chip,
    strikes accumulate, the chip is quarantined and the spare swaps in.
    When the storm passes, repair (scrub + clean probes) shelves the chip
    as the spare — full capacity restored.
    """
    server = _server(config, _mlp(config), n_spares=1)
    hardware = server.pool.workers[0].hardware
    return _serve_through_fault(
        "serving_watchdog_storm",
        "watchdog deadline 1 armed at every checkout of pool0",
        server, "mlp", quick,
        inject=lambda srv: srv.pool.attach_hardware_fault(
            hardware, "watchdog-storm",
            lambda chip: chip.arm_watchdog(Watchdog(1, "watchdog storm")),
        ),
        clear=lambda srv: srv.pool.detach_hardware_fault("watchdog-storm"),
    )


def scenario_serving_link_ber_burst(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """An error burst swamps FEC on one cable of a sharded 2-ring.

    Every pipeline transfer across the cable takes an uncorrectable hit
    with no retry budget.  A 2-ring has no other arc to re-route through,
    so the fault is transient-class: requests retry, the ring is
    quarantined, the spare ring swaps in.
    """
    server = _server(config, _sharded(config), n_chips=2, n_spares=1)
    hardware = server.pool.workers[0].hardware
    burst = LinkErrorModel(
        seed=SERVING_SEED, burst=(0, 1 << 20), max_retries=0
    )
    return _serve_through_fault(
        "serving_link_ber_burst",
        "uncorrectable burst with max_retries=0 on cable 0 of pool0's ring",
        server, "sharded", quick,
        inject=lambda srv: srv.pool.attach_hardware_fault(
            hardware, "ber-burst",
            lambda system: system.set_link_error_model(
                0, Hemisphere.EAST, 0, burst
            ),
        ),
        clear=lambda srv: srv.pool.detach_hardware_fault("ber-burst"),
    )


def scenario_serving_dead_mem_slice(
    config: ArchConfig, quick: bool
) -> ScenarioResult:
    """A MEM slice the serving programs read dies under traffic.

    Localizable: the fault names the slice, the worker blacklists it and
    recompiles every program around it — degraded in place, bit
    identical, no quarantine.  The slice stays dead (scrub does not heal
    a hard failure), so recovered means a wave answered right *while
    degraded*, at full capacity.
    """
    server = _server(config, _mlp(config))
    worker = server.pool.workers[0]

    def inject(srv):
        worker.chip.mem_unit(*_used_mem_slice(srv.cache)).mark_dead()

    return _serve_through_fault(
        "serving_dead_mem_slice",
        "a MEM slice the served programs read dies under traffic",
        server, "mlp", quick, inject=inject,
        restored=lambda srv: (
            _pool_restored(srv) and worker.state == "degraded"
        ),
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
    scenario_serving_watchdog_storm,
    scenario_serving_link_ber_burst,
    scenario_serving_dead_mem_slice,
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
    """Run every scenario; return the ``BENCH_resil.json`` payload, whose
    ``summary["ok"]`` is the gate."""
    config = config or small_test_chip()
    results = [_run_scenario(s, config, quick) for s in SCENARIOS]
    detected = sum(r.detected for r in results)
    recoverable = [r for r in results if r.bit_exact is not None]
    recovered = sum(r.recovered for r in recoverable)
    serving = [r for r in results if r.availability is not None]
    wrong = sum(r.outcomes.get("wrong", 0) for r in results)
    gates = {
        "detected": detected == len(results),
        "recovered": recovered == len(recoverable),
        "wrong_answers": wrong == 0,
        "availability": all(
            r.availability >= MIN_AVAILABILITY for r in serving
        ),
        "warmup": all(r.warmup_ok for r in serving),
    }
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
            "max_degraded_slowdown": max(
                (r.slowdown for r in results if r.slowdown is not None),
                default=None,
            ),
            "min_availability": min(
                (r.availability for r in serving), default=None
            ),
            "wrong_answers": wrong,
            "gates": gates,
            "ok": all(gates.values()),
        },
    }


def render_campaign(payload: dict) -> str:
    """The campaign as one fixed-column table (``-``: not applicable)."""

    def cell(value, spec=""):
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "NO"
        return format(value, spec)

    size = "quick" if payload["quick"] else "full size"
    lines = [
        f"resilience campaign ({payload['schema']}, {size})",
        f"  {'scenario':28s} {'detected':>8s} {'latency':>7s} "
        f"{'recovered':>9s} {'bit-exact':>9s} {'slowdown':>8s} "
        f"{'avail':>6s} {'waves':>5s}",
    ]
    for s in payload["scenarios"]:
        attempted = s["bit_exact"] is not None
        lines.append(
            f"  {s['name']:28s} {cell(s['detected']):>8s} "
            f"{s['detection_latency']:>7d} "
            f"{cell(s['recovered'] if attempted else None):>9s} "
            f"{cell(s['bit_exact']):>9s} "
            f"{cell(s['slowdown'], '.2f'):>8s} "
            f"{cell(s['availability'], '.2f'):>6s} "
            f"{cell(s['recovery_waves']):>5s}"
        )
        lines.append(f"      {s['fault']}; {s['notes']}")
    summary = payload["summary"]
    rate = summary["recovery_rate"]
    lines.append(
        f"  -- {summary['detected']}/{summary['n_scenarios']} detected, "
        f"recovery rate {'n/a' if rate is None else f'{rate:.0%}'}, "
        f"max degraded slowdown "
        f"{cell(summary['max_degraded_slowdown'], '.2f')}x, "
        f"min availability {cell(summary['min_availability'], '.2f')}, "
        f"{summary['wrong_answers']} wrong answers"
    )
    lines.append("  -- gates: " + ", ".join(
        f"{gate} {'pass' if ok else 'FAIL'}"
        for gate, ok in summary["gates"].items()
    ))
    return "\n".join(lines)

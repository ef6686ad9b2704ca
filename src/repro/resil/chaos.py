"""Chaos campaign: the serving stack under live, seeded hardware faults.

``python -m repro.resil.chaos`` drives an open-loop request mix at a
live :class:`~repro.serve.InferenceServer` while injecting faults
mid-stream — a watchdog storm on a pooled chip, an FEC-swamping error
burst on one C2C cable of a sharded ring, a MEM slice dying under
traffic — and gates on the self-healing contract:

* **zero wrong answers** — every completed request is bit-identical to
  the healthy sequential oracle, no matter what failed underneath;
* **bounded recovery** — after the fault window closes (or, for the
  dead slice, while it persists), the pool returns to full capacity and
  all-ok waves within a bounded number of recovery waves;
* **graceful degradation** — requests lost during the window die with
  attributable outcomes (``retryable_exhausted``, ``shed``), never
  hangs or silent corruption.

Results (availability, p99 during vs after the fault, recovery wave
counts, health transitions by kind as the server's registry counted them)
land in ``BENCH_chaos.json``; the exit code is the gate, so CI can run
``--smoke`` directly.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Hemisphere
from ..config import ArchConfig, small_test_chip
from ..errors import RequestError, ServeError
from ..nn.layers import Dense, ReLU
from ..nn.model import Sequential
from ..nn.transformer import TransformerConfig
from ..sim.c2c import LinkErrorModel
from .health import Watchdog

SCHEMA = "tsp-chaos/2"

#: recovery must complete within this many post-fault waves
MAX_RECOVERY_WAVES = 12


def _make_single_chip_model(config: ArchConfig, seed: int):
    from ..serve import TransformerMlpServeModel

    return TransformerMlpServeModel(
        "mlp",
        TransformerConfig(
            d_model=16, n_heads=2, d_ff=32, seq_len=8, n_layers=1,
            vocab=64,
        ),
        config,
        seed=seed,
        max_vectors_per_program=8,
    )


def _make_sharded_model(config: ArchConfig, seed: int):
    from ..serve import ShardedCnnServeModel

    rng = np.random.default_rng(seed)
    model = Sequential([
        Dense(16, 32, rng=np.random.default_rng(seed + 1)),
        ReLU(),
        Dense(32, 8, rng=np.random.default_rng(seed + 2)),
    ])
    return ShardedCnnServeModel(
        "sharded", model, config, rng.standard_normal((16, 16)),
        n_chips=2, max_vectors_per_program=8,
    )


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


@dataclass
class _Tally:
    """One scenario's request accounting."""

    outcomes: Counter = field(default_factory=Counter)
    during_s: list = field(default_factory=list)
    after_s: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.outcomes["ok"]

    @property
    def submitted(self) -> int:
        return sum(self.outcomes.values())


def _run_wave(
    server, model_name, payloads, references, tally, latencies,
    deadline_s=30.0,
) -> bool:
    """Submit one wave, resolve every future, verify every answer.

    Returns True when every request of the wave completed correctly.
    """
    futures = []
    for index, payload in enumerate(payloads):
        try:
            futures.append(
                (index, server.submit(model_name, payload,
                                      deadline_s=deadline_s))
            )
        except RequestError as error:
            tally.outcomes[error.outcome] += 1
        except ServeError:
            tally.outcomes["rejected"] += 1
    all_ok = len(futures) == len(payloads)
    for index, future in futures:
        error = future.error(timeout=120.0)
        if error is None:
            result = future.result()
            if np.array_equal(result.output, references[index]):
                tally.outcomes["ok"] += 1
                latencies.append(result.timing.total_s)
            else:
                tally.outcomes["wrong"] += 1
                all_ok = False
        else:
            tally.outcomes[getattr(error, "outcome", "failed")] += 1
            all_ok = False
    return all_ok


def _pool_restored(server) -> bool:
    pool = server.pool
    return (
        not pool.active_quarantined
        and pool.capacity() == len(pool.workers)
    )


def _run_scenario(
    name, server, model_name, *, seed, fault_waves, wave_size,
    inject, clear, restored,
) -> dict:
    """Warmup -> inject -> fault waves -> clear -> recovery loop."""
    rng = np.random.default_rng(seed)
    shape = server.models[model_name].payload_shape
    payloads = [rng.standard_normal(shape) for _ in range(wave_size)]
    references = [
        server.sequential_reference(model_name, p) for p in payloads
    ]
    tally = _Tally()
    try:
        warm_ok = _run_wave(
            server, model_name, payloads, references, tally,
            tally.after_s,
        )
        inject(server)
        for _ in range(fault_waves):
            _run_wave(
                server, model_name, payloads, references, tally,
                tally.during_s,
            )
        if clear is not None:
            clear(server)
        recovery_waves = 0
        recovered = False
        deadline = time.monotonic() + 120.0
        while recovery_waves < MAX_RECOVERY_WAVES:
            recovery_waves += 1
            wave_ok = _run_wave(
                server, model_name, payloads, references, tally,
                tally.after_s,
            )
            if wave_ok and restored(server):
                recovered = True
                break
            # the background repair loop hands hardware back under the
            # pool's condition: wait for it, not for a guessed interval
            with server.pool._cond:
                server.pool._cond.wait_for(
                    lambda: restored(server),
                    max(0.0, deadline - time.monotonic()),
                )
            if time.monotonic() > deadline:
                break
        stats = server.stats()
    finally:
        server.close()
    counted = server.registry.totals().get("serve", {})

    def _p99_ms(samples):
        if not samples:
            return None
        return round(float(np.percentile(samples, 99)) * 1e3, 3)

    outcomes = dict(sorted(tally.outcomes.items()))
    return {
        "scenario": name,
        "warmup_ok": warm_ok,
        "outcomes": outcomes,
        "wrong_answers": tally.outcomes["wrong"],
        "completed": tally.completed,
        "submitted": tally.submitted,
        "availability": round(
            tally.completed / max(tally.submitted, 1), 4
        ),
        "retried": stats["requests"]["retried"],
        "shed": stats["requests"]["shed"],
        "quarantines": stats["pool"]["quarantines_total"],
        "repaired": stats["pool"]["repaired"],
        "worker_states": stats["pool"]["states"],
        "health": {
            name.removeprefix("health_"): n
            for name, n in sorted(counted.items())
            if name.startswith("health_")
        },
        "p99_during_ms": _p99_ms(tally.during_s),
        "p99_after_ms": _p99_ms(tally.after_s),
        "recovery_waves": recovery_waves,
        "recovered": recovered,
    }


# ----------------------------------------------------------------------
# Scenarios


def _scenario_watchdog_storm(config, seed, fault_waves, wave_size):
    """A pooled chip starts tripping its watchdog at every checkout.

    Unlocalizable and persistent: requests retry onto the same chip,
    strikes accumulate, the chip is quarantined and the spare swaps in.
    When the storm passes, repair (scrub + clean probes) returns the
    chip as a spare — full capacity restored.
    """
    from ..serve import BatchPolicy, InferenceServer

    server = InferenceServer(
        config, [_make_single_chip_model(config, seed)],
        n_workers=1, n_spares=1,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
    )
    worker = server.pool.workers[0]
    hardware = worker.hardware

    def inject(srv):
        srv.pool.attach_hardware_fault(
            hardware, "watchdog-storm",
            lambda chip: chip.arm_watchdog(
                Watchdog(deadline=1, label="chaos watchdog storm")
            ),
        )

    def clear(srv):
        srv.pool.detach_hardware_fault("watchdog-storm")

    return _run_scenario(
        "watchdog_storm", server, "mlp", seed=seed,
        fault_waves=fault_waves, wave_size=wave_size,
        inject=inject, clear=clear, restored=_pool_restored,
    )


def _scenario_link_ber_burst(config, seed, fault_waves, wave_size):
    """An error burst swamps FEC on one cable of a sharded 2-ring.

    Every pipeline transfer across the cable takes an uncorrectable hit
    with no retry budget -> :class:`C2cLinkError`.  A 2-ring has no
    alternate arc to re-route through, so the fault is transient-class:
    requests retry, the ring is quarantined, the spare ring swaps in.
    """
    from ..serve import BatchPolicy, InferenceServer

    server = InferenceServer(
        config, [_make_sharded_model(config, seed)],
        n_workers=1, n_chips=2, n_spares=1,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
    )
    worker = server.pool.workers[0]
    hardware = worker.hardware
    burst = LinkErrorModel(
        seed=seed, burst=(0, 1 << 20), max_retries=0
    )

    def inject(srv):
        srv.pool.attach_hardware_fault(
            hardware, "ber-burst",
            lambda system: system.set_link_error_model(
                0, Hemisphere.EAST, 0, burst
            ),
        )

    def clear(srv):
        srv.pool.detach_hardware_fault("ber-burst")

    return _run_scenario(
        "link_ber_burst", server, "sharded", seed=seed,
        fault_waves=fault_waves, wave_size=wave_size,
        inject=inject, clear=clear, restored=_pool_restored,
    )


def _scenario_dead_mem_slice(config, seed, fault_waves, wave_size):
    """A MEM slice the serving programs depend on dies under traffic.

    Localizable: the fault names the slice, the worker blacklists it and
    recompiles every program around it — degraded-in-place serving, bit
    identical, no quarantine.  The slice stays dead (hard failure
    survives scrub), so "recovered" here means sustained all-ok waves
    *while degraded* at full capacity.
    """
    from ..serve import BatchPolicy, InferenceServer

    server = InferenceServer(
        config, [_make_single_chip_model(config, seed)],
        n_workers=1,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
    )
    worker = server.pool.workers[0]

    def inject(srv):
        hemisphere, index = _used_mem_slice(srv.cache)
        worker.chip.mem_unit(hemisphere, index).mark_dead()

    def restored(srv):
        return (
            _pool_restored(srv)
            and worker.state == "degraded"
            and worker.blacklist is not None
        )

    return _run_scenario(
        "dead_mem_slice", server, "mlp", seed=seed,
        fault_waves=fault_waves, wave_size=wave_size,
        inject=inject, clear=None, restored=restored,
    )


SCENARIOS = {
    "watchdog_storm": _scenario_watchdog_storm,
    "link_ber_burst": _scenario_link_ber_burst,
    "dead_mem_slice": _scenario_dead_mem_slice,
}


# ----------------------------------------------------------------------


def run_chaos(
    seed: int = 0,
    smoke: bool = False,
    scenarios: list[str] | None = None,
    config: ArchConfig | None = None,
) -> dict:
    """Run the chaos campaign; returns the ``BENCH_chaos.json`` payload."""
    config = config or small_test_chip()
    fault_waves = 1 if smoke else 3
    wave_size = 4 if smoke else 8
    names = scenarios or list(SCENARIOS)
    results = []
    t0 = time.monotonic()
    for name in names:
        print(f"chaos: {name} ...", flush=True)
        result = SCENARIOS[name](config, seed, fault_waves, wave_size)
        results.append(result)
        print(
            f"  completed {result['completed']}/{result['submitted']} "
            f"wrong {result['wrong_answers']} "
            f"quarantines {result['quarantines']} "
            f"recovered {result['recovered']} "
            f"in {result['recovery_waves']} wave(s)",
            flush=True,
        )
    gates = {
        "wrong_answers": sum(r["wrong_answers"] for r in results) == 0,
        "all_recovered": all(r["recovered"] for r in results),
        "availability": all(r["availability"] >= 0.5 for r in results),
        "warmup": all(r["warmup_ok"] for r in results),
    }
    return {
        "schema": SCHEMA,
        "seed": seed,
        "smoke": smoke,
        "wall_s": round(time.monotonic() - t0, 3),
        "workload": {
            "fault_waves": fault_waves,
            "wave_size": wave_size,
            "max_recovery_waves": MAX_RECOVERY_WAVES,
        },
        "scenarios": {r["scenario"]: r for r in results},
        "gates": gates,
        "ok": all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.resil.chaos",
        description="Serve a live request mix while injecting hardware "
        "faults; gate on zero wrong answers and bounded recovery.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller waves for CI")
    parser.add_argument("--scenario", action="append", default=None,
                        choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    payload = run_chaos(
        seed=args.seed, smoke=args.smoke, scenarios=args.scenario
    )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for gate, passed in payload["gates"].items():
        print(f"  gate {gate}: {'PASS' if passed else 'FAIL'}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())

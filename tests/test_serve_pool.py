"""Chip checkout discipline and the worker pool's failure containment.

Two layers of guarantees:

* ``TspChip.scrub()`` is a factory reset — two tenants sharing a pooled
  chip back-to-back must see bit-identical results and cycle counts to
  fresh chips, with no SRAM, trace or watchdog leakage between
  checkouts (the chip-reuse regression suite); an attached telemetry
  collector observes every checkout.
* A worker that faults mid-batch fails only its own batch's requests —
  each with the chip/cycle context the simulator attached — and the pool
  stays serviceable with no deadlocked callers (the concurrency negative
  suite, reusing the repro.resil watchdog as a deterministic fault).
"""

import numpy as np
import pytest

from repro.arch import Hemisphere
from repro.arch.power import ActivityCounts
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.errors import C2cLinkError, ServeError, TspError, WatchdogError
from repro.obs import TelemetryCollector
from repro.resil import Watchdog
from repro.serve import (
    BatchPolicy,
    ChipPool,
    DynamicBatcher,
    InferenceServer,
    ProgramCache,
    ServeModel,
    ShardedCnnServeModel,
)
from repro.serve.models import TransformerMlpServeModel
from repro.nn import make_shapes, make_small_cnn
from repro.nn.transformer import TransformerConfig
from repro.sim import LinkErrorModel
from repro.sim.chip import TspChip
from repro.sim.mxm import MxmUnit


def compile_matmul(config, seed, k=16, m=16, n=2):
    rng = np.random.default_rng(seed)
    w = rng.integers(-8, 8, (k, m)).astype(np.int8)
    x = rng.integers(-8, 8, (n, k)).astype(np.int8)
    g = StreamProgramBuilder(config)
    g.write_back(g.matmul(w, g.constant_tensor("x", x)), name="r")
    return g.compile(), x, w


class TestScrub:
    def test_scrub_restores_fresh_state(self, config):
        compiled, _, _ = compile_matmul(config, seed=1)
        chip = TspChip(config, chip_id="pooled", trace=True)
        collector = TelemetryCollector()
        chip.attach_telemetry(collector)
        chip.arm_watchdog(Watchdog(deadline=10**9))
        run = execute(compiled, chip=chip).run
        assert chip.memory_image() != {}
        assert chip.trace

        chip.scrub()
        assert chip.memory_image() == {}
        assert chip.trace == []
        assert chip.activity.instructions == 0
        assert chip.now == 0
        assert chip.obs is collector     # an observer: the scrub keeps it,
        assert collector.rollup() == run.activity  # holding what ran only
        assert chip.watchdog is None     # armed deadlines do not leak
        assert chip.srf.hop_bytes_total == 0
        assert not chip.superlanes_off
        assert chip.weights_installed_cycle is None

    def test_back_to_back_programs_bit_identical_to_fresh(self, config):
        """A, scrub, B, scrub, A on one chip == three fresh chips."""
        prog_a, x_a, w_a = compile_matmul(config, seed=1)
        prog_b, x_b, w_b = compile_matmul(config, seed=2, k=24, n=3)

        fresh = [
            execute(p, chip=TspChip(config))
            for p in (prog_a, prog_b, prog_a)
        ]

        pooled_chip = TspChip(config, chip_id="pooled")
        pooled = []
        for p in (prog_a, prog_b, prog_a):
            pooled_chip.scrub()
            pooled.append(execute(p, chip=pooled_chip))

        for f, q in zip(fresh, pooled):
            assert np.array_equal(f["r"], q["r"])
            assert f.run.cycles == q.run.cycles  # timing doesn't drift

    def test_a_collector_counts_every_checkout(self, config):
        """A collector attached once outlives the scrub at each checkout:
        over runs of two programs, replayed and simulated, its rollup is
        the sum of their activity."""
        chip, collector = TspChip(config), TelemetryCollector()
        chip.attach_telemetry(collector)
        total = ActivityCounts()
        for seed, k, n, replay in ((1, 16, 2, True), (2, 24, 3, False),
                                   (1, 16, 2, False), (2, 24, 3, True)):
            compiled = compile_matmul(config, seed=seed, k=k, n=n)[0]
            chip.scrub()
            run = execute(compiled, chip=chip, replay=replay).run
            assert run.skipped_cycles == (run.cycles if replay else 0)
            total = total.merge(run.activity)
        assert chip.obs is collector
        assert collector.rollup() == total
        assert collector.cycles == total.cycles > 0

    def test_scrub_darkens_loaded_planes_and_keeps_untouched_ones(
        self, config
    ):
        """A simulated matmul installs weights; the scrub gives its unit
        dark planes again, and leaves the unit nothing touched as it is."""
        compiled, _, _ = compile_matmul(config, seed=1)
        chip = TspChip(config)
        before = [list(unit.planes) for unit in chip.parts[MxmUnit]]
        execute(compiled, chip=chip, replay=False)
        loaded = [any(plane.weights is not None for plane in unit.planes)
                  for unit in chip.parts[MxmUnit]]
        assert any(loaded) and not all(loaded)
        chip.scrub()
        for unit, planes, was_loaded in zip(chip.parts[MxmUnit], before,
                                            loaded):
            assert all(plane.weights is None and plane.wide is None
                       and not plane.results for plane in unit.planes)
            assert all(a is b for a, b in zip(unit.planes, planes)) == (
                not was_loaded
            )

    def test_scrub_keeps_configuration(self, config):
        """Wiring/config survives a scrub; only tenant state dies."""
        chip = TspChip(config, chip_id="keepme")
        chip.scrub()
        assert chip.chip_id == "keepme"
        assert chip.config is config


def make_mlp(config, name="mlp", seed=0):
    return TransformerMlpServeModel(
        name,
        TransformerConfig(d_model=16, n_heads=2, d_ff=32,
                          seq_len=8, n_layers=1, vocab=64),
        config,
        seed=seed,
    )


class ExplodingModel(ServeModel):
    """Raises a TspError (with chip context) midway through run_batch."""

    def __init__(self, chip_id_holder):
        self.name = "boom"
        self.payload_shape = (4,)
        self._holder = chip_id_holder

    def run_batch(self, chip, cache, payloads, stats=None):
        self._holder.append(chip.chip_id)
        raise TspError("injected mid-batch failure").with_context(
            chip=chip.chip_id, cycle=chip.now
        )

    def run_reference(self, payload):
        raise AssertionError("never called")


class TestPoolService:
    def test_pool_resolves_futures(self, config):
        server = InferenceServer(
            config,
            [make_mlp(config)],
            n_workers=2,
            default_policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
        )
        rng = np.random.default_rng(0)
        payloads = rng.standard_normal((8, 16))
        futures = [server.submit("mlp", p) for p in payloads]
        results = [f.result(timeout=60.0) for f in futures]
        server.close()
        assert len(results) == 8
        for payload, result in zip(payloads, results):
            assert result.output.shape == (16,)
            assert result.timing.total_s >= 0
            ref = server.sequential_reference("mlp", payload)
            assert np.array_equal(result.output, ref)

    def test_watchdog_fault_retries_only_its_batch(self, config):
        """inject_at_checkout + a 1-cycle watchdog: the fault is
        retryable, so that batch's requests are transparently re-enqueued
        (counted as retries, not failures), the chip is scrubbed, and the
        retry runs clean because the hook was one-shot — callers see
        bit-exact answers, just late."""
        server = InferenceServer(
            config,
            [make_mlp(config)],
            n_workers=1,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=0.001),
        )
        worker = server.pool.workers[0]
        worker.inject_at_checkout(
            lambda chip: chip.arm_watchdog(
                Watchdog(deadline=1, label="serve-test")
            )
        )
        rng = np.random.default_rng(1)
        payloads = rng.standard_normal((2, 16))
        doomed = [server.submit("mlp", p) for p in payloads]
        for payload, future in zip(payloads, doomed):
            result = future.result(timeout=60.0)
            assert np.array_equal(
                result.output, server.sequential_reference("mlp", payload)
            )

        payload = rng.standard_normal(16)
        result = server.submit("mlp", payload).result(timeout=60.0)
        assert np.array_equal(
            result.output, server.sequential_reference("mlp", payload)
        )
        assert server.pool.alive == 1
        stats = server.stats()
        server.close()
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["retried"] == 2
        assert stats["requests"]["completed"] == 3

    def test_mid_batch_failure_is_contained(self, config):
        """A model that raises fails its own requests; other models on
        the same pool stay serviceable and nothing deadlocks."""
        chips_seen = []
        server = InferenceServer(
            config,
            [make_mlp(config), ExplodingModel(chips_seen)],
            n_workers=1,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=0.001),
        )
        rng = np.random.default_rng(2)
        bad = [server.submit("boom", np.zeros(4)) for _ in range(2)]
        good_payloads = rng.standard_normal((4, 16))
        good = [server.submit("mlp", p) for p in good_payloads]

        bad_errors = [f.error(timeout=60.0) for f in bad]
        good_results = [f.result(timeout=60.0) for f in good]
        server.close()

        assert all(isinstance(e, TspError) for e in bad_errors)
        assert all("injected mid-batch" in str(e) for e in bad_errors)
        assert chips_seen and chips_seen[0] == "pool0"
        assert len(good_results) == 4
        for payload, result in zip(good_payloads, good_results):
            assert np.array_equal(
                result.output,
                server.sequential_reference("mlp", payload),
            )

    def test_close_is_idempotent_and_joins_workers(self, config):
        server = InferenceServer(config, [make_mlp(config)], n_workers=2)
        server.close()
        server.close()
        assert server.pool.alive == 0

    def test_pool_needs_a_worker(self, config):
        with pytest.raises(ValueError):
            ChipPool(
                config, [make_mlp(config)],
                DynamicBatcher(), ProgramCache(), n_workers=0,
            )


def make_sharded_cnn(config, n_chips=2, name="sharded"):
    data = make_shapes(n_train=48, n_test=4, image_size=8,
                       n_classes=3, seed=0)
    model = make_small_cnn(3, channels=4, image_size=8, seed=0)
    return ShardedCnnServeModel(
        name, model, config, data.x_train[:24], n_chips=n_chips,
        max_vectors_per_program=32,
    ), data.x_test


class TestMultiChipPool:
    """Pool workers that own a whole ring: sharded models are served
    transparently, scrub discipline spans every chip, and a dead link
    fails only its batch with chip/link/cycle context."""

    def test_sharded_model_matches_single_chip_reference(self, config):
        sharded, x_test = make_sharded_cnn(config)
        server = InferenceServer(
            config, [sharded], n_workers=1, n_chips=2,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=0.001),
        )
        futures = [server.submit("sharded", x) for x in x_test]
        results = [f.result(timeout=120.0) for f in futures]
        stats = server.stats()
        server.close()
        for payload, result in zip(x_test, results):
            # run_reference is the *single-chip* oracle — this equality
            # is the tentpole bit-exactness claim through the full
            # serving path (batcher, cache, pooled ring)
            ref = server.sequential_reference("sharded", payload)
            assert np.array_equal(result.output, ref)
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["completed"] == len(x_test)

    def test_sharded_and_single_chip_models_share_a_pool(self, config):
        sharded, x_test = make_sharded_cnn(config)
        server = InferenceServer(
            config, [sharded, make_mlp(config)], n_workers=1, n_chips=2,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=0.001),
        )
        rng = np.random.default_rng(3)
        mlp_payloads = rng.standard_normal((2, 16))
        futures = [server.submit("sharded", x) for x in x_test[:2]]
        futures += [server.submit("mlp", p) for p in mlp_payloads]
        results = [f.result(timeout=120.0) for f in futures]
        server.close()
        for payload, result in zip(x_test[:2], results[:2]):
            assert np.array_equal(
                result.output,
                server.sequential_reference("sharded", payload),
            )
        for payload, result in zip(mlp_payloads, results[2:]):
            assert np.array_equal(
                result.output,
                server.sequential_reference("mlp", payload),
            )

    def test_model_wider_than_pool_rejected(self, config):
        sharded, _ = make_sharded_cnn(config, n_chips=3)
        with pytest.raises(ServeError):
            InferenceServer(config, [sharded], n_workers=1, n_chips=2)

    def test_sharded_model_needs_two_chips(self, config):
        with pytest.raises(ServeError):
            make_sharded_cnn(config, n_chips=1)

    def test_dead_link_fails_batch_with_context_then_pool_recovers(
        self, config
    ):
        """Seeded dead link injected at checkout: a C2C fault on a
        2-ring is retryable (no alternate arc to re-route through), so
        the batch's requests are re-enqueued and the retry runs clean —
        the next checkout's scrub detached the error model.  Callers see
        bit-exact answers; the fault shows up as retries, not failures."""
        sharded, x_test = make_sharded_cnn(config)
        server = InferenceServer(
            config, [sharded], n_workers=1, n_chips=2,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=0.001),
        )
        worker = server.pool.workers[0]
        worker.inject_at_checkout(
            lambda system: system.set_link_error_model(
                0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
            )
        )
        doomed = [server.submit("sharded", x) for x in x_test[:2]]
        for payload, future in zip(x_test[:2], doomed):
            result = future.result(timeout=120.0)
            assert np.array_equal(
                result.output,
                server.sequential_reference("sharded", payload),
            )

        payload = x_test[2]
        result = server.submit("sharded", payload).result(timeout=120.0)
        assert np.array_equal(
            result.output, server.sequential_reference("sharded", payload)
        )
        assert server.pool.alive == 1
        stats = server.stats()
        server.close()
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["retried"] == 2
        assert stats["requests"]["completed"] == 3

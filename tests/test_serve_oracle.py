"""Differential oracle: served == sequential, bit for bit.

Property: for any mix of requests across models, any arrival order, and
any batching the server happens to choose, every response is
``np.array_equal`` to running that one request alone on a fresh chip with
no cache — because batching rides the MXM's vector-index dimension, where
per-row accumulators are independent, and the cache only ever replays a
binary whose fingerprint covers everything the scheduler saw.

The CNN model is sized so one layer's K dimension exceeds the 64-lane
maxVL (K = 108 → two K-tiles with on-plane accumulation), so the oracle
also covers the tiled path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import small_test_chip
from repro.nn import Sequential, make_shapes, make_small_cnn, train
from repro.nn.transformer import TransformerConfig
from repro.serve import (
    BatchPolicy,
    CnnServeModel,
    InferenceServer,
    TransformerMlpServeModel,
)
from repro.sim.chip import TspChip
from repro.sim.replay import ReplayPlan

CONFIG = small_test_chip()


def _build_models():
    # image_size=12, channels=4: conv2 has K = 4*3*3 = 36, dense has
    # K = 8*3*3 = 72 > 64 lanes -> exercises K-tiling through the cache
    data = make_shapes(
        n_train=120, n_test=40, image_size=12, n_classes=3, noise=0.08,
        seed=7,
    )
    cnn = make_small_cnn(3, channels=4, image_size=12, seed=7)
    train(cnn, data, epochs=2, lr=0.1, seed=7)
    mlp = TransformerMlpServeModel(
        "mlp",
        TransformerConfig(d_model=24, n_heads=4, d_ff=48,
                          seq_len=8, n_layers=1, vocab=64),
        CONFIG,
        seed=7,
    )
    return (
        CnnServeModel("cnn", cnn, CONFIG, calibration=data.x_train[:32]),
        mlp,
        data,
    )


@pytest.fixture(scope="module")
def served_models():
    return _build_models()


class TestServedMatchesSequential:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**16),
        n_requests=st.integers(2, 10),
        max_batch=st.integers(1, 5),
    )
    def test_random_mix_bit_identical(
        self, served_models, seed, n_requests, max_batch
    ):
        """Random model mix, arrival order, and batch ceiling: every
        served output equals its sequential unbatched reference."""
        cnn_model, mlp_model, data = served_models
        rng = np.random.default_rng(seed)
        requests = []
        for i in range(n_requests):
            if rng.integers(2) == 0:
                requests.append(
                    ("cnn", data.x_test[rng.integers(len(data.x_test))])
                )
            else:
                requests.append(("mlp", rng.standard_normal(24)))

        with InferenceServer(
            CONFIG,
            [cnn_model, mlp_model],
            n_workers=2,
            default_policy=BatchPolicy(
                max_batch=max_batch, max_delay_s=0.001
            ),
        ) as server:
            futures = [
                (model, payload, server.submit(model, payload))
                for model, payload in requests
            ]
            results = [
                (model, payload, f.result(timeout=120.0))
                for model, payload, f in futures
            ]
            for model, payload, result in results:
                reference = server.sequential_reference(model, payload)
                assert np.array_equal(result.output, reference), (
                    f"served {model} diverged from sequential oracle"
                )

    def test_cache_reuse_is_bit_exact_across_servers(self, served_models):
        """The same payload served twice — cold cache, then warm — gives
        identical bytes (the cached binary IS the compiled binary)."""
        cnn_model, _mlp, data = served_models
        payload = data.x_test[0]
        with InferenceServer(
            CONFIG, [cnn_model], n_workers=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
        ) as server:
            cold = server.run("cnn", payload, timeout=120.0)
            warm = server.run("cnn", payload, timeout=120.0)
            assert np.array_equal(cold.output, warm.output)
            assert warm.cache_hits > 0 and warm.cache_misses == 0
        snap = server.cache.snapshot()
        assert snap["hits"] > 0


    def test_registry_counts_the_caches_lookups(self, served_models):
        """One lookup per program run: over a served mix the registry's
        ``cache_hits + cache_misses`` are the cache's own lookups — a
        layer's group of chunks is one program and one lookup."""
        cnn_model, mlp_model, data = served_models
        with InferenceServer(
            CONFIG, [cnn_model, mlp_model], n_workers=1,
            default_policy=BatchPolicy(max_batch=4, max_delay_s=0.0),
        ) as server:
            futures = [server.submit("cnn", x) for x in data.x_test[:6]]
            futures += [server.submit("mlp", np.ones(24))]
            for future in futures:
                future.result(timeout=120.0)
        totals = server.registry.totals()
        counted = sum(
            totals.get(f"serve:{name}", {}).get(kind, 0)
            for name in ("cnn", "mlp")
            for kind in ("cache_hits", "cache_misses")
        )
        assert counted == server.cache.stats.lookups > 0


class TestOracleSimulates:
    @pytest.mark.parametrize("which", ["cnn", "mlp"])
    def test_run_reference_never_replays(
        self, served_models, monkeypatch, which
    ):
        """The oracle a served reply is held against is a simulation,
        though every program it compiles carries a finished plan: a
        replay cannot vouch for a replay."""
        cnn_model, mlp_model, data = served_models
        model, payload = {
            "cnn": (cnn_model, data.x_test[0]),
            "mlp": (mlp_model, np.random.default_rng(0).standard_normal(24)),
        }[which]
        calls = dict.fromkeys(("run", "run_batched", "replay_into"), 0)
        for owner, attr in (
            (TspChip, "run"), (ReplayPlan, "run_batched"),
            (ReplayPlan, "replay_into"),
        ):
            original = getattr(owner, attr)

            def counted(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        model.run_reference(payload)
        assert calls["run"] >= 1
        assert calls["run_batched"] == calls["replay_into"] == 0

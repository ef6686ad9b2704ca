"""The four serving workloads: models, server deployment, seeded traffic.

Models and chip are ``bench_serve.py``'s (``small_test_chip()``, the 8x8
4-channel CNN lowered with ``max_vectors_per_program=32``, the FFN
``d_model=32, d_ff=64`` with ``max_vectors_per_program=16``).  The
dataset, the training run and the open-mix FFN weights are fixed; the
benchmark seed drives only what a user's traffic would vary — payload
order, token values, arrival gaps — and, on ``cold-churn``, the FFN
weights (so every seed brings twelve models the cache has never seen).
Shapes never change with the seed: a compiled program's cycle count is a
function of shape alone, which is what makes ``sim_cycles_per_input``
repeat exactly on the closed workloads.

Saturated workloads deploy one worker, so generator + worker = the two
cores of the sandbox; the two-worker deployment runs only on
``open-mix``, where utilisation is low enough that the workers do not
convoy on the interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import make_shapes, make_small_cnn, train
from repro.nn.transformer import TransformerConfig
from repro.serve import (
    BatchPolicy,
    CnnServeModel,
    ShardedCnnServeModel,
    TransformerMlpServeModel,
)

#: the dataset, training run and open-mix FFN weights never vary
MODEL_SEED = 0
FFN = TransformerConfig(
    d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1, vocab=128
)
CHURN_MODELS = 12
CHURN_PAYLOADS = 4


@dataclass
class Traffic:
    """One seed's inputs: the payload pool and the order they are sent in.

    ``pool[i]`` is ``(model name, payload)``.  Requests walk the pool
    round-robin; on ``open-mix`` the pool indices in ``rare`` (the
    images) are their own round-robin, taking exactly one request — at a
    seeded position — in every ``one_in``, so the mix is the same on
    every seed and only its order varies.  ``rng`` also draws the open
    loop's arrival gaps, so one seed fixes the whole request sequence.
    """

    pool: list
    rng: np.random.Generator
    rare: tuple = ()
    one_in: int = 0
    _sent: int = 0
    _rare_slot: int = -1

    def __post_init__(self) -> None:
        taken = set(self.rare)
        common = [i for i in range(len(self.pool)) if i not in taken]
        #: [indices, requests drawn so far] of the rare and the common lane
        self._lanes = ([list(self.rare), 0], [common, 0])

    def next_index(self) -> int:
        """Pool index of the next request."""
        slot = self._sent % self.one_in if self.rare else -2
        self._sent += 1
        if slot == 0:
            self._rare_slot = int(self.rng.integers(self.one_in))
        lane = self._lanes[0 if slot == self._rare_slot else 1]
        indices, at = lane
        lane[1] = at + 1
        return indices[at % len(indices)]

    def schedule(self, rate_rps: float, duration_s: float):
        """Open-loop plan: ``(due offsets in s, pool indices)`` arrays.

        Poisson arrivals at ``rate_rps``, every due time < ``duration_s``.
        """
        due = []
        at = self.rng.exponential(1.0 / rate_rps)
        while at < duration_s:
            due.append(at)
            at += self.rng.exponential(1.0 / rate_rps)
        indices = [self.next_index() for _ in due]
        return np.asarray(due), np.asarray(indices, dtype=np.int64)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "open" or "closed"
    limit_s: float  # latency limit behind slo_share
    outstanding: int  # closed-loop clients (warm-up concurrency when open)
    rate_rps: float = 0.0  # open loop only
    server: dict = field(default_factory=dict)  # InferenceServer kwargs
    models: object = None  # (config, seed) -> list of serve models
    traffic: object = None  # (seed) -> Traffic


def _dataset():
    return make_shapes(
        n_train=160, n_test=64, image_size=8, n_classes=3, noise=0.08,
        seed=MODEL_SEED,
    )


def _cnn_and_data():
    """The trained CNN and its dataset (deterministic; trained per call)."""
    data = _dataset()
    cnn = make_small_cnn(3, channels=4, image_size=8, seed=MODEL_SEED)
    train(cnn, data, epochs=3, lr=0.1, seed=MODEL_SEED)
    return cnn, data


def _cnn_model(config, _seed):
    cnn, data = _cnn_and_data()
    return [
        CnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32],
            max_vectors_per_program=32,
        )
    ]


def _sharded_model(config, _seed):
    cnn, data = _cnn_and_data()
    return [
        ShardedCnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32], n_chips=2,
            max_vectors_per_program=32,
        )
    ]


def _mix_models(config, _seed):
    return _cnn_model(config, _seed) + [
        TransformerMlpServeModel(
            "mlp", FFN, config, seed=MODEL_SEED, max_vectors_per_program=16
        )
    ]


def _churn_models(config, seed):
    # the adapter seeds three generators at seed, seed+1, seed+2
    return [
        TransformerMlpServeModel(
            f"ffn{i}", FFN, config, seed=1000 * seed + 10 * i,
            max_vectors_per_program=16,
        )
        for i in range(CHURN_MODELS)
    ]


def _image_traffic(seed) -> Traffic:
    rng = np.random.default_rng(seed)
    images = _dataset().x_test
    order = rng.permutation(len(images))
    pool = [("cnn", images[i]) for i in order]
    return Traffic(pool, rng)


def _mix_traffic(seed) -> Traffic:
    rng = np.random.default_rng(seed)
    images = _dataset().x_test
    chosen = rng.choice(len(images), size=16, replace=False)
    tokens = iter(rng.standard_normal((112, FFN.d_model)))
    # pool order is the mix itself (an image, then seven tokens), so the
    # warm-up passes see lone images among tokens, as the timed run will
    pool = [
        ("cnn", images[chosen[i // 8]]) if i % 8 == 0
        else ("mlp", next(tokens))
        for i in range(128)
    ]
    return Traffic(pool, rng, rare=tuple(range(0, 128, 8)), one_in=8)


def _churn_traffic(seed) -> Traffic:
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal(
        (CHURN_PAYLOADS, CHURN_MODELS, FFN.d_model)
    )
    # model-major round robin: consecutive requests never share a model,
    # so with capacity 4 < 24 programs the LRU evicts before any reuse
    pool = [
        (f"ffn{i}", tokens[j, i])
        for j in range(CHURN_PAYLOADS)
        for i in range(CHURN_MODELS)
    ]
    return Traffic(pool, rng)


_BATCH4 = BatchPolicy(max_batch=4, max_delay_s=0.02)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="open-mix",
            why=(
                "open-loop Poisson 200 req/s, 7 MLP tokens : 1 CNN image, "
                "two workers at ~20% utilisation; batches leave on the "
                "deadline trigger, so the batcher policy owns latency"
            ),
            loop="open", limit_s=0.060, outstanding=8, rate_rps=200.0,
            server=dict(
                n_workers=2,
                policies={"cnn": _BATCH4},
                default_policy=BatchPolicy(max_batch=8, max_delay_s=0.02),
            ),
            models=_mix_models, traffic=_mix_traffic,
        ),
        Workload(
            name="closed-cnn",
            why=(
                "8 callers on one worker, warm read-only cache, every "
                "batch full: host time is batched replay plus forward glue"
            ),
            loop="closed", limit_s=0.030, outstanding=8,
            server=dict(n_workers=1, default_policy=_BATCH4),
            models=_cnn_model, traffic=_image_traffic,
        ),
        Workload(
            name="cold-churn",
            why=(
                "1 caller cycling 12 FFN models through a 4-entry cache: "
                "every lookup misses, compiles, records, simulates, evicts"
            ),
            loop="closed", limit_s=0.060, outstanding=1,
            server=dict(
                n_workers=1, cache_capacity=4,
                default_policy=BatchPolicy(max_batch=8, max_delay_s=0.001),
            ),
            models=_churn_models, traffic=_churn_traffic,
        ),
        Workload(
            name="pipeline-2chip",
            why=(
                "closed-cnn's traffic on a 2-chip pipeline-sharded model: "
                "the only workload with simulated C2C transfers and "
                "two-chip scrub"
            ),
            loop="closed", limit_s=0.030, outstanding=8,
            server=dict(n_workers=1, n_chips=2, default_policy=_BATCH4),
            models=_sharded_model, traffic=_image_traffic,
        ),
    )
}

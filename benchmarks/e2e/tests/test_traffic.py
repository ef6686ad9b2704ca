"""Same seed, same inputs: payloads, request order, due times, weights."""

import numpy as np

from repro.config import small_test_chip
from workloads import WORKLOADS


def _sequence(name, seed, n=200):
    traffic = WORKLOADS[name].traffic(seed)
    return traffic, [traffic.next_index() for _ in range(n)]


def test_same_seed_gives_the_same_pool_and_request_order():
    for name in WORKLOADS:
        first, order_a = _sequence(name, 7)
        second, order_b = _sequence(name, 7)
        assert order_a == order_b
        assert [m for m, _ in first.pool] == [m for m, _ in second.pool]
        for (_, a), (_, b) in zip(first.pool, second.pool):
            assert np.array_equal(a, b)


def test_another_seed_changes_values_and_order_but_never_shapes():
    for name in WORKLOADS:
        first, order_a = _sequence(name, 1)
        second, order_b = _sequence(name, 2)
        assert len(first.pool) == len(second.pool)
        assert [(m, p.shape) for m, p in first.pool] == [
            (m, p.shape) for m, p in second.pool
        ]
        differs = order_a != order_b or any(
            not np.array_equal(a, b)
            for (_, a), (_, b) in zip(first.pool, second.pool)
        )
        assert differs, name


def test_open_loop_schedule_repeats_with_the_seed():
    spec = WORKLOADS["open-mix"]
    due_a, idx_a = spec.traffic(3).schedule(spec.rate_rps, 5.0)
    due_b, idx_b = spec.traffic(3).schedule(spec.rate_rps, 5.0)
    due_c, _ = spec.traffic(4).schedule(spec.rate_rps, 5.0)
    assert np.array_equal(due_a, due_b) and np.array_equal(idx_a, idx_b)
    assert not np.array_equal(due_a[:50], due_c[:50])
    assert np.all(np.diff(due_a) > 0) and due_a[-1] < 5.0
    assert 800 < len(due_a) < 1200  # ~200 req/s
    # exactly one image (pool slots 0, 8, 16, ...) in every eight requests,
    # at a position that varies
    is_image = (idx_a % 8 == 0)[: len(idx_a) // 8 * 8].reshape(-1, 8)
    assert np.all(is_image.sum(axis=1) == 1)
    assert len(set(is_image.argmax(axis=1))) > 1


def test_cold_churn_never_sends_one_model_twice_in_a_row_and_reseeds_weights():
    traffic, order = _sequence("cold-churn", 1, n=96)
    models = [traffic.pool[i][0] for i in order]
    assert models[:12] == [f"ffn{i}" for i in range(12)]
    assert all(a != b for a, b in zip(models, models[1:]))
    config = small_test_chip()
    build = WORKLOADS["cold-churn"].models
    a, again, b = build(config, 1), build(config, 1), build(config, 2)
    first = lambda models: models[0].runner.layers[0].weight_q  # noqa: E731
    assert np.array_equal(first(a), first(again))
    assert not np.array_equal(first(a), first(b))
    assert first(a).shape == first(b).shape
    weights = {first([m]).tobytes() for m in a}
    assert len(weights) == len(a)  # twelve distinct models

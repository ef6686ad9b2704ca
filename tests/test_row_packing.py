"""Narrow layers run several rows a vector, and compute the same integers.

``TspCnnRunner.rows_per_vector`` may run a layer ``r`` rows a vector
through the block-diagonal ``diag(W, ..., W)``.  The runner's cache-less
path — the serving oracle — packs too, so it cannot vouch for packing:
these tests hold the chip's packed accumulators to numpy's integer matmul
at every ``r`` that fits and every row count from 1 to 65, and the
benchmark CNN's logits to an integer forward that never packs.
"""

import numpy as np
import pytest

from repro.compiler import scheduler as scheduler_mod
from repro.compiler.scheduler import Scheduler
from repro.nn.layers import im2col
from repro.nn.tsp_inference import CompiledLayer, TspCnnRunner
from repro.serve import ProgramCache
from repro.sim import TspChip
from test_schedule_cycles import serve_models


@pytest.fixture(scope="module")
def models():
    return serve_models()


def layer_named(runner, name):
    (layer,) = [l for l in runner.layers if getattr(l, "name", None) == name]
    return layer


def feasible(config, layer):
    """Every ``r`` whose block-diagonal fits one plane."""
    k, m = layer.weight_q.shape
    return [
        r for r in range(1, config.n_lanes // k + 1)
        if r * m <= config.mxm_plane_cols
    ]


def test_feasible_packings(config, models):
    runner = models[0]["cnn"].runner
    assert feasible(config, layer_named(runner, "conv0")) == list(range(1, 8))
    assert feasible(config, layer_named(runner, "dense2")) == [1, 2]


def test_a_packed_layer_is_block_diagonal(models):
    runner = models[0]["cnn"].runner
    layer = layer_named(runner, "conv0")
    packed = runner.packed_layer(layer, 3)
    assert packed.weight_q.dtype == np.int8
    assert packed.weight_q.shape == (27, 12)
    for i in range(3):
        for j in range(3):
            block = packed.weight_q[9 * i: 9 * i + 9, 4 * j: 4 * j + 4]
            expected = layer.weight_q if i == j else 0
            assert np.array_equal(block, np.zeros_like(block) + expected)
    assert runner.packed_layer(layer, 1) is layer
    assert runner.packed_layer(layer, 3) is packed  # made once


@pytest.mark.parametrize("name", ["conv0", "dense2"])
def test_packed_accumulators_are_the_integer_matmul(
    config, models, monkeypatch, name
):
    """At every feasible ``r`` and every row count 1..65 — tails ``r``
    does not divide, whole and partial chunks of the pass height — the
    accumulators are ``acts @ W`` in int64, one row per activation row."""
    runner = models[0]["cnn"].runner
    layer = layer_named(runner, name)
    rng = np.random.default_rng(11)
    chip, cache = TspChip(config), ProgramCache()
    for r in feasible(config, layer):
        monkeypatch.setattr(
            runner, "rows_per_vector", lambda *_args, r=r: r
        )
        for rows in range(1, 66):
            acts_q = rng.integers(
                -127, 128, (rows, layer.weight_q.shape[0])
            ).astype(np.int8)
            acc, cycles = runner.matrix_accumulators(
                layer, acts_q, chip=chip, cache=cache
            )
            expected = acts_q.astype(np.int64) @ layer.weight_q.astype(
                np.int64
            )
            assert acc.shape == expected.shape, (r, rows)
            assert np.array_equal(acc, expected), (r, rows)
            assert cycles > 0


def unpacked_forward(runner: TspCnnRunner, x: np.ndarray) -> np.ndarray:
    """The runner's arithmetic on the host, one row per matmul row: each
    matrix layer's int8 input times its int8 weights in int64, then the
    runner's float64 epilogue."""
    current = x
    for layer in runner.layers:
        if not isinstance(layer, CompiledLayer):
            current = layer.forward(current)
            continue
        if layer.kind == "conv":
            conv = layer.conv
            acts, ho, wo = im2col(
                current, conv.kernel, conv.kernel, conv.stride, conv.pad
            )
        else:
            acts = current.reshape(current.shape[0], -1)
        acts_q = runner.quantize_boundary(layer, acts)
        acc = acts_q.astype(np.int64) @ layer.weight_q.astype(np.int64)
        out = acc.astype(np.float64) * (
            layer.in_scale * layer.weight_scale
        ) + layer.bias
        if layer.relu:
            out = np.maximum(out, 0)
        if layer.kind == "conv":
            out = out.reshape(current.shape[0], ho, wo, -1).transpose(
                0, 3, 1, 2
            )
        current = out
    return current


@pytest.mark.parametrize("images", [1, 2, 3, 4])
def test_forward_equals_an_unpacked_integer_forward(config, models, images):
    """Byte for byte, on the serving route and the cache-less one, while
    ``conv0`` runs two, three, four and four rows a vector."""
    (by_name, data) = models
    runner = by_name["cnn"].runner
    x = data.x_test[:images]
    expected = unpacked_forward(runner, x).tobytes()
    served = runner.forward(x, chip=TspChip(config), cache=ProgramCache())
    assert served.logits.tobytes() == expected
    assert runner.forward(x).logits.tobytes() == expected
    conv0 = layer_named(runner, "conv0")
    assert runner.rows_per_vector(conv0, 64 * images) == {
        1: 2, 2: 3, 3: 4, 4: 4
    }[images]


def test_a_pick_prices_its_candidates_from_one_set_of_offers(
    models, monkeypatch
):
    """``rows_per_vector`` prices each feasible ``r`` by the closed form,
    which reads what a fresh scheduler offers a first matmul: that is a
    function of (config, timing, blacklist, periodic), so one pick of
    ``conv0``'s seven candidates builds a scheduler per periodic flag its
    candidates need — not one per candidate — and later picks none."""
    runner = models[0]["cnn"].runner
    conv0 = layer_named(runner, "conv0")
    scheduler_mod._first_matmul_offers.cache_clear()
    monkeypatch.setattr(runner, "_packings", {})
    built = []
    init = Scheduler.__init__

    def counting(scheduler, *args, **kwargs):
        built.append(kwargs.get("periodic"))
        init(scheduler, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "__init__", counting)
    # 256 rows: every r from 1 to 7 runs two passes or more
    assert runner.rows_per_vector(conv0, 256) == 4
    assert built == [True]
    # 64 rows: r = 1 runs two passes, r >= 2 one
    assert runner.rows_per_vector(conv0, 64) == 2
    assert built == [True, False]
    for rows in (128, 192):
        runner.rows_per_vector(conv0, rows)
    assert built == [True, False]

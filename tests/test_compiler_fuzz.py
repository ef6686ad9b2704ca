"""Compiler fuzzing: random dataflow DAGs vs a numpy graph interpreter.

The strongest property the system offers: for *any* program the frontend
can express, the compiled schedule executed on the cycle simulator produces
exactly what a direct numpy evaluation of the dataflow graph produces.  Any
timing-model inconsistency between the scheduler and the simulator breaks
this, so these tests fuzz the whole stack at once.

Every compiled program runs through :func:`repro.verify.check` — the
lockstep with its replays and a sibling's, its simulated run held to the
differential oracle and every invariant check of its record
(stream-collision, strict bank discipline, the Equation-4/5 timing
contract) — in addition to each test's own independent numpy oracle.

Set ``REPRO_FUZZ_DEEP=1`` for the long-soak configuration (roughly 5-8x
the example counts); the default stays fast enough for tier-1.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DType
from repro.compiler import StreamProgramBuilder
from repro.config import small_test_chip
from repro.verify import check

#: opt-in long soak: REPRO_FUZZ_DEEP=1 raises every example count
DEEP = os.environ.get("REPRO_FUZZ_DEEP") == "1"


def _examples(normal: int, deep: int) -> int:
    return deep if DEEP else normal


#: op name -> (numpy oracle on int64, arity)
OPS = {
    "add": (lambda x, y: np.clip(x + y, -128, 127), 2),
    "sub": (lambda x, y: np.clip(x - y, -128, 127), 2),
    "mul": (lambda x, y: np.clip(x * y, -128, 127), 2),
    "maximum": (np.maximum, 2),
    "minimum": (np.minimum, 2),
    "relu": (lambda x: np.maximum(x, 0), 1),
    "negate": (lambda x: np.clip(-x, -128, 127), 1),
    "abs": (lambda x: np.abs(np.clip(x, -127, 127)), 1),
    "copy": (lambda x: x, 1),
}


def build_random_graph(seed: int, n_ops: int, n_vectors: int, length: int):
    """A random elementwise DAG over two constants, plus its oracle."""
    rng = np.random.default_rng(seed)
    config = small_test_chip()
    g = StreamProgramBuilder(config)

    x_data = rng.integers(-50, 50, (n_vectors, length)).astype(np.int8)
    y_data = rng.integers(-50, 50, (n_vectors, length)).astype(np.int8)
    handles = [g.constant_tensor("x", x_data), g.constant_tensor("y", y_data)]
    oracles = [x_data.astype(np.int64), y_data.astype(np.int64)]

    op_names = sorted(OPS)
    for step in range(n_ops):
        name = op_names[int(rng.integers(len(op_names)))]
        oracle_fn, arity = OPS[name]
        if arity == 1:
            src = int(rng.integers(len(handles)))
            handle = getattr(g, name)(handles[src])
            value = oracle_fn(oracles[src])
        else:
            a = int(rng.integers(len(handles)))
            b = int(rng.integers(len(handles)))
            if handles[a].dtype is not handles[b].dtype:
                continue
            handle = getattr(g, name)(handles[a], handles[b])
            value = oracle_fn(oracles[a], oracles[b])
        handles.append(handle)
        oracles.append(value.astype(np.int8).astype(np.int64))

    g.write_back(handles[-1], name="out")
    return g, oracles[-1].astype(np.int8)


class TestFuzzElementwise:
    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(1, 6),
        n_vectors=st.integers(1, 4),
        length=st.integers(1, 64),
    )
    @settings(max_examples=_examples(25, 200), deadline=None)
    def test_random_dag_matches_oracle(self, seed, n_ops, n_vectors, length):
        g, expected = build_random_graph(seed, n_ops, n_vectors, length)
        result = check(g)
        assert np.array_equal(result.outputs["out"], expected)

    @pytest.mark.parametrize("seed", range(8 if not DEEP else 32))
    def test_deep_chains(self, seed):
        """Long chains exercise ALU slot allocation and retiming."""
        g, expected = build_random_graph(
            seed * 101 + 7, n_ops=12, n_vectors=2, length=32
        )
        result = check(g)
        assert np.array_equal(result.outputs["out"], expected)

    def test_wide_fanout(self):
        """One value consumed by many ops — many taps on one stream."""
        rng = np.random.default_rng(0)
        config = small_test_chip()
        g = StreamProgramBuilder(config)
        x_data = rng.integers(-50, 50, (2, 64)).astype(np.int8)
        x = g.constant_tensor("x", x_data)
        for i in range(4):
            g.write_back(g.relu(g.copy(x)), name=f"out{i}")
        result = check(g)
        expected = np.maximum(x_data, 0)
        for i in range(4):
            assert np.array_equal(result.outputs[f"out{i}"], expected)


class TestFuzzSxm:
    """Random lane-rearrangement programs through the SXM."""

    @given(
        seed=st.integers(0, 10_000),
        amount=st.integers(1, 20),
        south=st.booleans(),
        n_vectors=st.integers(1, 3),
    )
    @settings(max_examples=_examples(12, 60), deadline=None)
    def test_shift(self, seed, amount, south, n_vectors):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        lanes = config.n_lanes
        g = StreamProgramBuilder(config)
        x_data = rng.integers(-50, 50, (n_vectors, lanes)).astype(np.int8)
        x = g.constant_tensor("x", x_data)
        g.write_back(g.shift(x, amount, south=south), "out")
        result = check(g)
        expected = np.zeros_like(x_data)
        if south:
            expected[:, amount:] = x_data[:, :-amount]
        else:
            expected[:, :-amount] = x_data[:, amount:]
        assert np.array_equal(result.outputs["out"], expected)

    @given(seed=st.integers(0, 10_000), n_vectors=st.integers(1, 3))
    @settings(max_examples=_examples(12, 60), deadline=None)
    def test_permute(self, seed, n_vectors):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        lanes = config.n_lanes
        g = StreamProgramBuilder(config)
        x_data = rng.integers(-50, 50, (n_vectors, lanes)).astype(np.int8)
        mapping = rng.permutation(lanes)
        x = g.constant_tensor("x", x_data)
        g.write_back(g.permute(x, [int(m) for m in mapping]), "out")
        result = check(g)
        assert np.array_equal(result.outputs["out"], x_data[:, mapping])

    @given(seed=st.integers(0, 10_000), n_vectors=st.integers(1, 3))
    @settings(max_examples=_examples(10, 50), deadline=None)
    def test_select(self, seed, n_vectors):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        lanes = config.n_lanes
        per = config.lanes_per_superlane
        g = StreamProgramBuilder(config)
        a_data = rng.integers(-50, 50, (n_vectors, lanes)).astype(np.int8)
        b_data = rng.integers(-50, 50, (n_vectors, lanes)).astype(np.int8)
        mask = rng.integers(0, 2, per)
        a = g.constant_tensor("a", a_data)
        b = g.constant_tensor("b", b_data)
        g.write_back(g.select(a, b, [int(m) for m in mask]), "out")
        result = check(g)
        full = np.tile(mask != 0, config.n_superlanes)
        expected = np.where(full, b_data, a_data)
        assert np.array_equal(result.outputs["out"], expected)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=_examples(8, 40), deadline=None)
    def test_distribute(self, seed):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        per = config.lanes_per_superlane
        g = StreamProgramBuilder(config)
        x_data = rng.integers(-50, 50, (2, config.n_lanes)).astype(np.int8)
        mapping = [int(m) for m in rng.integers(-1, per, per)]
        x = g.constant_tensor("x", x_data)
        g.write_back(g.distribute(x, mapping), "out")
        result = check(g)
        out = result.outputs["out"].reshape(2, -1, per)
        for j, m in enumerate(mapping):
            if m < 0:
                assert (out[:, :, j] == 0).all()
            else:
                blocks = x_data.reshape(2, -1, per)
                assert np.array_equal(out[:, :, j], blocks[:, :, m])

    @given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 4]))
    @settings(max_examples=_examples(6, 30), deadline=None)
    def test_rotate(self, seed, n):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        g = StreamProgramBuilder(config)
        x_data = rng.integers(-50, 50, (1, config.n_lanes)).astype(np.int8)
        x = g.constant_tensor("x", x_data)
        g.write_back(g.rotate(x, n), "out")
        # the differential oracle is the check: simulator vs interpreter
        result = check(g)
        # rotate emits all n^2 rotations of each superlane's n x n block
        assert result.outputs["out"].shape == (n * n, config.n_lanes)


class TestFuzzFp16:
    """fp16 transcendental chains, checked by the differential oracle."""

    CHAIN_OPS = ("tanh", "exp", "rsqrt")  # closed over positive fp16

    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(1, 4),
        n_vectors=st.integers(1, 3),
        length=st.integers(1, 48),
    )
    @settings(max_examples=_examples(15, 80), deadline=None)
    def test_fp16_chain(self, seed, n_ops, n_vectors, length):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        g = StreamProgramBuilder(config)
        data = rng.uniform(0.25, 2.0, (n_vectors, length)).astype(np.float16)
        h = g.constant_tensor("x", data)
        for _ in range(n_ops):
            name = self.CHAIN_OPS[int(rng.integers(len(self.CHAIN_OPS)))]
            h = getattr(g, name)(h)
        if seed % 2:
            h = g.convert(h, DType.FP32)
        g.write_back(h, "out")
        result = check(g)
        out = result.outputs["out"]
        assert out.shape == (n_vectors, length)
        assert out.dtype == (np.float32 if seed % 2 else np.float16)
        # stacked exps can legitimately saturate fp16 to +inf (e.g.
        # exp(exp(exp(2)))); saturation is deterministic and the oracle
        # compares it bit-exactly above — only NaN would mean breakage
        assert not np.isnan(out.astype(np.float64)).any()


class TestFuzzMixedPipelines:
    @given(
        seed=st.integers(0, 5_000),
        k=st.integers(8, 64),
        m=st.integers(4, 64),
        n=st.integers(1, 3),
    )
    @settings(max_examples=_examples(8, 40), deadline=None)
    def test_matmul_plus_random_epilogue(self, seed, k, m, n):
        rng = np.random.default_rng(seed)
        config = small_test_chip()
        g = StreamProgramBuilder(config)
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (n, k)).astype(np.int8)
        acc = g.matmul(w, g.constant_tensor("x", x))
        scale = float(rng.uniform(0.001, 0.05))
        q = g.convert(acc, DType.INT8, scale=scale)
        out = g.relu(q) if seed % 2 else g.abs(q)
        g.write_back(out, name="y")
        result = check(g)
        oracle = x.astype(np.int64) @ w.astype(np.int64)
        quantized = np.clip(np.rint(oracle * scale), -128, 127)
        if seed % 2:
            expected = np.maximum(quantized, 0)
        else:
            expected = np.abs(np.clip(quantized, -127, 127))
        assert np.array_equal(result.outputs["y"], expected.astype(np.int8))

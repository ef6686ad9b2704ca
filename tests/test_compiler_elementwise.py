"""End-to-end compiled point-wise programs vs numpy oracles.

These are the compiler's core integration tests: a wrong ``delta``/
``d_func``/``d_skew`` anywhere in the scheduler or simulator produces wrong
*data*, so value equality doubles as a proof the 2-D schedule is correct.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.errors import CompileError


def i8(rng, shape):
    return rng.integers(-60, 60, shape).astype(np.int8)


class TestBinaryOps:
    @pytest.mark.parametrize(
        "method,oracle",
        [
            ("add", lambda x, y: np.clip(x + y, -128, 127)),
            ("sub", lambda x, y: np.clip(x - y, -128, 127)),
            ("mul", lambda x, y: np.clip(x * y, -128, 127)),
            ("maximum", np.maximum),
            ("minimum", np.minimum),
        ],
    )
    def test_against_oracle(self, config, rng, method, oracle):
        xd, yd = i8(rng, (3, 64)), i8(rng, (3, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        y = g.constant_tensor("y", yd)
        z = getattr(g, method)(x, y)
        g.write_back(z, name="z")
        result = execute(g.compile(), replay=False)
        expected = oracle(
            xd.astype(np.int64), yd.astype(np.int64)
        ).astype(np.int8)
        assert np.array_equal(result["z"], expected)

    def test_modulo_variant(self, config, rng):
        xd, yd = i8(rng, (2, 64)), i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        z = g.add(
            g.constant_tensor("x", xd),
            g.constant_tensor("y", yd),
            saturate=False,
        )
        g.write_back(z, name="z")
        result = execute(g.compile(), replay=False)
        expected = (xd.astype(np.int64) + yd.astype(np.int64)).astype(np.int8)
        assert np.array_equal(result["z"], expected)

    def test_add_same_tensor_twice(self, config, rng):
        xd = i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.add(x, x), name="z")
        result = execute(g.compile(), replay=False)
        expected = np.clip(2 * xd.astype(np.int64), -128, 127).astype(np.int8)
        assert np.array_equal(result["z"], expected)

    def test_shape_mismatch_rejected(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", i8(rng, (2, 64)))
        y = g.constant_tensor("y", i8(rng, (3, 64)))
        with pytest.raises(CompileError):
            g.add(x, y)

    @given(
        n=st.integers(1, 6),
        length=st.integers(1, 64),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_add_random_shapes(self, n, length, seed):
        config = small_test_chip()
        rng = np.random.default_rng(seed)
        xd, yd = i8(rng, (n, length)), i8(rng, (n, length))
        g = StreamProgramBuilder(config)
        z = g.add(g.constant_tensor("x", xd), g.constant_tensor("y", yd))
        g.write_back(z, name="z")
        result = execute(g.compile(), replay=False)
        expected = np.clip(
            xd.astype(np.int64) + yd.astype(np.int64), -128, 127
        ).astype(np.int8)
        assert np.array_equal(result["z"], expected)


class TestUnaryOps:
    def test_relu(self, config, rng):
        xd = i8(rng, (4, 64))
        g = StreamProgramBuilder(config)
        g.write_back(g.relu(g.constant_tensor("x", xd)), name="y")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["y"], np.maximum(xd, 0))

    def test_negate_abs_chain(self, config, rng):
        xd = i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.abs(g.negate(x)), name="y")
        result = execute(g.compile(), replay=False)
        expected = np.abs(
            np.clip(-xd.astype(np.int64), -128, 127)
        ).astype(np.int8)
        assert np.array_equal(result["y"], expected)

    def test_tanh_produces_fp32(self, config, rng):
        xd = rng.standard_normal((2, 64)).astype(np.float32)
        g = StreamProgramBuilder(config)
        g.write_back(g.tanh(g.constant_tensor("x", xd)), name="y")
        result = execute(g.compile(), replay=False)
        assert result["y"].dtype == np.float32
        assert np.allclose(result["y"], np.tanh(xd), atol=1e-6)

    def test_exp_rsqrt(self, config):
        xd = np.array([[1.0, 4.0, 9.0, 16.0] * 16], dtype=np.float32)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.exp(x), name="e")
        g.write_back(g.rsqrt(x), name="r")
        result = execute(g.compile(), replay=False)
        assert np.allclose(result["e"], np.exp(xd), rtol=1e-6)
        assert np.allclose(result["r"], 1 / np.sqrt(xd), rtol=1e-6)

    def test_mask(self, config):
        xd = np.array([[0, 1, -1, 0] * 16], dtype=np.int8)
        g = StreamProgramBuilder(config)
        g.write_back(g.mask(g.constant_tensor("x", xd)), name="m")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["m"], (xd != 0).astype(np.int8))


class TestConvert:
    def test_requantize_int32_to_int8(self, config, rng):
        xd = rng.integers(-5000, 5000, (2, 64)).astype(np.int32)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.convert(x, DType.INT8, scale=0.01), name="q")
        result = execute(g.compile(), replay=False)
        expected = np.clip(np.rint(xd * 0.01), -128, 127).astype(np.int8)
        assert np.array_equal(result["q"], expected)

    def test_dequantize_int8_to_fp32(self, config, rng):
        xd = i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.convert(x, DType.FP32, scale=0.125), name="d")
        result = execute(g.compile(), replay=False)
        assert np.allclose(result["d"], xd * 0.125)

    def test_int16_roundtrip(self, config, rng):
        xd = rng.integers(-30000, 30000, (2, 64)).astype(np.int16)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.copy(x), name="c")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["c"], xd)


class TestChaining:
    """Section II-E: chained slices avoid memory round-trips."""

    def test_three_op_chain(self, config, rng):
        xd, yd = i8(rng, (3, 64)), i8(rng, (3, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        y = g.constant_tensor("y", yd)
        g.write_back(g.relu(g.add(x, y)), name="z")
        result = execute(g.compile(), replay=False)
        expected = np.maximum(
            np.clip(xd.astype(np.int64) + yd.astype(np.int64), -128, 127), 0
        ).astype(np.int8)
        assert np.array_equal(result["z"], expected)

    def test_chain_writes_no_intermediate_memory(self, config, rng):
        """A chained program contains exactly the output writes."""
        xd = i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        g.write_back(g.relu(g.abs(x)), name="z")
        compiled = g.compile()
        writes = [
            i
            for icu in compiled.program.icus
            for i in compiled.program.queue(icu)
            if i.mnemonic == "Write"
        ]
        assert len(writes) == 2  # one per output vector, nothing else

    def test_multiple_outputs(self, config, rng):
        xd, yd = i8(rng, (2, 64)), i8(rng, (2, 64))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", xd)
        y = g.constant_tensor("y", yd)
        s = g.add(x, y)
        g.write_back(s, name="sum")
        g.write_back(g.relu(s), name="relu_sum")
        result = execute(g.compile(), replay=False)
        expected = np.clip(
            xd.astype(np.int64) + yd.astype(np.int64), -128, 127
        ).astype(np.int8)
        assert np.array_equal(result["sum"], expected)
        assert np.array_equal(result["relu_sum"], np.maximum(expected, 0))

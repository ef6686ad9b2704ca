"""Compiled MXM matmuls: single-tile, K-tiled, and fused chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.errors import CompileError
from repro.verify import assert_lockstep


def matmul_oracle(x, w):
    return (x.astype(np.int64) @ w.astype(np.int64)).astype(np.int32)


class TestSingleTile:
    def test_full_plane_matmul(self, config, rng):
        k, m, n = 64, 64, 4
        w = rng.integers(-8, 8, (k, m)).astype(np.int8)
        x = rng.integers(-8, 8, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    def test_narrow_output(self, config, rng):
        """M < plane width: only M result columns are meaningful."""
        k, m, n = 64, 10, 3
        w = rng.integers(-8, 8, (k, m)).astype(np.int8)
        x = rng.integers(-8, 8, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        assert r.shape == (n, m)
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    def test_short_k(self, config, rng):
        k, m, n = 17, 30, 2
        w = rng.integers(-8, 8, (k, m)).astype(np.int8)
        x = rng.integers(-8, 8, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    def test_single_vector(self, config, rng):
        k, m = 64, 64
        w = rng.integers(-8, 8, (k, m)).astype(np.int8)
        x = rng.integers(-8, 8, (1, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    @given(
        k=st.integers(4, 64),
        m=st.integers(4, 64),
        n=st.integers(1, 4),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_tiles(self, k, m, n, seed):
        config = small_test_chip()
        rng = np.random.default_rng(seed)
        w = rng.integers(-8, 8, (k, m)).astype(np.int8)
        x = rng.integers(-8, 8, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))


class TestKTiled:
    def test_two_pass_accumulation(self, config, rng):
        """K > plane rows: accumulate across installs (Section III-D ACC)."""
        k, m, n = 128, 32, 3
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        tiles = [
            g.constant_tensor("x0", x[:, :64]),
            g.constant_tensor("x1", x[:, 64:]),
        ]
        r = g.matmul(w, tiles)
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    def test_three_uneven_tiles(self, config, rng):
        k, m, n = 150, 20, 2
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        tiles = [
            g.constant_tensor("x0", x[:, :64]),
            g.constant_tensor("x1", x[:, 64:128]),
            g.constant_tensor("x2", x[:, 128:]),
        ]
        r = g.matmul(w, tiles)
        g.write_back(r, name="r")
        result = execute(g.compile())
        assert np.array_equal(result["r"], matmul_oracle(x, w))

    def test_tile_coverage_checked(self, config, rng):
        w = rng.integers(-6, 6, (100, 16)).astype(np.int8)
        g = StreamProgramBuilder(config)
        x0 = g.constant_tensor("x0", rng.integers(-6, 6, (2, 64)).astype(np.int8))
        with pytest.raises(CompileError, match="cover"):
            g.matmul(w, [x0])

    def test_mismatched_vector_counts_rejected(self, config, rng):
        w = rng.integers(-6, 6, (128, 16)).astype(np.int8)
        g = StreamProgramBuilder(config)
        x0 = g.constant_tensor("x0", rng.integers(-6, 6, (2, 64)).astype(np.int8))
        x1 = g.constant_tensor("x1", rng.integers(-6, 6, (3, 64)).astype(np.int8))
        with pytest.raises(CompileError, match="vector count"):
            g.matmul(w, [x0, x1])


class TestValidation:
    def test_m_too_wide_rejected(self, config, rng):
        w = rng.integers(-6, 6, (64, 65)).astype(np.int8)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", rng.integers(-6, 6, (1, 64)).astype(np.int8))
        with pytest.raises(CompileError):
            g.matmul(w, x)

    def test_activations_must_be_int8(self, config, rng):
        w = rng.integers(-6, 6, (64, 16)).astype(np.int8)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(-6, 6, (1, 64)).astype(np.int32)
        )
        with pytest.raises(CompileError, match="int8"):
            g.matmul(w, x)

    def test_weights_must_be_2d(self, config):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.zeros((1, 64), np.int8))
        with pytest.raises(CompileError):
            g.matmul(np.zeros(64, np.int8), x)


class TestFusedPipelines:
    def test_conv_style_pipeline(self, config, rng):
        """The ResNet pattern: Read -> MatMul -> Requantize -> ReLU -> Write."""
        k, m, n = 64, 64, 5
        w = rng.integers(-5, 5, (k, m)).astype(np.int8)
        x = rng.integers(-5, 5, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        acc = g.matmul(w, g.constant_tensor("x", x))
        q = g.convert(acc, DType.INT8, scale=0.02)
        y = g.relu(q)
        g.write_back(y, name="y")
        result = execute(g.compile())
        oracle = matmul_oracle(x, w)
        expected = np.maximum(
            np.clip(np.rint(oracle * 0.02), -128, 127), 0
        ).astype(np.int8)
        assert np.array_equal(result["y"], expected)

    def test_two_matmuls_different_planes(self, config, rng):
        """Two independent matmuls must not interfere."""
        k, m, n = 64, 32, 2
        w1 = rng.integers(-5, 5, (k, m)).astype(np.int8)
        w2 = rng.integers(-5, 5, (k, m)).astype(np.int8)
        x1 = rng.integers(-5, 5, (n, k)).astype(np.int8)
        x2 = rng.integers(-5, 5, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r1 = g.matmul(w1, g.constant_tensor("x1", x1), name="w1")
        r2 = g.matmul(w2, g.constant_tensor("x2", x2), name="w2")
        g.write_back(r1, name="r1")
        g.write_back(r2, name="r2")
        result = execute(g.compile())
        assert np.array_equal(result["r1"], matmul_oracle(x1, w1))
        assert np.array_equal(result["r2"], matmul_oracle(x2, w2))

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(1, 40),  # rows
                st.sampled_from([9, 36, 64, 100]),  # K; 100 is K-tiled
                st.sampled_from([4, 8, 32]),  # M
            ),
            min_size=2, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_independent_matmuls_never_share_a_busy_plane(self, shapes, seed):
        """More matmuls than planes, of any mix of sizes: a plane is a
        scheduled resource, claimed only once its last matmul has drained
        (an install wipes results in flight), and rows the schedule may
        lay out (``input -> matmul -> write``) spread over any planes that
        are free — all of it equal to numpy in every engine."""
        config = small_test_chip()
        lanes = config.n_lanes
        rng = np.random.default_rng(seed)
        g = StreamProgramBuilder(config)
        inputs, expected = {}, {}
        for i, (rows, k, m) in enumerate(shapes):
            w = rng.integers(-9, 10, (k, m)).astype(np.int8)
            x = rng.integers(-9, 10, (rows, k)).astype(np.int8)
            handles = []
            for t, lo in enumerate(range(0, k, lanes)):
                hi = min(lo + lanes, k)
                handles.append(g.input_tensor(f"x{i}_{t}", (rows, hi - lo)))
                inputs[f"x{i}_{t}"] = x[:, lo:hi]
            g.write_back(g.matmul(w, handles, name=f"w{i}"), name=f"y{i}")
            expected[f"y{i}"] = matmul_oracle(x, w)
        compiled = g.compile()
        result = execute(compiled, inputs=inputs)
        for name, want in expected.items():
            assert np.array_equal(result[name], want), name
        # the simulation and the recorded plan agree on everything
        assert assert_lockstep(compiled, inputs=inputs).replay is not None

    @pytest.mark.parametrize("rows", [(8, 12), (8, 8, 8, 8, 8), (16, 16, 16)])
    def test_a_plane_is_not_claimed_while_its_matmul_drains(self, config, rows):
        """The second of (8, 12) used to pair onto the plane the first
        still occupied; the fifth of five wrapped round onto plane 0."""
        rng = np.random.default_rng(0)
        g = StreamProgramBuilder(config)
        inputs, expected = {}, {}
        for i, n in enumerate(rows):
            w = rng.integers(-9, 10, (9, 4)).astype(np.int8)
            inputs[f"x{i}"] = rng.integers(-9, 10, (n, 9)).astype(np.int8)
            handle = g.input_tensor(f"x{i}", (n, 9))
            g.write_back(g.matmul(w, handle, name=f"w{i}"), name=f"y{i}")
            expected[f"y{i}"] = matmul_oracle(inputs[f"x{i}"], w)
        compiled = g.compile()
        result = execute(compiled, inputs=inputs, record=False)
        for name, want in expected.items():
            assert np.array_equal(result[name], want), name
        assert assert_lockstep(compiled, inputs=inputs).replay is not None

    def test_round_robin_follows_the_plane_count(self, config, rng):
        """With one plane per hemisphere the second matmul goes East, not
        to a West plane the chip does not have."""
        lone = config.with_overrides(mxm_planes=2)
        k, m, n = 64, 32, 2
        g = StreamProgramBuilder(lone)
        expected = {}
        for name in ("r1", "r2"):
            w = rng.integers(-5, 5, (k, m)).astype(np.int8)
            x = rng.integers(-5, 5, (n, k)).astype(np.int8)
            g.write_back(
                g.matmul(w, g.constant_tensor(f"x_{name}", x), name=f"w_{name}"),
                name=name,
            )
            expected[name] = matmul_oracle(x, w)
        compiled = g.compile()
        mxm_queues = sorted(
            str(icu) for icu in compiled.program.icus
            if str(icu).startswith("MXM")
        )
        assert mxm_queues == [
            "MXM_E.plane0.compute", "MXM_E.plane0.weights",
            "MXM_W.plane0.compute", "MXM_W.plane0.weights",
        ]
        result = execute(compiled)
        for name, want in expected.items():
            assert np.array_equal(result[name], want)

    def test_int32_output_written_directly(self, config, rng):
        k, m, n = 32, 16, 2
        w = rng.integers(-5, 5, (k, m)).astype(np.int8)
        x = rng.integers(-5, 5, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        compiled = g.compile()
        assert compiled.outputs["r"].dtype is DType.INT32
        result = execute(compiled)
        assert result["r"].dtype == np.int32


class TestWideM:
    def test_matmul_wide_column_tiles(self, config, rng):
        """M > plane width: column tiles share activation streams."""
        k, m, n = 64, 150, 3
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        xh = g.constant_tensor("x", x)
        parts = g.matmul_wide(w, xh, name="wide")
        assert len(parts) == 3
        names = [
            g.write_back(p, name=f"part{i}") for i, p in enumerate(parts)
        ]
        result = execute(g.compile())
        out = np.hstack([result[name] for name in names])
        assert np.array_equal(out, matmul_oracle(x, w))

    def test_matmul_wide_single_tile_passthrough(self, config, rng):
        k, m = 32, 16
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (1, k)).astype(np.int8)
        g = StreamProgramBuilder(config)
        parts = g.matmul_wide(w, g.constant_tensor("x", x))
        assert len(parts) == 1
        assert parts[0].shape == (1, m)

    def test_matmul_wide_rejects_bad_weights(self, config):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.zeros((1, 64), np.int8))
        with pytest.raises(CompileError):
            g.matmul_wide(np.zeros(64, np.int8), x)

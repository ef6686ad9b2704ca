"""Streaming-window computation: temporal_shift and on-chip 2-D pooling.

The streaming idiom behind Figure 11: combining a stream with delayed
copies of itself gives sliding windows across the vector-index (row)
dimension, and SXM lane shifts give windows across the lane (column)
dimension — together, a full 2-D pooling window computed without staging
any intermediate rows in memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.errors import CompileError


def rows_shifted(x, k):
    out = np.zeros_like(x)
    if k < x.shape[0]:
        out[k:] = x[:-k]
    return out


class TestTemporalShift:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_delay_by_k_rows(self, config, rng, k):
        x = rng.integers(-50, 50, (8, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        d = g.temporal_shift(g.constant_tensor("x", x), k)
        g.write_back(d, name="d")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["d"], rows_shifted(x, k))

    def test_shift_of_stream_value(self, config, rng):
        """Shifting an in-flight value, not just a MEM tensor."""
        x = rng.integers(-50, 50, (5, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.relu(g.constant_tensor("x", x))
        d = g.temporal_shift(r, 1)
        g.write_back(d, name="d")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(
            result["d"], rows_shifted(np.maximum(x, 0), 1)
        )

    def test_rolling_window_max(self, config, rng):
        """out[j] = max(x[j], x[j-1], x[j-2]) — the vertical pool arm."""
        x = rng.integers(-50, 50, (6, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        xh = g.constant_tensor("x", x)
        m = g.maximum(
            g.maximum(g.copy(xh), g.temporal_shift(xh, 1)),
            g.temporal_shift(xh, 2),
        )
        g.write_back(m, name="m")
        result = execute(g.compile(), replay=False)
        expected = np.maximum(
            np.maximum(x, rows_shifted(x, 1)), rows_shifted(x, 2)
        )
        assert np.array_equal(result["m"], expected)

    def test_validation(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(0, 9, (2, 64)).astype(np.int8)
        )
        with pytest.raises(CompileError):
            g.temporal_shift(x, 0)
        with pytest.raises(CompileError):
            g.temporal_shift(x, 99)

    @given(k=st.integers(1, 4), seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_shift_property(self, k, seed):
        config = small_test_chip()
        rng = np.random.default_rng(seed)
        x = rng.integers(-50, 50, (6, 32)).astype(np.int8)
        g = StreamProgramBuilder(config)
        d = g.temporal_shift(g.constant_tensor("x", x), k)
        g.write_back(d, name="d")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["d"], rows_shifted(x, k))


class TestOnChip2DMaxPool:
    def pool_oracle(self, image, k=3, stride=2):
        h, w = image.shape
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        out = np.zeros((ho, wo), dtype=image.dtype)
        for i in range(ho):
            for j in range(wo):
                out[i, j] = image[
                    i * stride : i * stride + k,
                    j * stride : j * stride + k,
                ].max()
        return out

    def test_3x3_stride2_maxpool_fully_on_chip(self, config, rng):
        """A complete 2-D max pool: vertical arm via temporal shifts,
        horizontal arm via SXM lane shifts, reductions on the VXM — no
        intermediate memory round trips (Section IV-B / Figure 11)."""
        h, w = 10, 64
        image = rng.integers(-90, 90, (h, w)).astype(np.int8)

        g = StreamProgramBuilder(config)
        xh = g.constant_tensor("image", image)
        # vertical window: rows j-2..j
        vmax = g.maximum(
            g.maximum(g.copy(xh), g.temporal_shift(xh, 1)),
            g.temporal_shift(xh, 2),
        )
        # horizontal window: lanes l..l+2 (shift toward lane 0)
        s1 = g.shift(vmax, 1)
        s2 = g.shift(vmax, 2)
        windowed = g.maximum(g.maximum(g.copy(vmax), g.copy(s1)), g.copy(s2))
        g.write_back(windowed, name="windows")

        result = execute(g.compile(), replay=False)
        # windows[r][c] = max(image[r-2..r, c..c+2]); the stride-2 pool is
        # the subsample at rows 2i+2, cols 2j
        windows = result["windows"]
        pooled = windows[2::2, 0:-2:2]
        oracle = self.pool_oracle(image)
        assert np.array_equal(pooled[: oracle.shape[0], : oracle.shape[1]],
                              oracle)

    def test_pool_matches_reference_layer(self, config, rng):
        """Cross-check the on-chip pooling against the host MaxPool2D."""
        from repro.nn.layers import MaxPool2D

        h, w = 8, 64
        image = rng.integers(-90, 90, (h, w)).astype(np.int8)
        g = StreamProgramBuilder(config)
        xh = g.constant_tensor("image", image)
        vmax = g.maximum(
            g.maximum(g.copy(xh), g.temporal_shift(xh, 1)),
            g.temporal_shift(xh, 2),
        )
        s1 = g.shift(vmax, 1)
        s2 = g.shift(vmax, 2)
        windowed = g.maximum(
            g.maximum(g.copy(vmax), g.copy(s1)), g.copy(s2)
        )
        g.write_back(windowed, name="w")
        result = execute(g.compile(), replay=False)

        reference = MaxPool2D(kernel=3, stride=2).forward(
            image.astype(np.float64)[None, None]
        )[0, 0]
        pooled = result["w"][2::2, 0:-2:2]
        assert np.array_equal(
            pooled[: reference.shape[0], : reference.shape[1]].astype(
                np.float64
            ),
            reference,
        )

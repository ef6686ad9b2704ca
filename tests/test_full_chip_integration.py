"""Integration on the full 320-lane, 88-slice chip configuration.

The unit suite runs on the scaled test chip for speed; these tests compile
and cycle-simulate representative pipelines on the exact geometry the paper
describes, catching anything that only shows up at full scale (44-slice
hemispheres, 20-deep MXM pipeline, 320-lane packing).  Each simulation is
also held to the activity the compiler counted into the program's plan.
"""

import numpy as np
import pytest

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.config import groq_tsp_v1


@pytest.fixture(scope="module")
def full_config():
    return groq_tsp_v1()


def simulate(compiled):
    """Simulate ``compiled`` on a fresh chip; its plan's counted activity
    must equal the simulated run's."""
    result = execute(compiled, replay=False)
    assert result.run.skipped_cycles == 0
    assert compiled.replay.activity == result.run.activity
    return result


class TestFullChip:
    def test_listing1_vector_add(self, full_config, rng):
        x = rng.integers(-100, 100, (8, 320)).astype(np.int8)
        y = rng.integers(-100, 100, (8, 320)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        z = g.add(g.constant_tensor("x", x), g.constant_tensor("y", y))
        g.write_back(z, name="z")
        result = simulate(g.compile())
        expected = np.clip(
            x.astype(np.int64) + y.astype(np.int64), -128, 127
        ).astype(np.int8)
        assert np.array_equal(result["z"], expected)

    def test_full_320x320_plane_matmul(self, full_config, rng):
        """One full plane: 102,400 weights, 320-element dot products."""
        w = rng.integers(-8, 8, (320, 320)).astype(np.int8)
        x = rng.integers(-8, 8, (4, 320)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        result = simulate(g.compile())
        expected = (x.astype(np.int64) @ w.astype(np.int64)).astype(np.int32)
        assert np.array_equal(result["r"], expected)

    def test_resnet_conv_pattern_full_scale(self, full_config, rng):
        """The Section IV pipeline at the paper's native tile size."""
        k, m, n = 320, 256, 8
        w = rng.integers(-10, 10, (k, m)).astype(np.int8)
        x = rng.integers(-10, 10, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        acc = g.matmul(w, g.constant_tensor("x", x))
        q = g.convert(acc, DType.INT8, scale=0.002)
        g.write_back(g.relu(q), name="y")
        result = simulate(g.compile())
        oracle = x.astype(np.int64) @ w.astype(np.int64)
        expected = np.maximum(
            np.clip(np.rint(oracle * 0.002), -128, 127), 0
        ).astype(np.int8)
        assert np.array_equal(result["y"], expected)

    def test_k_tiled_640_reduction(self, full_config, rng):
        k, m, n = 640, 128, 2
        w = rng.integers(-6, 6, (k, m)).astype(np.int8)
        x = rng.integers(-6, 6, (n, k)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        tiles = [
            g.constant_tensor("lo", x[:, :320]),
            g.constant_tensor("hi", x[:, 320:]),
        ]
        r = g.matmul(w, tiles)
        g.write_back(r, name="r")
        result = simulate(g.compile())
        expected = (x.astype(np.int64) @ w.astype(np.int64)).astype(np.int32)
        assert np.array_equal(result["r"], expected)

    def test_transpose_at_full_width(self, full_config, rng):
        x = rng.integers(-100, 100, (16, 320)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        t = g.transpose16(g.constant_tensor("x", x))
        g.write_back(t, name="t")
        result = simulate(g.compile())
        expected = np.zeros_like(x)
        for sl in range(20):
            block = x[:, sl * 16 : (sl + 1) * 16]
            expected[:, sl * 16 : (sl + 1) * 16] = block.T
        assert np.array_equal(result["t"], expected)

    def test_full_chip_determinism(self, full_config, rng):
        x = rng.integers(-50, 50, (4, 320)).astype(np.int8)
        g = StreamProgramBuilder(full_config)
        g.write_back(g.relu(g.constant_tensor("x", x)), name="y")
        compiled = g.compile()
        runs = [simulate(compiled) for _ in range(2)] + [execute(compiled)]
        assert runs[-1].run.skipped_cycles == runs[-1].run.cycles
        assert len({r.run.cycles for r in runs}) == 1
        assert all(np.array_equal(runs[0]["y"], r["y"]) for r in runs[1:])

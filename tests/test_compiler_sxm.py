"""Compiled SXM programs: reshape operations end to end vs numpy."""

import numpy as np
import pytest

from repro.compiler import StreamProgramBuilder, execute
from repro.errors import CompileError


def transpose16_oracle(x, lanes_per_superlane=16):
    """Per-superlane 16x16 transpose across the 16-vector group."""
    out = np.zeros_like(x)
    n_superlanes = x.shape[1] // lanes_per_superlane
    for sl in range(n_superlanes):
        block = x[:, sl * 16 : (sl + 1) * 16]
        out[:, sl * 16 : (sl + 1) * 16] = block.T
    return out


class TestTranspose:
    def test_matches_oracle(self, config, rng):
        x = rng.integers(-100, 100, (16, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        t = g.transpose16(g.constant_tensor("x", x))
        g.write_back(t, name="t")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["t"], transpose16_oracle(x))

    def test_double_transpose_is_identity(self, config, rng):
        x = rng.integers(-100, 100, (16, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        h = g.constant_tensor("x", x)
        tt = g.transpose16(g.transpose16(h))
        g.write_back(tt, name="tt")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["tt"], x)

    def test_requires_16_vectors(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(0, 10, (8, 64)).astype(np.int8)
        )
        with pytest.raises(CompileError):
            g.transpose16(x)

    def test_requires_byte_elements(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(0, 10, (16, 64)).astype(np.int32)
        )
        with pytest.raises(CompileError):
            g.transpose16(x)


class TestShift:
    @pytest.mark.parametrize("amount", [0, 1, 5, 63, 64, 100])
    def test_north_shift(self, config, rng, amount):
        x = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        s = g.shift(g.constant_tensor("x", x), amount)
        g.write_back(s, name="s")
        result = execute(g.compile(), replay=False)
        expected = np.zeros_like(x)
        if amount < 64:
            expected[0, : 64 - amount] = x[0, amount:]
        assert np.array_equal(result["s"], expected)

    def test_south_shift(self, config, rng):
        x = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        s = g.shift(g.constant_tensor("x", x), 7, south=True)
        g.write_back(s, name="s")
        result = execute(g.compile(), replay=False)
        expected = np.zeros_like(x)
        expected[0, 7:] = x[0, :-7]
        assert np.array_equal(result["s"], expected)

    def test_multi_vector_shift(self, config, rng):
        x = rng.integers(-100, 100, (5, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        s = g.shift(g.constant_tensor("x", x), 3)
        g.write_back(s, name="s")
        result = execute(g.compile(), replay=False)
        expected = np.zeros_like(x)
        expected[:, :61] = x[:, 3:]
        assert np.array_equal(result["s"], expected)


class TestPermuteDistribute:
    def test_permute_reversal(self, config, rng):
        x = rng.integers(-100, 100, (2, 64)).astype(np.int8)
        mapping = list(reversed(range(64)))
        g = StreamProgramBuilder(config)
        p = g.permute(g.constant_tensor("x", x), mapping)
        g.write_back(p, name="p")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["p"], x[:, mapping])

    def test_permute_map_must_cover_lanes(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", rng.integers(0, 9, (1, 64)).astype(np.int8))
        with pytest.raises(CompileError):
            g.permute(x, [0, 1, 2])

    def test_distribute_replication(self, config, rng):
        """Replicate lane 0 of each superlane everywhere (zero pad lane 15)."""
        x = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        mapping = [0] * 15 + [-1]
        g = StreamProgramBuilder(config)
        d = g.distribute(g.constant_tensor("x", x), mapping)
        g.write_back(d, name="d")
        result = execute(g.compile(), replay=False)
        expected = np.zeros_like(x)
        for sl in range(4):
            expected[0, sl * 16 : sl * 16 + 15] = x[0, sl * 16]
        assert np.array_equal(result["d"], expected)

    def test_distribute_map_size_checked(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", rng.integers(0, 9, (1, 64)).astype(np.int8))
        with pytest.raises(CompileError):
            g.distribute(x, [0, 1])


class TestSelect:
    def test_per_lane_select(self, config, rng):
        a = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        b = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        mask = [(i % 2) for i in range(64)]
        g = StreamProgramBuilder(config)
        s = g.select(
            g.constant_tensor("a", a), g.constant_tensor("b", b), mask
        )
        g.write_back(s, name="s")
        result = execute(g.compile(), replay=False)
        expected = np.where(np.array(mask) != 0, b, a)
        assert np.array_equal(result["s"], expected)

    def test_select_shape_mismatch(self, config, rng):
        g = StreamProgramBuilder(config)
        a = g.constant_tensor("a", rng.integers(0, 9, (1, 64)).astype(np.int8))
        b = g.constant_tensor("b", rng.integers(0, 9, (2, 64)).astype(np.int8))
        with pytest.raises(CompileError):
            g.select(a, b, [0] * 64)


class TestRotate:
    def test_all_rotations_generated(self, config, rng):
        x = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        r = g.rotate(g.constant_tensor("x", x), n=3)
        assert r.shape == (9, 64)
        g.write_back(r, name="r")
        result = execute(g.compile(), replay=False)
        blocks = x[0].reshape(4, 16)
        grid = blocks[:, :9].reshape(4, 3, 3)
        for idx in range(9):
            dr, dc = divmod(idx, 3)
            rolled = np.roll(grid, shift=(-dr, -dc), axis=(1, 2))
            expected = np.zeros((4, 16), np.int8)
            expected[:, :9] = rolled.reshape(4, 9)
            assert np.array_equal(result["r"][idx], expected.reshape(-1))

    def test_rotate_needs_single_vector(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", rng.integers(0, 9, (2, 64)).astype(np.int8))
        with pytest.raises(CompileError):
            g.rotate(x, n=3)


class TestMaxPoolPattern:
    """The Figure 11 building blocks: read -> transpose -> write chains."""

    def test_transpose_then_write_parallel_layout(self, config, rng):
        x = rng.integers(-100, 100, (16, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        t = g.transpose16(g.constant_tensor("x", x))
        g.write_back(t, name="t")
        compiled = g.compile()
        # 16 reads + 1 transpose + 16 writes
        mnemonics = [
            i.mnemonic
            for icu in compiled.program.icus
            for i in compiled.program.queue(icu)
        ]
        assert mnemonics.count("Read") == 16
        assert mnemonics.count("Transpose") == 1
        assert mnemonics.count("Write") == 16
        result = execute(compiled, replay=False)
        assert np.array_equal(result["t"], transpose16_oracle(x))

    def test_rotate_max_reduction(self, config, rng):
        """Rotations reduced with element-wise max — the pooling core."""
        x = rng.integers(-100, 100, (1, 64)).astype(np.int8)
        g = StreamProgramBuilder(config)
        xh = g.constant_tensor("x", x)
        shifted = g.shift(xh, 1)
        pooled = g.maximum(g.copy(xh), g.copy(shifted))
        g.write_back(pooled, name="p")
        result = execute(g.compile(), replay=False)
        shifted_oracle = np.zeros_like(x)
        shifted_oracle[0, :63] = x[0, 1:]
        assert np.array_equal(result["p"], np.maximum(x, shifted_oracle))

"""fp16 MXM operation: two byte-planes in tandem (Section III-D).

"The MXM supports numerics for both 8-bit integer, and 16-bit floating
point by using two 320x320 byte-planes in tandem for 16-bit floating point
results ... allows a single-chip solution for both quantized inference
models and model training with floating point."
"""

import numpy as np
import pytest

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.errors import CompileError, SimulationError
from repro.isa import InstallWeights


def fp16(rng, shape, scale=0.5):
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestFp16Matmul:
    def test_single_tile(self, config, rng):
        k, m, n = 64, 48, 3
        w = fp16(rng, (k, m))
        x = fp16(rng, (n, k))
        g = StreamProgramBuilder(config)
        r = g.matmul(w, g.constant_tensor("x", x))
        assert r.dtype is DType.FP32
        g.write_back(r, name="r")
        result = execute(g.compile(), replay=False)
        expected = x.astype(np.float32) @ w.astype(np.float32)
        assert result["r"].dtype == np.float32
        assert np.allclose(result["r"], expected, atol=1e-2)

    def test_k_tiled_accumulation(self, config, rng):
        k, m, n = 128, 20, 2
        w = fp16(rng, (k, m), 0.3)
        x = fp16(rng, (n, k), 0.3)
        g = StreamProgramBuilder(config)
        tiles = [
            g.constant_tensor("lo", x[:, :64]),
            g.constant_tensor("hi", x[:, 64:]),
        ]
        r = g.matmul(w, tiles)
        g.write_back(r, name="r")
        result = execute(g.compile(), replay=False)
        expected = x.astype(np.float32) @ w.astype(np.float32)
        assert np.allclose(result["r"], expected, atol=1e-2)

    def test_fp16_install_takes_twice_the_cycles(self, config):
        """Two bytes per weight: the tandem install streams 2x the bytes."""
        int8_iw = InstallWeights(rows=64, cols=64, n_streams=16)
        fp16_iw = InstallWeights(
            rows=64, cols=64, n_streams=16, dtype=DType.FP16
        )
        assert fp16_iw.install_cycles(64) == 2 * int8_iw.install_cycles(64)

    def test_mixed_dtype_activation_rejected(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(-5, 5, (1, 64)).astype(np.int8)
        )
        with pytest.raises(CompileError, match="fp16"):
            g.matmul(fp16(rng, (64, 8)), x)

    def test_fp16_then_relu_chain(self, config, rng):
        """fp32 results chain into the VXM like int32 ones do."""
        k, m, n = 64, 32, 2
        w = fp16(rng, (k, m))
        x = fp16(rng, (n, k))
        g = StreamProgramBuilder(config)
        acc = g.matmul(w, g.constant_tensor("x", x))
        y = g.relu(acc)
        g.write_back(y, name="y")
        result = execute(g.compile(), replay=False)
        expected = np.maximum(
            x.astype(np.float32) @ w.astype(np.float32), 0
        )
        assert np.allclose(result["y"], expected, atol=1e-2)

    def test_tandem_marks_partner_plane_captive(self, config, rng):
        """While an fp16 tile is installed, the partner plane refuses an
        int8 install — the tandem owns both byte-planes."""
        from repro.arch import Hemisphere
        from repro.sim import TspChip
        from repro.sim.mxm import MxmUnit

        chip = TspChip(config)
        unit = chip.unit_at(chip.floorplan.mxm(Hemisphere.EAST))
        assert isinstance(unit, MxmUnit)
        raw = fp16(rng, (8, config.n_lanes)).view(np.uint8).reshape(-1)
        unit._finish_install(
            unit.planes[0],
            InstallWeights(
                plane=0, rows=8, cols=config.n_lanes, dtype=DType.FP16
            ),
            raw.copy(),
            done_cycle=0,
        )
        assert unit.planes[1].tandem_busy
        with pytest.raises(SimulationError, match="tandem"):
            unit._exec_iw(
                InstallWeights(plane=1, rows=8, cols=config.n_lanes), 0
            )

    def test_int8_matmuls_avoid_fp16_hemisphere_partner(self, config, rng):
        """An int8 matmul compiled after an fp16 one never lands on the
        captive partner plane."""
        g = StreamProgramBuilder(config)
        wf = fp16(rng, (64, 16))
        xf = fp16(rng, (1, 64))
        rf = g.matmul(wf, g.constant_tensor("xf", xf))
        g.write_back(rf, name="rf")
        wi = rng.integers(-5, 5, (64, 16)).astype(np.int8)
        xi = rng.integers(-5, 5, (1, 64)).astype(np.int8)
        ri = g.matmul(wi, g.constant_tensor("xi", xi))
        g.write_back(ri, name="ri")
        result = execute(g.compile(), replay=False)
        assert np.allclose(
            result["rf"], xf.astype(np.float32) @ wf.astype(np.float32),
            atol=1e-2,
        )
        assert np.array_equal(
            result["ri"],
            (xi.astype(np.int64) @ wi.astype(np.int64)).astype(np.int32),
        )

"""Direct MXM simulation tests: installs, systolic depth, accumulators.

The compiler tests cover the happy paths end to end; these drive the unit
with hand-built programs to pin the contracts: results are not drainable
before the systolic pipeline depth, accumulator slots survive re-installs
(K-tiling), and weight bookkeeping feeds the E09 experiment.
"""

import numpy as np
import pytest

from repro.arch import Direction, DType, Hemisphere
from repro.errors import ScheduleError, SimulationError
from repro.isa import (
    Accumulate,
    ActivationBufferControl,
    IcuId,
    InstallWeights,
    Nop,
    Program,
    Read,
    Write,
)
from repro.sim import TspChip


def weight_feed_program(chip, w, n_streams=16):
    """Stage weights in MEM near the East MXM and stream them in.

    Returns (program, install_done_cycle) with the IW scheduled so its
    first capture coincides with the first chunk's arrival.
    """
    config = chip.config
    lanes = config.n_lanes
    raw = np.zeros((lanes, lanes), dtype=np.int8)
    raw[: w.shape[0], : w.shape[1]] = w
    flat = raw.view(np.uint8).reshape(-1)
    n_chunks = flat.size // lanes
    install_cycles = -(-n_chunks // n_streams)

    program = Program()
    fp = chip.floorplan
    mxm_pos = fp.position(fp.mxm(Hemisphere.EAST))
    # chunk c*n_streams+j goes to slice j at address 2c
    t_w = 40  # first capture cycle at the MXM
    for j in range(n_streams):
        slice_addr = fp.mem_slice(Hemisphere.EAST, j)
        delta = mxm_pos - fp.position(slice_addr)
        icu = IcuId(slice_addr)
        for c in range(install_cycles):
            chunk = flat[
                (c * n_streams + j) * lanes : (c * n_streams + j + 1) * lanes
            ]
            chip.load_memory(Hemisphere.EAST, j, 2 * c, chunk[None, :])
            t_dispatch = t_w + c - delta - 5  # dfunc(Read) = 5
            if c == 0 and t_dispatch > 0:
                program.add(icu, Nop(t_dispatch))
            program.add(
                icu,
                Read(address=2 * c, stream=j, direction=Direction.EASTWARD),
            )

    weights_icu = IcuId(fp.mxm(Hemisphere.EAST), 0)  # plane 0 weights queue
    program.add(weights_icu, Nop(t_w - 1))  # dskew(IW)=1: dispatch at t_w-1
    program.add(
        weights_icu,
        InstallWeights(
            plane=0, base_stream=0, n_streams=n_streams,
            direction=Direction.EASTWARD, rows=w.shape[0], cols=lanes,
        ),
    )
    return program, t_w + install_cycles - 1


class TestInstall:
    def test_weights_installed_bookkeeping(self, config, rng):
        chip = TspChip(config)
        w = rng.integers(-8, 8, (config.n_lanes, config.n_lanes)).astype(
            np.int8
        )
        program, done = weight_feed_program(chip, w)
        chip.run(program)
        unit = chip.unit_at(chip.floorplan.mxm(Hemisphere.EAST))
        assert unit.planes[0].weights is not None
        padded = np.zeros((config.n_lanes, config.n_lanes), np.int8)
        padded[: w.shape[0], : w.shape[1]] = w
        assert np.array_equal(unit.planes[0].weights, padded)
        assert chip.weights_installed_cycle == done
        assert chip.weights_installed_bytes == config.n_lanes**2

    def test_unit_holds_its_hemispheres_share_of_the_planes(self, config, rng):
        """Plane count comes from the configuration — at construction and
        when ``scrub`` rebuilds dark planes after a run."""
        lone = config.with_overrides(mxm_planes=2)
        for cfg, expected in ((config, 2), (lone, 1)):
            chip = TspChip(cfg)
            unit = chip.unit_at(chip.floorplan.mxm(Hemisphere.EAST))
            assert len(unit.planes) == expected
            w = rng.integers(-8, 8, (cfg.n_lanes, cfg.n_lanes)).astype(np.int8)
            program, _done = weight_feed_program(chip, w)
            chip.run(program)
            assert unit.planes[0].weights is not None
            chip.scrub()
            assert len(unit.planes) == expected
            assert all(p.weights is None and p.wide is None for p in unit.planes)

    def test_abc_without_weights_raises(self, config):
        chip = TspChip(config)
        program = Program()
        compute = IcuId(chip.floorplan.mxm(Hemisphere.EAST), 1)
        program.add(
            compute,
            ActivationBufferControl(
                plane=0, base_stream=0, direction=Direction.EASTWARD,
                n_vectors=1,
            ),
        )
        with pytest.raises(SimulationError, match="no installed weights"):
            chip.run(program)


class TestSystolicDepth:
    def test_acc_before_depth_raises(self, config, rng):
        """Draining before the partial sums traverse the plane is a
        schedule bug the hardware model rejects."""
        chip = TspChip(config)
        w = rng.integers(-8, 8, (config.n_lanes, 8)).astype(np.int8)
        program, done = weight_feed_program(chip, w)
        fp = chip.floorplan

        # feed one activation vector from MEM_E0
        act = rng.integers(-8, 8, config.n_lanes).astype(np.int8)
        chip.load_memory(
            Hemisphere.EAST, 0, 101, act.view(np.uint8)[None, :]
        )
        mem0 = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        delta = fp.position(fp.mxm(Hemisphere.EAST)) - fp.position(
            fp.mem_slice(Hemisphere.EAST, 0)
        )
        t_a = done + 5
        queue = program.queue(mem0)
        pad = t_a - delta - 5 - len(queue)  # after existing reads
        program.add(mem0, Nop(pad))
        program.add(
            mem0, Read(address=101, stream=20, direction=Direction.EASTWARD)
        )
        compute = IcuId(fp.mxm(Hemisphere.EAST), 1)
        program.add(compute, Nop(t_a - 1))
        program.add(
            compute,
            ActivationBufferControl(
                plane=0, base_stream=20, direction=Direction.EASTWARD,
                n_vectors=1,
            ),
        )
        # ACC drains immediately — several cycles before the systolic depth
        program.add(
            compute,
            Accumulate(
                plane=0, base_stream=0, direction=Direction.WESTWARD,
                n_vectors=1,
            ),
        )
        with pytest.raises(ScheduleError, match="systolic|ready"):
            chip.run(program)


class TestTandem:
    def test_fp16_install_captures_partner(self, config, rng):
        from repro.sim.mxm import MxmUnit

        chip = TspChip(config)
        unit = chip.unit_at(chip.floorplan.mxm(Hemisphere.WEST))
        assert isinstance(unit, MxmUnit)
        raw = (
            rng.standard_normal((4, config.n_lanes))
            .astype(np.float16)
            .view(np.uint8)
            .reshape(-1)
        )
        unit._finish_install(
            unit.planes[0],
            InstallWeights(
                plane=0, rows=4, cols=config.n_lanes, dtype=DType.FP16
            ),
            raw,
            done_cycle=0,
        )
        assert unit.planes[0].weights.dtype == np.float16
        assert unit.planes[1].tandem_busy

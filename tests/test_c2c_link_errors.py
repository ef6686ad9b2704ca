"""C2C link-error protocol: FEC, retransmission slack, deskew drift."""

import numpy as np
import pytest

from repro.arch import Direction, Hemisphere
from repro.errors import C2cLinkError, SimulationError
from repro.compiler import build_ring_transfer
from repro.isa import Deskew, IcuId, Nop, Program, Read, Receive, Send
from repro.sim import (
    DEFAULT_LINK_LATENCY,
    LinkErrorModel,
    MultiChipSystem,
    TspChip,
)

E = Direction.EASTWARD


def loopback_program(chip, arrival_latency, mem_slice=2, address=8):
    """Deskew, send a vector out East link 0, receive it after the
    reserved slack."""
    fp = chip.floorplan
    program = Program()
    mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
    c2c = IcuId(fp.c2c(Hemisphere.EAST), 0)
    hops = fp.delta(fp.mem_slice(Hemisphere.EAST, 0), fp.c2c(Hemisphere.EAST))
    program.add(mem, Read(address=4, stream=0, direction=E))
    program.add(c2c, Deskew(link=0))
    program.add(c2c, Nop(4 + hops - 1))
    program.add(c2c, Send(link=0, stream=0, direction=E))
    capture = 5 + hops
    # Receive dfunc 6: the emplace happens at dispatch + 6
    program.add(c2c, Nop(capture + arrival_latency - (capture + 1) - 5))
    program.add(c2c, Receive(link=0, mem_slice=mem_slice, address=address))
    return program


def transfer(config, payload, model):
    system = MultiChipSystem.ring(config, 2)
    if model is not None:
        system.set_link_error_model(0, Hemisphere.EAST, 0, model)
    plan = build_ring_transfer(system, [0, 1], len(payload))
    landed, results = plan.run(system, payload)
    ingress = system.chips[1].c2c_unit(Hemisphere.WEST).links[0]
    return landed, results[0].cycles, ingress


class TestCorrectableNoise:
    def test_single_bit_hits_corrected_in_line(self, config, rng):
        payload = rng.integers(0, 256, (8, config.n_lanes), dtype=np.uint8)
        model = LinkErrorModel(seed=3, ber=2e-3, max_retries=1)
        landed, cycles, ingress = transfer(config, payload, model)
        assert np.array_equal(landed, payload)
        assert ingress.corrected > 0
        assert ingress.uncorrectable == 0

    def test_faulty_run_bit_identical_across_runs(self, config, rng):
        payload = rng.integers(0, 256, (6, config.n_lanes), dtype=np.uint8)
        model = LinkErrorModel(seed=9, ber=3e-3, max_retries=1)
        first, first_cycles, first_link = transfer(config, payload, model)
        again, again_cycles, again_link = transfer(config, payload, model)
        assert np.array_equal(first, again)
        assert first_cycles == again_cycles
        assert first_link.corrected == again_link.corrected > 0
        assert first_link.retries == again_link.retries

    def test_flip_bits_is_a_pure_function(self):
        model = LinkErrorModel(seed=9, ber=1e-2)
        a = model.flip_bits(0, 5, 0, 512)
        b = model.flip_bits(0, 5, 0, 512)
        assert np.array_equal(a, b)
        assert a.size == 0 or (0 <= a).all() and (a < 512).all()
        # a different attempt draws an independent corruption pattern
        c = model.flip_bits(0, 5, 1, 512)
        assert not np.array_equal(a, c) or a.size == c.size == 0


class TestRetransmission:
    def test_burst_consumes_reserved_retries(self, config, rng):
        payload = rng.integers(0, 256, (4, config.n_lanes), dtype=np.uint8)
        model = LinkErrorModel(seed=5, burst=(1, 2), max_retries=1)
        landed, _, ingress = transfer(config, payload, model)
        assert np.array_equal(landed, payload)
        assert ingress.retries == 2  # one retry per burst-hit vector

    def test_arrival_latency_reserves_retry_slack(self, config):
        system = MultiChipSystem.ring(config, 2)
        link = system.chips[0].c2c_unit(Hemisphere.EAST).links[0]
        assert link.arrival_latency == link.latency
        system.set_link_error_model(
            0, Hemisphere.EAST, 0, LinkErrorModel(max_retries=2)
        )
        assert link.arrival_latency == 3 * link.latency

    def test_insufficient_slack_faults_deterministically(self, config, rng):
        """A Receive scheduled for the plain latency — not the reserved
        arrival_latency — faults when the first copy is corrupt."""
        chip = TspChip(config)
        unit = chip.c2c_unit(Hemisphere.EAST)
        unit.loopback(0)
        unit.set_error_model(0, LinkErrorModel(burst=(0, 1), max_retries=1))
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.EAST, 0, 4, data)
        program = loopback_program(chip, DEFAULT_LINK_LATENCY)
        with pytest.raises(C2cLinkError, match="retry slack") as exc:
            chip.run(program)
        assert exc.value.cycle is not None
        assert exc.value.unit == "C2C_E"

    def test_uncorrectable_aborts_with_full_context(self, config, rng):
        payload = rng.integers(0, 256, (2, config.n_lanes), dtype=np.uint8)
        model = LinkErrorModel(seed=5, burst=(0, 1), max_retries=0)
        with pytest.raises(C2cLinkError, match="uncorrectable") as exc:
            transfer(config, payload, model)
        fault = exc.value
        assert fault.chip_id == 1
        assert fault.cycle is not None
        assert fault.unit == "C2C_W"
        assert "chip 1" in str(fault)

    def test_dead_link_loses_vectors(self, config, rng):
        payload = rng.integers(0, 256, (2, config.n_lanes), dtype=np.uint8)
        with pytest.raises(C2cLinkError, match="dead"):
            transfer(config, payload, LinkErrorModel(dead_after=0))


class TestDeskew:
    def test_drift_loses_calibration(self, config, rng):
        """After deskew_drift_every sends the link needs re-Deskew in
        strict mode."""
        chip = TspChip(config, strict_c2c=True)
        unit = chip.c2c_unit(Hemisphere.EAST)
        unit.loopback(0)
        unit.set_error_model(0, LinkErrorModel(deskew_drift_every=1))
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.EAST, 0, 4, data)
        link = unit.links[0]
        model = link.arrival_latency
        chip.run(loopback_program(chip, model))
        assert not link.deskewed  # calibration drifted away after the send
        # a second burst of traffic without re-Deskew is rejected
        fp = chip.floorplan
        program = Program()
        mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        c2c = IcuId(fp.c2c(Hemisphere.EAST), 0)
        program.add(mem, Read(address=4, stream=0, direction=E))
        program.add(c2c, Nop(30))
        program.add(c2c, Send(link=0, stream=0, direction=E))
        with pytest.raises(SimulationError, match="before Deskew"):
            chip.run(program)

    def test_epoch_mismatch_raises_in_strict_mode(self, config, rng):
        """Sender re-deskewed, receiver did not: epochs diverge and the
        strict receiver faults with a deterministic, contextful error."""
        landed_ok = self._epoch_run(config, rng, receiver_deskews=True)
        assert landed_ok
        with pytest.raises(C2cLinkError, match="deskew epoch mismatch"):
            self._epoch_run(config, rng, receiver_deskews=False)

    @staticmethod
    def _epoch_run(config, rng, receiver_deskews):
        system = MultiChipSystem.ring(config, 2, strict_c2c=True)
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip0, chip1 = system.chips
        chip0.load_memory(Hemisphere.EAST, 0, 4, data)
        fp = chip0.floorplan
        program0 = Program()
        mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        c2c0 = IcuId(fp.c2c(Hemisphere.EAST), 0)
        hops = fp.delta(
            fp.mem_slice(Hemisphere.EAST, 0), fp.c2c(Hemisphere.EAST)
        )
        program0.add(mem, Read(address=4, stream=0, direction=E))
        program0.add(c2c0, Deskew(link=0))
        program0.add(c2c0, Nop(4 + hops - 1))
        program0.add(c2c0, Send(link=0, stream=0, direction=E))
        capture = 5 + hops
        program1 = Program()
        c2c1 = IcuId(chip1.floorplan.c2c(Hemisphere.WEST), 0)
        if receiver_deskews:
            program1.add(c2c1, Deskew(link=0))
            program1.add(c2c1, Nop(capture + DEFAULT_LINK_LATENCY - 1))
        else:
            program1.add(c2c1, Nop(capture + DEFAULT_LINK_LATENCY))
        program1.add(c2c1, Receive(link=0, mem_slice=1, address=6))
        system.run([program0, program1])
        landed = chip1.read_memory(Hemisphere.WEST, 1, 6)[0]
        return np.array_equal(landed, data[0])


class TestLoopbackWithFaults:
    def test_raw_program_recovers_through_error_model(self, config, rng):
        """A hand-built loopback program through a burst: the payload
        lands bit-exact off the retransmission copy, identically on two
        fresh chips."""
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        probe = TspChip(config)
        model = LinkErrorModel(seed=5, burst=(0, 1), max_retries=1)

        def setup(chip):
            unit = chip.c2c_unit(Hemisphere.EAST)
            unit.loopback(0)
            unit.set_error_model(0, model)
            chip.load_memory(Hemisphere.EAST, 0, 4, data)

        probe_unit = probe.c2c_unit(Hemisphere.EAST)
        probe_unit.loopback(0)
        probe_unit.set_error_model(0, model)
        program = loopback_program(
            probe, probe_unit.links[0].arrival_latency
        )
        runs = []
        for _ in range(2):
            verify = TspChip(config)
            setup(verify)
            runs.append((verify.run(program), verify.memory_image()))
            # the recovered payload really landed, bit-exact
            assert np.array_equal(
                verify.read_memory(Hemisphere.EAST, 2, 8)[0], data[0]
            )
            assert verify.c2c_unit(Hemisphere.EAST).links[0].retries == 1
        (first, first_mem), (again, again_mem) = runs
        assert first.cycles == again.cycles
        assert first.activity == again.activity
        assert first_mem == again_mem

"""C2C links and lockstep multi-chip systems."""

import numpy as np
import pytest

from repro.arch import Direction, Hemisphere
from repro.errors import SimulationError
from repro.isa import Deskew, IcuId, Nop, Program, Read, Receive, Send
from repro.sim import (
    DEFAULT_LINK_LATENCY,
    LinkSpec,
    MultiChipSystem,
    TspChip,
)

E = Direction.EASTWARD


def send_program(chip, link=0):
    """Read a vector from MEM_E0 and send it out East link 0."""
    fp = chip.floorplan
    program = Program()
    mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
    c2c = IcuId(fp.c2c(Hemisphere.EAST), link)
    program.add(mem, Read(address=4, stream=0, direction=E))
    # MEM_E0 -> C2C_E transit + dfunc(5); send dskew 1
    hops = fp.delta(fp.mem_slice(Hemisphere.EAST, 0), fp.c2c(Hemisphere.EAST))
    program.add(c2c, Deskew(link=link))
    program.add(c2c, Nop(4 + hops - 1))
    program.add(c2c, Send(link=link, stream=0, direction=E))
    return program, 5 + hops  # capture cycle of the send


class TestLoopback:
    def test_send_receive_roundtrip(self, config, rng):
        chip = TspChip(config)
        chip.c2c_unit(Hemisphere.EAST).loopback(0)
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.EAST, 0, 4, data)
        program, capture = send_program(chip)
        receive_at = capture + DEFAULT_LINK_LATENCY
        c2c = IcuId(chip.floorplan.c2c(Hemisphere.EAST), 0)
        # Receive dfunc 6: dispatch so the pop happens after arrival
        program.add(c2c, Nop(receive_at - capture))
        program.add(c2c, Receive(link=0, mem_slice=2, address=8))
        chip.run(program)
        landed = chip.read_memory(Hemisphere.EAST, 2, 8)[0]
        assert np.array_equal(landed, data[0])

    def test_send_on_unconnected_link_raises(self, config, rng):
        chip = TspChip(config)
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.EAST, 0, 4, data)
        program, _ = send_program(chip)
        with pytest.raises(SimulationError, match="not connected"):
            chip.run(program)

    def test_strict_mode_requires_deskew(self, config, rng):
        chip = TspChip(config, strict_c2c=True)
        chip.c2c_unit(Hemisphere.EAST).loopback(0)
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.EAST, 0, 4, data)
        fp = chip.floorplan
        program = Program()
        mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        c2c = IcuId(fp.c2c(Hemisphere.EAST), 0)
        program.add(mem, Read(address=4, stream=0, direction=E))
        program.add(c2c, Nop(30))
        program.add(c2c, Send(link=0, stream=0, direction=E))
        with pytest.raises(SimulationError, match="Deskew"):
            chip.run(program)

    def test_receive_before_arrival_raises(self, config):
        chip = TspChip(config)
        chip.c2c_unit(Hemisphere.EAST).loopback(0)
        program = Program()
        c2c = IcuId(chip.floorplan.c2c(Hemisphere.EAST), 0)
        program.add(c2c, Receive(link=0, mem_slice=0, address=0))
        with pytest.raises(SimulationError, match="nothing in flight"):
            chip.run(program)

    def test_bad_link_index_raises(self, config):
        chip = TspChip(config)
        unit = chip.c2c_unit(Hemisphere.EAST)
        with pytest.raises(SimulationError):
            unit._link(99)


class TestMultiChip:
    def test_two_chip_transfer(self, config, rng):
        """Chip 0 sends a vector; chip 1 emplaces it in its own MEM."""
        system = MultiChipSystem(
            config,
            2,
            [LinkSpec(0, Hemisphere.EAST, 0, 1, Hemisphere.WEST, 0)],
        )
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        system.chips[0].load_memory(Hemisphere.EAST, 0, 4, data)

        program0, capture = send_program(system.chips[0])
        program1 = Program()
        c2c1 = IcuId(system.chips[1].floorplan.c2c(Hemisphere.WEST), 0)
        receive_at = capture + DEFAULT_LINK_LATENCY
        program1.add(c2c1, Nop(receive_at))
        program1.add(c2c1, Receive(link=0, mem_slice=1, address=6))
        results = system.run([program0, program1])
        landed = system.chips[1].read_memory(Hemisphere.WEST, 1, 6)[0]
        assert np.array_equal(landed, data[0])
        assert len(results) == 2
        assert results[0].cycles == results[1].cycles  # lockstep

    def test_ring_topology_wires_all_chips(self, config):
        system = MultiChipSystem.ring(config, 4)
        for chip in system.chips:
            east = chip.c2c_unit(Hemisphere.EAST)
            west = chip.c2c_unit(Hemisphere.WEST)
            assert east.links[0].peer is not None
            assert west.links[0].peer is not None

    def test_program_count_must_match(self, config):
        system = MultiChipSystem(config, 2)
        with pytest.raises(SimulationError):
            system.run([Program()])

    def test_zero_chips_rejected(self, config):
        with pytest.raises(SimulationError):
            MultiChipSystem(config, 0)

    def test_link_stats(self, config, rng):
        system = MultiChipSystem(
            config,
            2,
            [LinkSpec(0, Hemisphere.EAST, 0, 1, Hemisphere.WEST, 0)],
        )
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        system.chips[0].load_memory(Hemisphere.EAST, 0, 4, data)
        program0, capture = send_program(system.chips[0])
        program1 = Program()
        c2c1 = IcuId(system.chips[1].floorplan.c2c(Hemisphere.WEST), 0)
        program1.add(c2c1, Nop(capture + DEFAULT_LINK_LATENCY))
        program1.add(c2c1, Receive(link=0, mem_slice=1, address=6))
        system.run([program0, program1])
        sender = system.chips[0].c2c_unit(Hemisphere.EAST).links[0]
        receiver = system.chips[1].c2c_unit(Hemisphere.WEST).links[0]
        assert sender.sent_vectors == 1
        assert receiver.received_vectors == 1


class TestSharedCycleCore:
    """``MultiChipSystem.run`` and ``TspChip.run`` are one loop and one
    step body: on link-free programs a system is N independent chips."""

    @staticmethod
    def _paced_copy(chip, gap, trailing_nop):
        """Read -> gap -> write-back, optionally ending on a timed NOP."""
        program = Program()
        src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        dst = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
        program.add(src, Read(address=0, stream=0, direction=E))
        program.add(src, Nop(gap))
        program.add(src, Read(address=2, stream=1, direction=E))
        program.add(dst, Nop(gap + 30))
        if trailing_nop:
            program.add(src, Nop(gap + 40))
        return program

    @pytest.mark.parametrize("trailing_nop", [False, True])
    def test_link_free_system_equals_independent_chips(
        self, config, rng, trailing_nop
    ):
        n_chips = 3
        data = rng.integers(0, 256, (4, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, n_chips, trace=True)
        singles = [TspChip(config, trace=True) for _ in range(n_chips)]
        for chip in system.chips + singles:
            chip.load_memory(Hemisphere.WEST, 0, 0, data)
        # same length on every chip, so the lockstep system (which ends
        # when the slowest chip does) ends where each chip alone would
        programs = [
            self._paced_copy(chip, 40, trailing_nop) for chip in system.chips
        ]
        together = system.run(programs)
        alone = [
            chip.run(program) for chip, program in zip(singles, programs)
        ]
        for shared, own in zip(together, alone):
            assert shared.cycles == own.cycles
            assert shared.skipped_cycles == own.skipped_cycles == 0
            assert shared.instructions == own.instructions
            assert shared.activity == own.activity
            assert shared.trace == own.trace
        for chip, single in zip(system.chips, singles):
            assert chip.memory_image() == single.memory_image()

    def test_system_waits_out_a_trailing_nop(self, config):
        """A trailing NOP is timed behaviour on a system as on a chip:
        ``Read`` at cycle 0, ``Nop(50)`` dispatched at cycle 1 holds its
        queue through cycle 50, so the run is 51 cycles — on both chips,
        though the peer's lone ``Read`` has long drained."""
        def program(chip, trailing):
            program = Program()
            src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
            program.add(src, Read(address=0, stream=0, direction=E))
            if trailing:
                program.add(src, Nop(trailing))
            return program

        system = MultiChipSystem.ring(config, 2)
        results = system.run(
            [program(system.chips[0], 50), program(system.chips[1], 0)]
        )
        lone_chip = TspChip(config)
        lone = lone_chip.run(program(lone_chip, 50))
        assert [r.cycles for r in results] == [51, 51] == [lone.cycles] * 2
        assert [r.instructions for r in results] == [2, 1]
        assert [r.skipped_cycles for r in results] == [0, 0]
        assert lone.skipped_cycles == 0

    def test_system_run_goes_through_the_chip_step_body(
        self, config, monkeypatch
    ):
        """No second loop: every cycle a system visits is a
        ``TspChip.step_cycle`` call, the same count a lone chip makes."""
        visits = []
        step_cycle = TspChip.step_cycle

        def counting(chip, queues, cycle):
            visits.append((chip.chip_id, cycle))
            return step_cycle(chip, queues, cycle)

        monkeypatch.setattr(TspChip, "step_cycle", counting)
        system = MultiChipSystem.ring(config, 2)
        programs = [self._paced_copy(c, 40, False) for c in system.chips]
        system.run(programs)
        by_chip = [
            [cycle for chip_id, cycle in visits if chip_id == i]
            for i in range(2)
        ]
        assert by_chip[0] == by_chip[1] and by_chip[0]
        visits.clear()
        lone = TspChip(config, chip_id=0)
        lone.run(programs[0])
        assert [cycle for _, cycle in visits] == by_chip[0]


class TestRingSizing:
    def test_single_chip_ring_is_rejected(self, config):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="loopback=True"):
            MultiChipSystem.ring(config, 1)

    def test_explicit_loopback_builds_the_self_ring(self, config):
        system = MultiChipSystem.ring(config, 1, loopback=True)
        east = system.chips[0].c2c_unit(Hemisphere.EAST)
        west = system.chips[0].c2c_unit(Hemisphere.WEST)
        assert east.links[0].peer == (west, 0)
        assert west.links[0].peer == (east, 0)

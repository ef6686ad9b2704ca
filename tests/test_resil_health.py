"""Health monitoring and the watchdog: verdicts, trends, exact deadlines."""

import numpy as np
import pytest

from repro.arch import Direction, Hemisphere
from repro.errors import WatchdogError
from repro.isa import IcuId, Nop, Program, Read, Sync, Write
from repro.compiler import build_ring_transfer
from repro.resil import HealthMonitor, Watchdog
from repro.sim import FaultInjector, LinkErrorModel, MultiChipSystem, TspChip

E = Direction.EASTWARD


def copy_program(chip):
    program = Program()
    src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
    dst = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
    program.add(src, Read(address=4, stream=0, direction=E))
    program.add(dst, Nop(6))
    program.add(dst, Write(address=9, stream=0, direction=E))
    return program


class TestHealthMonitor:
    def test_fresh_chip_reports_healthy(self, config):
        chip = TspChip(config, chip_id=3)
        report = HealthMonitor().poll(chip)
        assert report.verdict == "healthy"
        assert report.chip_id == 3
        assert report.ecc_corrections == 0
        assert report.links == ()  # unwired, silent links are skipped

    def test_corrections_accumulate_into_wearout(self, config, rng):
        chip = TspChip(config, chip_id=0, enable_ecc=True)
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip.load_memory(Hemisphere.WEST, 0, 4, data)
        FaultInjector(chip).inject_sram_fault(Hemisphere.WEST, 0, 4, bit=13)
        chip.run(copy_program(chip))
        monitor = HealthMonitor(wearout_threshold=1)
        report = monitor.poll(chip)
        assert report.ecc_corrections == 1
        assert report.correction_delta == 1
        assert report.wearout
        assert report.verdict == "marginal"

    def test_trend_is_the_correction_slope(self, config):
        chip = TspChip(config)
        monitor = HealthMonitor()
        for corrections in (0, 4, 8):
            chip.srf.corrections = corrections
            monitor.poll(chip, cycle=corrections * 10)
        assert monitor.trend(chip) == 4.0

    def test_link_retries_flag_marginal(self, config, rng):
        payload = rng.integers(0, 256, (4, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, 2)
        system.set_link_error_model(
            0, Hemisphere.EAST, 0,
            LinkErrorModel(seed=5, burst=(0, 1), max_retries=1),
        )
        plan = build_ring_transfer(system, [0, 1], len(payload))
        plan.run(system, payload)
        monitor = HealthMonitor()
        reports = monitor.poll_system(system)
        ingress = next(
            lh for lh in reports[1].links if lh.received > 0
        )
        assert ingress.retries == 1
        assert ingress.marginal and not ingress.failed
        assert reports[1].verdict == "marginal"
        assert "C2C" in reports[1].render()

    def test_uncorrectable_counter_flags_failed(self, config):
        chip = TspChip(config, chip_id=0)
        chip.c2c_unit(Hemisphere.EAST).loopback(0)
        link = chip.c2c_unit(Hemisphere.EAST).links[0]
        link.sent_vectors = 3
        link.uncorrectable = 1
        report = HealthMonitor().poll(chip)
        assert report.verdict == "failed"
        assert any(lh.failed for lh in report.links)


class TestWatchdog:
    def test_fires_at_the_deadline_cycle(self, config, chip):
        slow_program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
        slow_program.add(icu, Nop(1000))
        fresh = TspChip(config, chip_id=0)
        fresh.arm_watchdog(Watchdog(deadline=400, label="test"))
        with pytest.raises(WatchdogError, match="test") as exc:
            fresh.run(slow_program)
        assert exc.value.chip_id == 0
        assert exc.value.cycle == 400

    def test_silent_when_the_program_beats_the_deadline(self, config, rng):
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        baseline = TspChip(config)
        baseline.load_memory(Hemisphere.WEST, 0, 4, data)
        expected = baseline.run(copy_program(baseline)).cycles
        armed = TspChip(config)
        armed.load_memory(Hemisphere.WEST, 0, 4, data)
        armed.arm_watchdog(Watchdog(deadline=10_000))
        result = armed.run(copy_program(armed))
        assert result.cycles == expected
        armed.disarm_watchdog()
        assert armed.watchdog is None

    def test_catches_a_cross_chip_barrier_hang(self, config):
        """Chip 1 parks on a Sync no one ever Notifies; the multichip
        driver has no deadlock detector, so the watchdog is the bound."""
        system = MultiChipSystem.ring(config, 2)
        system.chips[1].arm_watchdog(Watchdog(deadline=300, label="hang"))
        hung = Program()
        icu = IcuId(system.chips[1].floorplan.mem_slice(Hemisphere.WEST, 0))
        hung.add(icu, Sync())
        with pytest.raises(WatchdogError, match="parked") as exc:
            system.run([Program(), hung], max_cycles=50_000)
        assert exc.value.chip_id == 1
        assert exc.value.cycle == 300
        assert "MEM_W0" in str(exc.value)


class TestAbortedRunLeavesNoEvents:
    """A run that faults mid-flight takes its pending callbacks with it:
    they are keyed by the dead run's cycle numbers and would otherwise
    fire at the same numbers of the next run on the un-scrubbed chip."""

    @staticmethod
    def _matmul():
        from golden_programs import GOLDEN_PROGRAMS

        return GOLDEN_PROGRAMS["matmul"]().compile()

    def test_fault_disarm_rerun_matches_a_fresh_chip(self, config):
        from repro.compiler import execute

        compiled = self._matmul()
        fresh = TspChip(config, trace=True)
        expected = execute(compiled, chip=fresh, replay=False)
        assert expected.run.cycles > 20

        chip = TspChip(config, trace=True)
        chip.arm_watchdog(Watchdog(deadline=10, label="abort"))
        with pytest.raises(WatchdogError):
            execute(compiled, chip=chip, replay=False)
        assert chip.events.pending == 0  # nothing of the dead run survives
        chip.disarm_watchdog()
        # no scrub(): begin_run alone must make the chip runnable again
        again = execute(compiled, chip=chip, replay=False)
        for name, value in expected.outputs.items():
            assert np.array_equal(again.outputs[name], value)
        assert again.run.cycles == expected.run.cycles
        assert again.run.instructions == expected.run.instructions
        assert again.run.trace == expected.run.trace
        assert again.run.skipped_cycles == expected.run.skipped_cycles
        assert chip.memory_image() == fresh.memory_image()

    def test_events_armed_before_a_run_still_belong_to_it(self, config, rng):
        """The other side of the contract: ``begin_run`` keeps the store,
        so a fault scheduled for the next run (``inject_stream_fault_at``)
        fires in it."""
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip = TspChip(config, enable_ecc=True)
        chip.load_memory(Hemisphere.WEST, 0, 4, data)
        src = chip.floorplan.position(
            chip.floorplan.mem_slice(Hemisphere.WEST, 0)
        )
        injector = FaultInjector(chip)
        injector.inject_stream_fault_at(6, E, 0, src + 1, bit=21)
        chip.run(copy_program(chip))
        assert len(injector.log) == 1  # the armed flip fired in this run

    def test_multichip_abort_clears_every_chip(self, config, rng):
        payload = rng.integers(0, 256, (4, config.n_lanes), dtype=np.uint8)
        reference = MultiChipSystem.ring(config, 2)
        plan = build_ring_transfer(reference, [0, 1], len(payload))
        _, expected = plan.run(reference, payload)

        system = MultiChipSystem.ring(config, 2)
        system.chips[0].arm_watchdog(Watchdog(deadline=8))
        with pytest.raises(WatchdogError):
            plan.run(system, payload)
        assert all(chip.events.pending == 0 for chip in system.chips)
        system.chips[0].disarm_watchdog()
        _, again = plan.run(system, payload)
        for got, want in zip(again, expected):
            assert got.cycles == want.cycles
            assert got.activity == want.activity
        for chip, ref in zip(system.chips, reference.chips):
            assert chip.memory_image() == ref.memory_image()

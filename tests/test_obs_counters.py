"""Telemetry counter registry: exactness, integration, and rollup.

An attached :class:`~repro.obs.TelemetryCollector` is charged once per
run with what ran — its dispatches, its stream drives, its cycle count —
so a chip with a collector replays like any other.  The tests here pin
that (a program carrying a plan replays under a collector, to the
snapshot a simulation of it charges, which rolls up to the activity the
compiler counted), the closed-form primitives the counts rest on
(``count_span``, each stream value's registers), and the coarse
``ActivityCounts`` rollup contract (``rollup() == run.activity``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import Direction, Hemisphere
from repro.arch.power import ActivityCounts
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.isa import (
    ActivationBufferControl,
    IcuId,
    InstallWeights,
    Nop,
    Program,
    Read,
)
from repro.obs import AutoTelemetry, TelemetryCollector
from repro.sim.chip import TspChip

from golden_programs import GOLDEN_PROGRAMS


def _run_with_collector(compiled, window_cycles=64, replay=True):
    """``execute`` on a fresh chip with a fresh collector — a replay when
    the program carries a plan, unless ``replay=False``."""
    chip = TspChip(compiled.config)
    collector = TelemetryCollector(window_cycles=window_cycles)
    chip.attach_telemetry(collector)
    assert not compiled.inputs
    result = execute(compiled, chip=chip, replay=replay)
    return result.run, collector, result.outputs


class TestCountSpan:
    """The closed-form window distribution primitive."""

    @pytest.mark.parametrize(
        "start,n,per_cycle",
        [
            (0, 1, 1),
            (5, 3, 2),          # inside one window
            (6, 4, 1),          # straddles one boundary
            (0, 8, 3),          # exactly one window
            (3, 29, 5),         # head + full + tail
            (16, 16, 1),        # aligned two full windows
            (7, 1, 10),         # single cycle at window edge
        ],
    )
    def test_matches_per_cycle_counting(self, start, n, per_cycle):
        span = TelemetryCollector(window_cycles=8)
        dense = TelemetryCollector(window_cycles=8)
        span.count_span("u", "c", start, n, per_cycle)
        for cycle in range(start, start + n):
            dense.count("u", "c", cycle, per_cycle)
        assert span.snapshot() == dense.snapshot()
        assert span.totals() == {"u": {"c": n * per_cycle}}

    def test_empty_span_is_a_noop(self):
        collector = TelemetryCollector(window_cycles=8)
        collector.count_span("u", "c", 10, 0)
        collector.count_span("u", "c", 10, 5, per_cycle=0)
        assert collector.totals() == {}

    def test_window_width_validated(self):
        with pytest.raises(ValueError):
            TelemetryCollector(window_cycles=0)


class TestStreamFlow:
    """Drive-derived SRF counters: each value's windows, in closed form,
    equal a walk of the register file, one value and one cycle at a time."""

    def test_flow_totals_equal_per_value_counting(self):
        config = small_test_chip()
        chip = TspChip(config)
        n, lanes, cycles = chip.floorplan.n_positions, config.n_lanes, 10
        east, west = Direction.EASTWARD, Direction.WESTWARD
        drives = [
            (east, 0, 0, 0), (east, 0, 3, 3),  # the second overwrites
            (west, 1, n - 1, 1), (west, 1, n - 3, 3),  # likewise
            (east, 2, n - 2, 0),  # leaves the die after one hop
            (west, 3, n - 1, 6),  # the run ends first
            (east, 4, 5, 2), (west, 4, 0, 4),  # one hop, and none
        ]
        derived = TelemetryCollector(window_cycles=4)
        derived.bind(chip)
        derived.charge([], drives, cycles)
        walked = TelemetryCollector(window_cycles=4)
        vector = np.ones(lanes, np.uint8)
        for t in range(cycles):
            for direction, stream, position, at in drives:
                if at == t:
                    chip.srf.drive(direction, stream, position, vector)
            # a live register is occupied this cycle; its value is billed
            # the hop only if it lands on the next one
            valid = chip.srf.snapshot_valid()  # [direction, stream, pos]
            for d, unit, edge in ((0, "srf:E", n - 1), (1, "srf:W", 0)):
                for _stream, position in zip(*np.nonzero(valid[d])):
                    walked.count(unit, "occupancy_cycles", t)
                    if position != edge:
                        walked.count(unit, "hop_bytes", t, lanes)
            chip.srf.step()
        assert derived.snapshot()["counters"] == walked.snapshot()["counters"]
        assert derived.rollup().stream_hop_bytes == chip.srf.hop_bytes_total

    def test_empty_register_file_counts_nothing(self):
        collector = TelemetryCollector(window_cycles=4)
        collector.bind(TspChip(small_test_chip()))
        collector.charge([], [], 5)
        assert collector.totals() == {} and collector.cycles == 5


class TestReplayExactness:
    """A watched run replays wherever a plan exists, over every golden
    program: its counts equal, window for window, those a simulation of
    the program charges, and sum to what the compiler counted into the
    plan."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
    def test_snapshots_bit_identical(self, name):
        compiled = GOLDEN_PROGRAMS[name]().compile()
        plan = compiled.replay  # finished with the schedule, before a run
        assert plan is not None and plan.ok, plan and plan.reason
        run, collector, outputs = _run_with_collector(compiled)
        simulated, other, other_outputs = _run_with_collector(
            compiled, replay=False
        )
        assert run.skipped_cycles == run.cycles > 0
        assert simulated.skipped_cycles == 0
        assert collector.snapshot() == other.snapshot()
        assert collector.dispatch_log == other.dispatch_log
        assert collector.rollup() == run.activity == plan.activity
        assert other.rollup() == simulated.activity == plan.activity
        for key in outputs:
            assert outputs[key].tobytes() == other_outputs[key].tobytes()

    def test_rollup_equals_run_activity(self):
        compiled = GOLDEN_PROGRAMS["matmul"]().compile()
        for replayed in (False, True):
            run, collector, _ = _run_with_collector(compiled, replay=replayed)
            assert run.skipped_cycles == (run.cycles if replayed else 0)
            rollup = collector.rollup()
            assert rollup == run.activity == compiled.replay.activity
            assert rollup.cycles == run.cycles == collector.cycles


class TestCharge:
    """What a charge reads besides the run's own events."""

    def test_a_tile_installed_before_the_run(self):
        """An MXM plane keeps its weights from run to run: a run that only
        multiplies charges the MACCs of the tile an earlier one installed."""
        config = small_test_chip()
        chip = TspChip(config)
        mxm = chip.floorplan.mxm(Hemisphere.EAST)
        mem = chip.floorplan.mem_slice(Hemisphere.EAST, 0)
        arrive = 4 + chip.floorplan.delta(mem, mxm)
        read = Read(address=0, stream=0, direction=Direction.EASTWARD)
        install, multiply = Program(), Program()
        for program, queue, use in (
            (install, 0, InstallWeights(plane=0, rows=4, cols=config.n_lanes)),
            (multiply, 1, ActivationBufferControl(plane=0, n_vectors=1)),
        ):
            program.add(IcuId(mem), read)
            program.add(IcuId(mxm, queue), Nop(arrive))
            program.add(IcuId(mxm, queue), use)
        chip.run(install)
        collector = TelemetryCollector()
        chip.attach_telemetry(collector)
        run = chip.run(multiply)
        assert run.activity.macc_ops == 4 * config.n_lanes
        assert collector.rollup() == run.activity

    def test_the_post_reset_barrier_is_no_program_text(self):
        """Behind the warm-up barrier each queue parks until the Notify
        releases it, and its instruction buffer starts with its program's
        text — the barrier's Sync and Notify are dispatched, not fetched."""
        compiled = GOLDEN_PROGRAMS["matmul"]().compile()
        chip = TspChip(compiled.config)
        collector = TelemetryCollector()
        chip.attach_telemetry(collector)
        run = execute(compiled, chip=chip, warmup_barrier=True).run
        assert collector.rollup() == run.activity
        latency = compiled.config.barrier_latency_cycles
        totals, scalars = collector.totals(), collector.snapshot()["scalars"]
        for icu in compiled.program.icus:
            queue = compiled.program.queue(icu)
            text = sum(i.encoded_size() for i in queue)
            marks = scalars[f"icu:{icu}"]
            assert marks["iq_high_water_bytes"] == min(
                text, compiled.config.iq_capacity_bytes
            )
            # parked from the Sync's cycle to the release: the notifier's
            # Sync a cycle later than the rest
            parked = latency - 1 - (icu == compiled.program.icus[0])
            assert totals[f"icu:{icu}"]["parked_cycles"] == parked


class TestRollupMapping:
    def test_from_fine_maps_each_domain(self):
        totals = {
            "mem:MEM_W0": {"read_bytes": 100, "write_bytes": 40},
            "icu:MEM_W0": {"dispatches": 7, "ifetch_bytes": 64,
                           "stall_cycles": 9},
            "mxm:MXM_E.plane0": {"macc_ops": 1000, "weight_bytes": 256},
            "vxm:alu3": {"alu_ops": 32},
            "sxm:SXM_E": {"bytes": 16},
            "srf:E": {"hop_bytes": 500, "occupancy_cycles": 12},
        }
        rollup = ActivityCounts.from_fine(totals, cycles=50)
        assert rollup.cycles == 50
        assert rollup.sram_read_bytes == 164  # mem reads + ifetch
        assert rollup.sram_write_bytes == 40
        assert rollup.instructions == 7
        assert rollup.macc_ops == 1000
        assert rollup.alu_ops == 32
        assert rollup.sxm_bytes == 16
        assert rollup.stream_hop_bytes == 500


class TestReadout:
    def test_domain_windows_sums_units(self):
        collector = TelemetryCollector(window_cycles=8)
        collector.count("mem:A", "read_bytes", 1, 10)
        collector.count("mem:B", "read_bytes", 9, 20)
        collector.count("mem:A", "read_bytes", 9, 5)
        collector.count("mxm:X.plane0", "macc_ops", 1, 99)
        assert collector.domain_windows("mem", "read_bytes") == {0: 10, 1: 25}
        assert collector.windows_for("mem:A", "read_bytes") == {0: 10, 1: 5}
        assert collector.windows_for("mem:A", "nothing") == {}

    def test_watermarks(self):
        collector = TelemetryCollector()
        collector.mark_high("icu:X", "iq_high_water_bytes", 5)
        collector.mark_high("icu:X", "iq_high_water_bytes", 3)
        collector.mark_low("icu:X", "iq_low_water_bytes", 5)
        collector.mark_low("icu:X", "iq_low_water_bytes", 7)
        scalars = collector.snapshot()["scalars"]["icu:X"]
        assert scalars["iq_high_water_bytes"] == 5
        assert scalars["iq_low_water_bytes"] == 5


class TestAutoTelemetry:
    def test_collects_every_chip_in_scope(self):
        config = small_test_chip()
        auto = AutoTelemetry(window_cycles=32)
        with auto:
            first = TspChip(config)
            second = TspChip(config)
        outside = TspChip(config)
        assert [c.name for c in auto.collectors] == ["chip0", "chip1"]
        assert first.obs is auto.collectors[0]
        assert second.obs is auto.collectors[1]
        assert outside.obs is None
        assert TspChip.auto_telemetry is None

    def test_execute_under_auto_telemetry(self):
        config = small_test_chip()
        lanes = config.n_lanes
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", np.arange(2 * lanes, dtype=np.int8).reshape(2, lanes) % 7
        )
        g.write_back(g.relu(x), name="y")
        auto = AutoTelemetry(window_cycles=32)
        with auto:
            result = execute(g.compile())
        (collector,) = auto.collectors
        assert collector.rollup() == result.run.activity
        assert collector.cycles == result.run.cycles

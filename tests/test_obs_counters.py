"""Telemetry counter registry: exactness, integration, and rollup.

An attached :class:`~repro.obs.TelemetryCollector` counts only what its
chip simulated: a chip with a collector never replays a plan, so every
count is a transition the collector watched.  The tests here pin that (a
program carrying a plan still simulates under a collector, twice to the
same snapshot, which rolls up to the activity the compiler counted), the
closed-form primitives the counts rest on
(``count_span``, stream flow), and the coarse ``ActivityCounts`` rollup
contract (``rollup() == run.activity``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.power import ActivityCounts
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.obs import AutoTelemetry, TelemetryCollector
from repro.sim.chip import TspChip

from golden_programs import GOLDEN_PROGRAMS


def _run_with_collector(compiled, window_cycles=64):
    """``execute`` on a fresh chip with a fresh collector — a simulation,
    though the program carries a plan."""
    chip = TspChip(compiled.config)
    collector = TelemetryCollector(window_cycles=window_cycles)
    chip.attach_telemetry(collector)
    assert not compiled.inputs
    result = execute(compiled, chip=chip)
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
    """Flow-counted SRF counters: per-direction totals == per-value walk."""

    def test_flow_totals_equal_per_value_counting(self):
        last, lanes, n, width = 7, 16, 6, 4
        e = np.array([0, 3, 6, 7])
        w = np.array([0, 1, 5])
        flow = TelemetryCollector(window_cycles=width)
        walked = TelemetryCollector(window_cycles=width)
        for cycle in range(n):
            # the way the stream register file reports each one-hop step
            fell_e, fell_w = int((e == last).sum()), int((w == 0).sum())
            flow.on_stream_flow(
                cycle, lanes,
                e.size, e.size - fell_e, fell_e,
                w.size, w.size - fell_w, fell_w,
            )
            # one value at a time: a live register is occupied this
            # cycle; the hop is billed only if the value lands
            for unit, positions, edge in (("srf:E", e, last), ("srf:W", w, 0)):
                for p in positions.tolist():
                    walked.count(unit, "occupancy_cycles", cycle)
                    if p != edge:
                        walked.count(unit, "hop_bytes", cycle, lanes)
            e = e[e < last] + 1
            w = w[w > 0] - 1
        assert flow.snapshot() == walked.snapshot()

    def test_empty_register_file_counts_nothing(self):
        collector = TelemetryCollector(window_cycles=4)
        collector.on_stream_flow(0, 16, 0, 0, 0, 0, 0, 0)
        assert collector.totals() == {}


class TestReplayExactness:
    """A plan never stands in for a run a collector watches, over every
    golden program: each watched ``execute()`` simulates, so the counts
    are exact by construction — and equal what the compiler counted into
    the plan."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
    def test_snapshots_bit_identical(self, name):
        compiled = GOLDEN_PROGRAMS[name]().compile()
        plan = compiled.replay  # finished with the schedule, before a run
        assert plan is not None and plan.ok, plan and plan.reason
        runs = [_run_with_collector(compiled)]
        # a clean chip replays between the watched runs
        assert execute(compiled).run.skipped_cycles > 0
        runs += [_run_with_collector(compiled) for _ in range(2)]
        (run, collector, outputs), *later = runs
        assert collector.rollup() == run.activity == plan.activity
        for again, other, other_outputs in later:
            # every watched run simulated
            assert run.skipped_cycles == again.skipped_cycles == 0
            assert collector.snapshot() == other.snapshot()
            for key in outputs:
                assert outputs[key].tobytes() == other_outputs[key].tobytes()

    def test_rollup_equals_run_activity(self):
        compiled = GOLDEN_PROGRAMS["matmul"]().compile()
        for replayed in (False, True):
            if replayed:
                assert execute(compiled).run.skipped_cycles > 0
            run, collector, _ = _run_with_collector(compiled)
            assert run.skipped_cycles == 0
            rollup = collector.rollup()
            assert rollup == run.activity == compiled.replay.activity
            assert rollup.cycles == run.cycles


class TestRollupMapping:
    def test_from_fine_maps_each_domain(self):
        totals = {
            "mem:MEM_W0": {"read_bytes": 100, "write_bytes": 40,
                           "bank_conflicts": 3},
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

"""Telemetry counter registry: exactness, integration, and rollup.

The load-bearing property is the one ``ISSUE``d by the paper's determinism
argument: an attached :class:`~repro.obs.TelemetryCollector` produces a
**bit-identical** snapshot whether the run executed cycle-by-cycle or
under fast-forward — per window, per unit, per counter.  The tests here
assert that directly, plus the closed-form primitives it rests on and the
coarse ``ActivityCounts`` rollup contract.
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


def _run_with_collector(compiled, fast_forward, window_cycles=64):
    chip = TspChip(compiled.config)
    collector = TelemetryCollector(window_cycles=window_cycles)
    chip.attach_telemetry(collector)
    from repro.compiler.runner import bind_input, fetch_output, load_compiled

    load_compiled(chip, compiled)
    assert not compiled.inputs
    run = chip.run(compiled.program, fast_forward=fast_forward)
    outputs = {
        name: fetch_output(chip, spec)
        for name, spec in compiled.outputs.items()
    }
    return run, collector, outputs


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


class TestStreamIntegration:
    """Flow-integrated SRF counters: bulk skip == one cycle at a time."""

    def _drive(self, collector, positions_by_cycle, last, lanes, bulk):
        """Feed the same trajectory as n=1 steps or one bulk shift."""
        if bulk:
            e0, w0 = positions_by_cycle[0]
            collector.on_stream_shift(
                0, len(positions_by_cycle),
                np.array(e0), np.array(w0), last, lanes,
            )
        else:
            # one cycle never crosses a window: settled from the totals,
            # the way the stream register file reports its one-hop steps
            for cycle, (e, w) in enumerate(positions_by_cycle):
                fell_e, fell_w = e.count(last), w.count(0)
                collector.on_stream_flow(
                    cycle, lanes,
                    len(e), len(e) - fell_e, fell_e,
                    len(w), len(w) - fell_w, fell_w,
                )

    def test_bulk_shift_equals_dense_steps(self):
        last, lanes, n = 7, 16, 6
        e = np.array([0, 3, 6, 7])
        w = np.array([0, 1, 5])
        trajectory = []
        ce, cw = e.copy(), w.copy()
        for _ in range(n):
            trajectory.append((ce.tolist(), cw.tolist()))
            ce = ce[ce < last] + 1
            cw = cw[cw > 0] - 1
        dense = TelemetryCollector(window_cycles=4)
        bulk = TelemetryCollector(window_cycles=4)
        self._drive(dense, trajectory, last, lanes, bulk=False)
        self._drive(bulk, trajectory, last, lanes, bulk=True)
        assert dense.snapshot() == bulk.snapshot()

    def test_empty_register_file_counts_nothing(self):
        collector = TelemetryCollector(window_cycles=4)
        collector.on_stream_shift(
            0, 10, np.array([], dtype=int), np.array([], dtype=int), 7, 16
        )
        assert collector.totals() == {}


class TestFastForwardExactness:
    """Dense vs fast-forward telemetry, over every golden program."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
    def test_snapshots_bit_identical(self, name):
        compiled = GOLDEN_PROGRAMS[name]().compile()
        slow_run, slow, slow_out = _run_with_collector(compiled, False)
        fast_run, fast, fast_out = _run_with_collector(compiled, True)
        assert slow.snapshot() == fast.snapshot()
        for key in slow_out:
            assert slow_out[key].tobytes() == fast_out[key].tobytes()

    def test_skip_path_exercised(self):
        # at least the matmul golden contains quiescent spans, so the
        # equality above covers the analytic integration, not only n=1
        compiled = GOLDEN_PROGRAMS["matmul"]().compile()
        fast_run, _, _ = _run_with_collector(compiled, True)
        assert fast_run.skipped_cycles > 0

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_rollup_equals_run_activity(self, fast_forward):
        compiled = GOLDEN_PROGRAMS["matmul"]().compile()
        run, collector, _ = _run_with_collector(compiled, fast_forward)
        rollup = collector.rollup()
        assert rollup == run.activity
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

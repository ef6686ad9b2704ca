"""Perfetto trace building: durations, flows, and the golden artifact.

``tests/goldens/trace_matmul.json`` freezes the full trace of the matmul
golden program — spans, counter tracks, flow arrows, and intent rows.
Regenerate deliberately with ``PYTHONPATH=src python tests/golden_trace.py``
and explain why in the commit message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.timing import TimingModel
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.isa.icu import Nop, Repeat
from repro.isa.mem import Read
from repro.isa.program import Program
from repro.obs import PerfettoTraceBuilder, TelemetryCollector
from repro.sim.chip import TspChip
from repro.sim.tracer import instruction_duration

import golden_trace


@pytest.fixture(scope="module")
def matmul_trace():
    return golden_trace.compute_trace()


class TestDurations:
    def test_nop_occupies_its_count(self):
        config = small_test_chip()
        timing = TimingModel()
        assert instruction_duration(Nop(count=500), timing, config) == 500
        assert instruction_duration(Nop(), timing, config) == 1

    def test_repeat_covers_every_iteration(self):
        config = small_test_chip()
        timing = TimingModel()
        assert instruction_duration(
            Repeat(n=4, d=3), timing, config
        ) == 10  # iterations at 0, 3, 6, 9 plus the final dispatch cycle

    def test_functional_units_use_timing_model(self):
        config = small_test_chip()
        timing = TimingModel()
        read = Read(address=0, stream=0)
        assert instruction_duration(read, timing, config) == max(
            timing.functional_delay("Read"), read.dskew(timing) + 1
        )


class TestTraceStructure:
    def test_event_kinds_present(self, matmul_trace):
        kinds = {event["ph"] for event in matmul_trace}
        assert {"M", "X", "C", "s", "f"} <= kinds

    def test_spans_have_positive_durations(self, matmul_trace):
        spans = [e for e in matmul_trace if e["ph"] == "X"]
        assert spans
        assert all(e["dur"] > 0 for e in spans)
        assert all(e["ts"] >= 0 for e in spans)
        # multi-cycle instructions must not be drawn as one-cycle slivers
        one_cycle_us = 1e-3
        assert any(e["dur"] > one_cycle_us * 1.5 for e in spans)

    def test_flows_pair_up_and_point_forward(self, matmul_trace):
        starts = {e["id"]: e for e in matmul_trace if e["ph"] == "s"}
        finishes = {e["id"]: e for e in matmul_trace if e["ph"] == "f"}
        assert starts and set(starts) == set(finishes)
        for flow_id, start in starts.items():
            assert finishes[flow_id]["ts"] >= start["ts"]

    def test_counter_tracks_emitted(self, matmul_trace):
        names = {e["name"] for e in matmul_trace if e["ph"] == "C"}
        assert "MXM MACCs" in names
        assert "SRF hop bytes" in names

    def test_intent_rows_present(self, matmul_trace):
        intents = [
            e for e in matmul_trace
            if e["ph"] == "X" and e.get("cat") == "intent"
        ]
        assert intents

    def test_trace_fallback_without_collector(self):
        config = small_test_chip()
        lanes = config.n_lanes
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", (np.arange(lanes, dtype=np.int8) % 5).reshape(1, lanes)
        )
        g.write_back(g.relu(x), name="y")
        chip = TspChip(config, trace=True)
        execute(g.compile(), chip=chip)
        builder = PerfettoTraceBuilder()
        builder.add_chip(name="plain", pid=0, trace=chip.trace)
        events = builder.build()
        assert any(e["ph"] == "X" for e in events)

    def test_multi_chip_pids_disjoint(self):
        config = small_test_chip()
        collectors = []
        for _ in range(2):
            chip = TspChip(config)
            collector = TelemetryCollector(window_cycles=32)
            chip.attach_telemetry(collector)
            chip.run(Program(), max_cycles=16)
            collectors.append(collector)
        builder = PerfettoTraceBuilder()
        for i, collector in enumerate(collectors):
            builder.add_chip(name=f"chip{i}", pid=i, collector=collector)
        pids = {e["pid"] for e in builder.build()}
        assert pids == {0, 1}


class TestGoldenTrace:
    def test_trace_matches_golden(self, matmul_trace):
        golden = golden_trace.load_golden()
        assert len(matmul_trace) == len(golden), (
            "trace event count changed — if the timing or schema change is "
            "intended, regenerate with "
            "`PYTHONPATH=src python tests/golden_trace.py`"
        )
        for i, (got, want) in enumerate(zip(matmul_trace, golden)):
            assert got == want, f"trace event {i} diverged: {got} != {want}"

"""Trace export and utilization tooling, plus the report CLI."""

import json

import numpy as np

from repro.arch import Direction, Hemisphere
from repro.isa import IcuId, Nop, Program, Read, Write
from repro.obs.trace import PerfettoTraceBuilder
from repro.sim import TspChip


def traced_run(config, rng):
    chip = TspChip(config, trace=True)
    data = rng.integers(0, 256, (1, config.n_lanes), np.uint8)
    chip.load_memory(Hemisphere.WEST, 0, 0, data)
    program = Program()
    src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
    dst = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
    program.add(src, Read(address=0, stream=0, direction=Direction.EASTWARD))
    program.add(dst, Nop(6))
    program.add(dst, Write(address=9, stream=0, direction=Direction.EASTWARD))
    result = chip.run(program)
    return chip, result


def chip_trace_events(chip, clock_ghz=1.0):
    """The one chip-trace renderer, fed a plain ``TraceEvent`` list."""
    builder = PerfettoTraceBuilder(clock_ghz=clock_ghz)
    builder.add_chip(trace=chip.trace)
    return builder.build()


class TestChromeTrace:
    def test_events_are_json_serializable(self, config, rng):
        chip, _ = traced_run(config, rng)
        json.dumps(chip_trace_events(chip))  # must not raise

    def test_one_row_per_icu(self, config, rng):
        chip, _ = traced_run(config, rng)
        names = [
            e["args"]["name"] for e in chip_trace_events(chip)
            if e["name"] == "thread_name"
        ]
        assert "MEM_W0" in names and "MEM_E0" in names

    def test_nops_excluded(self, config, rng):
        chip, _ = traced_run(config, rng)
        assert all(e["name"] != "NOP" for e in chip_trace_events(chip))

    def test_timestamps_scale_with_clock(self, config, rng):
        chip, _ = traced_run(config, rng)
        fast = [
            e for e in chip_trace_events(chip, clock_ghz=2.0)
            if e["ph"] == "X"
        ]
        slow = [
            e for e in chip_trace_events(chip, clock_ghz=1.0)
            if e["ph"] == "X"
        ]
        nonzero = [
            (f, s) for f, s in zip(fast, slow) if s["ts"] > 0
        ]
        assert nonzero
        for f, s in nonzero:
            assert f["ts"] == s["ts"] / 2
            assert f["dur"] == s["dur"] / 2


class TestReportCli:
    def test_main_runs_and_prints(self, capsys):
        from repro.report import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "E11" in out and "ResNet50" in out and "roofline" in out

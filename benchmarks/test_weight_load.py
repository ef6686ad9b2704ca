"""E09 — installing 409,600 weights into four MXM planes in < 40 cycles.

Section V-b: "the MEM slices can read 409,600 weights from memory and
install them into the four 320x320 MXM arrays in less than 40 cycles
including SRAM and on-chip network transit delay", possible because 32
1-byte stream operands per lane feed 10 TiB/s (paper units) into the MXMs.

We reproduce the figure analytically from the full-chip geometry
(:func:`repro.report.weight_load_section`) and verify the formula against
cycle-accurate simulation on the scaled test chip.
"""

import numpy as np

from repro.compiler import StreamProgramBuilder, execute
from repro.report import weight_load_section
from repro.sim import TspChip


def test_weight_load_full_chip(report_sink, full_config, benchmark):
    report, summary = benchmark(weight_load_section, full_config)
    report_sink.append(report.render())

    assert summary["weights"] == 409_600
    assert summary["install_cycles"] == 20
    assert summary["with_transit"] < 40


def test_weight_install_cycle_accurate(small_config, benchmark):
    """On the simulated chip, a full plane install takes exactly
    ``ceil(rows*cols / (16 streams x lanes))`` stream cycles."""
    rng = np.random.default_rng(0)
    lanes = small_config.n_lanes
    w = rng.integers(-8, 8, (lanes, lanes)).astype(np.int8)
    x = rng.integers(-8, 8, (1, lanes)).astype(np.int8)

    def compile_and_run():
        g = StreamProgramBuilder(small_config)
        r = g.matmul(w, g.constant_tensor("x", x))
        g.write_back(r, name="r")
        compiled = g.compile()
        chip = TspChip(small_config)
        # a replay charges no weights_installed_*: simulate
        result = execute(compiled, chip=chip, replay=False)
        return chip, result

    chip, result = benchmark(compile_and_run)
    expected = (x.astype(np.int64) @ w.astype(np.int64)).astype(np.int32)
    assert np.array_equal(result["r"], expected)

    # the simulator recorded the install completion and byte count
    n_streams = min(16, small_config.mem_slices_per_hemisphere)
    install_cycles = -(-(lanes * lanes) // (n_streams * lanes))
    assert chip.weights_installed_bytes == lanes * lanes
    assert chip.weights_installed_cycle is not None
    # completion must come no earlier than the minimum feed time
    assert chip.weights_installed_cycle >= install_cycles

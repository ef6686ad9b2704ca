"""E11 — the bandwidth budget: Equations 1 and 2 and instruction fetch.

Section II-B: stream registers export 20 "TiB/s" (2 x 32 x 320 B/cycle),
SRAM provides 55 "TiB/s" (2 hem x 44 slices x 2 banks x 320 B), instruction
fetch consumes at most 2.25 "TiB/s" (144 x 16 B), and the remainder margins
work out so operands and instructions are simultaneously serviceable.  The
paper's "TiB/s" is bytes/cycle divided by 1024 at 1 GHz; exact B/cycle
figures are also reported (:func:`repro.report.bandwidth_section`).
"""

import numpy as np

from repro.arch import Direction, Hemisphere
from repro.bench import ExperimentReport
from repro.isa import IcuId, Program, Read
from repro.report import bandwidth_section
from repro.sim import TspChip


def test_bandwidth_budget(report_sink, full_config, benchmark):
    report, budget = benchmark(bandwidth_section, full_config)
    report_sink.append(report.render())

    tib = full_config.paper_tib_per_s
    assert tib(budget["stream"]) == 20.0
    assert tib(budget["sram"]) == 55.0
    assert tib(budget["ifetch"]) == 2.25
    assert budget["sram"] - budget["ifetch"] >= budget["stream"]


def test_mem_concurrency_176_way(report_sink, full_config, small_config,
                                 benchmark):
    """Section III-B: up to 176-way memory concurrency (88 slices x 2
    banks).  Demonstrated in simulation: every MEM slice of the test chip
    issues a read in the same cycle with no conflicts."""

    def all_slices_read_in_one_cycle():
        chip = TspChip(small_config)
        data = np.zeros((1, small_config.n_lanes), dtype=np.uint8)
        program = Program()
        for hemisphere in (Hemisphere.WEST, Hemisphere.EAST):
            for idx in range(small_config.mem_slices_per_hemisphere):
                chip.load_memory(hemisphere, idx, 0, data)
                direction = (
                    Direction.EASTWARD
                    if hemisphere is Hemisphere.WEST
                    else Direction.WESTWARD
                )
                program.add(
                    IcuId(chip.floorplan.mem_slice(hemisphere, idx)),
                    Read(address=0, stream=idx % 32, direction=direction),
                )
        result = chip.run(program)
        return result.activity.sram_read_bytes

    read_bytes = benchmark(all_slices_read_in_one_cycle)
    n_slices = 2 * small_config.mem_slices_per_hemisphere
    assert read_bytes == n_slices * small_config.n_lanes

    report = ExperimentReport(
        "E11b", "MEM concurrency: every slice live in one cycle"
    )
    report.add("concurrent banks (full chip)", 176,
               full_config.mem_concurrency)
    report.add("simultaneous slice reads (test chip)", n_slices, n_slices)
    report_sink.append(report.render())

"""E12 — the memory-allocation optimization (Section IV-C).

The paper's first ResNet50 revision serialized layer pipelines ("latency
bubbles were created as the pipeline filled and emptied"); redistributing
tensors across slices and interleaving SRAM banks let the next pipeline
start early, cutting ~5,500 cycles and reaching 20.4K IPS.  The ablation
re-runs the performance model in both modes
(:func:`repro.report.alloc_section`).
"""

import pytest

from repro.arch import Hemisphere
from repro.report import alloc_section


def test_alloc_optimization_ablation(report_sink, full_config, benchmark):
    report, values = benchmark(alloc_section, full_config)
    report_sink.append(report.render())

    assert values["saved"] == pytest.approx(5_500, rel=0.35)
    assert values["optimized_ips"] == pytest.approx(20_400, rel=0.05)
    assert values["bubbles_optimized"] < values["bubbles_naive"]


def test_bank_interleaving_enables_same_cycle_read_write(
    small_config, benchmark
):
    """The mechanism behind the optimization: the compiler's bank policy
    (inputs even, results odd) means a slice can service a read and a
    write in one cycle — simulated MEM slices enforce exactly this."""
    from repro.sim import TspChip

    def exercise():
        chip = TspChip(small_config)
        unit = chip.mem_unit(Hemisphere.EAST, 0)
        # same cycle, opposite banks: legal
        unit._record_access(10, "read", 0)
        unit._record_access(10, "write", 1)
        return True

    assert benchmark(exercise)

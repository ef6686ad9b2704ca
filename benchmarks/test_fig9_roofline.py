"""E03 — Figure 9: the roofline diagram.

Regenerates the roof (820 TeraOps/s peak at 1 GHz, weight-load bandwidth
slope) and plots measured matmul points from the performance model, checking
the regime split the paper describes: memory-bound while loading weights for
small batches of work, arithmetic-bound at saturation.  The section is
:func:`repro.report.roofline_section`, which ``python -m repro.report``
prints too.
"""

from repro.report import roofline_section


def test_fig9_roofline(report_sink, full_config, benchmark):
    report, values = benchmark(roofline_section, full_config)
    report_sink.append(report.render())

    # the regime claims of the paper
    roofline, points = values["roofline"], values["points"]
    assert points["MatMul 320x320, N=1"].bound == "memory"
    saturated = points["MatMul 320x320, N=100K"]
    assert saturated.bound == "compute"
    assert saturated.achieved_teraops > 0.5 * roofline.peak_teraops
    for point in points.values():
        assert (
            point.achieved_teraops
            <= roofline.attainable_teraops(point.intensity) * 1.001
        )

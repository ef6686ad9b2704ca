"""E16 — compute density and transistor efficiency (conclusion).

Paper figures: 820 TeraOps/s peak at 1 GHz from the 25x29 mm 14 nm die
(> 1 TeraOp/s/mm^2); 26.8 B transistors give ~30K deep-learning
ops/s/transistor versus Volta V100's ~6.2K (130 TFLOPS / 21.1 B)
(:func:`repro.report.density_section`).
"""

import pytest

from repro.report import density_section


def test_compute_density(report_sink, full_config, benchmark):
    report, m = benchmark(density_section, full_config)
    report_sink.append(report.render())

    assert m["peak"] == pytest.approx(819.2)
    assert m["density"] > 1.0
    assert m["tsp_eff"] == pytest.approx(30_567, rel=0.02)
    assert m["v100_eff"] == pytest.approx(6_161, rel=0.02)
    assert m["icu_under_3_percent"]

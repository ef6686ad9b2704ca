"""E08 — TSP vs TPU v3 / Goya / GPUs (Sections I, V).

Paper claims: 20.4K IPS batch-1 is ~4x modern GPUs and accelerators, 2.5x
Google TPU v3 large-batch inference; 49 us end-to-end latency is ~5x better
than Goya's 240 us batch-1 figure (:func:`repro.report.comparison_section`).
"""

import pytest

from repro.report import comparison_section


def test_comparison_table(report_sink, full_config, benchmark):
    report, values = benchmark(comparison_section, full_config)
    report_sink.append(report.render())

    assert values["vs_tpu"] == pytest.approx(2.5, rel=0.10)
    assert values["vs_goya"] == pytest.approx(4.9, rel=0.10)
    assert values["vs_gpu_128"] > 3.0
    # batch-1 crossover: the GPU's large batch never catches the TSP
    assert values["tsp_ips"] > max(values["gpu_sweep"].values())

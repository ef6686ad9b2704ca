"""E06/E07 — ResNet50 batch-1 throughput and ResNet101/152 projections.

Paper operating points (Sections IV-F, V): 20.4K IPS / <49 us for ResNet50
at batch 1; 14.3K and 10.7K IPS for ResNet101/152 "projected to the cycle"
from the shared block structure (:func:`repro.report.resnet_section`).
"""

import pytest

from repro.nn import estimate_network, resnet_layers
from repro.report import resnet_section


def test_resnet_family_throughput(report_sink, full_config, benchmark):
    report, values = benchmark(resnet_section, full_config)
    report_sink.append(report.render())

    estimates = values["estimates"]
    assert estimates[50].ips == pytest.approx(20_400, rel=0.05)
    assert estimates[50].latency_us == pytest.approx(49.0, rel=0.05)
    assert estimates[101].ips == pytest.approx(14_300, rel=0.10)
    assert estimates[152].ips == pytest.approx(10_700, rel=0.10)


def test_deterministic_projection_property(full_config, benchmark):
    """Section IV-F: the model is exact because the chip is deterministic —
    repeated estimation gives identical cycle counts."""

    def repeated():
        layers = resnet_layers(101)
        return {
            estimate_network(layers, full_config).total_cycles
            for _ in range(3)
        }

    cycle_counts = benchmark(repeated)
    assert len(cycle_counts) == 1

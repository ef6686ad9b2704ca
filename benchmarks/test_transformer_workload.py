"""E20 (extension) — the transformer workload the paper's intro motivates.

Section I names "attention and transformer models" among the drivers of
domain-specific architectures; the paper evaluates only ResNet.  This
extension maps a 12-layer decoder (batch-1 prefill and decode) through the
same tiling/performance model and contrasts with the GPU-class baseline —
the deterministic-latency argument carries over unchanged
(:func:`repro.report.transformer_section`).
"""

from repro.report import transformer_section


def test_transformer_prefill(report_sink, full_config, benchmark):
    report, values = benchmark(transformer_section, full_config)
    report_sink.append(report.render())

    assert values["prefill_latency_us"] < 2_000
    assert values["gpu_latency_us"] > values["prefill_latency_us"]
    latencies = values["sweep_latencies"]
    assert all(b > a for a, b in zip(latencies, latencies[1:]))

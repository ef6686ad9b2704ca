"""E19 (extension) — multi-chip pipeline scale-out over C2C.

The paper provisions 3.84 Tb/s of deterministic C2C bandwidth for
"high-radix interconnection networks of TSPs" but publishes no multi-chip
numbers; this extension bench models the natural pipeline-parallel
deployment with the same deterministic cycle accounting, showing near-
linear throughput scaling while batch-1 latency grows only by link hops
(:func:`repro.report.scaleout_section`).
"""

from repro.report import scaleout_section


def test_pipeline_scaleout(report_sink, full_config, benchmark):
    report, values = benchmark(scaleout_section, full_config)
    report_sink.append(report.render())

    single, plans = values["single"], values["plans"]
    assert plans[2].speedup_vs(single.ips) > 1.8
    assert plans[4].speedup_vs(single.ips) > 3.0
    assert plans[8].latency_us < single.latency_us * 1.25

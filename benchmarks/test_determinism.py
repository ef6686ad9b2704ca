"""E15 — run-to-run determinism (Section IV-F).

"The TSP's hardware eliminates arbiters and other reactive elements in the
data path, making performance deterministic and precisely predictable from
run-to-run execution."  We simulate the same compiled program five times
(zero variance, bit-identical results) and contrast with the GPU-style
baseline whose cache/arbitration jitter produces a latency distribution
(:func:`repro.report.determinism_section`).
"""

from repro.report import determinism_section
from repro.sim import TspChip


def test_determinism_vs_gpu_jitter(report_sink, small_config, benchmark,
                                   monkeypatch):
    simulated = []
    run = TspChip.run

    def recording_run(chip, *args, **kwargs):
        simulated.append(run(chip, *args, **kwargs))
        return simulated[-1]

    monkeypatch.setattr(TspChip, "run", recording_run)
    report, values = benchmark(determinism_section, small_config)
    report_sink.append(report.render())

    # five simulations, each walking its cycles: no run is a replay
    runs = values["runs"]
    assert len(runs) == 5
    assert all(any(r is s for s in simulated) for r in runs)
    assert all(r.skipped_cycles == 0 for r in runs)
    assert len({r.cycles for r in runs}) == 1
    assert values["distinct_outputs"] == 1
    assert values["gpu_cov"] > 0.01

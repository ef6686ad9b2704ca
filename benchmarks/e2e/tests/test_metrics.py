"""End-to-end metric definitions on a hand-made phase."""

import numpy as np
import pytest

import metrics
from loadgen import PhaseResults


def _phase():
    # four 1-s windows; batches of 2; one reply in the drain tail (t=4.5),
    # one wrong answer (window 3), window 2 is disturbed: slow and sparse
    completed = np.array(
        [0.2, 0.2, 0.7, 0.7, 1.5, 1.5, 1.6, 1.6, 2.5, 2.5, 3.2, 3.2, 3.9, 3.9,
         4.5, 4.5]
    )
    latency = np.full(16, 0.010)
    latency[8:10] = 0.050
    ok = np.ones(16, dtype=bool)
    ok[13] = False
    return PhaseResults(
        ok=ok,
        completed_s=completed,
        latency_s=np.where(ok, latency, np.inf),
        lag_s=np.zeros(16),
        queue_s=np.full(16, 0.004),
        compile_s=np.zeros(16),
        execute_s=np.full(16, 0.001),
        batch_id=np.repeat(np.arange(8), 2),
        batch_size=np.full(16, 2.0),
        batch_cycles=np.full(16, 300.0),
        boundaries_s=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        boundaries_cpu_s=np.array([10.0, 10.4, 10.8, 11.4, 11.7]),
        backlog_at_end=0,
        failures=["request 13: wrong"],
    )


def test_windows_hold_correct_replies_completed_inside_them():
    w = metrics.Windowed(_phase())
    assert w.counts.tolist() == [4.0, 4.0, 2.0, 3.0]
    assert w.inside.sum() == 13  # not the wrong answer, not the tail


def test_closed_loop_timing_metrics_come_from_the_fastest_samples():
    values = metrics.end_to_end(_phase(), "closed", 0.030, setup_s=1.25)
    # in-window batches complete at 0.2 0.7 1.5 1.6 2.5 3.2 3.9 (the last
    # with one correct reply): the fastest interval is 0.1 s for 2 replies
    assert values["throughput_rps"] == pytest.approx(2 / 0.1)
    # ... and latency is that batch's, not window 2's 50 ms
    assert values["latency_ms"] == pytest.approx(10.0)
    # 7 batches completed inside the windows, each counted once, over the
    # 13 correct in-window replies
    assert values["sim_cycles_per_input"] == pytest.approx(7 * 300 / 13)
    assert values["success_share"] == pytest.approx(15 / 16)
    # every reply of the quietest window met the limit; failures still count
    assert values["slo_share"] == pytest.approx(15 / 16)
    assert values["setup_s"] == 1.25
    assert values["peak_rss_mb"] > 1


def test_closed_loop_takes_the_fastest_fiftieth_of_the_batch_intervals():
    n = 400  # one request a batch, 10 ms apart; eight came back in 8 ms
    latency = np.full(n, 0.010)
    latency[::50] = 0.008
    phase = PhaseResults(**{
        **_phase().__dict__,
        "ok": np.ones(n, dtype=bool), "completed_s": np.cumsum(latency),
        "latency_s": latency, "batch_id": np.arange(n),
        "batch_cycles": np.full(n, 300.0),
        "boundaries_s": np.array([0.0, 2.0, 5.0]),
        "boundaries_cpu_s": np.array([0.0, 1.0, 2.0]),
    })
    values = metrics.end_to_end(phase, "closed", 0.030, 0.0)
    # 399 intervals (the first batch closes none): the fastest 7, all 8 ms
    assert values["throughput_rps"] == pytest.approx(1 / 0.008)
    assert values["latency_ms"] == pytest.approx(8.0)
    # replies that were lucky with their place in the queue are fast
    # without their batch interval being so, and are not chosen
    phase.latency_s[1:40] = 0.002
    values = metrics.end_to_end(phase, "closed", 0.030, 0.0)
    assert values["latency_ms"] == pytest.approx(8.0)


def test_open_loop_throughput_is_goodput_and_latency_the_quiet_window_p50():
    values = metrics.end_to_end(_phase(), "open", 0.030, 0.0)
    assert values["throughput_rps"] == pytest.approx(13 / 4.0)
    phase = _phase()
    phase.latency_s[0] = 0.001  # one fast reply does not move a median
    values = metrics.end_to_end(phase, "open", 0.030, 0.0)
    assert values["latency_ms"] == pytest.approx(10.0)


def test_slo_share_falls_when_every_window_misses_the_limit():
    values = metrics.end_to_end(_phase(), "closed", 0.005, 0.0)
    assert values["slo_share"] == 0.0


def test_server_layers_use_deltas_between_snapshots():
    def stats(full, deadline, hits, misses, evictions, retried, failed):
        return {
            "batcher": {"released": {
                "full": full, "deadline": deadline, "drain": 0}},
            "cache": {"hits": hits, "misses": misses,
                      "evictions": evictions, "replay_plans": 3},
            "requests": {"retried": retried},
            "pool": {"batches_failed": failed},
        }

    values = metrics.server_layers(
        _phase(), stats(10, 5, 100, 4, 1, 0, 0), stats(13, 7, 130, 4, 1, 0, 0)
    )
    assert values["serve.batcher.full_trigger_share"] == pytest.approx(3 / 5)
    assert values["serve.cache.hit_share"] == 1.0
    assert values["serve.cache.lookups_per_request"] == pytest.approx(30 / 15)
    assert values["serve.cache.evictions_per_request"] == 0
    assert values["serve.batcher.batch_size_mean"] == 2.0
    assert values["serve.batcher.queue_wait_p50_ms"] == pytest.approx(4.0)
    assert values["serve.server.execute_ms_per_request"] == pytest.approx(1.0)


def test_harness_layers_report_p90_and_p99_beside_the_setup_breakdown():
    setup = {"import_s": 0.5, "models_s": 0.03, "oracle_s": 3.0,
             "warmup_s": 0.2}
    values = metrics.harness_layers(_phase(), setup)
    assert values["loadgen.samples"] == 13
    # cpu per reply: 100, 100, 300, 100 ms -> the quietest window
    assert values["loadgen.cpu_ms_per_request"] == pytest.approx(100.0)
    assert values["loadgen.latency_p50_ms"] == pytest.approx(10.0)
    assert values["loadgen.latency_p90_ms"] == pytest.approx(10.0)
    assert values["loadgen.latency_p99_ms"] > 10.0  # pooled: sees window 2
    assert values["setup.oracle_s"] == 3.0

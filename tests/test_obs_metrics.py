"""Bounded-memory serving metrics: histograms, SLOs, exporter, stats.

Covers the tentpole's metrics layer and its satellites:

* :class:`LatencyHistogram` quantile *bounds* (pXX overstates the exact
  percentile by at most ``1/sub_buckets``), merge associativity (a
  hypothesis property), and O(buckets) memory.
* :class:`SloTracker` hit/violation/shed classification, kept in the
  serve counter registry and nowhere else (no lost count under
  concurrent sheds).
* One set of books: ``stats()["requests"]`` / ``stats()["slo"]`` and the
  exporter are views of ``registry.totals()`` and the tracer.
* The submit-time queue-depth sampling regression: peaks between batch
  completions must reach the registry scalar.
* ``InferenceServer.stats()`` and :class:`MetricsExporter` under
  concurrent submission from >= 4 threads: no torn reads, monotone
  counters, consistent totals.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RequestError, ServeError, WatchdogError
from repro.nn import make_shapes, make_small_cnn, train
from repro.obs.counters import CounterRegistry, TelemetryCollector
from repro.obs.metrics import (
    LatencyHistogram,
    MetricsExporter,
    SloTracker,
    percentile,
)
from repro.serve import BatchPolicy, InferenceServer
from repro.serve.models import CnnServeModel, ServeModel


class TestPercentile:
    """The single shared exact-percentile helper (the dedupe target)."""

    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert percentile(values, 50) == float(np.percentile(values, 50))
        assert percentile(values, 99) == float(np.percentile(values, 99))

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_server_module_has_no_private_duplicate(self):
        import repro.serve.server as server_module
        assert not hasattr(server_module, "_percentile")


class TestLatencyHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_us=0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_us=10, max_us=5)
        with pytest.raises(ValueError):
            LatencyHistogram(sub_buckets=0)
        hist = LatencyHistogram()
        hist.record(0.001)
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean_s == 0.0
        assert hist.max_s == 0.0

    def test_exact_aggregates(self):
        hist = LatencyHistogram()
        for v in (0.001, 0.002, 0.004):
            hist.record(v)
        assert hist.count == 3
        assert hist.sum_us == pytest.approx(7000.0)
        assert hist.mean_s == pytest.approx(0.007 / 3)
        assert hist.max_s == pytest.approx(0.004)
        assert hist.min_s == pytest.approx(0.001)

    def test_quantile_bound_property(self):
        """quantile(q) in [exact_pXX, exact_pXX * (1 + 1/sub_buckets)]."""
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-6.0, sigma=2.0, size=4000)
        hist = LatencyHistogram()
        for v in values:
            hist.record(float(v))
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            bound = hist.quantile(q)
            assert bound >= exact * (1 - 1e-12)
            assert bound <= exact * (1 + 1.0 / hist.sub_buckets) + 1e-12

    def test_values_below_min_land_in_first_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e-9)
        assert hist.count == 2
        assert hist.counts[0] == 2
        assert hist.quantile(1.0) <= hist.bucket_upper_us(0) / 1e6

    def test_values_above_max_clamp_to_last_bucket(self):
        hist = LatencyHistogram(max_us=1e3)
        hist.record(10.0)  # 1e7 µs, far past max_us
        assert hist.counts[-1] == 1
        # the bucketed quantile saturates at the last bucket's upper
        # bound; the exact max is still tracked alongside
        last_upper_s = hist.bucket_upper_us(hist.n_buckets - 1) / 1e6
        assert hist.quantile(1.0) == pytest.approx(last_upper_s)
        assert hist.max_s == pytest.approx(10.0)

    def test_memory_is_o_buckets(self):
        hist = LatencyHistogram()
        n_buckets = len(hist.counts)
        for i in range(20_000):
            hist.record((i % 977) * 1e-5)
        assert len(hist.counts) == n_buckets
        assert hist.count == 20_000

    def test_merge_requires_same_scheme(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(sub_buckets=8))

    def test_merge_accumulates(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.1)
        a.merge(b)
        assert a.count == 2
        assert a.max_s == pytest.approx(0.1)
        assert a.min_s == pytest.approx(0.001)

    def test_copy_is_independent(self):
        a = LatencyHistogram()
        a.record(0.5)
        c = a.copy()
        c.record(0.5)
        assert a.count == 1 and c.count == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=1e-7, max_value=60.0,
                          allow_nan=False, allow_infinity=False),
                max_size=20,
            ),
            min_size=3, max_size=3,
        )
    )
    def test_merge_associativity(self, groups):
        """(A + B) + C == A + (B + C), state-identical."""
        def build(values):
            hist = LatencyHistogram()
            for v in values:
                hist.record(v)
            return hist

        a1, b1, c1 = (build(g) for g in groups)
        a2, b2, c2 = (build(g) for g in groups)
        left = a1.merge(b1).merge(c1)
        right = b2.merge(c2)
        a2.merge(right)
        assert left.counts == a2.counts
        assert left.count == a2.count
        assert left.sum_us == pytest.approx(a2.sum_us)
        assert left.max_us_seen == a2.max_us_seen
        for q in (0.5, 0.99):
            assert left.quantile(q) == a2.quantile(q)

    def test_cumulative_ends_with_inf(self):
        import math
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.record(0.002)
        pairs = hist.cumulative()
        assert pairs[-1] == (math.inf, 2)
        les = [le for le, _ in pairs[:-1]]
        assert les == sorted(les)
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)

    def test_snapshot_roundtrips_buckets(self):
        hist = LatencyHistogram()
        for v in (0.001, 0.001, 0.5):
            hist.record(v)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert sum(snap["buckets"].values()) == 3
        assert snap["p50_ms"] >= 1.0


class TestSloTracker:
    def test_classification_and_registry(self):
        registry = CounterRegistry(name="serve")
        slo = SloTracker(targets={"cnn": 0.010}, registry=registry)
        assert slo.observe("cnn", 0.005) is True
        assert slo.observe("cnn", 0.500) is False
        assert slo.observe("cnn", 0.001, ok=False) is False
        slo.shed("cnn")
        snap = slo.snapshot()["cnn"]
        assert snap["hits"] == 1
        assert snap["violations"] == 2
        assert snap["shed"] == 1
        assert snap["attainment"] == pytest.approx(1 / 3, abs=1e-4)
        totals = registry.totals()["slo:cnn"]
        assert totals == {"hits": 1, "violations": 2, "shed": 1}

    def test_untracked_model_ignored(self):
        slo = SloTracker(targets={"cnn": 0.010})
        assert slo.observe("other", 99.0) is None
        slo.shed("other")
        assert slo.snapshot() == {}

    def test_default_target_applies_to_all(self):
        slo = SloTracker(default_target_s=0.1)
        assert slo.observe("any", 0.05) is True
        assert slo.snapshot()["any"]["target_ms"] == 100.0


# ----------------------------------------------------------------------
class _GateModel(ServeModel):
    """A model whose batches block until released — freezes the pool so
    tests can observe between-batch state deterministically."""

    name = "gate"
    payload_shape = (1,)

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def run_batch(self, chip, cache, payloads, stats=None):
        self.entered.set()
        if not self.release.wait(timeout=30.0):
            raise ServeError("gate never released")
        return list(payloads)

    def run_reference(self, payload):
        return payload


class TestQueueDepthSampling:
    """Satellite regression: ``queue_depth_high`` must capture peaks
    that occur between batch completions, not only at completion."""

    def test_between_batch_peak_reaches_registry(self, config):
        model = _GateModel()
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
        )
        try:
            futures = [server.submit("gate", np.zeros(1))]
            assert model.entered.wait(timeout=10.0)
            # worker is stuck inside batch 0; pile up a peak behind it
            futures += [
                server.submit("gate", np.zeros(1)) for _ in range(6)
            ]
            # NO batch has completed yet — the peak must already be in
            # the registry scalar (the old code only sampled on
            # batch completion and would report nothing here)
            scalars = server.registry.snapshot()["scalars"]
            assert scalars["serve"]["queue_depth_high"] >= 6
        finally:
            model.release.set()
            for future in futures:
                future.result(timeout=30.0)
            server.close()

    def test_shed_requests_counted(self, config):
        model = _GateModel()
        slo_server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=BatchPolicy(max_batch=8, max_delay_s=0.0),
            slos={"gate": 1.0},
        )
        model.release.set()
        slo_server.close()
        with pytest.raises(ServeError):
            slo_server.submit("gate", np.zeros(1))
        assert slo_server.slo.snapshot()["gate"]["shed"] == 1
        totals = slo_server.registry.totals()["slo:gate"]
        assert totals["shed"] == 1


class _EchoModel(ServeModel):
    """Answers with its payload: a batch costs only the server's own work."""

    name = "echo"
    payload_shape = (1,)

    def run_batch(self, chip, cache, payloads, stats=None):
        return list(payloads)

    def run_reference(self, payload):
        return payload


class TestNoLostSloCounts:
    """Sheds race each other (and ``_observe``) from every submitter
    thread; with one locked registry as the only book, none is lost and
    no second tally exists to disagree."""

    def test_concurrent_sheds_all_counted(self, config):
        server = InferenceServer(
            config, [_EchoModel()], n_workers=1, slos={"echo": 1.0},
        )
        server.close()  # every submit is now refused: one shed each
        n_threads, per_thread = 8, 1000
        refused = []

        def submitter():
            n = 0
            for _ in range(per_thread):
                try:
                    server.submit("echo", np.zeros(1))
                except ServeError:
                    n += 1
            refused.append(n)

        threads = [
            threading.Thread(target=submitter) for _ in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        calls = n_threads * per_thread
        assert sum(refused) == calls
        assert (
            server.stats()["slo"]["echo"]["shed"]
            == server.registry.totals()["slo:echo"]["shed"]
            == calls
        )


class _ScriptedModel(ServeModel):
    """Echoes; fails the next batch on request; holds batches on request."""

    name = "book"
    payload_shape = (1,)

    def __init__(self):
        self.fail_next = False
        self.gate = threading.Event()
        self.gate.set()
        self.held = threading.Semaphore(0)

    def run_batch(self, chip, cache, payloads, stats=None):
        if not self.gate.is_set():
            self.held.release()
            assert self.gate.wait(timeout=30.0)
        if self.fail_next:
            self.fail_next = False
            raise WatchdogError("injected hang")
        return list(payloads)

    def run_reference(self, payload):
        return payload


class TestOneBook:
    """Successes, a forced retry, a capacity shed and a ``close()`` over
    a queued request: every rollup is a view of the one registry."""

    def test_stats_slo_and_exporter_are_views(self, config, monkeypatch):
        model = _ScriptedModel()
        server = InferenceServer(
            config, [model], n_workers=2, shed_factor=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
            slos={"book": 60.0}, tracing=True,
        )
        x = np.zeros(1)
        for _ in range(2):
            server.run("book", x, timeout=30.0)
        model.fail_next = True  # a hardware-class failure: retried
        server.submit("book", x, deadline_s=30.0).result(timeout=30.0)
        # hold one batch on each worker, then shrink admitted capacity:
        # the queue may hold one request, and a second evicts it
        model.gate.clear()
        running = [server.submit("book", x) for _ in range(2)]
        for _ in running:
            assert model.held.acquire(timeout=30.0)
        monkeypatch.setattr(server.pool, "capacity", lambda: 1)
        victim = server.submit("book", x, priority=0)
        queued = server.submit("book", x, priority=1)
        assert victim.error(timeout=30.0).outcome == "shed"
        closer = threading.Thread(target=server.close)
        closer.start()
        error = queued.error(timeout=30.0)
        model.gate.set()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        assert isinstance(error, RequestError)
        assert error.outcome == "shutdown"
        for future in running:
            future.result(timeout=30.0)

        stats = server.stats()
        totals = server.registry.totals()
        unit = totals["serve:book"]
        assert stats["requests"] == {
            "submitted": 7,
            "completed": unit["requests_ok"],
            "failed": unit.get("requests_failed", 0)
            + totals["serve"]["requests_shutdown"],
            "retried": unit["requests_retried"],
            "shed": unit["requests_shed_capacity"],
        }
        assert stats["requests"] == {
            "submitted": 7, "completed": 5, "failed": 1, "retried": 1,
            "shed": 1,
        }
        assert set(stats["slo"]) == {
            unit[len("slo:"):] for unit in totals if unit.startswith("slo:")
        }
        for kind, n in (("hits", 5), ("violations", 0), ("shed", 1)):
            assert stats["slo"]["book"][kind] == n
            assert totals["slo:book"].get(kind, 0) == n
        tracer = server.tracer.snapshot()
        assert tracer["recorded"] > 0
        text = MetricsExporter(server).prometheus_text()
        for kind, key in (("recorded", "recorded"), ("dropped", "dropped"),
                          ("capacity", "max_spans")):
            assert f'tsp_serve_spans{{kind="{kind}"}} {tracer[key]}' in text
        # no parallel tallies left to disagree with the registry
        assert not {"_completed", "_failed", "_retried", "_shed"} & set(
            vars(server)
        )
        assert "counts" not in vars(server.slo)


def _retained(value) -> int:
    """Entries held by ``value``, containers counted recursively."""
    if isinstance(value, dict):
        return len(value) + sum(_retained(v) for v in value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return len(value) + sum(_retained(v) for v in value)
    return 0


class TestRegistryIsBounded:
    """The serve registry must not retain anything per served batch: it
    is stamped in ever-growing wall-clock µs, so a per-window series
    would open a new window in every counter on every batch."""

    def test_retention_equal_after_200_and_2000_batches(self, config):
        with InferenceServer(
            config, [_EchoModel()], n_workers=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
            slos={"echo": 10.0},
        ) as server:
            def serve(n_batches):
                for _ in range(n_batches):
                    server.run("echo", np.zeros(1), timeout=30.0)
                return _retained(vars(server.registry))

            after_200 = serve(200)
            after_2000 = serve(1800)
            totals = server.registry.totals()
            assert totals["serve:echo"]["batches"] == 2000
            assert totals["serve:echo"]["requests_ok"] == 2000
            assert totals["slo:echo"]["hits"] == 2000
            scalars = server.registry.snapshot()["scalars"]
            assert scalars["serve"]["batch_size_high"] == 1
        assert after_2000 == after_200


# ----------------------------------------------------------------------
def _cnn_server(config, **kwargs):
    data = make_shapes(n_train=64, n_test=16, image_size=8, n_classes=3,
                       noise=0.08, seed=0)
    cnn = make_small_cnn(3, channels=4, image_size=8, seed=0)
    train(cnn, data, epochs=1, lr=0.1, seed=0)
    model = CnnServeModel("cnn", cnn, config,
                          calibration=data.x_train[:16],
                          max_vectors_per_program=32)
    server = InferenceServer(
        config, [model], n_workers=2,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.002),
        **kwargs,
    )
    return server, data


class TestConcurrentStats:
    def test_stats_and_exporter_under_concurrent_submit(self, config):
        """>= 4 submitter threads racing pollers: every poll is a
        self-consistent snapshot with monotone counters."""
        server, data = _cnn_server(
            config, tracing=True, slos={"cnn": 60.0},
        )
        exporter = MetricsExporter(server)
        n_threads, per_thread = 4, 6
        errors: list[BaseException] = []
        seen_submitted: list[int] = []
        seen_finished: list[int] = []
        stop = threading.Event()

        def submitter(seed):
            try:
                futures = [
                    server.submit("cnn", data.x_test[(seed + i) % 16])
                    for i in range(per_thread)
                ]
                for future in futures:
                    future.result(timeout=300.0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def poller():
            try:
                while not stop.is_set():
                    stats = server.stats()
                    requests = stats["requests"]
                    finished = (
                        requests["completed"] + requests["failed"]
                    )
                    assert finished <= requests["submitted"]
                    seen_submitted.append(requests["submitted"])
                    seen_finished.append(finished)
                    for lat in stats["latency"].values():
                        assert lat["p50_ms"] <= lat["p99_ms"] + 1e-9
                        assert lat["p99_ms"] <= lat["max_ms"] + 1e-9
                    text = exporter.prometheus_text()
                    assert "tsp_serve_requests_total" in text
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(n_threads)
        ]
        watcher = threading.Thread(target=poller)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        stop.set()
        watcher.join(timeout=60.0)
        server.close()
        assert not errors
        # counters are monotone across polls (no torn/backwards reads)
        assert seen_submitted == sorted(seen_submitted)
        assert seen_finished == sorted(seen_finished)
        final = server.stats()
        total = n_threads * per_thread
        assert final["requests"]["submitted"] == total
        assert final["requests"]["completed"] == total
        assert final["requests"]["failed"] == 0
        assert final["latency"]["cnn"]["n"] == total
        slo = final["slo"]["cnn"]
        assert slo["hits"] + slo["violations"] == total


class TestExporter:
    @pytest.fixture(scope="class")
    def snapshot_and_text(self, tmp_path_factory):
        from repro.testing import make_small_config
        server, data = _cnn_server(
            make_small_config(),
            tracing=True, slos={"cnn": 60.0},
        )
        futures = [server.submit("cnn", data.x_test[i % 16])
                   for i in range(8)]
        for future in futures:
            future.result(timeout=300.0)
        server.close()
        exporter = MetricsExporter(server)
        out = tmp_path_factory.mktemp("metrics")
        snap = exporter.write(
            str(out / "metrics.prom"), str(out / "metrics.json")
        )
        prom_text = (out / "metrics.prom").read_text()
        json_payload = json.loads((out / "metrics.json").read_text())
        return snap, prom_text, json_payload

    def test_one_pass_snapshot_covers_every_surface(
        self, snapshot_and_text
    ):
        snap, _, _ = snapshot_and_text
        assert snap["schema"] == "tsp-serve-metrics/1"
        assert snap["stats"]["requests"]["completed"] == 8
        assert "total" in snap["histograms"]["cnn"]
        assert "queue" in snap["histograms"]["cnn"]
        assert snap["slo"]["cnn"]["hits"] == 8
        assert snap["tracing"]["recorded"] > 0
        assert "serve:cnn" in snap["registry"]["totals"]

    def test_prometheus_text_format(self, snapshot_and_text):
        _, text, _ = snapshot_and_text
        for family in (
            "tsp_serve_requests_total",
            "tsp_serve_latency_seconds_bucket",
            "tsp_serve_latency_seconds_sum",
            "tsp_serve_latency_seconds_count",
            "tsp_serve_slo_requests_total",
            "tsp_serve_cache_events_total",
            "tsp_serve_pool_workers",
            "tsp_serve_batches_total",
            "tsp_serve_spans",
            "tsp_serve_registry_total",
        ):
            assert family in text, family
        assert 'le="+Inf"' in text
        # bucket counts are cumulative and end at the total
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("tsp_serve_latency_seconds_bucket")
            and 'model="cnn"' in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 8

    def test_json_matches_snapshot(self, snapshot_and_text):
        snap, _, payload = snapshot_and_text
        assert payload["schema"] == snap["schema"]
        assert payload["stats"]["requests"] == snap["stats"]["requests"]
        assert payload["slo"] == snap["slo"]

    def test_exporter_includes_chip_collectors(self, config):
        server, data = _cnn_server(config)
        server.close()
        collector = TelemetryCollector(name="chip0")
        collector.count("mxm", "macc_ops", 0, 128)
        exporter = MetricsExporter(server, collectors=[collector])
        snap = exporter.snapshot()
        assert snap["chips"][0]["name"] == "chip0"
        assert snap["chips"][0]["totals"]["mxm"]["macc_ops"] == 128
        text = exporter.prometheus_text(snap)
        assert "tsp_chip_counter_total" in text
        assert 'chip="chip0"' in text

"""Self-healing serving: retry budgets, quarantine/repair, fail-fast close.

The tentpole contract of the resilient pool, tested bottom-up:

* a worker thread that dies on an unexpected exception is surfaced
  *eagerly* by ``ChipPool.join`` (the silent-timeout regression);
* retryable faults re-enqueue their batch's requests with an attempt
  counter and only while the deadline still affords another try —
  exhaustion is a distinct ``retryable_exhausted`` outcome carrying
  chip/cycle/attempt attribution and the original fault as ``__cause__``;
* repeated faults quarantine the chip: a spare swaps in when available,
  the worker parks when not, and the background repair loop (scrub +
  clean probes) returns capacity;
* a localizable MEM fault degrades in place — blacklist, recompile,
  bit-identical answers — instead of quarantining;
* admission control sheds when capacity drops, and ``close()`` fails the
  queue fast with ``shutdown`` outcomes instead of hanging.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import RequestError, ServeError, WatchdogError
from repro.resil import Watchdog
from repro.serve import (
    BatchPolicy,
    ChipPool,
    DynamicBatcher,
    HealthPolicy,
    InferenceServer,
    ProgramCache,
    RetryPolicy,
    ServeModel,
    TransformerMlpServeModel,
)
from repro.nn.transformer import TransformerConfig


def make_mlp(config, name="mlp", seed=0):
    return TransformerMlpServeModel(
        name,
        TransformerConfig(d_model=16, n_heads=2, d_ff=32,
                          seq_len=8, n_layers=1, vocab=64),
        config,
        seed=seed,
        max_vectors_per_program=8,
    )


def fast_policy(max_batch=4):
    return BatchPolicy(max_batch=max_batch, max_delay_s=0.001)


def wait_until(predicate, timeout=20.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def span_names(server):
    return {span.name for span in server.tracer.spans()}


#: self-healing trace phase -> the test below that asserts a span of that
#: name is recorded (tests/test_obs_rtrace.py checks the table against
#: ``rtrace.PHASES``)
HEALING_PHASE_TESTS = {
    "retry": "TestRetryBudget.test_flaky_batch_retries_to_success",
    "quarantine":
        "TestQuarantineAndRepair.test_spare_swaps_in_then_repair_restores_spare",
    "repair":
        "TestQuarantineAndRepair.test_spare_swaps_in_then_repair_restores_spare",
    "recompile_degraded":
        "TestDegradedInPlace.test_dead_mem_slice_serves_bit_identical",
}


class HostMathModel(ServeModel):
    """Pure-host model: lets failure-policy tests skip the simulator."""

    def __init__(self, name="host", fail_times=0):
        self.name = name
        self.payload_shape = (4,)
        self.fail_times = fail_times
        self.calls = 0

    def run_batch(self, chip, cache, payloads, stats=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise WatchdogError("injected hang").with_context(
                chip=getattr(chip, "chip_id", None),
                cycle=17,
            )
        return [p * 2.0 for p in payloads]

    def run_reference(self, payload):
        return payload * 2.0


class TestJoinSurfacesWorkerDeath:
    def test_dead_worker_raises_stored_failure_fast(self, config):
        class ExplodingBatcher(DynamicBatcher):
            def next_batch(self, *a, **k):
                raise RuntimeError("batcher blew up")

        pool = ChipPool(
            config, [HostMathModel()],
            ExplodingBatcher(default_policy=fast_policy()),
            ProgramCache(), n_workers=1,
        )
        pool.start()
        assert wait_until(lambda: pool.alive == 0, timeout=10.0)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="batcher blew up"):
            pool.join(timeout=30.0)
        # eager detection: nowhere near the 30 s timeout
        assert time.monotonic() - t0 < 5.0
        assert pool.capacity() == 0

    def test_alive_tracks_worker_exits(self, config):
        batcher = DynamicBatcher(default_policy=fast_policy())
        pool = ChipPool(
            config, [HostMathModel()], batcher, ProgramCache(),
            n_workers=2,
        )
        pool.start()
        assert pool.alive == 2
        batcher.close()
        pool.shutdown()
        pool.join(timeout=20.0)
        assert pool.alive == 0


class TestRetryBudget:
    def test_flaky_batch_retries_to_success(self, config):
        model = HostMathModel(fail_times=1)
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=fast_policy(), tracing=True,
        )
        try:
            payload = np.arange(4.0)
            future = server.submit("host", payload, deadline_s=30.0)
            result = future.result(timeout=30.0)
            assert np.array_equal(result.output, payload * 2.0)
            stats = server.stats()
            assert stats["requests"]["retried"] == 1
            assert stats["requests"]["completed"] == 1
            assert stats["requests"]["failed"] == 0
        finally:
            server.close()
        assert "retry" in span_names(server)

    def test_exhaustion_carries_attempt_chip_and_cause(self, config):
        model = HostMathModel(fail_times=10**6)
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=fast_policy(),
            retry=RetryPolicy(max_attempts=3),
            # keep the chip in service so exhaustion, not quarantine,
            # decides the request's fate
            health_policy=HealthPolicy(quarantine_after=100),
        )
        try:
            future = server.submit("host", np.zeros(4), deadline_s=30.0)
            error = future.error(timeout=30.0)
            assert isinstance(error, RequestError)
            assert error.outcome == "retryable_exhausted"
            assert error.attempt == 2  # attempts 0, 1, 2 all failed
            assert error.chip_id == "pool0"
            assert isinstance(error.__cause__, WatchdogError)
            assert server.stats()["requests"]["retried"] == 2
        finally:
            server.close()

    def test_zero_slack_fails_without_retry(self, config):
        model = HostMathModel(fail_times=10**6)
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=fast_policy(),
            health_policy=HealthPolicy(quarantine_after=100),
        )
        try:
            future = server.submit("host", np.zeros(4), deadline_s=0.0)
            error = future.error(timeout=30.0)
            assert isinstance(error, RequestError)
            assert error.outcome == "retryable_exhausted"
            assert error.attempt == 0  # no slack for even one retry
            assert server.stats()["requests"]["retried"] == 0
        finally:
            server.close()

    def test_software_error_never_retries(self, config):
        class BuggyModel(ServeModel):
            name = "buggy"
            payload_shape = (4,)

            def run_batch(self, chip, cache, payloads, stats=None):
                raise ValueError("not a hardware fault")

            def run_reference(self, payload):
                raise AssertionError("never called")

        server = InferenceServer(
            config, [BuggyModel()], n_workers=1,
            default_policy=fast_policy(),
        )
        try:
            future = server.submit("buggy", np.zeros(4), deadline_s=30.0)
            error = future.error(timeout=30.0)
            assert isinstance(error, RequestError)
            assert error.outcome == "failed"
            assert server.stats()["requests"]["retried"] == 0
        finally:
            server.close()


class TestQuarantineAndRepair:
    def arm_storm(self, server):
        worker = server.pool.workers[0]
        server.pool.attach_hardware_fault(
            worker.hardware, "storm",
            lambda chip: chip.arm_watchdog(
                Watchdog(deadline=1, label="test storm")
            ),
        )

    def test_spare_swaps_in_then_repair_restores_spare(self, config):
        server = InferenceServer(
            config, [make_mlp(config)], n_workers=1, n_spares=1,
            default_policy=fast_policy(), tracing=True,
            health_policy=HealthPolicy(quarantine_after=2,
                                       probes_required=1),
        )
        try:
            payload = np.zeros(16)
            reference = server.sequential_reference("mlp", payload)
            assert np.array_equal(
                server.submit("mlp", payload, deadline_s=30.0)
                .result(timeout=30.0).output,
                reference,
            )
            self.arm_storm(server)
            # hammer until the worker strikes out and takes the spare
            assert wait_until(
                lambda: (
                    server.submit("mlp", payload, deadline_s=5.0)
                    .error(timeout=30.0) is None
                    and len(server.pool.quarantined) > 0
                ),
                timeout=30.0,
            )
            assert server.pool.capacity() == 1  # spare kept us serving
            server.pool.detach_hardware_fault("storm")
            assert wait_until(
                lambda: not server.pool.active_quarantined
                and server.pool.n_spares == 1,
                timeout=30.0,
            )
            events = [e["kind"] for e in server.health_events]
            assert "quarantine" in events and "repair" in events
            # one write feeds the event ring and the registry alike
            counted = server.registry.totals()["serve"]
            for kind in set(events):
                assert counted[f"health_{kind}"] == events.count(kind)
            assert {"quarantine", "repair"} <= span_names(server)
            repair = next(
                s for s in server.tracer.spans() if s.name == "repair"
            )
            assert (repair.track, repair.parent_id) == ("health", None)
            assert np.array_equal(
                server.submit("mlp", payload, deadline_s=30.0)
                .result(timeout=30.0).output,
                reference,
            )
        finally:
            server.close()

    def test_no_spare_parks_sheds_then_recovers(self, config):
        server = InferenceServer(
            config, [HostMathModel(fail_times=10**6)], n_workers=1,
            default_policy=fast_policy(),
            retry=RetryPolicy(max_attempts=2),
            health_policy=HealthPolicy(quarantine_after=1,
                                       probes_required=1),
        )
        # the hardware is healthy, so repair would re-arm the parked
        # worker within a millisecond of each quarantine — far too fast
        # to observe capacity 0 reliably.  Let the first repair through
        # (the retry that exhausts the budget needs a serving worker)
        # and hold the second until the parked/shed assertions are done.
        repair_gate = threading.Event()
        repairs = []
        orig_scrub = server.pool.scrub_hardware

        def gated_scrub(hardware):
            repairs.append(1)
            if len(repairs) > 1:
                assert repair_gate.wait(timeout=30.0)
            orig_scrub(hardware)

        server.pool.scrub_hardware = gated_scrub
        try:
            future = server.submit("host", np.zeros(4), deadline_s=20.0)
            assert isinstance(future.error(timeout=30.0), RequestError)
            assert wait_until(lambda: server.pool.capacity() == 0)
            # zero capacity: admission control sheds at submit
            with pytest.raises(RequestError) as info:
                server.submit("host", np.zeros(4), deadline_s=20.0)
            assert info.value.outcome == "shed"
            assert server.stats()["requests"]["shed"] >= 1
            # the fault clears; repair hands the chip back to the
            # parked worker and service resumes
            server.models["host"].fail_times = 0
            repair_gate.set()
            assert wait_until(lambda: server.pool.capacity() == 1,
                              timeout=30.0)
            result = server.submit(
                "host", np.arange(4.0), deadline_s=30.0
            ).result(timeout=30.0)
            assert np.array_equal(result.output, np.arange(4.0) * 2.0)
        finally:
            server.close()


class TestDegradedInPlace:
    def test_dead_mem_slice_serves_bit_identical(self, config):
        from repro.resil.chaos import _used_mem_slice

        server = InferenceServer(
            config, [make_mlp(config)], n_workers=1,
            default_policy=fast_policy(), tracing=True,
        )
        try:
            payload = np.linspace(-1.0, 1.0, 16)
            reference = server.sequential_reference("mlp", payload)
            assert np.array_equal(
                server.submit("mlp", payload, deadline_s=30.0)
                .result(timeout=30.0).output,
                reference,
            )
            worker = server.pool.workers[0]
            hemisphere, index = _used_mem_slice(server.cache)
            worker.chip.mem_unit(hemisphere, index).mark_dead()
            result = server.submit(
                "mlp", payload, deadline_s=30.0
            ).result(timeout=30.0)
            assert np.array_equal(result.output, reference)
            assert worker.state == "degraded"
            assert (hemisphere, index) in worker.blacklist.mem_slices
            assert server.pool.capacity() == 1  # no quarantine
            assert not server.pool.quarantined
            events = [e["kind"] for e in server.health_events]
            assert "degraded_enter" in events
            assert "recompile_degraded" in span_names(server)
        finally:
            server.close()


class TestFailFastClose:
    def test_close_mid_burst_fails_queue_with_shutdown(self, config):
        server = InferenceServer(
            config, [make_mlp(config)], n_workers=1,
            default_policy=fast_policy(max_batch=2),
        )
        futures = []
        lock = threading.Lock()
        start = threading.Barrier(5)
        stop = threading.Event()

        def submitter():
            start.wait()
            payload = np.zeros(16)
            while not stop.is_set():
                try:
                    future = server.submit("mlp", payload,
                                           deadline_s=60.0)
                except (RequestError, ServeError):
                    return
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait()
        time.sleep(0.2)  # let a burst build up in flight + queue
        t0 = time.monotonic()
        server.close(timeout=30.0)
        close_s = time.monotonic() - t0
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in threads)
        assert close_s < 20.0
        assert futures, "burst produced no requests"
        completed = shutdown = 0
        for future in futures:
            error = future.error(timeout=10.0)
            if error is None:
                completed += 1
            else:
                assert isinstance(error, RequestError)
                assert error.outcome in ("shutdown", "shed")
                shutdown += 1
        assert completed > 0, "server served nothing before close"
        assert shutdown > 0, "close drained the queue instead of failing fast"
        assert server.pool.alive == 0

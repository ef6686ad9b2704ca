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
  queue fast with ``shutdown`` outcomes instead of hanging;
* every decision above is a function of values (``TestPolicyTable``: no
  server, thread or chip), a request ends once (``TestOneTerminalSite``)
  and every way of ending is in the books (``TestBooksBalance``).
"""

import threading
import time

import numpy as np
import pytest

from repro.arch import Hemisphere
from repro.errors import (
    MemoryFaultError,
    RequestError,
    ServeError,
    WatchdogError,
)
from repro.resil import Blacklist, Watchdog
from repro.resil.health import HealthReport, LinkHealth
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
from repro.serve.request import InferenceRequest, RequestTiming, ServeFuture
from repro.serve.resilient import (
    Diagnosis,
    diagnose,
    hardware_fate,
    health_flag,
    recheck_due,
    rehome,
    repair_verdict,
    request_fate,
    shed_limit,
)


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


def wait_until(pool, predicate, timeout=20.0):
    """Wait on the pool's condition — notified on every hand-over of
    hardware, every worker exit and shutdown — until ``predicate()``
    holds.  (Was a 10 ms sleep-poll; the predicate must read what the
    condition guards: ``capacity()``, ``n_spares``, the quarantine list.)
    """
    with pool._cond:
        return pool._cond.wait_for(predicate, timeout)


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
        # capacity(), not alive: the exit notification precedes the
        # thread's last bytecode, which is what is_alive() reads
        assert wait_until(pool, lambda: pool.capacity() == 0, timeout=10.0)
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
            # (each round blocks on its own future: nothing to sleep on)
            deadline = time.monotonic() + 30.0
            while not (
                server.submit("mlp", payload, deadline_s=5.0)
                .error(timeout=30.0) is None
                and server.pool.quarantined
            ):
                assert time.monotonic() < deadline
            assert server.pool.capacity() == 1  # spare kept us serving
            server.pool.detach_hardware_fault("storm")
            assert wait_until(
                server.pool,
                lambda: not server.pool.active_quarantined
                and server.pool.n_spares == 1,
                timeout=30.0,
            )
            # the registry's counters and the healing spans are the record
            counted = server.registry.totals()["serve"]
            assert counted["health_quarantine"] >= 1
            assert counted["health_repair"] >= 1
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
        # (The gate sat on ``pool.scrub_hardware``, which is gone — the
        # hardware record scrubs itself — so it now holds ``_repair``.)
        repair_gate = threading.Event()
        repairs = []
        orig_repair = server.pool._repair

        def gated_repair(record):
            repairs.append(1)
            if len(repairs) > 1:
                assert repair_gate.wait(timeout=30.0)
            orig_repair(record)

        server.pool._repair = gated_repair
        try:
            future = server.submit("host", np.zeros(4), deadline_s=20.0)
            assert isinstance(future.error(timeout=30.0), RequestError)
            assert wait_until(
                server.pool, lambda: server.pool.capacity() == 0
            )
            # zero capacity: admission control sheds at submit
            with pytest.raises(RequestError) as info:
                server.submit("host", np.zeros(4), deadline_s=20.0)
            assert info.value.outcome == "shed"
            assert server.stats()["requests"]["shed"] >= 1
            # the fault clears; repair hands the chip back to the
            # parked worker and service resumes
            server.models["host"].fail_times = 0
            repair_gate.set()
            assert wait_until(
                server.pool, lambda: server.pool.capacity() == 1,
                timeout=30.0,
            )
            result = server.submit(
                "host", np.arange(4.0), deadline_s=30.0
            ).result(timeout=30.0)
            assert np.array_equal(result.output, np.arange(4.0) * 2.0)
        finally:
            server.close()


class TestDegradedInPlace:
    def test_dead_mem_slice_serves_bit_identical(self, config):
        from repro.resil.campaign import _used_mem_slice

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
            counted = server.registry.totals()["serve"]
            assert counted["health_degraded_enter"] >= 1
            assert "recompile_degraded" in span_names(server)
        finally:
            server.close()


class TestFailFastClose:
    def test_close_mid_burst_fails_queue_with_shutdown(self, config):
        server = InferenceServer(
            config, [make_mlp(config)], n_workers=1,
            default_policy=fast_policy(max_batch=2),
        )
        # the serving clock stands still: a batch leaves only when it is
        # full, so of five requests two batches are served and the fifth
        # is still queued when close() comes — by construction, not by
        # racing submitter threads
        server.batcher.clock = lambda: 0.0
        payload = np.zeros(16)
        futures = [
            server.submit("mlp", payload, deadline_s=60.0) for _ in range(5)
        ]
        for future in futures[:4]:
            assert future.error(timeout=30.0) is None
        assert server.batcher.depth() == 1
        t0 = time.monotonic()
        server.close(timeout=30.0)
        assert time.monotonic() - t0 < 20.0
        error = futures[4].error(timeout=10.0)
        assert isinstance(error, RequestError)
        assert error.outcome == "shutdown", "close drained the queue"
        assert server.stats()["requests"]["completed"] == 4
        assert server.pool.alive == 0


# ----------------------------------------------------------------------
# policy as functions of values: one row per branch, nothing running

SLICE_A = Blacklist(mem_slices=frozenset({(Hemisphere.WEST, 3)}))
SLICE_B = Blacklist(mem_slices=frozenset({(Hemisphere.EAST, 1)}))
BOTH = Blacklist(mem_slices=SLICE_A.mem_slices | SLICE_B.mem_slices)
RETRY = RetryPolicy(max_attempts=3)
HEALTH = HealthPolicy(quarantine_after=2, probes_required=2,
                      recheck_after=4, wearout_threshold=10)


def report(verdict="healthy", ecc=0, corrected=0, retries=0):
    link = LinkHealth(unit="C2C_E", link=0, connected=True, deskewed=True,
                      epoch=0, sent=9, received=9, corrected=corrected,
                      retries=retries, uncorrectable=0, dropped=0)
    return HealthReport(chip_id="pool0", cycle=0, ecc_corrections=ecc,
                        correction_delta=0, wearout=False, links=(link,),
                        verdict=verdict)


class TestPolicyTable:
    @pytest.mark.parametrize("kind, attempt, slack, estimate, fate", [
        ("software", 0, 9.0, 0.1, "failed"),
        ("software", 0, float("inf"), 0.0, "failed"),
        ("transient", 0, 9.0, 0.1, "requeue"),
        ("degradable", 1, 9.0, 0.1, "requeue"),
        ("transient", 2, 9.0, 0.1, "retryable_exhausted"),  # last attempt
        ("transient", 0, 0.05, 0.1, "retryable_exhausted"),  # no time left
        ("transient", 0, 0.1, 0.1, "requeue"),  # exactly one batch of slack
        ("transient", 0, float("inf"), 0.1, "requeue"),  # no deadline
    ])
    def test_request_fate(self, kind, attempt, slack, estimate, fate):
        assert request_fate(kind, attempt, slack, estimate, RETRY) == fate

    @pytest.mark.parametrize("diag, blacklist, strikes, expected", [
        (Diagnosis("software"), None, 1, (None, None)),
        (Diagnosis("degradable", SLICE_A), None, 0, ("degrade", SLICE_A)),
        (Diagnosis("degradable", SLICE_B), SLICE_A, 0, ("degrade", BOTH)),
        # the known-dead resource failed again: nothing new to route around
        (Diagnosis("degradable", SLICE_A), BOTH, 0, (None, BOTH)),
        (Diagnosis("transient"), None, 0, ("strike", None)),
        (Diagnosis("transient"), SLICE_A, 1, ("quarantine", SLICE_A)),
    ])
    def test_hardware_fate(self, diag, blacklist, strikes, expected):
        assert hardware_fate(diag, blacklist, strikes, HEALTH) == expected

    @pytest.mark.parametrize("rep, flagged", [
        (report(), None),
        (report(ecc=9, corrected=4, retries=5), None),
        (report(verdict="failed"), "health verdict failed"),
        (report(ecc=10), "10 ECC corrections"),
        (report(corrected=6, retries=4), "10 link FEC"),
    ])
    def test_health_flag(self, rep, flagged):
        reason = health_flag(rep, HEALTH)
        assert reason is None if flagged is None else flagged in reason

    def test_recheck_due(self):
        assert [recheck_due(n, HEALTH) for n in (0, 3, 4, 5)] == [
            False, False, True, True,
        ]

    @pytest.mark.parametrize("passed, failed, localized, blacklist, verdict", [
        (0, False, None, None, ("probe", None)),
        (1, False, None, SLICE_A, ("probe", SLICE_A)),
        (2, False, None, None, ("healthy", None)),
        (2, False, None, SLICE_A, ("degraded", SLICE_A)),
        (1, True, None, SLICE_A, ("retired", SLICE_A)),
        (0, True, SLICE_B, None, ("degraded", SLICE_B)),
        (1, True, SLICE_B, SLICE_A, ("degraded", BOTH)),
    ])
    def test_repair_verdict(self, passed, failed, localized, blacklist,
                            verdict):
        assert repair_verdict(
            passed, failed, localized, blacklist, HEALTH
        ) == verdict

    def test_rehome(self):
        assert rehome([2, 0]) == 2  # a parked worker before the shelf
        assert rehome([]) is None

    @pytest.mark.parametrize("capacity, limit", [
        (2, None),  # full capacity: everything queues
        (3, None),
        (1, 8),
        (0, 0),     # nobody serving: shed at once
    ])
    def test_shed_limit(self, capacity, limit):
        assert shed_limit(capacity, 2, per_worker=8) == limit

    def test_diagnose(self):
        assert diagnose(ValueError("bug")).kind == "software"
        hang = WatchdogError("hang").with_context(chip="pool0.c1")
        assert (diagnose(hang).kind, diagnose(hang).chip_index) == (
            "transient", 1,
        )
        dead = MemoryFaultError("dead").with_context(unit="MEM_W3")
        assert diagnose(dead) == Diagnosis(
            "degradable", SLICE_A, None, "localized to MEM_W3"
        )

    def test_policy_module_has_no_clock_lock_or_thread(self):
        import repro.serve.resilient as policy

        assert not {"threading", "time"} & set(vars(policy))


# ----------------------------------------------------------------------
def request_of(model="host", **kwargs):
    return InferenceRequest(
        id=0, model=model, payload=np.zeros(4),
        timing=RequestTiming(submitted_s=0.0), **kwargs,
    )


class TestOneTerminalSite:
    def test_future_is_one_shot(self):
        """Regression: a second resolution used to overwrite the first, so
        a delivered result turned into an error for a later ``result()``."""
        future = ServeFuture()
        assert future.set_result("A") is True
        assert future.set_error(RuntimeError("late")) is False
        assert future.set_result("B") is False
        assert future.result(timeout=0) == "A"
        assert future.error(timeout=0) is None

    def test_first_finish_wins_and_is_counted_once(self):
        counted = []
        request = request_of(on_finish=counted.append)
        assert request.finish("ok", 2.0, result="A") is True
        assert request.finish("failed", 3.0, detail="late") is False
        assert request.finish("ok", 4.0, result="B") is False
        assert request.future.result(timeout=0) == "A"
        assert (request.outcome, request.timing.completed_s) == ("ok", 2.0)
        assert counted == [request]

    def test_finish_builds_the_attributed_error(self):
        cause = WatchdogError("hang").with_context(chip="pool0", cycle=17)
        request = request_of(attempt=2)
        request.finish("retryable_exhausted", 1.0, detail="gave up",
                       cause=cause, chip_index=1)
        error = request.future.error(timeout=0)
        assert isinstance(error, RequestError)
        assert str(error).endswith("request 0 (host) gave up")
        assert (error.outcome, error.attempt, error.chip_index) == (
            "retryable_exhausted", 2, 1,
        )
        assert (error.chip_id, error.cycle) == ("pool0", 17)
        assert error.__cause__ is cause

    def test_bookkeeping_bug_still_answers_the_caller(self):
        def broken(request):
            raise RuntimeError("books on fire")

        request = request_of(on_finish=broken)
        with pytest.raises(RuntimeError, match="books on fire"):
            request.finish("ok", 1.0, result="A")
        assert request.future.result(timeout=0) == "A"

    def test_escaping_failure_handler_fails_the_batch_not_the_callers(
        self, config
    ):
        """An exception escaping the failure handling used to kill the
        worker with the batch's callers left to time out; the blanket
        ``finally`` fails what is unresolved — and only that: a request
        requeued before the handler blew up stays live in the queue."""
        batcher = DynamicBatcher(default_policy=fast_policy(max_batch=2))
        pool = ChipPool(
            config, [HostMathModel(fail_times=1)], batcher, ProgramCache(),
            n_workers=1,
        )
        retried, doomed = request_of(), request_of(deadline_s=-1.0)
        for request in (retried, doomed):
            batcher.submit(request)
        finish = InferenceRequest.finish

        def exploding_finish(self, *args, **kwargs):
            if self is doomed and args[0] == "retryable_exhausted":
                raise RuntimeError("handler blew up")
            return finish(self, *args, **kwargs)

        doomed.finish = exploding_finish.__get__(doomed)
        with pytest.raises(RuntimeError, match="handler blew up"):
            pool.execute_batch(pool.workers[0], batcher.next_batch())
        error = doomed.future.error(timeout=0)
        assert error.outcome == "failed"
        assert isinstance(error.__cause__, WatchdogError)
        assert not retried.future.done()
        assert (retried.attempt, batcher.depth()) == (1, 1)


class GateModel(ServeModel):
    """Echoes; holds a batch in ``run_batch`` while the gate is closed."""

    name = "gate"
    payload_shape = (1,)

    def __init__(self):
        self.fail_next = 0
        self.gate = threading.Event()
        self.gate.set()
        self.held = threading.Semaphore(0)

    def run_batch(self, chip, cache, payloads, stats=None):
        if not self.gate.is_set():
            self.held.release()
            assert self.gate.wait(timeout=30.0)
        if self.fail_next:
            self.fail_next -= 1
            raise WatchdogError("injected hang")
        return list(payloads)

    def run_reference(self, payload):
        return payload


def assert_books_balance(server):
    """Every numbered request is in exactly one terminal column, and the
    rollup is nothing but the registry's totals."""
    requests = server.stats()["requests"]
    assert requests["submitted"] == (
        requests["completed"] + requests["failed"] + requests["shed"]
    ), requests
    totals = server.registry.totals()
    unit = totals.get("serve:gate", {})
    assert requests["completed"] == unit.get("requests_ok", 0)
    assert requests["failed"] == unit.get("requests_failed", 0) + totals.get(
        "serve", {}
    ).get("requests_shutdown", 0)
    assert requests["shed"] == unit.get("requests_shed_capacity", 0)
    return requests


class TestBooksBalance:
    def test_closing_server_has_one_answer_and_loses_nothing(self, config):
        """Regression: a ``submit()`` racing ``close()`` was numbered and
        then lost (a bare ``ServeError``, no outcome, counted nowhere),
        and the same call once the workers had exited was a capacity
        *shed*.  No sleep decides the timing: the gate holds one batch in
        ``run_batch``, so the drain cannot finish until it opens."""
        model = GateModel()
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
        )
        x = np.zeros(1)
        model.gate.clear()
        running = server.submit("gate", x)
        assert model.held.acquire(timeout=30.0)
        queued = server.submit("gate", x)
        closer = threading.Thread(target=server.close)
        closer.start()
        assert queued.error(timeout=30.0).outcome == "shutdown"
        # close() has aborted the queue and is waiting for the held batch
        assert closer.is_alive() and server.pool.alive == 1
        with pytest.raises(RequestError) as during:
            server.submit("gate", x)
        model.gate.set()
        closer.join(timeout=60.0)
        assert not closer.is_alive() and server.pool.alive == 0
        with pytest.raises(RequestError) as after:
            server.submit("gate", x)
        for refused in (during.value, after.value):
            assert isinstance(refused, ServeError)
            assert refused.outcome == "shutdown"
        assert np.array_equal(running.result(timeout=30.0).output, x)
        assert assert_books_balance(server) == {
            "submitted": 4, "completed": 1, "failed": 3, "retried": 0,
            "shed": 0,
        }

    def test_every_way_to_end_is_in_the_books(self, config, monkeypatch):
        """Successes, a forced retry, a retry that exhausts, a capacity
        shed, a ``close()`` over a queued request, a ``submit()`` during
        the drain and one after it."""
        model = GateModel()
        server = InferenceServer(
            config, [model], n_workers=2, shed_factor=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
            retry=RetryPolicy(max_attempts=2),
            health_policy=HealthPolicy(quarantine_after=100),
        )
        x = np.zeros(1)
        for _ in range(2):
            server.run("gate", x, timeout=30.0)
        model.fail_next = 1  # retried once, then served
        server.submit("gate", x, deadline_s=30.0).result(timeout=30.0)
        model.fail_next = 2  # both attempts fail: the budget is spent
        exhausted = server.submit("gate", x, deadline_s=30.0)
        assert exhausted.error(timeout=30.0).outcome == "retryable_exhausted"
        model.gate.clear()
        running = [server.submit("gate", x) for _ in range(2)]
        for _ in running:
            assert model.held.acquire(timeout=30.0)
        monkeypatch.setattr(server.pool, "capacity", lambda: 1)
        victim = server.submit("gate", x, priority=0)
        queued = server.submit("gate", x, priority=1)
        assert victim.error(timeout=30.0).outcome == "shed"
        closer = threading.Thread(target=server.close)
        closer.start()
        assert queued.error(timeout=30.0).outcome == "shutdown"
        with pytest.raises(RequestError, match="shutting down"):
            server.submit("gate", x)
        model.gate.set()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        with pytest.raises(RequestError, match="shutting down"):
            server.submit("gate", x)
        for future in running:
            future.result(timeout=30.0)
        assert assert_books_balance(server) == {
            "submitted": 10, "completed": 5, "failed": 4, "retried": 2,
            "shed": 1,
        }

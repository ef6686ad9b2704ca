"""The serving core as a state machine, driven single-threaded.

A real :class:`InferenceServer` — batcher, pool, policy, books — whose
worker and repair threads are never started: batches are executed and
repairs stepped inline, on a fake clock, in whatever order hypothesis
picks.  Rules: submit, run the next batch (clean, transient fault,
degradable fault, software fault), flag a worker's health, step a repair
(passes, fails localized, fails unlocalized), advance the clock, close.
Capacity sheds are what submit does once quarantines have parked a
worker and the queue is at its cap.

Invariants, after every step:

* every request ends at most once, and none is unresolved after
  ``close()``;
* the books balance: ``submitted == completed + failed + shed + queued``
  (nothing is in flight between steps), with every unresolved future
  accounted for by the queue;
* hardware is conserved: serving + spare + in repair + retired is what
  the pool was built with, each piece in exactly one place;
* no delivered output differs from ``run_reference``.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.arch import Hemisphere
from repro.config import small_test_chip
from repro.errors import MemoryFaultError, RequestError, WatchdogError
from repro.serve import (
    BatchPolicy,
    ChipPool,
    HealthPolicy,
    InferenceServer,
    RetryPolicy,
    ServeModel,
)

CONFIG = small_test_chip()
N_WORKERS, N_SPARES = 2, 1
HEALTH = HealthPolicy(quarantine_after=2, probes_required=1, recheck_after=2)
#: ``outcome -> requests ended that way``, over every example of a run
REACHED = Counter()


class ScriptedModel(ServeModel):
    """Pure-host doubling; the next batch does what ``script`` says."""

    name = "m"
    payload_shape = (2,)
    script = "ok"

    def run_batch(self, chip, cache, payloads, stats=None, blacklist=None):
        script, self.script = self.script, "ok"
        if script == "transient":
            raise WatchdogError("injected hang").with_context(
                chip=chip.chip_id
            )
        if script == "degradable":
            raise MemoryFaultError("injected dead slice").with_context(
                chip=chip.chip_id, unit="MEM_W3"
            )
        if script == "software":
            raise ValueError("injected bug")
        return [self.run_reference(p) for p in payloads]

    def run_reference(self, payload):
        return payload * 2.0


class ServingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.model = ScriptedModel()
        with mock.patch.object(ChipPool, "start"):  # no thread ever runs
            self.server = InferenceServer(
                CONFIG, [self.model], n_workers=N_WORKERS,
                n_spares=N_SPARES, shed_factor=1,
                default_policy=BatchPolicy(max_batch=2, max_delay_s=0.0),
                retry=RetryPolicy(max_attempts=3), health_policy=HEALTH,
            )
        self.pool, self.batcher = self.server.pool, self.server.batcher
        self.batcher.clock = self.pool.clock = lambda: self.now
        self.hardware = {id(w.hw) for w in self.pool.workers} | {
            id(hw) for hw in self.pool._spares
        }
        #: request id -> times it reached the one terminal site
        self.ended = Counter()
        counted = self.server._finished

        def finished(request):
            self.ended[request.id] += 1
            REACHED[request.outcome] += 1
            counted(request)

        self.server._finished = finished
        self.futures = []  # (future, payload) of every admitted request
        self.refused = 0
        self.closed = False

    def teardown(self):
        self.server.close()

    # -- rules ---------------------------------------------------------
    @rule(
        value=st.integers(-4, 4),
        budget=st.sampled_from([None, 0.0, 5.0]),
        priority=st.integers(0, 2),
    )
    def submit(self, value, budget, priority):
        payload = np.full(2, float(value))
        try:
            future = self.server.submit(
                "m", payload, deadline_s=budget, priority=priority
            )
        except RequestError as refusal:
            assert refusal.outcome == ("shutdown" if self.closed else "shed")
            self.refused += 1
        else:
            assert not self.closed
            self.futures.append((future, payload))

    @precondition(lambda self: self.batcher.depth() > 0)
    @rule(
        worker=st.integers(0, N_WORKERS - 1),
        script=st.sampled_from(
            ["ok", "ok", "transient", "degradable", "software"]
        ),
    )
    def run_next_batch(self, worker, script):
        worker = self.pool.workers[worker]
        if worker.hw is None:
            return  # parked: it would be waiting, not pulling batches
        self.model.script = script
        self.pool.execute_batch(worker, self.batcher.next_batch(timeout=0))

    @rule(worker=st.integers(0, N_WORKERS - 1))
    def health_flag(self, worker):
        worker = self.pool.workers[worker]
        if worker.hw is None or self.closed:
            return
        worker.chip.srf.corrections = HEALTH.wearout_threshold
        reason = worker._health_flagged()  # what the run loop polls
        assert reason is not None
        self.pool.quarantine(worker, reason=reason)

    @precondition(lambda self: self.pool._repair_queue)
    @rule(result=st.sampled_from(["pass", "pass", "localized", "unlocalized"]))
    def repair_step(self, result):
        record = self.pool._repair_queue.popleft()
        hardware = record.hardware
        if result == "localized":
            hardware.chips[0].mem_unit(Hemisphere.EAST, 2).mark_dead()
        elif result == "unlocalized":
            hardware.scrub = mock.Mock(side_effect=WatchdogError("stuck"))
        self.pool._repair(record)
        assert record.active == (result == "unlocalized")
        if result == "localized":
            assert (Hemisphere.EAST, 2) in hardware.blacklist.mem_slices

    @rule(dt=st.sampled_from([0.001, 1.0, 10.0]))
    def advance(self, dt):
        self.now += dt

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.server.close()
        self.closed = True

    # -- invariants ----------------------------------------------------
    @invariant()
    def one_terminal_outcome_each(self):
        assert all(n == 1 for n in self.ended.values()), self.ended
        unresolved = [f for f, _ in self.futures if not f.done()]
        assert len(unresolved) == self.batcher.depth()
        if self.closed:
            assert not unresolved

    @invariant()
    def books_balance(self):
        requests = self.server.stats()["requests"]
        assert requests["submitted"] == len(self.futures) + self.refused
        assert requests["submitted"] == (
            requests["completed"] + requests["failed"] + requests["shed"]
            + self.batcher.depth()
        ), requests
        assert sum(self.ended.values()) == (
            requests["submitted"] - self.batcher.depth()
        )

    @invariant()
    def hardware_is_conserved(self):
        pool = self.pool
        placed = (
            [w.hw for w in pool.workers if w.hw is not None]
            + pool._spares
            + [r.hardware for r in pool.active_quarantined]
        )
        assert len(placed) == N_WORKERS + N_SPARES
        assert {id(hw) for hw in placed} == self.hardware
        assert pool.capacity() == sum(
            w.state != "quarantined" for w in pool.workers
        )

    @invariant()
    def never_a_wrong_answer(self):
        for future, payload in self.futures:
            if future.done() and future.error(timeout=0) is None:
                assert np.array_equal(
                    future.result(timeout=0).output,
                    self.model.run_reference(payload),
                )


# derandomized: the same programs every run, so what they reach is pinned
TestServingMachine = ServingMachine.TestCase
TestServingMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    derandomize=True,
)


def test_machine_reaches_every_outcome():
    """The rules above are not decorative: over the derandomized run every
    terminal outcome — a capacity shed and a shutdown included — ends at
    least one request.  (Runs the machine itself when pytest selected this
    test alone.)"""
    if not REACHED:
        TestServingMachine("runTest").runTest()
    assert set(REACHED) == {
        "ok", "failed", "retryable_exhausted", "shed", "shutdown",
    }, REACHED

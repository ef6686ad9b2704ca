"""The generator loops against a stub server that answers instantly."""

import time

import numpy as np
import pytest

import loadgen
from repro.errors import RequestError
from repro.serve import InferenceResult, RequestTiming, ServeFuture
from workloads import WORKLOADS


class StubServer:
    """``submit`` resolves at once; every ``fail_every``-th request errors."""

    def __init__(self, wrong_every=0, fail_every=0):
        self.sent = 0
        self.wrong_every = wrong_every
        self.fail_every = fail_every

    def submit(self, model, payload):
        self.sent += 1
        now = time.monotonic()
        future = ServeFuture()
        if self.fail_every and self.sent % self.fail_every == 0:
            future.set_error(RequestError("shed", outcome="shed"))
            return future
        output = np.asarray(payload).sum(keepdims=True)
        if self.wrong_every and self.sent % self.wrong_every == 0:
            output = output + 1
        future.set_result(InferenceResult(
            request_id=self.sent, model=model, output=output,
            timing=RequestTiming(
                submitted_s=now, dispatched_s=now, completed_s=now
            ),
            batch_id=self.sent // 4, batch_size=4, worker="stub", cycles=100,
        ))
        return future


def _generator(server, traffic):
    references = [np.asarray(p).sum(keepdims=True) for _, p in traffic.pool]
    return loadgen.Generator(server, traffic, references)


def test_closed_loop_sends_whole_rounds_and_stamps_every_boundary():
    gen = _generator(StubServer(), WORKLOADS["closed-cnn"].traffic(1))
    log = loadgen.run_closed(gen, 3, 0.05, 4)
    assert len(log.ok) % 3 == 0 and len(log.ok) >= 3 and not gen.pending
    assert len(log.boundaries) == 5
    walls = [wall for wall, _cpu in log.boundaries]
    assert walls == sorted(walls) and walls[-1] - walls[0] > 0.049
    assert log.origin_s == log.sent_s  # closed: timed from the submit
    results = loadgen.results(log)
    assert results.ok.all() and not results.failures
    assert np.all(results.lag_s == 0)


def test_open_loop_times_from_the_due_time_and_never_sends_early():
    spec = WORKLOADS["open-mix"]
    due, _ = spec.traffic(2).schedule(spec.rate_rps, 0.3)
    gen = _generator(StubServer(), spec.traffic(2))
    log = loadgen.run_open(gen, spec.rate_rps, 0.3, 2)
    assert len(log.ok) == len(due) and not gen.pending
    assert np.allclose(np.diff(log.origin_s), np.diff(due))  # the seeded gaps
    assert all(s >= o for s, o in zip(log.sent_s, log.origin_s))
    assert len(log.boundaries) == 3 and log.backlog_at_end == 0
    results = loadgen.results(log)
    # latency counts the generator's own lateness
    assert np.all(results.latency_s >= results.lag_s)


def test_wrong_answers_and_errors_both_fail_and_say_why():
    traffic = WORKLOADS["closed-cnn"].traffic(1)
    gen = _generator(StubServer(wrong_every=5, fail_every=7), traffic)
    log = loadgen.run_warmup(gen, 4)
    assert len(log.ok) == 2 * len(traffic.pool)
    results = loadgen.results(log)
    n = len(log.ok)
    failed = {i for i in range(1, n + 1) if i % 5 == 0 or i % 7 == 0}
    assert (~results.ok).sum() == len(failed) == len(results.failures)
    assert np.isinf(results.latency_s[~results.ok]).all()
    assert any("differs from the sequential oracle" in f
               for f in results.failures)
    assert any("shed" in f for f in results.failures)


def test_warmup_sends_the_pool_once_mixed_and_once_grouped_by_model():
    traffic = WORKLOADS["open-mix"].traffic(1)
    sent = []

    class Recording(StubServer):
        def submit(self, model, payload):
            sent.append(model)
            return super().submit(model, payload)

    loadgen.run_warmup(_generator(Recording(), traffic), 8)
    n = len(traffic.pool)
    assert sent[:n] == [model for model, _ in traffic.pool]
    assert sent[:9] == ["cnn"] + ["mlp"] * 7 + ["cnn"]  # lone images
    assert sent[n:] == sorted(sent[:n])  # then whole batches of each model


def test_closed_loop_stops_when_it_loses_count():
    """A generator holding more requests than it has callers must raise,
    not report numbers."""
    gen = _generator(StubServer(), WORKLOADS["closed-cnn"].traffic(1))
    now = time.monotonic()
    for _ in range(4):
        gen.submit(0, now, now)
    with pytest.raises(AssertionError, match="closed loop holds 4"):
        loadgen.run_closed(gen, 3, 0.05, 1)

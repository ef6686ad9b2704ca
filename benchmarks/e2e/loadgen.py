"""One generator thread driving ``InferenceServer.submit`` → ``ServeFuture``.

Two loops, both run on the calling thread:

* **closed** — ``outstanding`` callers that each wait for their reply:
  the generator keeps exactly that many requests in flight, blocking on
  the oldest.  Latency is timed from just before ``submit``.
* **open** — independent users: a seeded Poisson schedule; the generator
  sleeps to each *due* time, submits, and never waits on a result.
  Latency is timed from the due time, so a stall also charges the
  requests it delayed; how late the generator itself ran is reported as
  lag.

The generator stamps window boundaries (wall clock + process CPU clock,
at the first loop iteration at or past each mark).  Replies are read as
soon as the loop sees them done — a handful of field reads and one
``np.array_equal`` against the oracle answer — and the future is dropped,
so the harness keeps a few numbers per request, not the request: the
process's peak memory then belongs to the server, not to the log.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeError, TspError

#: a reply slower than this is a failure (and the closed loop moves on)
RESULT_TIMEOUT_S = 30.0


@dataclass
class PhaseLog:
    """What the generator wrote down during one phase, one entry a request."""

    #: answered, and bit-identical to the oracle
    ok: list = field(default_factory=list)
    #: latency origin: the due time (open) or the pre-submit stamp (closed)
    origin_s: list = field(default_factory=list)
    #: when ``submit`` was actually called (equals origin when closed)
    sent_s: list = field(default_factory=list)
    #: ``timing.completed_s`` (nan when unanswered)
    completed_s: list = field(default_factory=list)
    queue_s: list = field(default_factory=list)
    compile_s: list = field(default_factory=list)
    execute_s: list = field(default_factory=list)
    batch_id: list = field(default_factory=list)
    batch_size: list = field(default_factory=list)
    #: cycles of the request's whole batch
    batch_cycles: list = field(default_factory=list)
    #: (wall clock, process CPU clock) at each window boundary
    boundaries: list = field(default_factory=list)
    #: requests sent but not yet answered at the last boundary
    backlog_at_end: int = 0
    #: one line per failed request, for the report
    failures: list = field(default_factory=list)


class Generator:
    """Submits requests, reads replies back, fills one :class:`PhaseLog`."""

    def __init__(self, server, traffic, references) -> None:
        self.server = server
        self.traffic = traffic
        self.references = references
        self.log = PhaseLog()
        #: (pool index, origin, sent, future) of every unread request
        self.pending: deque = deque()

    def submit(self, index: int, origin_s: float, sent_s: float) -> None:
        model, payload = self.traffic.pool[index]
        future = self.server.submit(model, payload)
        self.pending.append((index, origin_s, sent_s, future))

    def read_oldest(self, block: bool) -> bool:
        """Record the oldest pending reply; False if it is not there yet.

        ``block`` waits for it (up to the timeout) — errors, timeouts and
        wrong answers are all recorded as failed requests.
        """
        index, origin_s, sent_s, future = self.pending[0]
        if block:
            try:
                future.error(timeout=RESULT_TIMEOUT_S)
            except ServeError:
                pass  # still unresolved: recorded below as no reply
        elif not future.done():
            return False
        self.pending.popleft()
        log = self.log
        n = len(log.ok)
        log.origin_s.append(origin_s)
        log.sent_s.append(sent_s)
        result = None
        if not future.done():
            log.failures.append(
                f"request {n}: no reply in {RESULT_TIMEOUT_S}s"
            )
        else:
            try:
                result = future.result()
            except TspError as error:
                log.failures.append(f"request {n}: {error}")
        if result is None:
            log.ok.append(False)
            for column in (log.queue_s, log.compile_s, log.execute_s,
                           log.batch_size, log.batch_cycles):
                column.append(0.0)
            log.completed_s.append(float("nan"))
            log.batch_id.append(-1)
            return True
        timing = result.timing
        log.completed_s.append(timing.completed_s)
        log.queue_s.append(timing.queue_s)
        log.compile_s.append(timing.compile_s)
        log.execute_s.append(timing.execute_s)
        log.batch_id.append(result.batch_id)
        log.batch_size.append(result.batch_size)
        log.batch_cycles.append(result.cycles)
        same = np.array_equal(result.output, self.references[index])
        log.ok.append(same)
        if not same:
            log.failures.append(
                f"request {n}: {self.traffic.pool[index][0]} answer "
                "differs from the sequential oracle"
            )
        return True

    def drain(self) -> None:
        while self.pending:
            self.read_oldest(block=True)


class _Marks:
    """Stamps each window boundary the first time the loop passes it."""

    def __init__(self, log: PhaseLog, start_s: float, duration_s: float,
                 n_windows: int) -> None:
        self._log = log
        self._marks = deque(
            start_s + duration_s * k / n_windows for k in range(n_windows + 1)
        )

    def stamp(self, now_s: float) -> bool:
        """Record boundaries up to ``now_s``; True once the last is passed."""
        while self._marks and now_s >= self._marks[0]:
            self._marks.popleft()
            self._log.boundaries.append((now_s, time.process_time()))
        return not self._marks


def run_warmup(gen: Generator, outstanding: int) -> PhaseLog:
    """Two passes over the pool, ``outstanding`` in flight.

    The first pass is in pool order (the traffic's own mix, where a rare
    model's requests arrive alone), the second grouped by model (where
    they fill whole batches), so the batch shapes of both have been
    compiled and recorded before anything is timed.
    """
    pool = gen.traffic.pool
    in_order = list(range(len(pool)))
    for index in in_order + sorted(in_order, key=lambda i: pool[i][0]):
        now = time.monotonic()
        gen.submit(index, now, now)
        if len(gen.pending) == outstanding:
            gen.read_oldest(block=True)
    gen.drain()
    return gen.log


def run_closed(gen: Generator, outstanding: int, duration_s: float,
               n_windows: int) -> PhaseLog:
    """Keep ``outstanding`` requests in flight for ``duration_s``."""
    log, traffic = gen.log, gen.traffic
    marks = _Marks(log, time.monotonic(), duration_s, n_windows)
    sent = 0
    while not marks.stamp(time.monotonic()):
        while len(gen.pending) < outstanding:
            now = time.monotonic()
            gen.submit(traffic.next_index(), now, now)
            sent += 1
        if len(gen.pending) != outstanding:
            raise AssertionError(
                f"closed loop holds {len(gen.pending)} requests, "
                f"not {outstanding}"
            )
        gen.read_oldest(block=True)
    log.backlog_at_end = len(gen.pending)
    # every caller finishes the round it is in, so the number sent is a
    # whole multiple of the callers: the drain tail is made of the same
    # full batches as the interval, not one odd-sized straggler batch
    while sent % outstanding:
        now = time.monotonic()
        gen.submit(traffic.next_index(), now, now)
        sent += 1
    gen.drain()
    return log


def run_open(gen: Generator, rate_rps: float, duration_s: float,
             n_windows: int) -> PhaseLog:
    """Submit on a seeded Poisson schedule; never wait on a result."""
    log = gen.log
    due, indices = gen.traffic.schedule(rate_rps, duration_s)
    start = time.monotonic()
    marks = _Marks(log, start, duration_s, n_windows)
    marks.stamp(start)
    for offset, index in zip(due.tolist(), indices.tolist()):
        due_s = start + offset
        delay = due_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        now = time.monotonic()
        marks.stamp(now)
        gen.submit(index, due_s, now)
        while gen.pending and gen.read_oldest(block=False):
            pass
    end = start + duration_s
    delay = end - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    marks.stamp(max(time.monotonic(), end))
    log.backlog_at_end = sum(
        1 for *_, future in gen.pending if not future.done()
    )
    gen.drain()
    return log


@dataclass
class PhaseResults:
    """A finished :class:`PhaseLog` as arrays, one element a request."""

    ok: np.ndarray
    completed_s: np.ndarray
    latency_s: np.ndarray  # completed - origin (inf when failed)
    lag_s: np.ndarray  # sent - origin
    queue_s: np.ndarray
    compile_s: np.ndarray
    execute_s: np.ndarray
    batch_id: np.ndarray
    batch_size: np.ndarray
    batch_cycles: np.ndarray
    boundaries_s: np.ndarray
    boundaries_cpu_s: np.ndarray
    backlog_at_end: int
    failures: list


def results(log: PhaseLog) -> PhaseResults:
    ok = np.asarray(log.ok, dtype=bool)
    origin = np.asarray(log.origin_s)
    completed = np.asarray(log.completed_s)
    boundaries = np.asarray(log.boundaries).reshape(-1, 2)
    return PhaseResults(
        ok=ok,
        completed_s=completed,
        latency_s=np.where(ok, completed - origin, np.inf),
        lag_s=np.asarray(log.sent_s) - origin,
        queue_s=np.asarray(log.queue_s),
        compile_s=np.asarray(log.compile_s),
        execute_s=np.asarray(log.execute_s),
        batch_id=np.asarray(log.batch_id, dtype=np.int64),
        batch_size=np.asarray(log.batch_size, dtype=float),
        batch_cycles=np.asarray(log.batch_cycles, dtype=float),
        boundaries_s=boundaries[:, 0],
        boundaries_cpu_s=boundaries[:, 1],
        backlog_at_end=log.backlog_at_end,
        failures=log.failures,
    )

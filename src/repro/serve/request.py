"""Request/response types of the serving layer.

One :class:`InferenceRequest` is one caller's tensor plus a
:class:`ServeFuture` the caller blocks on; the batcher stamps it into a
:class:`Batch`, a pool worker executes the batch on a simulated chip, and
each request resolves to an :class:`InferenceResult` carrying the
queue/compile/execute latency breakdown the SLO dashboards need.

A request ends in exactly one place, :meth:`InferenceRequest.finish`: the
only caller of the future's resolvers, it stamps the completion time,
builds the :class:`~repro.errors.RequestError` of every outcome but
``ok`` and has the request counted (``on_finish``) before the caller can
see the answer.  The first finish wins; a later one changes nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import RequestError, ServeError
from ..nn.tsp_inference import ChunkRunStats


@dataclass(frozen=True)
class BatchPolicy:
    """Deadline-aware dynamic-batching knobs, per model.

    A batch dispatches when ``max_batch`` requests are waiting, or when
    the oldest waiting request has queued ``max_delay_s`` — the classic
    batching/latency-SLO tradeoff (the TPU paper's "latency limits how
    much batching helps"): larger ``max_batch`` amortizes the chip better,
    smaller ``max_delay_s`` bounds the queueing a lone request can suffer.
    """

    max_batch: int = 8
    max_delay_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ServeError("max_delay_s must be >= 0")


@dataclass
class RequestTiming:
    """Wall-clock breakdown of one request's life, in seconds.

    ``queue_s`` is submit → batch dispatch; ``compile_s`` is this
    request's share of scheduler time inside its batch (zero on every
    cache hit); ``execute_s`` is its share of simulation + host marshal.
    """

    submitted_s: float
    dispatched_s: float = 0.0
    completed_s: float = 0.0
    compile_s: float = 0.0
    execute_s: float = 0.0

    @property
    def queue_s(self) -> float:
        return max(self.dispatched_s - self.submitted_s, 0.0)

    @property
    def total_s(self) -> float:
        return max(self.completed_s - self.submitted_s, 0.0)


@dataclass
class InferenceResult:
    """One served request's outcome."""

    request_id: int
    model: str
    output: np.ndarray
    timing: RequestTiming
    batch_id: int
    batch_size: int
    worker: str
    cycles: int
    cache_hits: int = 0
    cache_misses: int = 0


class ServeFuture:
    """A one-shot, thread-safe completion handle: the first resolution
    is the answer, a later one returns False and changes nothing."""

    def __init__(self) -> None:
        #: its lock is re-entrant: InferenceRequest.finish holds it
        #: around a resolver
        self._cond = threading.Condition()
        self._resolved = False
        self._result: InferenceResult | None = None
        self._error: BaseException | None = None

    def _resolve(self, result, error) -> bool:
        with self._cond:
            if self._resolved:
                return False
            self._result, self._error, self._resolved = result, error, True
            self._cond.notify_all()
            return True

    def set_result(self, result: InferenceResult) -> bool:
        return self._resolve(result, None)

    def set_error(self, error: BaseException) -> bool:
        return self._resolve(None, error)

    def done(self) -> bool:
        return self._resolved

    def _wait(self, timeout: float | None) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._resolved, timeout):
                raise ServeError("timed out waiting for an inference result")

    def result(self, timeout: float | None = None) -> InferenceResult:
        """Block until resolved; re-raises the worker's failure."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def error(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; returns the failure instead of raising."""
        self._wait(timeout)
        return self._error


@dataclass(eq=False)  # a request is itself, not its field values
class InferenceRequest:
    """One queued inference call.

    ``deadline_s`` is an *absolute* instant on the serving clock (None =
    no deadline): the retry path re-enqueues a failed request only while
    the deadline still has one estimated batch-latency of slack, and
    admission control sheds the most deadline-hopeless requests first.
    ``priority`` orders shedding (lower sheds first); ``attempt`` counts
    executions — 0 on first dispatch, bumped by every retry requeue.
    ``outcome`` is None until :meth:`finish` sets it, once, to ``ok`` or
    a ``RequestError.outcome``; ``on_finish`` is called with the request
    at that moment (the server counts there).
    """

    id: int
    model: str
    payload: np.ndarray
    timing: RequestTiming
    future: ServeFuture = field(default_factory=ServeFuture)
    deadline_s: float | None = None
    priority: int = 0
    attempt: int = 0
    outcome: str | None = None
    on_finish: object = field(default=None, repr=False)

    def slack_s(self, now: float) -> float:
        """Seconds of deadline budget left (inf with no deadline)."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - now

    def finish(
        self, outcome: str, now: float, *, result=None, detail: str = "",
        cause: BaseException | None = None, chip_index: int | None = None,
    ) -> bool:
        """The one terminal transition; False when the request had ended.

        ``ok`` delivers ``result`` (an :class:`InferenceResult`); every
        other outcome raises, in the caller, a
        :class:`~repro.errors.RequestError` reading ``request <id>
        (<model>) <detail>`` that carries the outcome, the attempt and —
        from ``cause``, which becomes its ``__cause__`` — the
        chip/cycle/unit the fault was attributed to.  Counted
        (``on_finish``) before the future resolves, so whoever sees the
        answer also sees it in the books.
        """
        with self.future._cond:
            if self.outcome is not None:
                return False
            self.outcome = outcome
            self.timing.completed_s = now
            error = None if outcome == "ok" else RequestError(
                f"request {self.id} ({self.model}) {detail}",
                outcome=outcome, attempt=self.attempt, chip_index=chip_index,
                chip=getattr(cause, "chip_id", None),
                cycle=getattr(cause, "cycle", None),
                unit=getattr(cause, "unit", None),
            )
            try:
                if self.on_finish is not None:
                    self.on_finish(self)
            finally:  # a bookkeeping bug must not leave the caller waiting
                if error is None:
                    self.future.set_result(result)
                else:
                    error.__cause__ = cause
                    self.future.set_error(error)
            return True


@dataclass
class Batch:
    """A group of same-model requests dispatched together."""

    id: int
    model: str
    requests: list[InferenceRequest]
    #: why the batcher released it: "full", "deadline", or "drain"
    trigger: str

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class BatchOutcome:
    """What one executed batch reports up to the server."""

    batch: Batch
    worker: str
    ok: bool
    stats: ChunkRunStats = field(default_factory=ChunkRunStats)
    error: BaseException | None = None
    started_s: float = 0.0
    finished_s: float = 0.0
    #: the batch's span id in the request tracer (None when tracing off) —
    #: the linkage request root spans point at via args["batch_span"]
    span_id: int | None = None
    #: highest request attempt in the batch at execution time
    attempt: int = 0
    #: requests re-enqueued for retry instead of ended — they come back
    #: through a later batch
    requeued: list = field(default_factory=list)
    #: served by a degraded worker (recompiled against its blacklist)
    degraded: bool = False

"""Deadline-aware dynamic batching.

The TSP's deterministic execution makes batching purely a host-side
scheduling question: a compiled program for batch ``B`` always takes the
same cycles, so the only tradeoff is queueing delay vs chip amortization.
:class:`DynamicBatcher` keeps one FIFO per model and releases a
:class:`~repro.serve.request.Batch` when it fills to the model's
``max_batch`` or when its oldest request has waited ``max_delay_s`` —
whichever comes first.  Workers block in :meth:`next_batch`; all state
lives under one condition variable, so a worker death can never strand
requests (close() drains every queue as final batches).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..errors import ServeError
from .request import Batch, BatchPolicy, InferenceRequest


class DynamicBatcher:
    """Per-model request queues with size- and deadline-triggered release."""

    def __init__(
        self,
        policies: dict[str, BatchPolicy] | None = None,
        default_policy: BatchPolicy | None = None,
        clock=time.monotonic,
    ) -> None:
        self._policies = dict(policies or {})
        self._default = default_policy or BatchPolicy()
        #: the serving clock: the pool and the server stamp with it too
        self.clock = clock
        self._queues: dict[str, deque[InferenceRequest]] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._next_batch_id = 0
        #: high-water mark of total queued requests (obs export)
        self.depth_high = 0
        #: batches released, by trigger kind
        self.released: dict[str, int] = {"full": 0, "deadline": 0, "drain": 0}

    def policy_for(self, model: str) -> BatchPolicy:
        return self._policies.get(model, self._default)

    @property
    def closed(self) -> bool:
        return self._closed

    def depth(self, model: str | None = None) -> int:
        with self._cond:
            if model is not None:
                q = self._queues.get(model)
                return len(q) if q else 0
            return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Enqueue one request; wakes any worker waiting in next_batch."""
        with self._cond:
            if self._closed:
                raise ServeError("batcher is closed; request rejected")
            self._queues.setdefault(request.model, deque()).append(request)
            total = sum(len(q) for q in self._queues.values())
            if total > self.depth_high:
                self.depth_high = total
            self._cond.notify_all()

    def requeue(self, request: InferenceRequest) -> None:
        """Put a retried request back at the *front* of its model queue.

        Retries have already waited a full queue pass plus a failed
        execution, so they re-enter at the head — FIFO order among first
        attempts is preserved behind them, and a retried request cannot
        be starved by fresh arrivals while its deadline burns down.
        """
        with self._cond:
            if self._closed:
                raise ServeError("batcher is closed; retry rejected")
            self._queues.setdefault(request.model, deque()).appendleft(
                request
            )
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; queued work drains as final batches."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abort(self) -> list[InferenceRequest]:
        """Close *and* evict everything still queued, returning it.

        The fail-fast shutdown path: :meth:`close` lets queued work drain
        as final batches, which is right for a graceful stop but wrong
        for teardown — requests would keep a dying server's chips busy.
        The caller owns failing the returned requests' futures.
        """
        with self._cond:
            self._closed = True
            evicted: list[InferenceRequest] = []
            for q in self._queues.values():
                evicted.extend(q)
                q.clear()
            self._cond.notify_all()
        return evicted

    def shed_victim(
        self, priority: int, slack_s: float, now: float
    ) -> InferenceRequest | None:
        """Pop the queued request least worth serving, if any is *less*
        worth serving than a ``(priority, slack_s)`` candidate.

        Shedding order: lowest priority first; within a priority, the
        most deadline-hopeless (smallest remaining slack) first.  Returns
        the evicted request, or None when every queued request is at
        least as valuable as the candidate — in which case admission
        control should shed the candidate itself.
        """
        with self._cond:
            worst = None
            worst_key = None
            worst_queue = None
            for q in self._queues.values():
                for request in q:
                    key = (request.priority, request.slack_s(now))
                    if worst_key is None or key < worst_key:
                        worst, worst_key, worst_queue = request, key, q
            if worst is None or worst_key >= (priority, slack_s):
                return None
            worst_queue.remove(worst)
            return worst

    # ------------------------------------------------------------------
    def _pop_batch(
        self, model: str, q: deque, n: int, trigger: str
    ) -> Batch:
        requests = [q.popleft() for _ in range(min(n, len(q)))]
        batch = Batch(
            id=self._next_batch_id,
            model=model,
            requests=requests,
            trigger=trigger,
        )
        self._next_batch_id += 1
        self.released[trigger] += 1
        return batch

    def _ready_batch(self, now: float) -> Batch | None:
        """The next releasable batch under the caller-held lock.

        Deadline-expired queues release first, most overdue first — a
        model that just hit ``full`` must not starve one whose oldest
        request blew past its delay budget several wakeups ago (with the
        old first-releasable-in-dict-order scan, a hot model refilling to
        ``full`` could push a quiet model's overdue batch back forever).
        With no expired deadline, the first full queue releases; during
        drain the original in-order scan applies (every queue releases
        immediately anyway).
        """
        if not self._closed:
            overdue_model = None
            overdue_by = 0.0
            for model, q in self._queues.items():
                if not q:
                    continue
                policy = self.policy_for(model)
                overdue = (
                    now - q[0].timing.submitted_s - policy.max_delay_s
                )
                if overdue >= 0 and (
                    overdue_model is None or overdue > overdue_by
                ):
                    overdue_model, overdue_by = model, overdue
            if overdue_model is not None:
                q = self._queues[overdue_model]
                policy = self.policy_for(overdue_model)
                trigger = "full" if len(q) >= policy.max_batch \
                    else "deadline"
                return self._pop_batch(
                    overdue_model, q, policy.max_batch, trigger
                )
        for model, q in self._queues.items():
            if not q:
                continue
            policy = self.policy_for(model)
            if len(q) >= policy.max_batch:
                return self._pop_batch(model, q, policy.max_batch, "full")
            if self._closed:
                return self._pop_batch(model, q, policy.max_batch, "drain")
        return None

    def _next_deadline(self) -> float | None:
        """Earliest instant any queued batch becomes deadline-releasable."""
        deadline = None
        for model, q in self._queues.items():
            if not q:
                continue
            t = q[0].timing.submitted_s + self.policy_for(model).max_delay_s
            if deadline is None or t < deadline:
                deadline = t
        return deadline

    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Block until a batch is releasable; None when closed and drained.

        Safe for any number of concurrent workers: batches pop under the
        lock, so no request can be dispatched twice, and a ``timeout``
        (seconds) bounds the wait for callers that must stay responsive.
        """
        give_up = None if timeout is None else self.clock() + timeout
        with self._cond:
            while True:
                now = self.clock()
                batch = self._ready_batch(now)
                if batch is not None:
                    for request in batch.requests:
                        request.timing.dispatched_s = now
                    return batch
                if self._closed:
                    return None  # closed and fully drained
                wait = None
                deadline = self._next_deadline()
                if deadline is not None:
                    wait = max(deadline - now, 0.0)
                if give_up is not None:
                    remaining = give_up - now
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

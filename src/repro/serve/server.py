"""The inference server: batcher + program cache + chip pool, wired to obs.

:class:`InferenceServer` is the one object a caller needs: register
models, :meth:`submit` payloads (non-blocking, returns a
:class:`~repro.serve.request.ServeFuture`), or :meth:`run` a synchronous
convenience call.  Internally it owns a
:class:`~repro.serve.batcher.DynamicBatcher`, a content-addressed
:class:`~repro.serve.cache.ProgramCache`, and a
:class:`~repro.serve.pool.ChipPool` of simulated chips.

It keeps one set of books.  Every serving event is counted once, in one
:class:`~repro.obs.counters.CounterRegistry` (locked running totals and
high-water marks; no history, because a server lives for an unbounded
number of batches) — ``stats()["requests"]``, ``stats()["slo"]`` and the
metrics exporter are views of it — and, with ``tracing=True``, traced
once, as spans of one :class:`~repro.obs.rtrace.RequestTracer`.  A
terminal outcome is counted in one method, ``_finished``, called once per
request whoever ended it (a worker, admission control, ``close()``), so
``submitted == completed + failed + shed`` + queued + in a batch.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from ..config import ArchConfig
from ..errors import ServeError
from ..obs.counters import CounterRegistry
from ..obs.metrics import LatencyHistogram, SloTracker
from ..obs.rtrace import RequestTracer
from .batcher import DynamicBatcher
from .cache import ProgramCache
from .models import ServeModel
from .pool import ChipPool
from .request import (
    BatchOutcome,
    BatchPolicy,
    InferenceRequest,
    InferenceResult,
    RequestTiming,
    ServeFuture,
)
from .resilient import HealthPolicy, RetryPolicy, shed_limit


class InferenceServer:
    """Serve registered models on a pool of simulated TSP chips.

    Observability is bounded-memory end to end: latency accounting lives
    in log-bucketed :class:`~repro.obs.metrics.LatencyHistogram` s
    (O(buckets), not O(requests)), counters in a totals-only registry,
    and — with ``tracing=True`` — a
    :class:`~repro.obs.rtrace.RequestTracer` that connects every
    request's queue-wait / batch / cache / compile / execute / transfer /
    respond phases into one span tree, in a drop-oldest ring of at most
    ``max_spans`` spans (evictions counted).  ``trace_chip_events=True``
    builds the pool's chips with ``trace=True``; a chip-anchored span
    keeps the dispatch events its chip traced, on whichever route (a
    simulation or a replay) the run took.
    """

    def __init__(
        self,
        config: ArchConfig,
        models: list[ServeModel],
        n_workers: int = 2,
        n_chips: int = 1,
        cache_capacity: int = 64,
        policies: dict[str, BatchPolicy] | None = None,
        default_policy: BatchPolicy | None = None,
        max_spans: int = 4096,
        tracing: bool = False,
        trace_chip_events: bool = False,
        slos: dict[str, float] | None = None,
        n_spares: int = 0,
        retry: RetryPolicy | None = None,
        health_policy: HealthPolicy | None = None,
        shed_factor: int = 4,
    ) -> None:
        if not models:
            raise ServeError("an inference server needs at least one model")
        if max_spans < 1:
            raise ServeError("max_spans must be >= 1")
        self.config = config
        self.models = {m.name: m for m in models}
        if len(self.models) != len(models):
            raise ServeError("model names must be unique")
        self.batcher = DynamicBatcher(
            policies=policies, default_policy=default_policy
        )
        self.cache = ProgramCache(capacity=cache_capacity)
        self.registry = CounterRegistry(name="serve")
        self.max_spans = max_spans
        self.tracer: RequestTracer | None = (
            RequestTracer(max_spans=max_spans) if tracing else None
        )
        self.slo = SloTracker(targets=slos, registry=self.registry)
        if shed_factor < 1:
            raise ServeError("shed_factor must be >= 1")
        self.shed_factor = shed_factor
        self._lock = threading.Lock()
        self._next_request_id = 0
        #: model -> phase ("total" | "queue") -> bounded histogram
        self._histograms: dict[str, dict[str, LatencyHistogram]] = (
            defaultdict(lambda: defaultdict(LatencyHistogram))
        )
        # the one switch for chip events: a span keeps what its chip traced
        chip_kwargs = {"trace": True} if trace_chip_events else None
        self.pool = ChipPool(
            config,
            models,
            self.batcher,
            self.cache,
            n_workers=n_workers,
            n_chips=n_chips,
            chip_kwargs=chip_kwargs,
            on_outcome=self._observe,
            tracer=self.tracer,
            n_spares=n_spares,
            retry=retry,
            health_policy=health_policy,
            on_health=self._observe_health,
        )
        self._closed = False
        self.pool.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: float = 30.0) -> None:
        """Fail-fast shutdown: queued requests resolve, workers join.

        In-flight batches finish; everything still *queued* fails
        immediately with a ``shutdown``-outcome
        :class:`~repro.errors.RequestError` instead of keeping a dying
        server's chips busy — no caller ever hangs on a future the
        server will never run.  Parked (quarantined) workers and the
        repair loop are woken so they exit too.
        """
        if self._closed:
            return
        self._closed = True
        now = self.batcher.clock()
        for request in self.batcher.abort():
            request.finish(
                "shutdown", now, detail="dropped: server shutting down"
            )
        self.pool.shutdown()
        self.pool.join(timeout=timeout)

    # ------------------------------------------------------------------
    def histogram_snapshot(self) -> dict[str, dict[str, LatencyHistogram]]:
        """Consistent copies of every latency histogram (model x phase)."""
        with self._lock:
            return {
                model: {
                    phase: hist.copy() for phase, hist in phases.items()
                }
                for model, phases in self._histograms.items()
            }

    def _finished(self, request: InferenceRequest) -> None:
        """The one place a terminal outcome is counted: called by
        :meth:`~repro.serve.request.InferenceRequest.finish`, once per
        request, before its future resolves.  A request answered or
        failed on a chip has a latency to record and an SLO to be held
        to; one shed or dropped at shutdown has neither."""
        outcome, model = request.outcome, request.model
        if outcome == "shed":
            self.registry.count(f"serve:{model}", "requests_shed_capacity")
        elif outcome == "shutdown":
            self.registry.count("serve", "requests_shutdown")
        else:
            ok = outcome == "ok"
            self.registry.count(
                f"serve:{model}", "requests_ok" if ok else "requests_failed"
            )
            timing = request.timing
            with self._lock:
                phases = self._histograms[model]
                phases["total"].record(timing.total_s)
                phases["queue"].record(timing.queue_s)
            self.slo.observe(model, timing.total_s, ok=ok)

    def _observe(self, outcome: BatchOutcome) -> None:
        """Pool callback: fold one batch into the per-batch counters (its
        requests were counted as each ended; the requeued have not)."""
        model = outcome.batch.model
        unit = f"serve:{model}"
        reg = self.registry
        n = len(outcome.batch.requests)
        if outcome.requeued:
            reg.count(unit, "requests_retried", len(outcome.requeued))
        if outcome.degraded:
            reg.count(unit, "degraded_batches")
        reg.count(unit, "batches")
        reg.count(unit, f"trigger_{outcome.batch.trigger}")
        reg.count(unit, "batched_requests", n)
        reg.count(unit, "cache_hits", outcome.stats.cache_hits)
        reg.count(unit, "cache_misses", outcome.stats.cache_misses)
        reg.count(unit, "chip_cycles", outcome.stats.cycles)
        reg.count(unit, "compile_us", int(outcome.stats.compile_s * 1e6))
        reg.count(unit, "execute_us", int(outcome.stats.execute_s * 1e6))
        reg.mark_high("serve", "batch_size_high", n)
        reg.mark_high("serve", "queue_depth_high", self.batcher.depth_high)
        if self.tracer is not None:
            self._trace_requests(outcome)

    def _observe_health(self, event: dict) -> None:
        """Pool callback: count quarantine/repair/degraded transitions —
        the ``serve.health_<kind>`` counters and the tracer's healing
        spans are the one record of a chip's health."""
        self.registry.count("serve", f"health_{event['kind']}")

    def _trace_requests(self, outcome: BatchOutcome) -> None:
        """Record the spans whose ends are known only once the batch is
        over: how long it took to form, and each request's root +
        queue-wait, linked to the batch span the pool worker recorded
        (``args["batch_span"]``)."""
        tracer, batch = self.tracer, outcome.batch
        ids = {"batch_id": batch.id, "model": batch.model}
        started_us = tracer.us_of(outcome.started_s)
        tracer.record(
            "batch_form", outcome.worker,
            tracer.us_of(min(r.timing.submitted_s for r in batch.requests)),
            started_us, parent_id=outcome.span_id, **ids,
            args={"trigger": batch.trigger, "n": len(batch.requests)},
        )
        for request in batch.requests:
            timing = request.timing
            start_us = tracer.us_of(timing.submitted_s)
            root = tracer.record(
                "request", "requests", start_us,
                tracer.us_of(timing.completed_s or outcome.finished_s),
                request_id=request.id, **ids,
                args={
                    "batch_span": outcome.span_id,
                    "worker": outcome.worker,
                    "ok": outcome.ok,
                },
            )
            tracer.record(
                "queue_wait", "requests", start_us,
                tracer.us_of(timing.dispatched_s) if timing.dispatched_s
                else started_us,
                parent_id=root.id, request_id=request.id, **ids,
            )

    # ------------------------------------------------------------------
    def submit(
        self,
        model: str,
        payload: np.ndarray,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> ServeFuture:
        """Enqueue one request; returns a future to block on.

        ``deadline_s`` is a *relative* latency budget (absolute deadline
        = now + budget; defaults to the pool retry policy's
        ``default_deadline_s``): the retry machinery only re-enqueues a
        failed request while the budget has an estimated batch latency of
        slack, and admission control sheds the most deadline-hopeless,
        lowest-``priority`` requests first when quarantines shrink pool
        capacity.
        """
        served = self.models.get(model)
        if served is None:
            raise ServeError(
                f"unknown model {model!r}; registered: "
                f"{sorted(self.models)}"
            )
        payload = np.asarray(payload, dtype=np.float64)
        served.validate(payload)
        now = self.batcher.clock()
        budget = (
            deadline_s if deadline_s is not None
            else self.pool.retry.default_deadline_s
        )
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        request = InferenceRequest(
            id=request_id,
            model=model,
            payload=payload,
            timing=RequestTiming(submitted_s=now),
            deadline_s=None if budget is None else now + budget,
            priority=priority,
            on_finish=self._finished,
        )
        if not self._admit(request, now):
            raise request.future.error()
        # sample queue depth on every submit, not just at batch
        # completion — peaks between batches are exactly the interesting
        # ones for admission control
        self.registry.mark_high(
            "serve", "queue_depth_high", self.batcher.depth_high
        )
        return request.future

    def _admit(self, request: InferenceRequest, now: float) -> bool:
        """The submit edge: queue ``request``, or turn someone away.

        With the pool shrunk by quarantines and the queue at its cap
        (:func:`~repro.serve.resilient.shed_limit`), the least valuable
        request — lowest priority, then smallest deadline slack — is
        ``shed``: usually a queued one, whose place the newcomer takes.
        When the newcomer is worth least it is the one refused (False,
        its future already failed) — and a closing server has one
        answer for it, ``shutdown``, whether the closed batcher refused
        or the capacity its exiting workers took away.
        """
        pool, batcher = self.pool, self.batcher
        capacity, n_workers = pool.capacity(), len(pool.workers)
        limit = shed_limit(
            capacity, n_workers,
            self.shed_factor * batcher.policy_for(request.model).max_batch,
        )
        victim = shed = None
        if limit is not None and batcher.depth() >= limit:
            shed = f"shed: pool capacity {capacity}/{n_workers}, " \
                f"queue over {limit} requests"
            victim = batcher.shed_victim(
                request.priority, request.slack_s(now), now
            ) or request
        queued = victim is not request
        if queued:
            if victim is not None:
                self._refuse(victim, "shed", now, shed)
            try:
                batcher.submit(request)
            except ServeError:  # closed under us
                queued = False
        if not queued and batcher.closed:
            self._refuse(
                request, "shutdown", now, "rejected: server shutting down"
            )
        elif not queued:
            self._refuse(request, "shed", now, shed)
        return queued

    def _refuse(self, request, outcome: str, now: float, detail: str) -> None:
        self.slo.shed(request.model)
        request.finish(outcome, now, detail=detail)

    def run(
        self, model: str, payload: np.ndarray, timeout: float = 60.0
    ) -> InferenceResult:
        """Submit one request and block for its result."""
        return self.submit(model, payload).result(timeout=timeout)

    def sequential_reference(
        self, model: str, payload: np.ndarray
    ) -> np.ndarray:
        """The unbatched, uncached, fresh-chip oracle for one payload."""
        served = self.models.get(model)
        if served is None:
            raise ServeError(f"unknown model {model!r}")
        return served.run_reference(np.asarray(payload, dtype=np.float64))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One JSON-able rollup: requests, latency quantiles, cache, pool.

        ``requests`` and ``slo`` are views of the counter registry and
        ``spans`` of the tracer — nothing here is a tally of its own.
        Latency quantiles come from the bounded histograms — upper
        bounds within ``1/sub_buckets`` of exact — so a long-running
        server's stats cost never grows with traffic.
        """
        # the registry first: a request is numbered before anything about
        # it is counted, so finished <= submitted holds in every image
        totals = self.registry.totals()
        with self._lock:
            latency = {
                model: {
                    **phases["total"].stats_ms(),
                    "queue_p99_ms": round(
                        phases["queue"].quantile(0.99) * 1e3, 3
                    ),
                }
                for model, phases in self._histograms.items()
            }
            submitted = self._next_request_id

        def served(counter: str) -> int:
            return sum(
                counters.get(counter, 0)
                for unit, counters in totals.items()
                if unit.startswith("serve:")
            )

        tracing = self.tracer.snapshot() if self.tracer is not None else None
        return {
            "requests": {
                "submitted": submitted,
                "completed": served("requests_ok"),
                "failed": served("requests_failed")
                + totals.get("serve", {}).get("requests_shutdown", 0),
                "retried": served("requests_retried"),
                "shed": served("requests_shed_capacity"),
            },
            "latency": latency,
            "slo": self.slo.snapshot(),
            "spans": tracing or {
                "recorded": 0, "dropped": 0, "max_spans": self.max_spans,
            },
            "tracing": tracing,
            "cache": self.cache.snapshot(),
            "batcher": {
                "released": dict(self.batcher.released),
                "depth_high": self.batcher.depth_high,
            },
            "pool": {
                "workers": len(self.pool.workers),
                "alive": self.pool.alive,
                "capacity": self.pool.capacity(),
                "quarantined": len(self.pool.active_quarantined),
                "quarantines_total": len(self.pool.quarantined),
                "repaired": self.pool.repaired_count,
                "spares": self.pool.n_spares,
                "states": {
                    w.name: w.state for w in self.pool.workers
                },
                "batches_run": sum(
                    w.batches_run for w in self.pool.workers
                ),
                "batches_failed": sum(
                    w.batches_failed for w in self.pool.workers
                ),
            },
        }

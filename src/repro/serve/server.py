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
once, as spans of one :class:`~repro.obs.rtrace.RequestTracer`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..config import ArchConfig
from ..errors import RequestError, ServeError
from ..obs.counters import CounterRegistry
from ..obs.metrics import LatencyHistogram, SloTracker
from ..obs.rtrace import RequestTracer
from .batcher import DynamicBatcher
from .cache import ProgramCache
from .models import ServeModel
from .pool import BatchOutcome, ChipPool
from .request import (
    BatchPolicy,
    InferenceRequest,
    InferenceResult,
    RequestTiming,
    ServeFuture,
)
from .resilient import HealthPolicy, RetryPolicy


class InferenceServer:
    """Serve registered models on a pool of simulated TSP chips.

    Observability is bounded-memory end to end: latency accounting lives
    in log-bucketed :class:`~repro.obs.metrics.LatencyHistogram` s
    (O(buckets), not O(requests)), counters in a totals-only registry,
    and — with ``tracing=True`` — a
    :class:`~repro.obs.rtrace.RequestTracer` that connects every
    request's queue-wait / batch / cache / compile / execute / transfer /
    respond phases into one span tree, in a drop-oldest ring of at most
    ``max_spans`` spans (evictions counted).
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
        slo_default_s: float | None = None,
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
            RequestTracer(max_spans=max_spans, chip_events=trace_chip_events)
            if tracing else None
        )
        self.slo = SloTracker(
            targets=slos,
            default_target_s=slo_default_s,
            registry=self.registry,
        )
        if shed_factor < 1:
            raise ServeError("shed_factor must be >= 1")
        self.shed_factor = shed_factor
        self._lock = threading.Lock()
        self._next_request_id = 0
        #: recent pool health events (quarantine/repair/degraded/retired)
        self.health_events: deque[dict] = deque(maxlen=256)
        #: model -> phase ("total" | "queue") -> bounded histogram
        self._histograms: dict[str, dict[str, LatencyHistogram]] = {}
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
        aborted = self.batcher.abort()
        now = time.monotonic()
        for request in aborted:
            request.timing.completed_s = now
            request.future.set_error(
                RequestError(
                    f"request {request.id} ({request.model}) dropped: "
                    "server shutting down",
                    outcome="shutdown",
                    attempt=request.attempt,
                )
            )
        if aborted:
            self.registry.count("serve", "requests_shutdown", len(aborted))
        self.pool.shutdown()
        self.pool.join(timeout=timeout)

    # ------------------------------------------------------------------
    def _histogram(self, model: str, phase: str) -> LatencyHistogram:
        phases = self._histograms.setdefault(model, {})
        hist = phases.get(phase)
        if hist is None:
            hist = phases[phase] = LatencyHistogram()
        return hist

    def histogram_snapshot(self) -> dict[str, dict[str, LatencyHistogram]]:
        """Consistent copies of every latency histogram (model x phase)."""
        with self._lock:
            return {
                model: {
                    phase: hist.copy() for phase, hist in phases.items()
                }
                for model, phases in self._histograms.items()
            }

    def _observe(self, outcome: BatchOutcome) -> None:
        """Pool callback: fold one batch into counters and histograms."""
        model = outcome.batch.model
        unit = f"serve:{model}"
        reg = self.registry
        n = len(outcome.batch.requests)
        requeued_ids = {r.id for r in outcome.requeued}
        # requests re-enqueued for retry are neither completed nor
        # failed — they come back through a later batch's outcome
        final = [
            r for r in outcome.batch.requests if r.id not in requeued_ids
        ]
        if outcome.ok:
            reg.count(unit, "requests_ok", n)
        else:
            if requeued_ids:
                reg.count(unit, "requests_retried", len(requeued_ids))
            if final:
                reg.count(unit, "requests_failed", len(final))
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
        with self._lock:
            total_hist = self._histogram(model, "total")
            queue_hist = self._histogram(model, "queue")
            for request in final:
                total_hist.record(request.timing.total_s)
                queue_hist.record(request.timing.queue_s)
        for request in final:
            self.slo.observe(model, request.timing.total_s, ok=outcome.ok)
        if self.tracer is not None:
            self._trace_requests(outcome)

    def _observe_health(self, event: dict) -> None:
        """Pool callback: count quarantine/repair/degraded transitions."""
        self.registry.count("serve", f"health_{event['kind']}")
        self.health_events.append(dict(event))

    def _trace_requests(self, outcome: BatchOutcome) -> None:
        """Record each request's root + queue-wait spans, linked to the
        batch span the pool worker recorded (``args["batch_span"]``)."""
        tracer = self.tracer
        for request in outcome.batch.requests:
            start_us = tracer.us_of(request.timing.submitted_s)
            end_us = tracer.us_of(
                request.timing.completed_s or outcome.finished_s
            )
            root = tracer.record(
                "request",
                "requests",
                start_us,
                end_us,
                request_id=request.id,
                batch_id=outcome.batch.id,
                model=outcome.batch.model,
                args={
                    "batch_span": outcome.span_id,
                    "worker": outcome.worker,
                    "ok": outcome.ok,
                },
            )
            dispatched_s = (
                request.timing.dispatched_s or outcome.started_s
            )
            tracer.record(
                "queue_wait",
                "requests",
                start_us,
                tracer.us_of(dispatched_s),
                parent_id=root.id,
                request_id=request.id,
                batch_id=outcome.batch.id,
                model=outcome.batch.model,
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
        now = time.monotonic()
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
        )
        self._admit(request, now)
        try:
            self.batcher.submit(request)
        except ServeError:
            # rejected before entering the queue — an SLO shed
            self.slo.shed(model)
            raise
        # sample queue depth on every submit, not just at batch
        # completion — peaks between batches are exactly the interesting
        # ones for admission control
        self.registry.mark_high(
            "serve", "queue_depth_high", self.batcher.depth_high
        )
        return request.future

    def _admit(self, request: InferenceRequest, now: float) -> None:
        """Capacity-aware admission control at the submit edge.

        At full capacity every request queues.  When quarantines shrink
        the pool, the queue is capped at ``shed_factor`` batches per
        surviving worker; past that, the least valuable request — lowest
        priority, then smallest deadline slack — is shed with a distinct
        ``shed`` outcome.  That victim is usually an already-queued
        request (its future fails immediately); when the newcomer itself
        is the least valuable, :meth:`submit` raises instead.
        """
        capacity = self.pool.capacity()
        if capacity >= len(self.pool.workers):
            return
        policy = self.batcher.policy_for(request.model)
        limit = self.shed_factor * capacity * policy.max_batch
        if self.batcher.depth() < limit:
            return
        victim = self.batcher.shed_victim(
            request.priority, request.slack_s(now), now
        )
        if victim is None:
            victim = request
        self.registry.count(f"serve:{victim.model}", "requests_shed_capacity")
        self.slo.shed(victim.model)
        error = RequestError(
            f"request {victim.id} ({victim.model}) shed: pool capacity "
            f"{capacity}/{len(self.pool.workers)}, queue over "
            f"{limit} requests",
            outcome="shed",
            attempt=victim.attempt,
        )
        if victim is request:
            raise error
        victim.timing.completed_s = now
        victim.future.set_error(error)

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

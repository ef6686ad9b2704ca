"""A self-healing worker pool of simulated TSP chips.

Each worker thread owns one :class:`~repro.sim.chip.TspChip` — or, when
the pool is sized with ``n_chips > 1``, a whole
:meth:`~repro.sim.MultiChipSystem.ring` for pipeline-sharded models —
and loops: pull a batch from the
:class:`~repro.serve.batcher.DynamicBatcher`, check the hardware out (a
full :meth:`~repro.sim.chip.TspChip.scrub` of every chip, so no tenant's
SRAM, trace, telemetry, or armed watchdog leaks between requests),
execute the batch through the model adapter and the compiled-program
cache, and resolve every request's future.

Failure containment is now a closed loop, not just isolation:

* **Retry with deadline budget** — a retryable (hardware) failure
  re-enqueues the batch's requests at the queue head with a bumped
  attempt counter, as long as each request's deadline still has one
  estimated batch latency of slack; otherwise the request dies with a
  distinct ``retryable_exhausted`` :class:`~repro.errors.RequestError`
  carrying chip/cycle/attempt context.
* **Quarantine and repair** — workers poll a
  :class:`~repro.resil.HealthMonitor` between batches (ECC corrections,
  FEC/retry counters, verdicts) and strike on transient failures;
  over-threshold hardware moves to a quarantine set, the worker swaps in
  a spare or parks, and a background repair loop (scrub + N clean probe
  sweeps) returns hardware to service.
* **Degraded-mode serving** — a failure localizable to a
  :class:`~repro.resil.Blacklist` (dead MEM slice, dead MXM plane, dark
  ring cable) keeps the chip serving: the worker recompiles every model
  through the blacklist-aware program cache and periodically re-probes
  the dead resource, un-degrading when it recovers.

Futures are resolved on every path, so a caller can never deadlock on a
dead batch, and the batcher queue keeps draining.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..config import ArchConfig
from ..errors import RequestError, ServeError, TspError
from ..nn.tsp_inference import ChunkRunStats
from ..obs import rtrace
from ..resil.degrade import Blacklist, blacklist_from_fault
from ..resil.health import HealthMonitor
from ..sim.chip import TspChip
from ..sim.multichip import MultiChipSystem
from .batcher import DynamicBatcher
from .cache import ProgramCache
from .models import ServeModel
from .request import Batch, InferenceRequest, InferenceResult
from .resilient import (
    HealthPolicy,
    LatencyEstimator,
    QuarantineRecord,
    RetryPolicy,
    blacklist_recovered,
    chip_index_of,
    diagnose,
    merge_blacklists,
    probe_memory,
)


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
    #: ring index of the chip a failure was localized to (None unknown)
    chip_index: int | None = None
    #: requests re-enqueued for retry instead of failed — the server must
    #: count these as retries, not completions or failures
    requeued: list = field(default_factory=list)
    #: served by a degraded worker (recompiled against its blacklist)
    degraded: bool = False


class PoolWorker(threading.Thread):
    """One chip-owning worker thread with a health state machine.

    ``state`` walks ``healthy -> degraded`` (localizable fault — keeps
    serving, recompiled) or ``healthy -> quarantined`` (transient strikes
    or a failed health poll — swaps in a spare or parks until repair
    hands hardware back).
    """

    def __init__(self, pool: "ChipPool", index: int) -> None:
        super().__init__(name=f"tsp-serve-worker{index}", daemon=True)
        self.pool = pool
        self.index = index
        self.system, self.chip = pool._build_hardware(f"pool{index}")
        self.batches_run = 0
        self.batches_failed = 0
        #: "healthy" | "degraded" | "quarantined"
        self.state = "healthy"
        #: consecutive transient failures since the last clean batch
        self.strikes = 0
        #: resources this worker's programs are recompiled around
        self.blacklist: Blacklist | None = None
        #: successful degraded batches since the last blacklist re-probe
        self._degraded_ok = 0
        #: unexpected exception that killed the worker thread, if any
        self.failure: BaseException | None = None
        self._exited = False
        #: one-shot checkout hooks (fault injection, test instrumentation)
        self._checkout_hooks: list = []
        self._hook_lock = threading.Lock()

    @property
    def hardware(self):
        """The system (multi-chip) or chip (single-chip) this worker owns."""
        return self.system if self.system is not None else self.chip

    def _install(self, system, chip, blacklist: Blacklist | None) -> None:
        """Swap in replacement hardware (a spare, or repaired hardware)."""
        self.system = system
        self.chip = chip
        self.blacklist = blacklist
        self._degraded_ok = 0
        self.strikes = 0

    # ------------------------------------------------------------------
    def inject_at_checkout(self, hook) -> None:
        """Run ``hook(chip_or_system)`` at the next checkout, once.

        The deterministic way to aim a fault at a pooled chip: the hook
        runs after the scrub, immediately before the batch executes — how
        the resilience negative tests arm watchdogs and inject faults
        without racing the worker loop.  Single-chip workers pass their
        :class:`TspChip`; multi-chip workers pass the whole
        :class:`~repro.sim.MultiChipSystem` so a hook can target any
        chip or link of the ring.  For faults that must *persist* across
        checkouts (and follow the hardware through quarantine and spare
        swaps), see :meth:`ChipPool.attach_hardware_fault`.
        """
        with self._hook_lock:
            self._checkout_hooks.append(hook)

    def _scrub(self) -> None:
        """Factory-reset the worker's hardware between tenants.

        Across a whole system, scrub also detaches injected link error
        models: :meth:`~repro.sim.c2c.C2cUnit.scrub` keeps them (channel
        configuration on a fixed deployment), but a pooled ring is
        re-tenanted per batch — a dead link injected against one batch
        must not poison the next tenant's transfers.
        """
        ChipPool.scrub_hardware(self.hardware)

    def _checkout(self) -> None:
        self._scrub()
        with self._hook_lock:
            hooks, self._checkout_hooks = self._checkout_hooks, []
        target = self.hardware
        hooks.extend(self.pool._faults_for(target))
        for hook in hooks:
            hook(target)
        if hooks:
            # a fault hook may perturb state the replay pristine check
            # cannot see (direct storage writes, armed timers) — force
            # real simulation for this checkout.  The next scrub clears
            # the flag along with the fault.
            for chip in getattr(target, "chips", [target]):
                chip.external_fault_hooks = True

    # ------------------------------------------------------------------
    def _health_flagged(self) -> str | None:
        """Poll the health monitor over the last batch's live counters.

        Runs between batches, *before* the next checkout scrubs the
        counters away — so the CSR corrections and link FEC/retry tallies
        it reads belong to the most recent tenant.  Returns a reason
        string when the hardware should be quarantined.
        """
        monitor = self.pool.health
        if monitor is None:
            return None
        threshold = self.pool.health_policy.wearout_threshold
        chips = (
            self.system.chips if self.system is not None else [self.chip]
        )
        for chip in chips:
            report = monitor.poll(chip)
            if report.verdict == "failed":
                return f"{chip.chip_id}: health verdict failed"
            if report.ecc_corrections >= threshold:
                return (
                    f"{chip.chip_id}: {report.ecc_corrections} ECC "
                    f"corrections >= wearout threshold {threshold}"
                )
            link_trouble = sum(
                lh.corrected + lh.retries for lh in report.links
            )
            if link_trouble >= threshold:
                return (
                    f"{chip.chip_id}: {link_trouble} link FEC "
                    f"corrections/retries >= threshold {threshold}"
                )
        return None

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            while True:
                if self.state == "quarantined":
                    if not self.pool._park(self):
                        return
                    continue
                reason = self._health_flagged()
                if reason is not None:
                    self.pool.quarantine(self, reason=reason)
                    continue
                batch = self.pool.batcher.next_batch()
                if batch is None:
                    return
                self.pool.execute_batch(self, batch)
        except BaseException as failure:  # noqa: BLE001 — surfaced by join
            self.failure = failure
        finally:
            self._exited = True

    def execute(self, batch: Batch) -> BatchOutcome:
        """Check out the chip, run one batch, resolve its futures.

        With a tracer attached, the worker opens one batch-scoped
        :class:`~repro.obs.rtrace.TraceContext` and installs it as the
        ambient context for the duration of the run — the cache, the
        chunk executor, and the ring-transfer path record their
        cache / compile / execute / stage / transfer child spans against
        it without any signature change.
        """
        outcome = BatchOutcome(
            batch=batch, worker=self.name, ok=False,
            started_s=time.monotonic(),
            attempt=max((r.attempt for r in batch.requests), default=0),
        )
        tracer = self.pool.tracer
        ctx = token = None
        if tracer is not None:
            outcome.span_id = tracer.next_id()
            ctx = rtrace.TraceContext(
                tracer=tracer,
                span_id=outcome.span_id,
                batch_id=batch.id,
                model=batch.model,
                worker=self.name,
            )
            token = rtrace.push(ctx)
            start_us = tracer.us_of(outcome.started_s)
            oldest_us = tracer.us_of(
                min(r.timing.submitted_s for r in batch.requests)
            )
            tracer.record_under(
                ctx, "batch_form", oldest_us, start_us,
                args={"trigger": batch.trigger, "n": len(batch.requests)},
            )
        try:
            outputs = self._run_traced(batch, outcome, tracer, ctx)
        except BaseException as error:  # resolve futures on every path
            outcome.error = error
            outcome.finished_s = time.monotonic()
            self.batches_failed += 1
            diag = self.pool.handle_failure(self, batch, outcome, error)
            transition = self.pool.apply_diagnosis(self, diag, error)
            # faulted hardware may hold arbitrary state; scrub now so the
            # worker is immediately serviceable for the next batch
            try:
                self._scrub()
            except Exception:
                pass
            if tracer is not None:
                end_us = tracer.now_us()
                fail_us = tracer.us_of(outcome.finished_s)
                if outcome.requeued:
                    tracer.record_under(
                        ctx, "retry", fail_us, end_us,
                        args={
                            "n": len(outcome.requeued),
                            "attempt": outcome.attempt + 1,
                            "chip_index": outcome.chip_index,
                        },
                    )
                if transition is not None:
                    tracer.record_under(
                        ctx, transition, fail_us, end_us,
                        args={"reason": diag.reason},
                    )
            self._finish_trace(outcome, tracer, token)
            return outcome
        outcome.ok = True
        n = len(batch.requests)
        respond_start = time.monotonic()
        outcome.finished_s = respond_start
        self.batches_run += 1
        self.strikes = 0
        self.pool.latency.observe(
            batch.model, outcome.finished_s - outcome.started_s
        )
        for request in batch.requests:
            request.timing.completed_s = outcome.finished_s
            request.timing.compile_s = outcome.stats.compile_s / n
            request.timing.execute_s = outcome.stats.execute_s / n
        for request, output in zip(batch.requests, outputs):
            request.future.set_result(
                InferenceResult(
                    request_id=request.id,
                    model=batch.model,
                    output=output,
                    timing=request.timing,
                    batch_id=batch.id,
                    batch_size=n,
                    worker=self.name,
                    cycles=outcome.stats.cycles,
                    cache_hits=outcome.stats.cache_hits,
                    cache_misses=outcome.stats.cache_misses,
                )
            )
        if tracer is not None:
            tracer.record_under(
                ctx, "respond",
                tracer.us_of(respond_start), tracer.now_us(),
                args={"n": n},
            )
        self._finish_trace(outcome, tracer, token)
        self._maybe_recover(outcome)
        return outcome

    def _maybe_recover(self, outcome: BatchOutcome) -> None:
        """Degraded worker: periodically re-probe the blacklisted
        hardware; a recovered resource returns the worker to healthy."""
        if not outcome.degraded or self.blacklist is None:
            return
        self._degraded_ok += 1
        if self._degraded_ok < self.pool.health_policy.recheck_after:
            return
        self._degraded_ok = 0
        if blacklist_recovered(self.hardware, self.blacklist):
            self.blacklist = None
            self.state = "healthy"
            self.pool._emit("degraded_exit", worker=self.name)

    def _run_traced(self, batch, outcome, tracer, ctx):
        """Checkout + model run, with checkout timed when tracing."""
        if tracer is not None:
            t0 = tracer.now_us()
            self._checkout()
            tracer.record_under(ctx, "checkout", t0, tracer.now_us())
        else:
            self._checkout()
        model = self.pool.model(batch.model)
        payloads = [r.payload for r in batch.requests]
        target = (
            self.system
            if self.system is not None
            and getattr(model, "n_chips", 1) > 1
            else self.chip
        )
        blacklist = self.blacklist
        if blacklist:
            # degraded serving: recompile through the blacklist-aware
            # cache (the blacklist is part of graph_fingerprint, so
            # healthy and degraded binaries coexist).  Passed only when
            # non-empty — custom adapters without the kwarg keep working
            # on healthy hardware.
            outcome.degraded = True
            outputs = model.run_batch(
                target, self.pool.cache, payloads, stats=outcome.stats,
                blacklist=blacklist,
            )
        else:
            outputs = model.run_batch(
                target, self.pool.cache, payloads, stats=outcome.stats
            )
        if len(outputs) != len(batch.requests):
            raise TspError(
                f"model {batch.model!r} returned {len(outputs)} "
                f"outputs for {len(batch.requests)} requests"
            )
        return outputs

    def _finish_trace(self, outcome, tracer, token) -> None:
        """Record the enclosing batch span and drop the ambient context."""
        if tracer is None:
            return
        rtrace.pop(token)
        batch = outcome.batch
        tracer.record(
            f"batch {batch.model}#{batch.id}",
            self.name,
            tracer.us_of(outcome.started_s),
            tracer.us_of(outcome.finished_s),
            span_id=outcome.span_id,
            batch_id=batch.id,
            model=batch.model,
            args={
                "trigger": batch.trigger,
                "ok": outcome.ok,
                "requests": [r.id for r in batch.requests],
                "cycles": outcome.stats.cycles,
                "attempt": outcome.attempt,
                "degraded": outcome.degraded,
            },
        )


class ChipPool:
    """N simulated chips draining one dynamic batcher, self-healing."""

    def __init__(
        self,
        config: ArchConfig,
        models: list[ServeModel],
        batcher: DynamicBatcher,
        cache: ProgramCache,
        n_workers: int = 2,
        n_chips: int = 1,
        chip_kwargs: dict | None = None,
        on_outcome=None,
        tracer=None,
        n_spares: int = 0,
        retry: RetryPolicy | None = None,
        health_policy: HealthPolicy | None = None,
        health: HealthMonitor | None = None,
        on_health=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a pool needs at least one worker")
        if n_chips < 1:
            raise ValueError("a worker needs at least one chip")
        if n_spares < 0:
            raise ValueError("n_spares must be >= 0")
        self.config = config
        self.batcher = batcher
        self.cache = cache
        self.n_chips = n_chips
        self.chip_kwargs = dict(chip_kwargs or {})
        #: optional RequestTracer workers record batch-scoped spans into
        self.tracer = tracer
        self.retry = retry or RetryPolicy()
        self.health_policy = health_policy or HealthPolicy()
        self.health = health if health is not None else HealthMonitor(
            wearout_threshold=self.health_policy.wearout_threshold
        )
        self.latency = LatencyEstimator()
        self._models = {m.name: m for m in models}
        for m in models:
            if getattr(m, "n_chips", 1) > n_chips:
                raise ServeError(
                    f"model {m.name!r} needs {m.n_chips} chips per batch "
                    f"but each pool worker owns only {n_chips}"
                )
        #: observer called with every BatchOutcome (the server's obs hook)
        self.on_outcome = on_outcome
        #: observer called with health events: quarantine, repair,
        #: degraded_enter, degraded_exit, retired
        self.on_health = on_health
        self._cond = threading.Condition()
        self._closing = False
        #: every quarantine ever taken (active + repaired), in order
        self.quarantined: list[QuarantineRecord] = []
        self.repaired_count = 0
        self._repair_queue: deque[QuarantineRecord] = deque()
        self._repair_thread: threading.Thread | None = None
        #: persistent fault hooks keyed by name -> (hardware id, hook):
        #: applied at every checkout of *that* hardware, so a fault
        #: follows its chip through quarantine, repair, and spare swaps
        self._hardware_faults: dict[str, tuple[int, object]] = {}
        #: idle replacement hardware: (system, chip, blacklist) triples
        self._spares: list = [
            (*self._build_hardware(f"spare{i}"), None)
            for i in range(n_spares)
        ]
        self.workers = [PoolWorker(self, i) for i in range(n_workers)]
        self._started = False

    def _build_hardware(self, tag: str):
        """One worker's (or spare's) hardware: a ring or a single chip."""
        if self.n_chips > 1:
            system = MultiChipSystem.ring(
                self.config, self.n_chips, **self.chip_kwargs
            )
            for c, chip in enumerate(system.chips):
                chip.chip_id = f"{tag}.c{c}"
            return system, system.chips[0]
        return None, TspChip(
            self.config, chip_id=tag, **self.chip_kwargs
        )

    @staticmethod
    def scrub_hardware(hardware) -> None:
        """Factory-reset a chip or a whole system for the next tenant."""
        if hasattr(hardware, "chips"):
            hardware.scrub()
            hardware.clear_error_models()
        else:
            hardware.scrub()

    def model(self, name: str) -> ServeModel:
        try:
            return self._models[name]
        except KeyError:
            raise TspError(f"no model {name!r} registered with the pool")

    # ------------------------------------------------------------------
    # persistent fault injection (chaos campaigns)
    # ------------------------------------------------------------------
    def attach_hardware_fault(self, hardware, name: str, hook) -> None:
        """Re-apply ``hook(hardware)`` at every checkout of ``hardware``.

        Unlike :meth:`PoolWorker.inject_at_checkout` (one-shot, bound to
        the worker), a hardware fault is keyed to the physical chip or
        system: it follows the hardware into quarantine and back, and a
        spare swapped in for it starts clean — exactly the semantics a
        chaos campaign needs for a fault window.
        """
        with self._cond:
            self._hardware_faults[name] = (id(hardware), hook)

    def detach_hardware_fault(self, name: str) -> None:
        """End a fault window started by :meth:`attach_hardware_fault`."""
        with self._cond:
            self._hardware_faults.pop(name, None)

    def _faults_for(self, hardware) -> list:
        with self._cond:
            return [
                hook
                for hid, hook in self._hardware_faults.values()
                if hid == id(hardware)
            ]

    # ------------------------------------------------------------------
    # failure handling: retry, diagnosis, quarantine, repair
    # ------------------------------------------------------------------
    def handle_failure(
        self,
        worker: PoolWorker,
        batch: Batch,
        outcome: BatchOutcome,
        error: BaseException,
    ):
        """Resolve every request of a failed batch: requeue or fail.

        Retryable (hardware) failures re-enqueue requests with budget
        left; the rest die with a :class:`~repro.errors.RequestError`
        whose ``outcome``/``attempt``/``chip_index`` make the failure
        attributable, chained to the original fault via ``__cause__``.
        Returns the :class:`~repro.serve.resilient.Diagnosis`.
        """
        now = time.monotonic()
        diag = diagnose(error, n_chips=self.n_chips)
        outcome.chip_index = (
            diag.chip_index
            if diag.chip_index is not None
            else chip_index_of(error)
        )
        if isinstance(error, TspError):
            error.with_context(chip=getattr(worker.chip, "chip_id", None))
        retryable = diag.kind != "software"
        estimate = self.latency.estimate(batch.model)
        requeued: list[InferenceRequest] = []
        for request in batch.requests:
            kind = None
            if not retryable:
                kind = "failed"
            elif (
                request.attempt + 1 >= self.retry.max_attempts
                or request.slack_s(now) < estimate
            ):
                kind = "retryable_exhausted"
            else:
                request.attempt += 1
                try:
                    self.batcher.requeue(request)
                except ServeError:
                    kind = "shutdown"
                else:
                    requeued.append(request)
                    continue
            terminal = RequestError(
                f"request {request.id} ({batch.model}) failed on attempt "
                f"{request.attempt} [{kind}]: {error}",
                outcome=kind,
                attempt=request.attempt,
                chip_index=outcome.chip_index,
                chip=getattr(error, "chip_id", None),
                cycle=getattr(error, "cycle", None),
                unit=getattr(error, "unit", None),
            )
            terminal.__cause__ = error
            request.timing.completed_s = now
            request.future.set_error(terminal)
        outcome.requeued = requeued
        return diag

    def apply_diagnosis(
        self, worker: PoolWorker, diag, error: BaseException
    ) -> str | None:
        """Walk the worker's health state machine after a failure.

        Returns the trace-span phase to record (``recompile_degraded``,
        ``quarantine``) or None when nothing changed.
        """
        if diag.kind == "degradable":
            merged = merge_blacklists(worker.blacklist, diag.blacklist)
            if merged != worker.blacklist or worker.state != "degraded":
                worker.blacklist = merged
                worker.state = "degraded"
                worker._degraded_ok = 0
                self._emit(
                    "degraded_enter",
                    worker=worker.name,
                    blacklist=merged.describe(),
                )
                return "recompile_degraded"
        elif diag.kind == "transient":
            worker.strikes += 1
            if worker.strikes >= self.health_policy.quarantine_after:
                self.quarantine(
                    worker, reason=f"{diag.reason}: {error}"
                )
                return "quarantine"
        return None

    def quarantine(
        self,
        worker: PoolWorker,
        reason: str,
        blacklist: Blacklist | None = None,
    ) -> QuarantineRecord:
        """Pull a worker's hardware from service; swap a spare or park."""
        with self._cond:
            record = QuarantineRecord(
                worker=worker.name,
                reason=reason,
                since_s=time.monotonic(),
                hardware=worker.hardware,
                blacklist=blacklist or worker.blacklist,
            )
            self.quarantined.append(record)
            self._repair_queue.append(record)
            swapped = bool(self._spares)
            if swapped:
                system, chip, spare_blacklist = self._spares.pop()
                worker._install(system, chip, spare_blacklist)
                worker.state = "degraded" if spare_blacklist else "healthy"
            else:
                worker.state = "quarantined"
                worker.strikes = 0
                worker.blacklist = None
            self._ensure_repair_thread()
            self._cond.notify_all()
        self._emit(
            "quarantine", worker=worker.name, reason=reason,
            swapped=swapped,
        )
        return record

    def _park(self, worker: PoolWorker) -> bool:
        """Block a hardware-less worker until repair re-arms it.

        Returns False when the pool shut down while the worker was still
        parked (the run loop exits).
        """
        with self._cond:
            while worker.state == "quarantined" and not self._closing:
                self._cond.wait(0.1)
            return worker.state != "quarantined"

    def _ensure_repair_thread(self) -> None:
        # caller holds self._cond
        if self._repair_thread is None or not self._repair_thread.is_alive():
            self._repair_thread = threading.Thread(
                target=self._repair_loop, name="tsp-serve-repair",
                daemon=True,
            )
            self._repair_thread.start()

    def _repair_loop(self) -> None:
        while True:
            with self._cond:
                while not self._repair_queue and not self._closing:
                    self._cond.wait(0.1)
                if self._closing:
                    return
                record = self._repair_queue.popleft()
            self._repair(record)

    def _repair(self, record: QuarantineRecord) -> None:
        """Scrub + N clean probe sweeps, then return hardware to service.

        A probe failure that localizes to a blacklist sends the hardware
        back as a *degraded* spare (served recompiled); an unlocalizable
        probe failure retires it — the quarantine record stays active.
        """
        hardware = record.hardware
        blacklist = record.blacklist
        tracer = self.tracer
        start_us = tracer.now_us() if tracer is not None else 0.0
        try:
            for _ in range(self.health_policy.probes_required):
                self.scrub_hardware(hardware)
                probe_memory(hardware, skip=blacklist)
                record.probes_passed += 1
        except Exception as error:
            localized = blacklist_from_fault(
                error,
                chip_index=chip_index_of(error) or 0,
                n_chips=self.n_chips,
            )
            if localized is None:
                record.reason += f"; retired, probe failed: {error}"
                self._emit("retired", worker=record.worker)
                return
            blacklist = merge_blacklists(blacklist, localized)
            record.blacklist = blacklist
        record.repaired_s = time.monotonic()
        with self._cond:
            self.repaired_count += 1
            chips = getattr(hardware, "chips", None)
            entry = (
                (hardware, chips[0], blacklist)
                if chips is not None
                else (None, hardware, blacklist)
            )
            parked = next(
                (
                    w for w in self.workers
                    if w.state == "quarantined" and not w._exited
                ),
                None,
            )
            if parked is not None:
                parked._install(*entry)
                parked.state = "degraded" if blacklist else "healthy"
            else:
                self._spares.append(entry)
            self._cond.notify_all()
        details = {
            "worker": record.worker,
            "degraded": bool(blacklist),
            "probes": record.probes_passed,
        }
        if tracer is not None:
            # the repair thread serves no batch: a root span, own track
            tracer.record(
                "repair", "health", start_us, tracer.now_us(), args=details
            )
        self._emit("repair", **details)

    def _emit(self, kind: str, **details) -> None:
        if self.on_health is not None:
            try:
                self.on_health({"kind": kind, **details})
            except Exception:
                pass  # observability must never kill a worker

    # ------------------------------------------------------------------
    def capacity(self) -> int:
        """Workers able to serve (healthy + degraded; parked excluded)."""
        return sum(
            1
            for w in self.workers
            if w.state != "quarantined" and not w._exited
        )

    @property
    def active_quarantined(self) -> list[QuarantineRecord]:
        return [r for r in self.quarantined if r.active]

    @property
    def n_spares(self) -> int:
        with self._cond:
            return len(self._spares)

    # ------------------------------------------------------------------
    def execute_batch(self, worker: PoolWorker, batch: Batch) -> None:
        outcome = worker.execute(batch)
        if self.on_outcome is not None:
            try:
                self.on_outcome(outcome)
            except Exception:
                pass  # observability must never kill a worker

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            for worker in self.workers:
                worker.start()

    def shutdown(self) -> None:
        """Wake parked workers and stop the repair loop for teardown."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()

    def join(self, timeout: float | None = None) -> None:
        """Wait for workers to exit (the batcher must be closed first).

        Dead workers are detected eagerly: a thread that died on an
        unexpected exception re-raises it here immediately instead of
        silently waiting out the full timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for worker in self.workers:
                if not worker.is_alive() and worker.failure is not None:
                    raise worker.failure
            alive = [w for w in self.workers if w.is_alive()]
            if not alive:
                break
            if deadline is not None and time.monotonic() >= deadline:
                return
            alive[0].join(0.05)
        repair = self._repair_thread
        if repair is not None and repair.is_alive():
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            repair.join(remaining if remaining is not None else 1.0)

    @property
    def alive(self) -> int:
        return sum(1 for w in self.workers if w.is_alive())

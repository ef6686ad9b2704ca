"""A self-healing worker pool of simulated TSP chips: the thread driver.

Each worker thread owns one :class:`~repro.serve.resilient.Hardware`
record — a :class:`~repro.sim.chip.TspChip`, or with ``n_chips > 1`` a
whole :meth:`~repro.sim.MultiChipSystem.ring` for pipeline-sharded models
— and loops: pull a batch from the
:class:`~repro.serve.batcher.DynamicBatcher`, check the hardware out (a
full scrub of every chip, so no tenant's SRAM, trace, telemetry, or armed
watchdog leaks between requests), execute the batch through the model
adapter and the compiled-program cache, and end every request of it
(:meth:`~repro.serve.request.InferenceRequest.finish`, the one place a
request ends — so no caller can hang on a dead batch).

What to do about a failure is decided in :mod:`repro.serve.resilient`, by
functions of values; this module reads the clock, holds the one
condition variable and performs the decision: requeue a request or end
it; degrade, strike or quarantine the hardware, swapping in a spare or
parking the worker; probe quarantined hardware back into service on the
repair thread, to a parked worker first; re-probe a degraded chip's dead
resources every so many clean batches.  Health travels with the
hardware record, so a worker's ``state`` is derived: no hardware is
``quarantined``, a blacklist is ``degraded``.
"""

from __future__ import annotations

import threading
from collections import deque

from ..config import ArchConfig
from ..errors import ServeError, TspError
from ..obs import rtrace
from ..obs.metrics import LatencyEstimator
from ..resil.degrade import Blacklist, blacklist_from_fault
from ..resil.health import HealthMonitor, blacklist_recovered, probe_memory
from ..sim.chip import TspChip
from ..sim.multichip import MultiChipSystem
from .batcher import DynamicBatcher
from .cache import ProgramCache
from .models import ServeModel
from .request import Batch, BatchOutcome, InferenceResult
from .resilient import (
    Hardware,
    HealthPolicy,
    QuarantineRecord,
    RetryPolicy,
    chip_index_of,
    diagnose,
    hardware_fate,
    health_flag,
    recheck_due,
    rehome,
    repair_verdict,
    request_fate,
)


class PoolWorker(threading.Thread):
    """One worker thread and the :class:`Hardware` it currently serves on
    (``hw`` — None while it is parked waiting for repair)."""

    def __init__(self, pool: "ChipPool", index: int) -> None:
        super().__init__(name=f"tsp-serve-worker{index}", daemon=True)
        self.pool = pool
        self.index = index
        self.hw: Hardware | None = pool._build_hardware(f"pool{index}")
        self.batches_run = 0
        self.batches_failed = 0
        #: unexpected exception that killed the worker thread, if any
        self.failure: BaseException | None = None
        self._exited = False

    @property
    def hardware(self):
        """The system (multi-chip) or chip (single-chip) this worker owns."""
        return self.hw.device if self.hw is not None else None

    @property
    def chip(self):
        return self.hw.chips[0] if self.hw is not None else None

    @property
    def blacklist(self) -> Blacklist | None:
        return self.hw.blacklist if self.hw is not None else None

    @blacklist.setter
    def blacklist(self, blacklist: Blacklist | None) -> None:
        self.hw.blacklist = blacklist

    @property
    def state(self) -> str:
        """``quarantined`` (parked, no hardware), ``degraded`` (serving
        around a blacklist) or ``healthy``."""
        if self.hw is None:
            return "quarantined"
        return "degraded" if self.hw.blacklist else "healthy"

    # ------------------------------------------------------------------
    def inject_at_checkout(self, hook) -> None:
        """Run ``hook(chip_or_system)`` at the next checkout, once.

        The deterministic way to aim a fault at a pooled chip: the hook
        runs after the scrub, immediately before the batch executes — how
        the resilience negative tests arm watchdogs and inject faults
        without racing the worker loop.  It is handed the worker's
        :class:`TspChip`, or its whole ring, so it can target any chip or
        link.  For faults that must *persist* across checkouts and follow
        the hardware, see :meth:`ChipPool.attach_hardware_fault`.
        """
        self.pool._add_fault(None, self, hook)

    def _checkout(self) -> None:
        self.hw.scrub()
        hooks = self.pool._faults_due(self)
        for hook in hooks:
            hook(self.hw.device)
        if hooks:
            # a fault hook may perturb state the replay pristine check
            # cannot see (direct storage writes, armed timers) — force
            # real simulation for this checkout.  The next scrub clears
            # the flag along with the fault.
            for chip in self.hw.chips:
                chip.external_fault_hooks = True

    def _health_flagged(self) -> str | None:
        """Poll the health monitor over the last batch's live counters.

        Runs between batches, *before* the next checkout scrubs the
        counters away — so the CSR corrections and link FEC/retry tallies
        it reads belong to the most recent tenant.  Returns a reason
        string when the hardware should be quarantined.
        """
        pool = self.pool
        for chip in self.hw.chips:
            reason = health_flag(pool.health.poll(chip), pool.health_policy)
            if reason is not None:
                return reason
        return None

    # ------------------------------------------------------------------
    def run(self) -> None:
        pool = self.pool
        try:
            while True:
                if self.hw is None:
                    # parked: wait for repair to hand hardware back
                    with pool._cond:
                        pool._cond.wait_for(
                            lambda: self.hw is not None or pool._closing
                        )
                    if self.hw is None:
                        return  # shut down while parked
                    continue
                reason = self._health_flagged()
                if reason is not None:
                    pool.quarantine(self, reason=reason)
                    continue
                batch = pool.batcher.next_batch()
                if batch is None:
                    return
                pool.execute_batch(self, batch)
        except BaseException as failure:  # noqa: BLE001 — surfaced by join
            self.failure = failure
        finally:
            with pool._cond:
                self._exited = True
                pool._cond.notify_all()

    def execute(self, batch: Batch) -> BatchOutcome:
        """Check out the chip, run one batch, end every request of it.

        Whatever goes wrong while running *or* answering is the batch's
        error: :meth:`_recover` requeues or ends its requests, and what
        an exception escaping *that* leaves unresolved fails with the
        same error on the way out.  The batch's root span is the ambient
        trace context of the run: cache, chunk executor and ring
        transfers record their spans under it with no signature change.
        """
        pool = self.pool
        outcome = BatchOutcome(
            batch=batch, worker=self.name, ok=False,
            started_s=pool.clock(),
            attempt=max((r.attempt for r in batch.requests), default=0),
        )
        with rtrace.root(
            pool.tracer, f"batch {batch.model}#{batch.id}", self.name,
            batch_id=batch.id, model=batch.model,
        ) as root:
            outcome.span_id = root.id if root else None
            try:
                self._respond(batch, outcome, self._run(batch, outcome))
            except BaseException as error:  # end requests on every path
                outcome.error = error
                self._recover(batch, outcome, error)
            finally:
                for request in batch.requests:
                    if request.outcome is None and (
                        request not in outcome.requeued
                    ):
                        request.finish(
                            "failed", pool.clock(), cause=outcome.error,
                            detail=f"failed on attempt {request.attempt}: "
                            f"{outcome.error}",
                        )
            if root:
                root.set(args=dict(
                    trigger=batch.trigger, ok=outcome.ok,
                    requests=[r.id for r in batch.requests],
                    cycles=outcome.stats.cycles, attempt=outcome.attempt,
                    degraded=outcome.degraded,
                ))
        return outcome

    def _run(self, batch: Batch, outcome: BatchOutcome) -> list:
        with rtrace.span("checkout"):
            self._checkout()
        model = self.pool.model(batch.model)
        # degraded serving: recompile through the blacklist-aware cache
        # (the blacklist is part of graph_fingerprint, so healthy and
        # degraded binaries coexist).  Passed only when non-empty —
        # custom adapters without the kwarg keep working on healthy
        # hardware.
        degraded = (
            {"blacklist": self.hw.blacklist} if self.hw.blacklist else {}
        )
        outcome.degraded = bool(degraded)
        outputs = model.run_batch(
            self.hw.target(model), self.pool.cache,
            [r.payload for r in batch.requests],
            stats=outcome.stats, **degraded,
        )
        if len(outputs) != len(batch.requests):
            raise TspError(
                f"model {batch.model!r} returned {len(outputs)} "
                f"outputs for {len(batch.requests)} requests"
            )
        return outputs

    def _respond(self, batch: Batch, outcome: BatchOutcome, outputs) -> None:
        pool, hw, stats = self.pool, self.hw, outcome.stats
        n = len(batch.requests)
        outcome.finished_s = now = pool.clock()
        hw.strikes = 0
        pool.latency.observe(batch.model, now - outcome.started_s)
        with rtrace.span("respond", args={"n": n}):
            for request, output in zip(batch.requests, outputs):
                request.timing.compile_s = stats.compile_s / n
                request.timing.execute_s = stats.execute_s / n
                request.finish("ok", now, result=InferenceResult(
                    request_id=request.id, model=batch.model, output=output,
                    timing=request.timing, batch_id=batch.id, batch_size=n,
                    worker=self.name, cycles=stats.cycles,
                    cache_hits=stats.cache_hits,
                    cache_misses=stats.cache_misses,
                ))
        self.batches_run += 1
        outcome.ok = True
        # degraded: every so often re-probe the blacklisted hardware; a
        # recovered resource returns the worker to healthy
        if outcome.degraded and hw.blacklist:
            hw.degraded_ok += 1
            if recheck_due(hw.degraded_ok, pool.health_policy):
                hw.degraded_ok = 0
                if blacklist_recovered(hw.chips, hw.blacklist):
                    with pool._cond:
                        hw.blacklist = None
                        pool._cond.notify_all()
                    pool._emit("degraded_exit", worker=self.name)

    def _recover(self, batch: Batch, outcome: BatchOutcome, error) -> None:
        """Requeue or end every request of a failed batch (an ended one
        carries ``outcome``/``attempt``/``chip_index`` and the fault as
        ``__cause__``), then do to the hardware what the diagnosis calls
        for."""
        pool, hw = self.pool, self.hw
        outcome.finished_s = now = pool.clock()
        self.batches_failed += 1
        diag = diagnose(error, n_chips=pool.n_chips)
        if isinstance(error, TspError):
            error.with_context(chip=hw.chips[0].chip_id)
        estimate = pool.latency.estimate(batch.model)
        with rtrace.span("transition") as moved, rtrace.span("retry") as retry:
            for request in batch.requests:
                fate = request_fate(
                    diag.kind, request.attempt, request.slack_s(now),
                    estimate, pool.retry,
                )
                if fate == "requeue":
                    request.attempt += 1
                    try:
                        pool.batcher.requeue(request)
                    except ServeError:
                        fate = "shutdown"
                    else:
                        outcome.requeued.append(request)
                        continue
                request.finish(
                    fate, now, cause=error, chip_index=diag.chip_index,
                    detail=f"failed on attempt {request.attempt} [{fate}]: "
                    f"{error}",
                )
            action, blacklist = hardware_fate(
                diag, hw.blacklist, hw.strikes, pool.health_policy
            )
            if action == "degrade":
                with pool._cond:
                    hw.blacklist, hw.degraded_ok = blacklist, 0
                    pool._cond.notify_all()
                pool._emit(
                    "degraded_enter", worker=self.name,
                    blacklist=blacklist.describe(),
                )
                action = "recompile_degraded"
            elif action == "strike":
                hw.strikes += 1
            elif action == "quarantine":
                pool.quarantine(self, reason=f"{diag.reason}: {error}")
            if self.hw is not None:
                # faulted hardware may hold arbitrary state; scrub now so
                # the worker is immediately serviceable for the next batch
                try:
                    self.hw.scrub()
                except Exception:
                    pass
            moved.set(
                name=None if action == "strike" else action,
                args={"reason": diag.reason},
            )
            retry.set(name="retry" if outcome.requeued else None, args=dict(
                n=len(outcome.requeued), attempt=outcome.attempt + 1,
                chip_index=diag.chip_index,
            ))


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
        #: guards what follows, which hardware each worker holds and the
        #: blacklist it serves around; notified on every hand-over of
        #: hardware, every blacklist change, every repair, every worker
        #: exit and shutdown
        self._cond = threading.Condition()
        self._closing = False
        #: every quarantine ever taken (active + repaired), in order
        self.quarantined: list[QuarantineRecord] = []
        self.repaired_count = 0
        self._repair_queue: deque[QuarantineRecord] = deque()
        #: fault hooks ``(name, owner, hook)``: a named one is owned by a
        #: device and follows it through quarantine, repair and spare
        #: swaps until detached; an unnamed one by a worker, and runs once
        self._faults: list[tuple] = []
        #: idle replacement hardware
        self._spares = [
            self._build_hardware(f"spare{i}") for i in range(n_spares)
        ]
        self.workers = [PoolWorker(self, i) for i in range(n_workers)]
        #: started by the first quarantine of a started pool
        self._repair_thread: threading.Thread | None = None
        self._started = False

    def _build_hardware(self, tag: str) -> Hardware:
        """One worker's (or spare's) hardware: a ring or a single chip."""
        config, kwargs = self.config, self.chip_kwargs
        if self.n_chips == 1:
            return Hardware([TspChip(config, chip_id=tag, **kwargs)])
        system = MultiChipSystem.ring(config, self.n_chips, **kwargs)
        for c, chip in enumerate(system.chips):
            chip.chip_id = f"{tag}.c{c}"
        return Hardware(list(system.chips), system)

    @property
    def clock(self):
        """The one serving clock — queueing, deadlines, retries,
        quarantines — is the batcher's: set ``batcher.clock`` to move it."""
        return self.batcher.clock

    def model(self, name: str) -> ServeModel:
        try:
            return self._models[name]
        except KeyError:
            raise TspError(f"no model {name!r} registered with the pool")

    # ------------------------------------------------------------------
    # fault injection (negative tests, the fault campaign)
    # ------------------------------------------------------------------
    def attach_hardware_fault(self, hardware, name: str, hook) -> None:
        """Re-apply ``hook(hardware)`` at every checkout of ``hardware``.

        Unlike :meth:`PoolWorker.inject_at_checkout` (one-shot, bound to
        the worker), a hardware fault is keyed to the physical chip or
        system: it follows the hardware into quarantine and back, and a
        spare swapped in for it starts clean — exactly the semantics a
        fault campaign needs for a fault window.
        """
        self.detach_hardware_fault(name)
        self._add_fault(name, hardware, hook)

    def detach_hardware_fault(self, name: str) -> None:
        """End a fault window started by :meth:`attach_hardware_fault`."""
        with self._cond:
            self._faults = [f for f in self._faults if f[0] != name]

    def _add_fault(self, name: str | None, owner, hook) -> None:
        with self._cond:
            self._faults.append((name, owner, hook))

    def _faults_due(self, worker: PoolWorker) -> list:
        """The hooks of this checkout; the one-shot ones are spent."""
        owners = (worker, worker.hw.device)
        with self._cond:
            due = [f for f in self._faults if f[1] in owners]
            if due:
                self._faults = [
                    f for f in self._faults
                    if f[0] is not None or f not in due
                ]
        return [hook for _name, _owner, hook in due]

    # ------------------------------------------------------------------
    # quarantine and repair
    # ------------------------------------------------------------------
    def quarantine(self, worker: PoolWorker, reason: str) -> QuarantineRecord:
        """Pull a worker's hardware from service; swap a spare or park."""
        with self._cond:
            hardware = worker.hw
            hardware.strikes = hardware.degraded_ok = 0
            record = QuarantineRecord(
                worker.name, reason, since_s=self.clock(), hardware=hardware
            )
            self.quarantined.append(record)
            self._repair_queue.append(record)
            swapped = bool(self._spares)
            worker.hw = self._spares.pop() if swapped else None
            if self._started and self._repair_thread is None:
                self._repair_thread = threading.Thread(
                    target=self._repair_loop, name="tsp-serve-repair",
                    daemon=True,
                )
                self._repair_thread.start()
            self._cond.notify_all()
        self._emit(
            "quarantine", worker=worker.name, reason=reason,
            swapped=swapped,
        )
        return record

    def _repair_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._repair_queue or self._closing
                )
                if self._closing:
                    return
                record = self._repair_queue.popleft()
            self._repair(record)

    def _repair(self, record: QuarantineRecord) -> None:
        """Scrub + clean probe sweeps, then return hardware to service.

        A probe failure that localizes to a blacklist sends the hardware
        back *degraded* (served recompiled); an unlocalizable probe
        failure retires it — the quarantine record stays active.
        """
        hardware = record.hardware
        failure = localized = None
        # the repair thread serves no batch: a root span, own track
        with rtrace.root(self.tracer, "repair", "health") as span:
            while True:
                verdict, hardware.blacklist = repair_verdict(
                    record.probes_passed, failure is not None, localized,
                    hardware.blacklist, self.health_policy,
                )
                if verdict != "probe":
                    break
                try:
                    hardware.scrub()
                    probe_memory(*hardware.chips, skip=hardware.blacklist)
                    record.probes_passed += 1
                except Exception as error:
                    failure = error
                    localized = blacklist_from_fault(
                        error, chip_index=chip_index_of(error) or 0,
                        n_chips=self.n_chips,
                    )
            if verdict == "retired":
                record.reason += f"; retired, probe failed: {failure}"
                span.set(name=None)
                self._emit("retired", worker=record.worker)
                return
            with self._cond:
                record.repaired_s = self.clock()
                self.repaired_count += 1
                home = rehome([
                    w.index for w in self.workers
                    if w.hw is None and not w._exited
                ])
                if home is not None:
                    self.workers[home].hw = hardware
                else:
                    self._spares.append(hardware)
                self._cond.notify_all()
            details = dict(
                worker=record.worker, degraded=verdict == "degraded",
                probes=record.probes_passed,
            )
            span.set(args=details)
        self._emit("repair", **details)

    def _notify(self, observer, event) -> None:
        if observer is not None:
            try:
                observer(event)
            except Exception:
                pass  # observability must never kill a worker

    def _emit(self, kind: str, **details) -> None:
        self._notify(self.on_health, {"kind": kind, **details})

    # ------------------------------------------------------------------
    def capacity(self) -> int:
        """Workers able to serve (healthy + degraded; parked excluded)."""
        return sum(w.hw is not None and not w._exited for w in self.workers)

    @property
    def active_quarantined(self) -> list[QuarantineRecord]:
        return [r for r in self.quarantined if r.active]

    @property
    def n_spares(self) -> int:
        with self._cond:
            return len(self._spares)

    # ------------------------------------------------------------------
    def execute_batch(self, worker: PoolWorker, batch: Batch) -> None:
        self._notify(self.on_outcome, worker.execute(batch))

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
        if not self._started:
            return
        with self._cond:
            exited = self._cond.wait_for(
                lambda: any(w.failure is not None for w in self.workers)
                or all(w._exited for w in self.workers),
                timeout,
            )
        for worker in self.workers:
            if worker.failure is not None:
                raise worker.failure
        if exited:
            # every run loop is over: the threads are a bytecode from done
            for worker in self.workers:
                worker.join(timeout)
            if self._closing and self._repair_thread is not None:
                self._repair_thread.join(timeout)

    @property
    def alive(self) -> int:
        return sum(1 for w in self.workers if w.is_alive())

"""Content-addressed LRU cache of compiled stream programs.

Scheduling is by far the most expensive step of the request path (the
two-dimensional time × space search of :mod:`repro.compiler.scheduler`),
and the TSP's determinism makes its output a pure function of the lowered
graph and the chip configuration.  :class:`ProgramCache` therefore keys
compiled binaries by :func:`repro.compiler.cachekey.graph_fingerprint`:
the first request of a (model, shape, dtype, batch) shape pays the
compile, every later request replays the cached program — recompiles
never block the hot path twice.

The search itself never reads a weight: it is a function of the graph's
*shape key* (:func:`repro.compiler.cachekey.shape_fingerprint`).  So a
miss on a never-seen model first looks among the resident programs for
one of the same shape key and binds the new constants to *its* schedule;
only with no such sibling resident does the scheduler run.

Thread-safe with single-flight compilation: when several workers miss on
the same key simultaneously, one compiles and the rest wait for its
result instead of duplicating the scheduler run — and a worker missing
on a sibling of a key being scheduled waits for that schedule and binds
to it.  The flight ends only once the program's replay plan is finished
(:func:`repro.compiler.runner.finish_plan` — one simulation per schedule,
on a chip the cache keeps for it), so no program leaves the cache still
owing the run that finishes it: two workers never both simulate a cold
program, whatever their number.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..compiler.cachekey import graph_fingerprint, shape_fingerprint
from ..compiler.runner import finish_plan
from ..compiler.scheduler import CompiledProgram
from ..obs import rtrace
from ..sim.chip import TspChip


def _keyed(span, key: str, **args) -> None:
    """Attach the looked-up key (and what became of it) to a cache span."""
    if span:
        span.set(args={"key": key[:16], **args})


@dataclass
class CacheStats:
    """Hit/miss/evict counters, exported through the serve registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_s: float = 0.0
    #: of the programs :meth:`ProgramCache.get_or_compile` made on a miss
    #: (``bound``), how many it ran the scheduler for; the rest borrowed
    #: a resident sibling's schedule
    scheduled: int = 0
    bound: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _InFlight:
    """One key's pending compile: waiters park on the event."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.program: CompiledProgram | None = None
        self.error: BaseException | None = None
        #: set (under the cache lock) once the leader has hashed it
        self.shape_key: str | None = None


class ProgramCache:
    """LRU over content-addressed compiled programs."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._programs: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._inflight: dict[str, _InFlight] = {}
        #: the chip plans are finished on, one finishing at a time
        self._chip: TspChip | None = None
        self._finishing = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._programs

    # ------------------------------------------------------------------
    def _insert(self, key: str, program: CompiledProgram) -> None:
        self._programs[key] = program
        self._programs.move_to_end(key)
        while len(self._programs) > self.capacity:
            self._programs.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(builder, blacklist=None) -> str:
        """The content address ``builder``'s program is filed under."""
        return graph_fingerprint(
            builder.graph, builder.config,
            timing=builder.timing, blacklist=blacklist,
        )

    def get_or_compile(
        self, builder, blacklist=None, key: str | None = None,
        shape_key: str | None = None,
    ) -> tuple[CompiledProgram, str, bool, float]:
        """Look ``builder``'s graph up by content; compile on a true miss.

        ``key`` is :meth:`key_for` of the same ``(builder, blacklist)``
        and ``shape_key`` its ``builder.shape_key(blacklist)`` when the
        caller already holds them (a builder's graph does not change, so
        its owner hashes it once); fingerprinted here otherwise.
        Returns ``(program, key, hit, compile_seconds)``.
        ``hit`` is True whenever this caller did not make the program
        itself — including waiters coalesced onto another thread's
        in-flight compile.  A miss makes it from a resident sibling's
        schedule when there is one (:meth:`_make`) and by running the
        scheduler otherwise; either way outside the cache lock, so a long
        compile never stalls unrelated lookups — and finishes its replay
        plan before anyone else sees it.
        """
        with rtrace.span("cache") as lookup:
            if key is None:
                key = self.key_for(builder, blacklist)
            with self._lock:
                program = self._programs.get(key)
                if program is not None:
                    self._programs.move_to_end(key)
                    self.stats.hits += 1
                    _keyed(lookup, key, hit=True)
                    return program, key, True, 0.0
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _InFlight()
            if leader:
                _keyed(lookup, key, hit=False)
            else:
                # coalesced onto another thread's single-flight compile
                flight.done.wait()
                _keyed(lookup, key)
                lookup.set(name="compile_wait")
        if not leader:
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.stats.hits += 1
            assert flight.program is not None
            return flight.program, key, True, 0.0
        t0 = time.perf_counter()
        try:
            with rtrace.span("compile") as compiling:
                program, scheduled = self._make(
                    builder, blacklist, key, shape_key, flight
                )
                with self._finishing:
                    if self._chip is None or (
                        self._chip.config is not program.config
                        and self._chip.config != program.config
                    ):
                        self._chip = TspChip(program.config)
                    finish_plan(program, self._chip)
                _keyed(compiling, key, scheduled=scheduled)
        except BaseException as error:
            flight.error = error
            with self._lock:
                del self._inflight[key]
            flight.done.set()
            raise
        compile_s = time.perf_counter() - t0
        with self._lock:
            self.stats.misses += 1
            self.stats.compile_s += compile_s
            self.stats.scheduled += scheduled
            self.stats.bound += 1
            self._insert(key, program)
            del self._inflight[key]
        flight.program = program
        flight.done.set()
        return program, key, False, compile_s

    def _make(
        self, builder, blacklist, key: str, shape_key: str | None,
        flight: _InFlight,
    ) -> tuple[CompiledProgram, bool]:
        """The program of a missed ``key``, and whether the scheduler ran.

        A schedule is a function of the shape key alone, so any resident
        program of that shape key lends its schedule and the miss costs a
        bind.  A sibling still in flight is waited for instead of being
        raced; flights learn their shape keys one at a time under the
        lock and wait only for one that learned it earlier, so the first
        of a shape schedules and nobody waits in a circle.
        """
        shape_key = shape_key or shape_fingerprint(
            builder.graph, builder.config,
            timing=builder.timing, blacklist=blacklist,
        )
        with self._lock:
            flight.shape_key = shape_key
            # residents are programs or get_or_build artifacts
            schedule = next(
                (
                    s for s in (
                        getattr(p, "schedule", None)
                        for p in self._programs.values()
                    )
                    if getattr(s, "shape_key", None) == shape_key
                ),
                None,
            )
            ahead = None if schedule is not None else next(
                (
                    f for f in self._inflight.values()
                    if f is not flight and f.shape_key == shape_key
                ),
                None,
            )
        if ahead is not None:
            ahead.done.wait()
            # nothing to borrow if it failed: this miss schedules then
            schedule = getattr(ahead.program, "schedule", None)
        if schedule is None:
            return builder.compile(blacklist=blacklist, cache_key=key), True
        return schedule.bind(builder.graph, key), False

    # ------------------------------------------------------------------
    def get_or_build(self, key: str, factory):
        """Cache an arbitrary keyed artifact alongside compiled programs.

        The generic entry for partition-dependent artifacts — above all
        the timed C2C transfer programs of an executed pipeline, whose
        ``key`` folds in the :class:`~repro.compiler.PartitionPlan`
        fingerprint so no split ever replays another's schedules.
        ``factory`` runs outside the lock; a racing duplicate build is
        tolerated (transfer planning is cheap — single-flight is reserved
        for scheduler runs in :meth:`get_or_compile`).
        """
        with rtrace.span("cache") as lookup:
            with self._lock:
                value = self._programs.get(key)
                if value is not None:
                    self._programs.move_to_end(key)
                    self.stats.hits += 1
                    _keyed(lookup, key, hit=True)
                    return value
            value = factory()
            with self._lock:
                self.stats.misses += 1
                self._insert(key, value)
            _keyed(lookup, key)
            lookup.set(name="build")
        return value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters + residency, for ``InferenceServer.stats()`` (and
        through it the metrics exporter and the benchmark's tracer)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._programs),
                # programs that have recorded a schedule-replay plan
                # (repro.sim.replay) and serve cache hits without the
                # event-driven simulator
                "replay_plans": sum(
                    1
                    for p in self._programs.values()
                    if getattr(getattr(p, "replay", None), "ok", False)
                ),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "scheduled": self.stats.scheduled,
                "bound": self.stats.bound,
                "hit_rate": round(self.stats.hit_rate, 4),
                "compile_s": round(self.stats.compile_s, 6),
            }

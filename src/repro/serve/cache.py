"""Content-addressed LRU cache of compiled stream programs.

Scheduling is by far the most expensive step of the request path (the
two-dimensional time × space search of :mod:`repro.compiler.scheduler`),
and the TSP's determinism makes its output a pure function of the lowered
graph and the chip configuration.  :class:`ProgramCache` therefore keys
compiled binaries by :func:`repro.compiler.cachekey.graph_fingerprint`:
the first request of a (model, shape, dtype, batch) shape pays the
compile, every later request replays the cached program — recompiles
never block the hot path twice.

Thread-safe with single-flight compilation: when several workers miss on
the same key simultaneously, one compiles and the rest wait for its
result instead of duplicating the scheduler run.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..compiler.cachekey import graph_fingerprint
from ..compiler.scheduler import CompiledProgram
from ..obs import rtrace


def _span(ctx, name: str, start_us: float, key: str, **args) -> None:
    """Record one cache-phase span under the ambient batch context."""
    ctx.tracer.record_under(
        ctx, name, start_us, ctx.tracer.now_us(),
        args={"key": key[:16], **args},
    )


@dataclass
class CacheStats:
    """Hit/miss/evict counters, exported through the serve registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_s: float = 0.0

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

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._programs

    # ------------------------------------------------------------------
    def get(self, key: str) -> CompiledProgram | None:
        """LRU lookup by fingerprint; counts a hit or miss."""
        with self._lock:
            program = self._programs.get(key)
            if program is None:
                self.stats.misses += 1
                return None
            self._programs.move_to_end(key)
            self.stats.hits += 1
            return program

    def put(self, key: str, program: CompiledProgram) -> None:
        """Insert (or refresh) one compiled program, evicting LRU overflow."""
        with self._lock:
            self._insert(key, program)

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
        self, builder, blacklist=None, key: str | None = None
    ) -> tuple[CompiledProgram, str, bool, float]:
        """Look ``builder``'s graph up by content; compile on a true miss.

        ``key`` is :meth:`key_for` of the same ``(builder, blacklist)``
        when the caller already holds it (a builder's graph does not
        change, so its owner hashes it once); fingerprinted here
        otherwise.  Returns ``(program, key, hit, compile_seconds)``.
        ``hit`` is True whenever this caller did not run the scheduler
        itself — including waiters coalesced onto another thread's
        in-flight compile.  The scheduler runs outside the cache lock, so
        a long compile never stalls unrelated lookups.
        """
        ctx = rtrace.current()
        lookup_us = ctx.tracer.now_us() if ctx is not None else 0.0
        if key is None:
            key = self.key_for(builder, blacklist)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                self.stats.hits += 1
                if ctx is not None:
                    _span(ctx, "cache", lookup_us, key, hit=True)
                return program, key, True, 0.0
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _InFlight()
        if not leader:
            flight.done.wait()
            if ctx is not None:
                # coalesced onto another thread's single-flight compile
                _span(ctx, "compile_wait", lookup_us, key)
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.stats.hits += 1
            assert flight.program is not None
            return flight.program, key, True, 0.0
        if ctx is not None:
            _span(ctx, "cache", lookup_us, key, hit=False)
        compile_us = ctx.tracer.now_us() if ctx is not None else 0.0
        t0 = time.perf_counter()
        try:
            program = builder.compile(blacklist=blacklist, cache_key=key)
        except BaseException as error:
            flight.error = error
            with self._lock:
                del self._inflight[key]
            flight.done.set()
            raise
        compile_s = time.perf_counter() - t0
        if ctx is not None:
            _span(ctx, "compile", compile_us, key)
        with self._lock:
            self.stats.misses += 1
            self.stats.compile_s += compile_s
            self._insert(key, program)
            del self._inflight[key]
        flight.program = program
        flight.done.set()
        return program, key, False, compile_s

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
        ctx = rtrace.current()
        lookup_us = ctx.tracer.now_us() if ctx is not None else 0.0
        with self._lock:
            value = self._programs.get(key)
            if value is not None:
                self._programs.move_to_end(key)
                self.stats.hits += 1
                if ctx is not None:
                    _span(ctx, "cache", lookup_us, key, hit=True)
                return value
        value = factory()
        with self._lock:
            self.stats.misses += 1
            self._insert(key, value)
        if ctx is not None:
            _span(ctx, "build", lookup_us, key)
        return value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters + residency, for ``BENCH_serve.json`` and stats()."""
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
                "hit_rate": round(self.stats.hit_rate, 4),
                "compile_s": round(self.stats.compile_s, 6),
            }

"""Request-scoped distributed tracing across the serving stack.

The TSP's determinism gives every *on-chip* event an exact cycle
timestamp; this module extends that visibility to the *host* side of the
serving path, so one request's journey — batcher queue, program cache,
chip pool, chunk execution, C2C ring hops — is one connected tree of
spans instead of per-subsystem counters.

Three pieces:

* :class:`TraceContext` — the propagation token.  The pool worker opens a
  batch's root span (:func:`root`), which installs a batch-scoped context
  as the *ambient* one (a :class:`contextvars.ContextVar`, naturally
  thread-local across pool workers); deep layers that already exist —
  :meth:`repro.serve.cache.ProgramCache.get_or_compile`, the chunk
  executor in :mod:`repro.nn.tsp_inference`, and
  :func:`repro.nn.scaleout.execute_pipeline`'s stages and the ring
  transfers it runs (:meth:`repro.compiler.RingTransferPlan.run`; a
  ``transfer`` span anchors its hop's lockstep cycles) — open their
  spans under it with :func:`span` and no signature change.  When no tracer is
  installed the cost is one ``ContextVar.get`` returning ``None``.
* :class:`Span` — one phase of one request or batch: ``queue_wait``,
  ``batch_form``, ``checkout``, ``cache``, ``compile_wait``, ``compile``,
  ``build``, ``execute``, ``stage``, ``transfer``, ``respond``, plus the
  per-request ``request`` and per-batch ``batch <model>#<id>`` roots.  Spans that ran on a chip also carry the **clock anchor**: the
  host-monotonic microsecond at which the chip run's cycle 0 happened,
  the run's cycle count, and the clock rate — enough to place every
  cycle-stamped chip event on the host timeline
  (``host_us(c) = start_us + c * 1e-3 / clock_ghz``).
* :class:`RequestTracer` — the bounded collection point: a drop-oldest
  ring buffer of at most ``max_spans`` spans plus a dropped-span counter,
  so tracing memory is O(max_spans) no matter how many requests flow
  through (the same discipline the serving metrics follow).

The cycle-domain content of a trace (span cycle counts, chip event
cycles) is a pure function of the executed programs, so it is
bit-identical between any two sessions that ran them —
:func:`RequestTracer.cycle_signature` projects exactly that content and
:func:`repro.verify.lockstep.assert_trace_lockstep` gates on it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field

#: host-side phases a request passes through, in causal order — every
#: span name but the ``request`` / ``batch …`` roots (``compile_wait`` is
#: a lookup coalesced onto another thread's in-flight compile, ``build``
#: a missed :meth:`~repro.serve.cache.ProgramCache.get_or_build`); the
#: final four only appear on self-healing paths (a failed batch's
#: requeue, a worker's health transitions, and — on the ``health``
#: track, parented to no batch — quarantined hardware returning to
#: service)
PHASES = (
    "queue_wait",
    "batch_form",
    "checkout",
    "cache",
    "compile_wait",
    "compile",
    "build",
    "execute",
    "stage",
    "transfer",
    "respond",
    "retry",
    "quarantine",
    "recompile_degraded",
    "repair",
)

_CURRENT: ContextVar = ContextVar("repro_rtrace_current", default=None)


def current() -> "TraceContext | None":
    """The ambient trace context of this thread, or None (tracing off)."""
    return _CURRENT.get()


def push(ctx: "TraceContext"):
    """Install ``ctx`` as the ambient context; returns the reset token."""
    return _CURRENT.set(ctx)


def pop(token) -> None:
    _CURRENT.reset(token)


class _NoSpan:
    """What :func:`span` hands out with tracing off: falsy, times nothing."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **fields) -> None:
        pass


_NO_SPAN = _NoSpan()


class OpenSpan:
    """A span being timed: opened by ``with``, recorded when the block
    ends without raising.  The block attaches what it learns only while
    running with :meth:`set` (``args``, or another ``name`` — a lookup
    knows it was a ``compile_wait`` only once it is over; ``name=None``
    drops the span) and :meth:`anchor`."""

    def __init__(self, ctx: "TraceContext", name: str, nest: bool,
                 fields: dict) -> None:
        self.ctx = ctx
        self.fields = {"name": name, **fields}
        #: a nesting span's own id: what the block's spans are parented to
        self.id = ctx.tracer.next_id() if nest else None

    def __enter__(self) -> "OpenSpan":
        if self.id is not None:
            self._token = push(self.ctx.child(self.id))
        self.start_us = self.ctx.tracer.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.id is not None:
            pop(self._token)
        name = self.fields.pop("name")
        if exc_type is None and name is not None:
            tracer = self.ctx.tracer
            tracer.record_under(
                self.ctx, name, self.start_us, tracer.now_us(),
                span_id=self.id, **self.fields,
            )

    def set(self, **fields) -> None:
        self.fields.update(fields)

    def anchor(self, chip, cycles: int, clock_ghz: float, trace=(),
               **args) -> None:
        """Attach a chip run's clock anchor (the span's start is the host
        µs of the run's cycle 0), the dispatch events its chip traced
        (none unless the chip was built with ``trace=True``), and
        ``args``."""
        self.fields.update(
            chip=getattr(chip, "chip_id", None), cycles=cycles,
            clock_ghz=clock_ghz, args=args, chip_events=tuple(trace),
        )


def span(name: str, *, nest: bool = False, **fields):
    """Time the ``with`` block as a ``name`` span under the ambient context.

    The one way to open a span whose two ends are the two ends of a
    block (``batch_form`` and the request roots, whose ends are known
    only afterwards, are recorded with :meth:`RequestTracer.record`).
    With tracing off this is one ``ContextVar.get`` and a shared falsy
    no-op, so a site guards work it does only for the span's sake with
    ``if span:``.  ``nest=True`` makes the span the ambient parent of the
    spans its block records.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return _NO_SPAN
    return OpenSpan(ctx, name, nest, fields)


def root(tracer: "RequestTracer | None", name: str, track: str, *,
         batch_id: int | None = None, model: str | None = None):
    """Like :func:`span` with ``nest=True``, but parentless and on a named
    track: a batch on its worker's, a repair on ``health``."""
    if tracer is None:
        return _NO_SPAN
    ctx = TraceContext(tracer, None, batch_id, model, track)
    return OpenSpan(ctx, name, True, {})


@dataclass(frozen=True)
class TraceContext:
    """The propagation token: which tracer, and which parent span.

    One context is opened per batch by the pool worker (``span_id`` is the
    batch span) and rides the ambient :class:`~contextvars.ContextVar`
    through every layer the batch touches.
    """

    tracer: "RequestTracer"
    span_id: int | None
    batch_id: int | None = None
    model: str | None = None
    worker: str | None = None

    def child(self, span_id: int) -> "TraceContext":
        """A context parented to ``span_id`` (nested phase spans)."""
        return TraceContext(
            tracer=self.tracer,
            span_id=span_id,
            batch_id=self.batch_id,
            model=self.model,
            worker=self.worker,
        )


@dataclass
class Span:
    """One recorded phase of one request's or batch's life.

    ``start_us``/``dur_us`` are host-monotonic microseconds since the
    tracer's origin.  Spans that executed a chip run additionally carry
    the chip-domain anchor (``chip``, ``cycles``, ``clock_ghz``) and —
    when the chip traced — the run's dispatched instruction events, each
    stamped in cycles relative to the anchor.
    """

    id: int
    name: str
    track: str
    start_us: float
    dur_us: float
    parent_id: int | None = None
    request_id: int | None = None
    batch_id: int | None = None
    model: str | None = None
    #: clock anchor: which chip ran, for how many cycles, at what rate
    chip: str | None = None
    cycles: int | None = None
    clock_ghz: float | None = None
    #: the run's dispatches, the chip's own :class:`~repro.sim.chip.
    #: TraceEvent` objects (cycle, queue, instruction, occupancy)
    chip_events: tuple = ()
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us


class RequestTracer:
    """Bounded-memory span collector for one serving session.

    Thread-safe: pool workers, the server's observer callback, and any
    layer holding the ambient context record concurrently.  The buffer
    drops the *oldest* span when full and counts the drop, so a
    long-running server keeps the most recent window of activity and the
    metrics exporter can report exactly how much history was shed.
    """

    def __init__(
        self,
        max_spans: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._clock = clock
        self._origin_s = clock()
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        #: spans evicted from the ring buffer (drop-oldest)
        self.dropped = 0

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def now_us(self) -> float:
        """Host-monotonic microseconds since the tracer's origin."""
        return (self._clock() - self._origin_s) * 1e6

    def us_of(self, monotonic_s: float) -> float:
        """Convert an absolute ``time.monotonic`` stamp to tracer µs."""
        return (monotonic_s - self._origin_s) * 1e6

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def next_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        name: str,
        track: str,
        start_us: float,
        end_us: float,
        *,
        span_id: int | None = None,
        parent_id: int | None = None,
        request_id: int | None = None,
        batch_id: int | None = None,
        model: str | None = None,
        chip: str | None = None,
        cycles: int | None = None,
        clock_ghz: float | None = None,
        chip_events: tuple = (),
        args: dict | None = None,
    ) -> Span:
        """Record one completed span (spans are stamped at both ends)."""
        span = Span(
            id=self.next_id() if span_id is None else span_id,
            name=name,
            track=track,
            start_us=start_us,
            dur_us=max(end_us - start_us, 0.0),
            parent_id=parent_id,
            request_id=request_id,
            batch_id=batch_id,
            model=model,
            chip=chip,
            cycles=cycles,
            clock_ghz=clock_ghz,
            chip_events=tuple(chip_events),
            args=dict(args or {}),
        )
        with self._lock:
            if len(self._spans) == self.max_spans:
                self.dropped += 1
            self._spans.append(span)
        return span

    def record_under(
        self, ctx: TraceContext, name: str, start_us: float, end_us: float,
        **kwargs,
    ) -> Span:
        """Record a span parented to ``ctx`` on its worker's track."""
        return self.record(
            name,
            ctx.worker or "host",
            start_us,
            end_us,
            parent_id=ctx.span_id,
            batch_id=ctx.batch_id,
            model=kwargs.pop("model", ctx.model),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def snapshot(self) -> dict:
        """JSON-able accounting for the metrics exporter."""
        with self._lock:
            return {
                "recorded": len(self._spans),
                "dropped": self.dropped,
                "max_spans": self.max_spans,
            }

    def request_tree(self, request_id: int) -> list[Span]:
        """Every span a request's id resolves to, root first.

        Starts at the request's root span, follows its ``batch_span``
        linkage to the owning batch, and collects the batch's whole
        subtree (checkout, cache/compile, execute/stage, transfer,
        respond) plus the request-scoped phases (queue_wait) — the
        "one id → the whole journey" contract of the tentpole.
        """
        spans = self.spans()
        by_parent: dict[int, list[Span]] = {}
        by_id: dict[int, Span] = {}
        for span in spans:
            by_id[span.id] = span
            if span.parent_id is not None:
                by_parent.setdefault(span.parent_id, []).append(span)
        roots = [
            s for s in spans
            if s.request_id == request_id and s.parent_id is None
        ]
        out: list[Span] = []
        seen: set[int] = set()

        def walk(span: Span) -> None:
            if span.id in seen:
                return
            seen.add(span.id)
            out.append(span)
            for child in by_parent.get(span.id, ()):
                walk(child)

        for root in roots:
            walk(root)
            batch_span = by_id.get(root.args.get("batch_span", -1))
            if batch_span is not None:
                walk(batch_span)
        return out

    def cycle_signature(self) -> list[tuple]:
        """The order-insensitive cycle-domain projection of the trace.

        Every chip-anchored span contributes ``(name, model, chip,
        cycles, events)`` where ``events`` are the dispatch events in
        (icu, cycle, mnemonic) form.  Host microseconds are excluded —
        they differ run to run — so two traces of the same work agree
        exactly iff the chips did cycle-identical work, which is how
        :func:`repro.verify.lockstep.assert_trace_lockstep` consumes it.
        Sorted, so worker scheduling order cannot perturb it.
        """
        sig = []
        for span in self.spans():
            if span.cycles is None and not span.chip_events:
                continue
            events = tuple(
                (event.icu, event.cycle, event.mnemonic)
                for event in span.chip_events
            )
            sig.append(
                (span.name, span.model, span.chip, span.cycles, events)
            )
        sig.sort()
        return sig

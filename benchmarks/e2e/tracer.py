"""Outside-in span tracer: wraps each layer's public entry for one pass.

The benchmark records spans from its own files, around the calls *into*
each layer, without editing the program.  :class:`SpanTracer` swaps a
timing wrapper in for every name in :data:`LAYERS` — patching the name
where it is *used* (``repro.nn.tsp_inference.execute``, not
``repro.compiler.runner.execute``, because the caller bound its own
reference at import) — and puts the originals back afterwards, so the
timed interval runs with no wrapper installed.

Each thread has its own span list and stack: a span's parent is the span
open on the *same* thread when it started, and a span's self time is its
duration minus the durations of its direct children.  Work another
thread does meanwhile is that thread's own and is never subtracted.
Spans stay in memory; :meth:`SpanTracer.to_json` flattens them for
``--trace-out``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

# span record slots (a list, mutated in place on the hot path)
_NAME, _START, _END, _PARENT, _CHILD_NS, _INFO = range(6)


def _batch_info(args, _result):
    batch = args[1]
    return {"batch": batch.id, "requests": [r.id for r in batch.requests]}


def _run_cycles(_args, result):
    return {"cycles": result.cycles}


def _system_cycles(_args, result):
    return {"cycles": result[0].cycles}


@dataclass(frozen=True)
class Layer:
    """One traced entry: metric name, and where the callee name lives."""

    name: str
    module: str
    attr: str  # dotted path below the module: "func" or "Class.method"
    info: object = None  # (args, result) -> dict kept on the span
    #: which per-request metrics ``<name>.<suffix>`` the layer reports
    metrics: tuple = ("self_ms", "calls")


#: every layer boundary the traced pass wraps, outermost first
LAYERS = (
    Layer("serve.server.submit", "repro.serve.server",
          "InferenceServer.submit"),
    Layer("serve.batcher.submit", "repro.serve.batcher",
          "DynamicBatcher.submit"),
    # idle time: reported as a share of worker time, not per request
    Layer("serve.batcher.next_batch", "repro.serve.batcher",
          "DynamicBatcher.next_batch", metrics=()),
    Layer("serve.pool.execute_batch", "repro.serve.pool",
          "ChipPool.execute_batch"),
    Layer("serve.pool.execute", "repro.serve.pool", "PoolWorker.execute",
          _batch_info),
    Layer("serve.cache.get_or_compile", "repro.serve.cache",
          "ProgramCache.get_or_compile"),
    Layer("serve.cache.get_or_build", "repro.serve.cache",
          "ProgramCache.get_or_build"),
    Layer("compiler.cachekey.graph_fingerprint", "repro.serve.cache",
          "graph_fingerprint"),
    Layer("compiler.api.compile", "repro.compiler.api",
          "StreamProgramBuilder.compile"),
    Layer("nn.tsp_inference.build_chunk_builder", "repro.nn.tsp_inference",
          "build_chunk_builder"),
    Layer("nn.tsp_inference.forward", "repro.nn.tsp_inference",
          "TspCnnRunner.forward"),
    Layer("nn.scaleout.execute_pipeline", "repro.serve.models",
          "execute_pipeline"),
    Layer("compiler.runner.execute", "repro.nn.tsp_inference", "execute"),
    # imported inside the caller at call time, so the defining module is
    # where the name is looked up
    Layer("compiler.runner.execute_batched", "repro.compiler.runner",
          "execute_batched"),
    Layer("sim.replay.run_batched", "repro.sim.replay",
          "ReplayPlan.run_batched"),
    Layer("sim.replay.replay_into", "repro.sim.replay",
          "ReplayPlan.replay_into"),
    # finish() is only the end of a recording that rode a whole run
    Layer("sim.replay.record", "repro.sim.replay",
          "ScheduleRecorder.finish", metrics=("calls",)),
    Layer("sim.chip.run", "repro.sim.chip", "TspChip.run", _run_cycles),
    Layer("sim.chip.scrub", "repro.sim.chip", "TspChip.scrub"),
    Layer("sim.multichip.run", "repro.sim.multichip",
          "MultiChipSystem.run", _system_cycles),
    Layer("sim.multichip.scrub", "repro.sim.multichip",
          "MultiChipSystem.scrub"),
)


def resolve(layer: Layer):
    """``(owner, attribute name)`` holding the callee ``layer`` names."""
    owner = importlib.import_module(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@dataclass
class LayerTotals:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


class SpanTracer:
    """In-memory spans with per-thread stacks and install/restore."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread name -> that thread's span records, in start order
        self.threads: dict[str, list] = {}
        self._patches: list = []
        self.origin_ns = time.perf_counter_ns()

    def _thread_state(self):
        spans: list = []
        state = self._local.state = (spans, [])
        thread = threading.current_thread()
        with self._lock:
            self.threads[f"{thread.name}#{thread.ident}"] = spans
        return state

    def wrap(self, name: str, fn, info=None):
        """``fn`` timed as a span called ``name`` on the calling thread."""
        clock = time.perf_counter_ns
        local = self._local
        new_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            span = [name, 0, 0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[_END] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][_CHILD_NS] += end - span[_START]
            if info is not None:
                span[_INFO] = info(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap a wrapper in for every layer's callee name."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for layer in LAYERS:
            owner, attr = resolve(layer)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer.name, original, layer.info))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def totals(self, thread_prefix: str = "") -> dict[str, LayerTotals]:
        """Calls, self time and span time per layer name.

        Only finished spans count (a worker may still sit in a wrapped
        ``next_batch`` when the pass ends); ``thread_prefix`` restricts
        the sum to threads whose name starts with it.
        """
        out: dict[str, LayerTotals] = {}
        for thread, spans in list(self.threads.items()):
            if not thread.startswith(thread_prefix):
                continue
            for span in list(spans):
                if not span[_END]:
                    continue
                duration = span[_END] - span[_START]
                entry = out.setdefault(span[_NAME], LayerTotals())
                entry.calls += 1
                entry.total_ns += duration
                entry.self_ns += duration - span[_CHILD_NS]
        return out

    def info_sum(self, name: str, key: str) -> int:
        """Sum of ``info[key]`` over the finished spans called ``name``."""
        return sum(
            span[_INFO][key]
            for spans in list(self.threads.values())
            for span in list(spans)
            if span[_NAME] == name and span[_END] and span[_INFO]
        )

    def extent_ns(self, thread_prefix: str) -> int:
        """Summed first-start-to-last-end extent of the matching threads."""
        total = 0
        for thread, spans in list(self.threads.items()):
            done = [s for s in list(spans) if s[_END]]
            if thread.startswith(thread_prefix) and done:
                total += max(s[_END] for s in done) - done[0][_START]
        return total

    def to_json(self) -> dict:
        """Every finished span, flattened; ids are unique across threads."""
        out = []
        base = 0
        for thread, spans in sorted(self.threads.items()):
            spans = list(spans)
            for i, span in enumerate(spans):
                if not span[_END]:
                    continue
                out.append({
                    "id": base + i,
                    "name": span[_NAME],
                    "thread": thread,
                    "start_ns": span[_START] - self.origin_ns,
                    "end_ns": span[_END] - self.origin_ns,
                    "self_ns": (
                        span[_END] - span[_START] - span[_CHILD_NS]
                    ),
                    "parent": (
                        base + span[_PARENT] if span[_PARENT] >= 0 else None
                    ),
                    "info": span[_INFO],
                })
            base += len(spans)
        return {"clock": "ns since the tracer was created", "spans": out}

"""Span tracer: self time, per-thread stacks, install/restore hygiene."""

import threading
import time

import pytest

import tracer as tracer_module
from tracer import LAYERS, SpanTracer, resolve


@pytest.fixture()
def ticking_clock(monkeypatch):
    """perf_counter_ns that advances 10 ns per reading, from 0."""
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(
        tracer_module.time, "perf_counter_ns", lambda: next(ticks)
    )


def test_self_time_is_duration_minus_direct_children(ticking_clock):
    tracer = SpanTracer()  # reads the clock once (0)
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    outer()
    # readings: outer 10, middle 20, leaf 30-40, middle end 50,
    # leaf 60-70, outer end 80
    totals = tracer.totals()
    assert totals["outer"].total_ns == 70
    assert totals["outer"].self_ns == 70 - 30 - 10  # middle + second leaf
    assert totals["middle"].self_ns == 30 - 10  # grandchild not re-counted
    assert totals["leaf"].calls == 2 and totals["leaf"].self_ns == 20
    # self times partition the root span exactly
    assert sum(t.self_ns for t in totals.values()) == 70


def test_a_span_still_closes_when_the_callee_raises(ticking_clock):
    tracer = SpanTracer()

    def boom():
        raise KeyError("x")

    outer = tracer.wrap("outer", tracer.wrap("boom", boom))
    with pytest.raises(KeyError):
        outer()
    assert tracer.totals()["boom"].calls == 1
    assert tracer.totals()["outer"].self_ns == 30 - 10


def test_children_on_another_thread_are_not_subtracted():
    tracer = SpanTracer()
    started, finished = threading.Event(), threading.Event()

    def other_thread_work():
        started.wait(5)
        time.sleep(0.02)
        finished.set()

    work = tracer.wrap("work", other_thread_work)
    thread = threading.Thread(target=work, name="tsp-serve-worker-test")
    thread.start()

    def wait_for_other():
        started.set()
        assert finished.wait(5)

    tracer.wrap("waiter", wait_for_other)()
    thread.join(5)
    assert not thread.is_alive()
    totals = tracer.totals()
    # the waiter's span covers the other thread's whole span, yet keeps
    # all of its own time: stacks are per thread
    assert totals["waiter"].self_ns == totals["waiter"].total_ns
    assert totals["work"].self_ns == totals["work"].total_ns >= 20e6
    assert set(tracer.totals("tsp-serve-worker")) == {"work"}
    spans = tracer.to_json()["spans"]
    assert all(span["parent"] is None for span in spans)
    assert len({span["id"] for span in spans}) == len(spans) == 2


def test_unfinished_spans_are_left_out(ticking_clock):
    tracer = SpanTracer()
    seen = {}
    inner = tracer.wrap("inner", lambda: seen.update(tracer.totals()))
    tracer.wrap("outer", inner)()
    assert seen == {}  # both spans were still open when totals() ran
    assert set(tracer.totals()) == {"inner", "outer"}


def test_info_callback_is_kept_and_summed(ticking_clock):
    tracer = SpanTracer()
    run = tracer.wrap(
        "run", lambda cycles: cycles, lambda args, result: {"cycles": result}
    )
    run(100), run(24)
    assert tracer.info_sum("run", "cycles") == 124


def test_install_patches_every_layer_and_restore_puts_originals_back():
    originals = {}
    for layer in LAYERS:
        owner, attr = resolve(layer)
        originals[layer.name] = vars(owner)[attr]
    assert len(originals) == len(LAYERS)  # layer names are unique

    tracer = SpanTracer()
    with tracer:
        for layer in LAYERS:
            owner, attr = resolve(layer)
            patched = vars(owner)[attr]
            assert patched is not originals[layer.name]
            assert patched.__wrapped__ is originals[layer.name]
        with pytest.raises(RuntimeError):
            tracer.install()
    for layer in LAYERS:
        owner, attr = resolve(layer)
        assert vars(owner)[attr] is originals[layer.name]
    tracer.restore()  # idempotent


def test_names_are_patched_where_they_are_used():
    import repro.compiler.runner as runner
    import repro.nn.tsp_inference as tsp_inference

    original = runner.execute
    with SpanTracer():
        # the caller's own binding is swapped; the defining module's is not
        assert tsp_inference.execute is not original
        assert runner.execute is original
    assert tsp_inference.execute is original

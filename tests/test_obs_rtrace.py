"""Request-scoped tracing: bounded buffers, span trees, cycle lockstep.

Three layers of guarantees:

* :class:`~repro.obs.rtrace.RequestTracer` is a bounded drop-oldest ring
  buffer — tracing memory is O(max_spans) and every eviction is counted.
* A traced serve session connects each request id to its whole journey:
  queue-wait, batch, checkout, cache/compile, per-chip execution, and —
  sharded over a ring — per-stage and per-hop transfer spans, rendered
  into ONE unified Perfetto trace with chip events anchored to host µs.
* The cycle-domain projection of a trace is bit-identical between two
  sessions of the same work (:func:`assert_trace_lockstep`), because
  on-chip work is a pure function of the executed programs.
"""

import threading

import numpy as np
import pytest

from repro.errors import DivergenceError
from repro.nn import make_shapes, make_small_cnn, train
from repro.nn.scaleout import execute_pipeline, plan_runner_partition
from repro.nn.tsp_inference import TspCnnRunner
from repro.obs import rtrace
from repro.obs.metrics import MetricsExporter
from repro.obs.rtrace import PHASES, RequestTracer, TraceContext
from repro.obs.trace import PerfettoTraceBuilder
from repro.serve import BatchPolicy, InferenceServer
from repro.serve.models import CnnServeModel, ShardedCnnServeModel
from repro.testing import make_small_config
from repro.verify import assert_trace_lockstep


#: phases the serving-path tests of this file assert spans of
#: (``TestServeTracing`` the single-chip ones, ``TestShardedTracing``
#: ``stage``, ``transfer`` and ``build``, ``TestTracingWork``
#: ``batch_form``, ``TestCacheSpans`` ``compile_wait``)
SERVING_PHASES = {
    "queue_wait", "batch_form", "checkout", "cache", "compile_wait",
    "compile", "build", "execute", "stage", "transfer", "respond",
}


@pytest.fixture(scope="module", autouse=True)
def _span_names():
    """Name of every span handed to ``RequestTracer.record`` while this
    module runs (module-scoped, so class-scoped sessions are seen too)."""
    names = []
    record = RequestTracer.record

    def noting(self, name, *args, **kwargs):
        names.append(name)
        return record(self, name, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RequestTracer, "record", noting)
        yield names


@pytest.fixture(autouse=True)
def recorded(request, _span_names):
    """The spans recorded during this test (and the fixtures it set up),
    in order.  The other way round from
    ``test_phase_names_cover_serving_path``: whatever a serving test
    records is a root or a listed phase — no unlisted phases."""
    yield _span_names
    names = set(_span_names)
    _span_names.clear()
    if request.cls is TestRequestTracer:
        return  # the tracer's own unit tests record made-up names
    phases = {
        n for n in names if n != "request" and not n.startswith("batch ")
    }
    assert phases <= set(PHASES), phases - set(PHASES)


class TestRequestTracer:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RequestTracer(max_spans=0)

    def test_record_and_readout(self):
        tracer = RequestTracer(max_spans=16)
        span = tracer.record("request", "requests", 10.0, 30.0,
                             request_id=7, model="m")
        assert span.dur_us == 20.0
        assert span.end_us == 30.0
        assert len(tracer) == 1
        assert tracer.spans()[0].request_id == 7

    def test_negative_duration_clamped(self):
        tracer = RequestTracer(max_spans=4)
        span = tracer.record("x", "t", 50.0, 40.0)
        assert span.dur_us == 0.0

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = RequestTracer(max_spans=3)
        for i in range(5):
            tracer.record(f"s{i}", "t", float(i), float(i) + 1.0)
        assert len(tracer) == 3
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        snap = tracer.snapshot()
        assert snap == {"recorded": 3, "dropped": 2, "max_spans": 3}

    def test_memory_is_bounded_not_per_span(self):
        tracer = RequestTracer(max_spans=8)
        for i in range(10_000):
            tracer.record("s", "t", float(i), float(i) + 1.0)
        assert len(tracer) == 8
        assert tracer.dropped == 10_000 - 8

    def test_record_under_parents_and_inherits_context(self):
        tracer = RequestTracer(max_spans=16)
        ctx = TraceContext(tracer=tracer, span_id=42, batch_id=3,
                           model="cnn", worker="w0")
        span = tracer.record_under(ctx, "cache", 1.0, 2.0)
        assert span.parent_id == 42
        assert span.batch_id == 3
        assert span.model == "cnn"
        assert span.track == "w0"

    def test_child_context_reparents_only(self):
        tracer = RequestTracer(max_spans=16)
        ctx = TraceContext(tracer=tracer, span_id=1, batch_id=2,
                           model="m", worker="w")
        child = ctx.child(99)
        assert child.span_id == 99
        assert (child.tracer, child.batch_id, child.model, child.worker) \
            == (tracer, 2, "m", "w")

    def test_ambient_context_push_pop(self):
        tracer = RequestTracer(max_spans=4)
        assert rtrace.current() is None
        ctx = TraceContext(tracer=tracer, span_id=1)
        token = rtrace.push(ctx)
        try:
            assert rtrace.current() is ctx
        finally:
            rtrace.pop(token)
        assert rtrace.current() is None

    def test_phase_names_cover_serving_path(self):
        """Every listed phase is a span some test sees recorded: the
        serving ones below in this file, the self-healing ones in
        ``tests/test_serve_resilient.py`` — no phantom phases.  (That no
        recorded span is unlisted is held by the ``recorded`` fixture.)"""
        import test_serve_resilient as resilient

        for path in resilient.HEALING_PHASE_TESTS.values():
            owner, test = path.split(".")
            assert callable(getattr(getattr(resilient, owner), test))
        assert set(PHASES) == SERVING_PHASES | set(
            resilient.HEALING_PHASE_TESTS
        )


# ----------------------------------------------------------------------
def _trained_cnn(seed=0, image_size=8):
    data = make_shapes(n_train=64, n_test=16, image_size=image_size,
                       n_classes=3, noise=0.08, seed=seed)
    cnn = make_small_cnn(3, channels=4, image_size=image_size, seed=seed)
    train(cnn, data, epochs=1, lr=0.1, seed=seed)
    return cnn, data


def _deep_cnn(seed=0):
    """Four matrix layers — enough pipeline depth for a 4-chip ring."""
    from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
    from repro.nn.model import Sequential

    rng = np.random.default_rng(seed)
    data = make_shapes(n_train=64, n_test=8, image_size=8, n_classes=3,
                       noise=0.08, seed=seed)
    model = Sequential([
        Conv2D(1, 4, kernel=3, rng=rng),
        ReLU(),
        Conv2D(4, 4, kernel=3, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(4, 8, kernel=3, rng=rng),
        ReLU(),
        Flatten(),
        Dense(8 * 4 * 4, 3, rng=rng),
    ])
    train(model, data, epochs=1, lr=0.1, seed=seed)
    return model, data


def _serve_traced(config, models, n_requests, payloads, *, n_chips=1,
                  n_workers=1, max_spans=4096, chip_events=False):
    server = InferenceServer(
        config, models, n_workers=n_workers, n_chips=n_chips,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.002),
        tracing=True, trace_chip_events=chip_events, max_spans=max_spans,
    )
    futures = [
        server.submit(models[0].name, payloads[i % len(payloads)])
        for i in range(n_requests)
    ]
    for future in futures:
        future.result(timeout=300.0)
    server.close()
    return server


class TestServeTracing:
    @pytest.fixture(scope="class")
    def traced_server(self):
        # class-scoped: one traced session, many read-only assertions
        # (a fresh frozen config per class keeps isolation intact)
        config = make_small_config()
        cnn, data = _trained_cnn()
        model = CnnServeModel("cnn", cnn, config,
                              calibration=data.x_train[:16],
                              max_vectors_per_program=32)
        return _serve_traced(config, [model], 8, data.x_test,
                             chip_events=True)

    def test_every_request_resolves_to_full_journey(self, traced_server):
        tracer = traced_server.tracer
        for request_id in range(8):
            tree = tracer.request_tree(request_id)
            names = {span.name for span in tree}
            assert "request" in names
            assert "queue_wait" in names
            assert any(n.startswith("batch ") for n in names)
            assert {"checkout", "cache", "execute", "respond"} <= names
            root = tree[0]
            assert root.request_id == request_id
            assert root.parent_id is None

    def test_compile_spans_present_once_cold(self, traced_server):
        names = [s.name for s in traced_server.tracer.spans()]
        assert "compile" in names

    def test_execute_spans_carry_clock_anchor(self, traced_server):
        executes = [
            s for s in traced_server.tracer.spans() if s.name == "execute"
        ]
        assert executes
        for span in executes:
            assert span.chip is not None
            assert span.cycles is not None and span.cycles > 0
            assert span.clock_ghz == traced_server.config.clock_ghz
            assert span.chip_events  # chips ran with trace=True
            for event in span.chip_events:
                assert 0 <= event.cycle <= span.cycles

    def test_unified_perfetto_trace(self, traced_server):
        builder = PerfettoTraceBuilder(
            clock_ghz=traced_server.config.clock_ghz
        )
        builder.add_request_trace(traced_server.tracer)
        events = builder.build()
        names = {e["name"] for e in events}
        phs = {e["ph"] for e in events}
        # host phases, async request bars, anchored chip dispatches, and
        # the host->chip flow arrows all land in ONE event list
        assert "request" in names and "execute" in names
        assert {"X", "M", "b", "e", "s", "f"} <= phs
        chip_pids = {
            e["pid"] for e in events
            if e.get("cat") == "dispatch"
        }
        assert chip_pids and all(pid >= 200 for pid in chip_pids)
        # anchored chip events sit inside their owning execute span
        executes = {
            s.id: s for s in traced_server.tracer.spans()
            if s.name == "execute"
        }
        for event in events:
            if event.get("cat") != "dispatch":
                continue
            span = executes[event["args"]["span"]]
            cycle_us = 1e-3 / span.clock_ghz
            expected = span.start_us + event["args"]["cycle"] * cycle_us
            assert event["ts"] == pytest.approx(expected, abs=1e-3)
        # every host->chip arrow ends on a dispatch slice of its row
        slices = [e for e in events if e.get("cat") == "dispatch"]
        arrows = [e for e in events if e["ph"] == "f"]
        assert arrows
        for arrow in arrows:
            assert any(
                (e["pid"], e["tid"]) == (arrow["pid"], arrow["tid"])
                and e["ts"] <= arrow["ts"] <= e["ts"] + e["dur"]
                for e in slices
            )

    def test_stats_exposes_tracing_accounting(self, traced_server):
        stats = traced_server.stats()
        assert stats["tracing"]["recorded"] == len(traced_server.tracer)
        assert stats["tracing"]["dropped"] == 0
        assert stats["spans"]["max_spans"] == 4096


class TestChipSlices:
    def test_an_install_is_drawn_at_its_install_occupancy(self):
        """A request trace draws a chip's dispatches as ``add_chip`` does:
        an MXM weight install spans its operand skew plus the cycles its
        weights stream in, not one cycle."""
        from golden_programs import build_matmul
        from repro.compiler import execute
        from repro.isa import InstallWeights
        from repro.sim.chip import TspChip

        compiled = build_matmul().compile()
        config = compiled.config
        chip = TspChip(config, trace=True)
        run = execute(compiled, chip=chip).run
        tracer = RequestTracer(max_spans=8)
        tracer.record(
            "execute", "w0", 5.0, 6.0, chip="c0", cycles=run.cycles,
            clock_ghz=config.clock_ghz, chip_events=run.trace,
        )
        builder = PerfettoTraceBuilder(clock_ghz=config.clock_ghz)
        builder.add_request_trace(tracer)
        slices = [
            e for e in builder.build()
            if e.get("cat") == "dispatch" and e["name"] == "IW"
        ]
        # one MXM weights queue issues them all, in program order
        program = compiled.program
        installs = [
            instruction for icu in program.icus
            for instruction in program.queue(icu)
            if isinstance(instruction, InstallWeights)
        ]
        assert installs and len(slices) == len(installs)
        assert len({e["tid"] for e in slices}) == 1
        cycle_us = 1e-3 / config.clock_ghz
        for drawn, install in zip(slices, installs):
            assert not install.from_buffer
            cycles = install.dskew(chip.timing) + install.install_cycles(
                config.n_lanes
            )
            assert cycles > 1
            assert drawn["dur"] == pytest.approx(cycles * cycle_us)


class TestAnchorArrows:
    def test_each_arrow_lands_on_its_own_spans_first_slice(self):
        """Two spans on one chip whose earliest dispatches sit on different
        queues: each arrow ends on its own span's earliest slice, not on
        the first queue the chip ever showed."""
        from repro.arch.geometry import Floorplan, Hemisphere
        from repro.arch.timing import TimingModel
        from repro.isa import Accumulate, BinaryOp, IcuId, Read
        from repro.sim.chip import TraceEvent
        from repro.sim.tracer import instruction_duration

        config = make_small_config()
        floorplan = Floorplan(config)
        mem = IcuId(floorplan.mem_slice(Hemisphere.WEST, 0))
        alu = IcuId(floorplan.vxm())
        acc = IcuId(floorplan.mxm(Hemisphere.WEST), 1)

        def event(cycle, queue, instruction):
            return TraceEvent(
                cycle, str(queue), queue, instruction,
                instruction_duration(instruction, TimingModel(), config),
            )

        tracer = RequestTracer(max_spans=8)
        anchor = {"chip": "c0", "cycles": 4, "clock_ghz": 1.0}
        first = tracer.record(
            "execute", "w0", 10.0, 20.0, **anchor, chip_events=(
                event(0, mem, Read(address=0, stream=0)),
                event(2, alu, BinaryOp()),
            ),
        )
        second = tracer.record(
            "execute", "w0", 30.0, 40.0, **anchor, chip_events=(
                event(1, alu, BinaryOp()),
                event(0, acc, Accumulate(n_vectors=3)),
            ),
        )
        builder = PerfettoTraceBuilder(clock_ghz=1.0)
        builder.add_request_trace(tracer)
        events = builder.build()
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        arrows = {e["id"]: e for e in events if e["ph"] == "f"}
        assert len(arrows) == 2
        for span in (first, second):
            (flow,) = [
                i for i, e in starts.items() if e["ts"] == span.start_us
            ]
            arrow = arrows[flow]
            earliest = min(
                (e for e in events if e.get("cat") == "dispatch"
                 and e["args"]["span"] == span.id),
                key=lambda e: e["ts"],
            )
            assert (arrow["pid"], arrow["tid"]) == (
                earliest["pid"], earliest["tid"]
            )
            assert earliest["ts"] <= arrow["ts"] <= (
                earliest["ts"] + earliest["dur"]
            )


class TestSpanRingBuffer:
    """A server's span memory must not grow without bound, and what it
    sheds is counted where the exporter reads it."""

    def test_host_spans_capped_with_dropped_counter(self, config, recorded):
        cnn, data = _trained_cnn()
        model = CnnServeModel("cnn", cnn, config,
                              calibration=data.x_train[:16],
                              max_vectors_per_program=32)
        server = InferenceServer(
            config, [model], n_workers=1,
            default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
            tracing=True, max_spans=2,
        )
        futures = [
            server.submit("cnn", data.x_test[i % 8]) for i in range(6)
        ]
        for future in futures:
            future.result(timeout=300.0)
        server.close()
        tracer = server.tracer
        # drop-oldest: what survives is what was recorded last
        assert [s.name for s in tracer.spans()] == recorded[-2:]
        assert tracer.dropped == len(recorded) - 2
        stats = server.stats()
        assert stats["spans"] == stats["tracing"] == {
            "recorded": 2, "dropped": tracer.dropped, "max_spans": 2,
        }
        text = MetricsExporter(server).prometheus_text()
        assert 'tsp_serve_spans{kind="recorded"} 2' in text
        assert f'tsp_serve_spans{{kind="dropped"}} {tracer.dropped}' in text
        assert 'tsp_serve_spans{kind="capacity"} 2' in text

    def test_max_spans_validated(self, config):
        cnn, data = _trained_cnn()
        model = CnnServeModel("cnn", cnn, config,
                              calibration=data.x_train[:16],
                              max_vectors_per_program=32)
        with pytest.raises(Exception):
            InferenceServer(config, [model], max_spans=0)


class _AmbientCnn(CnnServeModel):
    """A CNN adapter that notes the ambient trace context of each batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ambient = []

    def run_batch(self, *args, **kwargs):
        self.ambient.append(rtrace.current())
        return super().run_batch(*args, **kwargs)


class TestTracingWork:
    """What tracing costs, as counts of work: nothing when off, and when
    on a number of spans that follows the batch's layer groups and its
    requests — never its chunks or rows."""

    def serve(self, config, tracing):
        """Full batches of 1 and of 4 images, twice; the first round
        compiles, the second is the warm one.  Returns the server and the
        warm results by batch size."""
        cnn, data = _trained_cnn()
        sizes = (1, 4)
        models = [
            _AmbientCnn(f"cnn{n}", cnn, config,
                        calibration=data.x_train[:16],
                        max_vectors_per_program=32)
            for n in sizes
        ]
        # released by the full trigger alone: the delay never expires
        with InferenceServer(
            config, models, n_workers=1, tracing=tracing,
            policies={
                f"cnn{n}": BatchPolicy(max_batch=n, max_delay_s=300.0)
                for n in sizes
            },
        ) as server:
            for _round in range(2):
                warm = {}
                for n in sizes:
                    futures = [
                        server.submit(f"cnn{n}", data.x_test[i])
                        for i in range(n)
                    ]
                    warm[n] = [f.result(timeout=300.0) for f in futures]
        assert all(r.batch_size == n for n in sizes for r in warm[n])
        return server, warm

    def test_untraced_batch_records_nothing(self, config, recorded):
        server, _ = self.serve(config, tracing=False)
        assert recorded == []
        assert server.tracer is None
        for model in server.models.values():
            assert model.ambient == [None, None]

    def test_traced_spans_follow_groups_and_requests(self, config,
                                                     recorded):
        server, warm = self.serve(config, tracing=True)
        for model in server.models.values():
            assert all(ctx.tracer is server.tracer for ctx in model.ambient)
        spans = server.tracer.spans()
        assert len(spans) == len(recorded)  # nothing recorded twice
        for n, results in warm.items():
            batch_id = results[0].batch_id
            names = sorted(
                s.name.split()[0] for s in spans if s.batch_id == batch_id
            )
            # one cache lookup + one execute per layer group (conv0,
            # conv1, dense2), whatever the batch: conv0 alone runs one
            # image's 64 rows two a vector (one chunk of 32) and four
            # images' 256 four a vector (two chunks of 32)
            assert names == sorted(
                ["batch", "batch_form", "checkout", "respond"]
                + 3 * ["cache", "execute"]
                + n * ["request", "queue_wait"]
            )
            chunks = {
                s.args["layer"]: s.args["batch"] for s in spans
                if s.batch_id == batch_id and s.name == "execute"
            }
            assert chunks["conv0"] == {1: 1, 4: 2}[n]


class TestChipEventsKeepTheRoute:
    """``trace_chip_events`` changes what a span carries, never the route a
    batch takes: a traced session replays its warm groups batched, as an
    untraced one does."""

    @pytest.fixture()
    def routes(self, monkeypatch):
        from repro.sim.chip import TspChip
        from repro.sim.replay import ReplayPlan

        counts = {}

        def counted(owner, attr, name):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        counted(ReplayPlan, "run_batched", "run_batched")
        counted(ReplayPlan, "replay_into", "replay_into")
        counted(TspChip, "run", "chip.run")
        return counts

    @staticmethod
    def serve(config, cnn, data, chip_events, routes):
        """Three full batches of two images on one worker (released by the
        full trigger alone), from a cold cache; the routes counted."""
        model = CnnServeModel("cnn", cnn, config,
                              calibration=data.x_train[:16],
                              max_vectors_per_program=32)
        routes.clear()
        with InferenceServer(
            config, [model], n_workers=1, tracing=True,
            trace_chip_events=chip_events,
            default_policy=BatchPolicy(max_batch=2, max_delay_s=300.0),
        ) as server:
            answers = []
            for _round in range(3):
                futures = [
                    server.submit("cnn", data.x_test[i]) for i in range(2)
                ]
                answers += [f.result(timeout=300.0).output for f in futures]
        return server, answers, dict(routes)

    def test_traced_and_untraced_sessions_take_the_same_routes(
        self, config, routes
    ):
        cnn, data = _trained_cnn()
        plain, plain_answers, plain_routes = self.serve(
            config, cnn, data, False, routes
        )
        traced, traced_answers, traced_routes = self.serve(
            config, cnn, data, True, routes
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain_answers, traced_answers, strict=True)
        )
        assert traced_routes == plain_routes
        assert traced_routes["run_batched"] > 0
        for server, with_events in ((plain, False), (traced, True)):
            warm = [
                s for s in server.tracer.spans()
                if s.name == "execute" and s.args["hit"]
            ]
            assert warm
            for span in warm:
                assert span.args["replay"] is True
                assert bool(span.chip_events) == with_events
                for event in span.chip_events:
                    assert 0 <= event.cycle <= span.cycles


class TestShardedTracing:
    def test_two_chip_pipeline_records_stage_and_transfer(self, config):
        cnn, data = _trained_cnn()
        model = ShardedCnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:16],
            n_chips=2, max_vectors_per_program=32,
        )
        server = _serve_traced(config, [model], 4, data.x_test,
                               n_chips=2, chip_events=True)
        tree = server.tracer.request_tree(0)
        names = [s.name for s in tree]
        assert "stage" in names
        assert "transfer" in names
        assert "build" in names  # the hop's transfer programs, first seen
        transfers = [s for s in tree if s.name == "transfer"]
        for span in transfers:
            assert span.cycles > 0
            assert span.args["hop"] == "0->1"
        # stage spans name the chips of the worker's ring
        stage_chips = {s.chip for s in tree if s.name == "stage"}
        assert stage_chips == {"pool0.c0", "pool0.c1"}

    def test_four_chip_session_full_acceptance_tree(self, config):
        """The acceptance criterion: an n_chips=4 sharded serve session
        where one request id resolves to nested spans covering
        queue-wait, batch, cache/compile, per-chip execution, and
        per-hop ring transfer — in one unified Perfetto trace."""
        model_net, data = _deep_cnn()
        model = ShardedCnnServeModel(
            "cnn", model_net, config, calibration=data.x_train[:16],
            n_chips=4, max_vectors_per_program=32,
        )
        server = _serve_traced(config, [model], 2, data.x_test,
                               n_chips=4, chip_events=True)
        tree = server.tracer.request_tree(0)
        names = {s.name for s in tree}
        assert {"request", "queue_wait", "checkout", "cache",
                "execute", "stage", "transfer", "respond"} <= names
        assert any(n.startswith("batch ") for n in names)
        hops = sorted(
            s.args["hop"] for s in tree if s.name == "transfer"
        )
        assert hops == ["0->1", "1->2", "2->3"]
        execute_chips = {s.chip for s in tree if s.name == "execute"}
        assert execute_chips == {
            "pool0.c0", "pool0.c1", "pool0.c2", "pool0.c3"
        }
        # every span of the tree renders into one trace file
        builder = PerfettoTraceBuilder(clock_ghz=config.clock_ghz)
        builder.add_request_trace(server.tracer)
        spans_in_trace = {
            e["args"]["span"] for e in builder.build()
            if e.get("cat") == "rtrace" and e["ph"] == "X"
        }
        assert {s.id for s in tree} <= spans_in_trace


class TestCacheSpans:
    def test_coalesced_lookup_records_compile_wait(self, config):
        """Two workers miss on one key: the leader's lookup is ``cache``
        + ``compile``, the waiter's — parked on the in-flight compile —
        is one ``compile_wait``."""
        from repro.compiler import StreamProgramBuilder
        from repro.serve import ProgramCache

        builder = StreamProgramBuilder(config)
        x = builder.constant_tensor(
            "x", np.arange(2 * config.n_lanes, dtype=np.int8).reshape(2, -1)
        )
        builder.write_back(builder.add(x, x), "y")
        cache = ProgramCache()
        key = cache.key_for(builder)
        tracer = RequestTracer(max_spans=64)
        compiling, parked = threading.Event(), threading.Event()

        class Announcing(threading.Event):
            def wait(self, timeout=None):
                parked.set()
                return super().wait(timeout)

        compile_ = builder.compile

        def slow_compile(**kwargs):
            cache._inflight[key].done = Announcing()
            compiling.set()
            assert parked.wait(30.0)  # hold the flight open for the waiter
            return compile_(**kwargs)

        builder.compile = slow_compile
        results = {}

        def lookup(worker):
            ctx = TraceContext(
                tracer=tracer, span_id=tracer.next_id(), worker=worker
            )
            token = rtrace.push(ctx)
            try:
                results[worker] = cache.get_or_compile(builder)
            finally:
                rtrace.pop(token)

        leader = threading.Thread(target=lookup, args=("leader",))
        waiter = threading.Thread(target=lookup, args=("waiter",))
        leader.start()
        assert compiling.wait(30.0)
        waiter.start()
        for thread in (leader, waiter):
            thread.join(60.0)
            assert not thread.is_alive()
        by_worker = {
            worker: [s.name for s in tracer.spans() if s.track == worker]
            for worker in ("leader", "waiter")
        }
        assert by_worker == {
            "leader": ["cache", "compile"], "waiter": ["compile_wait"],
        }
        assert results["waiter"][0] is results["leader"][0]
        assert results["waiter"][2] and not results["leader"][2]  # hit flags


class TestTraceLockstep:
    def _traced_pipeline(self, config, runner, x, n_chips):
        tracer = RequestTracer(max_spans=4096)
        ctx = TraceContext(tracer=tracer, span_id=tracer.next_id(),
                           batch_id=0, model="cnn", worker="w0")
        token = rtrace.push(ctx)
        try:
            result = execute_pipeline(
                runner, x, plan_runner_partition(runner, n_chips)
            )
        finally:
            rtrace.pop(token)
        return tracer, result

    def test_two_sessions_of_the_same_work_are_cycle_identical(self, config):
        cnn, data = _trained_cnn()
        runner = TspCnnRunner(cnn, config, data.x_train[:16],
                              max_vectors_per_program=32)
        x = data.x_test[:2]
        first, res_a = self._traced_pipeline(config, runner, x, 2)
        again, res_b = self._traced_pipeline(config, runner, x, 2)
        assert np.array_equal(res_a.logits, res_b.logits)
        sig = first.cycle_signature()
        assert sig  # anchored spans exist
        assert sig == again.cycle_signature()
        assert_trace_lockstep(first, again)

    def test_divergent_traces_raise(self, config):
        cnn, data = _trained_cnn()
        runner = TspCnnRunner(cnn, config, data.x_train[:16],
                              max_vectors_per_program=32)
        one, _ = self._traced_pipeline(config, runner, data.x_test[:1], 2)
        two, _ = self._traced_pipeline(config, runner, data.x_test[:2], 2)
        with pytest.raises(DivergenceError):
            assert_trace_lockstep(one, two)

    def test_signature_excludes_host_time(self):
        a = RequestTracer(max_spans=8)
        b = RequestTracer(max_spans=8)
        a.record("execute", "w0", 100.0, 200.0, model="m", chip="c0",
                 cycles=61, clock_ghz=0.9)
        b.record("execute", "w0", 5000.0, 9000.0, model="m", chip="c0",
                 cycles=61, clock_ghz=0.9)
        assert a.cycle_signature() == b.cycle_signature()
        assert_trace_lockstep(a, b)

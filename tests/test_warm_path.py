"""The one warm serving path of :class:`TspCnnRunner`.

Every bucket group of a forward — one chunk or many, and from the first
request on, since the compiler finishes a schedule's plan when it makes
the schedule — is one cache lookup by a memoised key and one pure
batched replay of the plan: no builder rebuild, no re-hash, no
memory-image reload, no write-through, and no simulation, cold or warm.  A chip with tracing on takes the same route (the plan's
dispatches land on its trace).  ``execute()`` remains what a perturbed
chip falls back to, with identical answers.
"""

import threading

import numpy as np
import pytest

from repro.arch import Hemisphere
from repro.compiler import runner as runner_mod
from repro.config import small_test_chip
from repro.nn import tsp_inference
from repro.nn.transformer import TransformerConfig
from repro.nn.tsp_inference import ChunkRunStats
from repro.obs import rtrace
from repro.resil import Blacklist
from repro.serve import ProgramCache, TransformerMlpServeModel
from repro.serve import cache as cache_mod
from repro.sim.chip import TspChip
from repro.sim.faults import FaultInjector
from repro.sim.replay import ReplayPlan

CONFIG = small_test_chip()
DEAD = (Hemisphere.WEST, 1)


def make_mlp(max_vectors=8):
    return TransformerMlpServeModel(
        "mlp",
        TransformerConfig(d_model=16, n_heads=2, d_ff=32,
                          seq_len=8, n_layers=1, vocab=64),
        CONFIG, seed=5, max_vectors_per_program=max_vectors,
    )


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of every route a chunk can take, by name."""
    counts: dict[str, int] = {}

    def counted(owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(runner_mod, "load_compiled", "load_compiled")
    counted(ReplayPlan, "replay_into", "replay_into")
    counted(ReplayPlan, "run_batched", "run_batched")
    counted(TspChip, "run", "chip.run")
    counted(cache_mod, "graph_fingerprint", "graph_fingerprint")
    counted(tsp_inference, "build_chunk_builder", "build_chunk_builder")
    return counts


@pytest.fixture()
def warm():
    """A model, two payloads (one lone chunk per layer), their oracle
    answer, and a cache whose programs are compiled.

    Listed before ``calls`` by its users, so the oracle's own fresh-chip
    simulations are not counted.
    """
    model = make_mlp()
    x = np.random.default_rng(11).standard_normal((2, 16))
    expected = np.stack([model.run_reference(row) for row in x])
    cache = ProgramCache()
    chip = TspChip(CONFIG)
    model.runner.forward(x, chip=chip, cache=cache)
    chip.scrub()
    return model, x, expected, cache, chip


class TestLoneChunkReplaysPurely:
    def test_no_reload_no_write_through_memory_untouched(self, warm, calls):
        model, x, expected, cache, chip = warm
        result = model.runner.forward(x, chip=chip, cache=cache)
        assert np.array_equal(result.logits, expected)
        # one lone chunk per layer, and nothing else ran
        assert calls == {"run_batched": 2}
        # SRAM is still dematerialised, exactly as scrub() left it
        assert all(unit._storage is None for unit in chip.mem_units())

    def test_trace_enabled_chip_replays_purely(self, warm, calls):
        model, x, expected, cache, _chip = warm
        chip = TspChip(CONFIG, trace=True)
        result = model.runner.forward(x, chip=chip, cache=cache)
        assert np.array_equal(result.logits, expected)
        assert calls == {"run_batched": 2}
        assert all(unit._storage is None for unit in chip.mem_units())
        # what two simulations of the same chunks append: without a cache
        # every program is compiled afresh and simulated (the oracle)
        simulated = TspChip(CONFIG, trace=True)
        model.runner.forward(x, chip=simulated)
        assert calls["chip.run"] == 2
        assert chip.trace and chip.trace == simulated.trace

    def test_a_cold_cache_answers_by_batched_replay(self, calls):
        """A miss hands out a program carrying the plan the compiler
        finished with its schedule, so even the cold forward answers by
        batched replay: 0 simulations, cold or warm."""
        model = make_mlp()
        x = np.random.default_rng(3).standard_normal((2, 16))
        cache, chip = ProgramCache(), TspChip(CONFIG)
        cold = model.runner.forward(x, chip=chip, cache=cache)
        assert calls.get("chip.run", 0) == 0 and calls["run_batched"] == 2
        assert "replay_into" not in calls
        assert cache.snapshot()["replay_plans"] == 2
        chip.scrub()
        again = model.runner.forward(x, chip=chip, cache=cache)
        assert calls.get("chip.run", 0) == 0 and calls["run_batched"] == 4
        assert np.array_equal(cold.logits, again.logits)
        assert cold.total_cycles == again.total_cycles


class TestBypassPreserved:
    """A chip that demands real simulation never sees the pure plan."""

    def check(self, warm, calls, chip, route):
        model, x, expected, cache, _chip = warm
        calls.clear()
        result = model.runner.forward(x, chip=chip, cache=cache)
        assert calls.get(route) == 2
        assert "run_batched" not in calls
        assert np.array_equal(result.logits, expected)

    def test_injected_fault_simulates(self, warm, calls):
        chip = TspChip(CONFIG)
        FaultInjector(chip).inject_sram_fault(Hemisphere.EAST, 0, 7, 3)
        self.check(warm, calls, chip, "chip.run")

    def test_dead_slice_off_the_degraded_binary_replays(self, warm, calls):
        """The degraded binary keeps off the dead slice — its plan's
        footprint does not meet it — so the damaged chip serves it from
        the plan, bit for bit."""
        model, x, expected, cache, _chip = warm
        blacklist = Blacklist(mem_slices=frozenset({DEAD}))
        model.runner.forward(
            x, chip=TspChip(CONFIG), cache=cache, blacklist=blacklist
        )
        chip = TspChip(CONFIG)
        chip.mem_unit(*DEAD).mark_dead()
        calls.clear()
        result = model.runner.forward(
            x, chip=chip, cache=cache, blacklist=blacklist
        )
        assert calls == {"run_batched": 2}
        assert np.array_equal(result.logits, expected)


class TestIdentityResolvedOnce:
    def test_warm_batches_never_rebuild_or_rehash(self, warm, calls):
        model, x, _expected, cache, chip = warm
        for _ in range(5):
            chip.scrub()
            model.runner.forward(x, chip=chip, cache=cache)
        assert calls == {"run_batched": 10}

    def test_first_batch_resolves_each_shape_once(self, calls):
        model = make_mlp()
        x = np.random.default_rng(0).standard_normal((2, 16))
        model.runner.forward(x, chip=TspChip(CONFIG), cache=ProgramCache())
        assert calls["graph_fingerprint"] == 2  # not a second time to compile
        assert calls["build_chunk_builder"] == 2

    def test_blacklist_resolves_to_its_own_key(self, warm):
        model, _x, _expected, cache, _chip = warm
        layer = model.runner.layers[0]
        blacklist = Blacklist(mem_slices=frozenset({DEAD}))
        healthy = model.runner._resolve(layer, 8, cache, None)
        degraded = model.runner._resolve(layer, 8, cache, blacklist)
        assert healthy[2] != degraded[2]
        assert healthy[2] == healthy[0].fingerprint()
        assert degraded[2] == degraded[0].fingerprint(blacklist)
        # the shape key a miss looks its sibling up by, memoised alongside
        assert healthy[3] == healthy[0].shape_key() != degraded[3]
        assert degraded[3] == degraded[0].shape_key(blacklist)

    def test_workers_sharing_a_runner_resolve_the_same_key(self, warm):
        """Two workers race a cold runner's first resolution."""
        _model, x, expected, _cache, _chip = warm
        model, cache = make_mlp(), ProgramCache()
        barrier = threading.Barrier(2)
        outputs = []

        def worker():
            chip = TspChip(CONFIG)
            barrier.wait()
            outputs.append(
                model.runner.forward(x, chip=chip, cache=cache).logits
            )

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert len(outputs) == 2
        assert all(np.array_equal(out, expected) for out in outputs)
        # one program per layer, each compiled once: both resolved alike
        assert len(cache) == 2 and cache.stats.misses == 2
        assert set(cache._programs) == {
            key for _g, _bindings, key, _shape_key
            in model.runner._resolved.values()
        }


class TestGroupOfOneAccounting:
    """A lone chunk and a group of chunks each report one program run per
    layer: a group's chunks are the passes of one program."""

    def forward(self, model, x, cache):
        tracer = rtrace.RequestTracer(max_spans=64)
        ctx = rtrace.TraceContext(
            tracer=tracer, span_id=tracer.next_id(), batch_id=0,
            model="mlp", worker="w0",
        )
        stats = ChunkRunStats()
        token = rtrace.push(ctx)
        try:
            result = model.runner.forward(
                x, chip=TspChip(CONFIG), cache=cache, stats=stats
            )
        finally:
            rtrace.pop(token)
        spans = [s for s in tracer.spans() if s.name == "execute"]
        return result, stats, spans

    def test_lone_chunk_equals_group_per_chunk(self):
        model = make_mlp(max_vectors=8)
        rng = np.random.default_rng(2)
        lone_x = rng.standard_normal((8, 16))   # one full chunk per layer
        group_x = rng.standard_normal((24, 16))  # a group of three
        cache = ProgramCache()
        cold, cold_stats, cold_spans = self.forward(model, lone_x, cache)
        lone, lone_stats, lone_spans = self.forward(model, lone_x, cache)
        first, first_stats, _spans = self.forward(model, group_x, cache)
        group, group_stats, group_spans = self.forward(model, group_x, cache)

        # a plan's cycle count is the same whichever route replays it
        assert lone.total_cycles == cold.total_cycles
        assert group.total_cycles == first.total_cycles
        assert lone.layer_cycles == cold.layer_cycles
        # three passes behind one weight install beat three programs
        assert lone.total_cycles < group.total_cycles < 3 * lone.total_cycles

        # one lookup per program run: a layer's group is one program
        for stats, hits, result in (
            (cold_stats, 0, cold), (lone_stats, 2, lone),
            (first_stats, 0, first), (group_stats, 2, group),
        ):
            assert (stats.programs, stats.cache_hits, stats.cache_misses,
                    stats.cycles) == (2, hits, 2 - hits, result.total_cycles)

        for spans, batch, rows, replay, hit, result in (
            (cold_spans, 1, 8, True, False, cold),
            (lone_spans, 1, 8, True, True, lone),
            (group_spans, 3, 24, True, True, group),
        ):
            assert len(spans) == 2  # one per layer
            for span, layer in zip(spans, ("dense0", "dense1")):
                assert span.args == {
                    "layer": layer, "batch": batch, "rows": rows,
                    "hit": hit, "replay": replay,
                }
                assert span.cycles == result.layer_cycles[layer]
                assert span.clock_ghz == CONFIG.clock_ghz

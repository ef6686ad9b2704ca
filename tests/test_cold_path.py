"""What a never-seen model costs, counted — not timed.

``cold-churn`` in miniature: twelve FFN models of one architecture take
turns through a 4-entry :class:`ProgramCache`, so every lookup misses.
A miss is not a search: the schedule of a resident program of the same
*shape key* is bound to the new weights (``Schedule.bind``), and the
program is built at exactly the rows the request carries.  Nor is it a
simulation: the replay plan belongs to the schedule, with the memory
image among its inputs, so the bind hands the new program its own plan
(``ReplayPlan.bind``, a gather decided once per schedule) and the first
request replays.  Not even the first program of a shape simulates: the
compiler finished the plan, activity included, when it made the
schedule.  Only with no sibling resident does the scheduler run — and
the answers are the same bits either way.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from binary_digest import digest
from repro.arch import Hemisphere
from repro.compiler import cachekey
from repro.compiler import runner as runner_mod
from repro.compiler import schedule as schedule_mod
from repro.compiler.schedule import Schedule
from repro.compiler.scheduler import Scheduler
from repro.config import small_test_chip
from repro.nn.transformer import TransformerConfig
from repro.nn.tsp_inference import build_chunk_builder
from repro.obs import TelemetryCollector
from repro.resil import Blacklist
from repro.serve import ProgramCache, TransformerMlpServeModel
from repro.sim import replay as replay_mod
from repro.sim.chip import TspChip
from repro.sim.replay import ReplayPlan, ScheduleRecorder

CONFIG = small_test_chip()
FFN = TransformerConfig(
    d_model=16, n_heads=2, d_ff=32, seq_len=8, n_layers=1, vocab=64
)
N_MODELS = 12


@pytest.fixture(scope="module")
def models():
    return [
        TransformerMlpServeModel(
            f"ffn{i}", FFN, CONFIG, seed=10 * i, max_vectors_per_program=16
        )
        for i in range(N_MODELS)
    ]


def counted(monkeypatch, counts, owner, attr, name,
            amount=lambda *args: 1):
    """Count calls of ``owner.attr`` into ``counts[name]``; threads
    calling at once count without losing an increment."""
    original = getattr(owner, attr)
    lock = threading.Lock()

    def wrapper(*args, **kwargs):
        with lock:
            counts[name] = counts.get(name, 0) + amount(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of each step of a miss, and the rows bound on chip; a
    step never taken counts 0."""
    counts: Counter[str] = Counter()
    for owner, attr, name in (
        (Scheduler, "schedule", "schedule"),
        (Schedule, "bind", "bind"),
        (ScheduleRecorder, "finish", "record"),
        (TspChip, "run", "chip.run"),
    ):
        counted(monkeypatch, counts, owner, attr, name)
    counted(monkeypatch, counts, runner_mod, "bind_input", "rows",
            lambda chip, spec, data: spec.n_vectors)
    return counts


def serve_round(models, cache, token):
    """One token through every model in turn; the replies."""
    chip = TspChip(CONFIG)
    replies = []
    for model in models:
        replies.append(model.run_batch(chip, cache, [token])[0])
        chip.scrub()
    return replies


class TestNeverSeenModel:
    def test_a_miss_binds_a_resident_siblings_schedule(self, models, calls):
        token = np.random.default_rng(1).standard_normal(FFN.d_model)
        expected = [model.run_reference(token) for model in models]
        calls.clear()
        cache = ProgramCache(capacity=4)
        replies = serve_round(models, cache, token)
        assert all(np.array_equal(r, e) for r, e in zip(replies, expected))
        # two layer shapes, twelve models: the scheduler ran, and
        # finished its plan, once a shape; nothing simulated, every miss
        # replayed
        assert calls == Counter({
            "schedule": 2, "bind": 24, "record": 2, "chip.run": 0,
            "rows": 0,
        })
        snapshot = cache.snapshot()
        assert (snapshot["scheduled"], snapshot["bound"]) == (2, 24)
        # what a lookup *is* has not moved: every one of these missed
        assert (snapshot["hits"], snapshot["misses"]) == (0, 24)
        assert snapshot["evictions"] == 20 and snapshot["hit_rate"] == 0
        # the steady state of the churn: the siblings never leave
        assert serve_round(models, cache, token)[0].tobytes() == (
            expected[0].tobytes()
        )
        assert calls["schedule"] == 2 and calls["bind"] == 48

    def test_a_miss_after_the_first_round_only_gathers(
        self, models, monkeypatch
    ):
        """Every builder's shape key is hashed by its first resolution,
        the image is packed as one array, and each schedule's plan decides
        its recipe once: a later miss hashes nothing, makes no
        ``MemWord`` and runs the interpreter only to replay."""
        token = np.random.default_rng(3).standard_normal(FFN.d_model)
        expected = [model.run_reference(token) for model in models]
        cache = ProgramCache(capacity=4)
        serve_round(models, cache, token)
        counts: dict[str, int] = {}
        for owner, attr in (
            (cachekey, "_fingerprint"), (schedule_mod, "MemWord"),
            (Schedule, "bind"), (ReplayPlan, "run_batched"),
            (ReplayPlan, "_execute_ops"),
        ):
            counted(monkeypatch, counts, owner, attr, attr)
        replies = serve_round(models, cache, token)
        assert all(np.array_equal(r, e) for r, e in zip(replies, expected))
        # 24 misses, each a bind and a replay — the replay's the only
        # interpreter run
        assert counts == {"bind": 24, "run_batched": 24, "_execute_ops": 24}

    def test_a_watched_round_walks_each_schedules_issue_order_once(
        self, models, monkeypatch
    ):
        """A telemetry collector is charged each replay's dispatches
        (``ReplayPlan.trace``), and a binding reads them off its
        schedule's plan: twelve models and two schedules walk the issue
        order twice, not once a miss."""
        token = np.random.default_rng(4).standard_normal(FFN.d_model)
        counts: dict[str, int] = {}
        counted(monkeypatch, counts, replay_mod, "issue_order", "issue_order")
        charged = []
        counted(monkeypatch, counts, ReplayPlan, "charge", "charge",
                lambda plan, chip, runs: charged.append(plan) or runs)
        chip, collector = TspChip(CONFIG), TelemetryCollector()
        cache = ProgramCache(capacity=4)
        chip.attach_telemetry(collector)
        for model in models:
            model.run_batch(chip, cache, [token])
            chip.scrub()
        assert cache.snapshot()["scheduled"] == 2
        assert counts == {"issue_order": 2, "charge": 24}
        assert len({id(plan) for plan in charged}) == 24
        assert len({id(plan.trace) for plan in charged}) == 2
        assert all(plan.trace is plan.schedule.trace for plan in charged)
        assert len(collector.dispatch_log) == sum(
            len(plan.trace) for plan in charged
        )

    def test_no_sibling_resident_schedules_and_answers_the_same(
        self, models, calls
    ):
        """Capacity 1: the only resident program is the other layer's."""
        token = np.random.default_rng(2).standard_normal(FFN.d_model)
        borrowed = serve_round(models, ProgramCache(capacity=4), token)
        calls.clear()
        lonely = ProgramCache(capacity=1)
        scheduled = serve_round(models, lonely, token)
        assert calls["schedule"] == calls["bind"] == 24
        assert lonely.snapshot()["scheduled"] == 24
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(borrowed, scheduled)
        )

    def test_a_blacklist_never_borrows_a_healthy_schedule(self, models, calls):
        lost = Blacklist(mxm_planes=frozenset({(Hemisphere.WEST, 0)}))
        layers = [model.runner.layers[0] for model in models[:2]]
        seen, unseen = (
            build_chunk_builder(CONFIG, layer, 1)[0] for layer in layers
        )
        fresh = digest(unseen.compile)
        fresh_degraded = digest(lambda: unseen.compile(blacklist=lost))
        cache = ProgramCache(capacity=4)
        resident, *_ = cache.get_or_compile(seen)
        calls.clear()
        degraded, _key, hit, _s = cache.get_or_compile(unseen, blacklist=lost)
        # a schedule of its own, its plan finished with it: no run
        once = {"schedule": 1, "record": 1, "chip.run": 0, "rows": 0}
        assert not hit and calls == Counter({**once, "bind": 1})
        assert digest(lambda: degraded) == fresh_degraded != fresh
        # ... while the same model, healthy, does borrow — from the
        # healthy resident, not from its own degraded program — and its
        # finished plan with it
        healthy, *_ = cache.get_or_compile(unseen)
        assert calls == Counter({**once, "bind": 2})
        assert digest(lambda: healthy) == fresh
        assert healthy.schedule is resident.schedule


class TestSiblingMissesSingleFlight:
    def test_threads_missing_on_siblings_schedule_once(self, models, calls):
        """More threads than cores, each with a model of its own, all
        missing at once on an empty cache: whoever learns the shape key
        first schedules, the rest wait for it and bind."""
        builders = [
            build_chunk_builder(CONFIG, model.runner.layers[0], 1)[0]
            for model in models[:8]
        ]
        cache = ProgramCache(capacity=16)
        barrier = threading.Barrier(len(builders))
        programs = [None] * len(builders)

        def worker(i):
            barrier.wait(10)
            programs[i] = cache.get_or_compile(builders[i])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(builders))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls["schedule"] == 1 and calls["bind"] == len(builders)
        assert len({id(p.schedule) for p in programs}) == 1
        assert len({p.cache_key for p in programs}) == len(builders)
        for builder, program in zip(builders, programs):
            assert digest(lambda: program) == digest(builder.compile)
        snapshot = cache.snapshot()
        assert (snapshot["scheduled"], snapshot["bound"]) == (1, 8)
        assert (snapshot["hits"], snapshot["misses"]) == (0, 8)

    def test_a_failed_schedule_is_not_waited_on_forever(self, models):
        """The sibling a miss waits for may fail; the waiter then
        schedules for itself."""
        builder = build_chunk_builder(CONFIG, models[0].runner.layers[0], 1)[0]

        class Exploding:
            graph, config, timing = builder.graph, builder.config, None
            entered, release = threading.Event(), threading.Event()

            def compile(self, blacklist=None, cache_key=None):
                self.entered.set()
                self.release.wait(10)
                raise RuntimeError("scheduler exploded")

        cache = ProgramCache(capacity=4)
        doomed = threading.Thread(
            target=lambda: pytest.raises(
                RuntimeError, cache.get_or_compile, Exploding(), None, "doomed"
            )
        )
        doomed.start()
        assert Exploding.entered.wait(10)
        sibling = build_chunk_builder(
            CONFIG, models[1].runner.layers[0], 1
        )[0]
        result = []
        waiter = threading.Thread(
            target=lambda: result.append(cache.get_or_compile(sibling))
        )
        waiter.start()
        Exploding.release.set()
        doomed.join(30)
        waiter.join(30)
        assert not doomed.is_alive() and not waiter.is_alive()
        program, _key, hit, _s = result[0]
        assert not hit and digest(lambda: program) == digest(sibling.compile)

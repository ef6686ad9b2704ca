"""The schedule-replay engine (:mod:`repro.sim.replay`).

The TSP's determinism means a compiled program's execution plan is a pure
function of the binary — only the data changes between runs.  These tests
pin the contract that makes emit-once/replay-many safe:

* the compiler emits a finished :class:`ReplayPlan` with every schedule,
  whose inputs include the memory image and whose activity it counted;
  every program of the schedule binds it and replays bit-identically
  (outputs, memory, cycles, activity) from its first run;
* the batched entry point equals B sequential executions;
* any instrument that observes or steers a run, and any unit fault the
  run touches (the chip's state record says which attribute is which),
  bypasses the plan and falls back to real simulation (fail-closed); a
  fault the run never touches leaves the plan answering;
* the serving pool's checkout path flags fault hooks so a chaos window
  never serves replayed results, and repair probes never poison replay
  (the checkout scrub restores pristine state);
* scrub keeps chip reuse bit-exact (the trimmed scrub fast path).
"""

import inspect
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from corpus import draw_inputs
from golden_programs import GOLDEN_PROGRAMS
from repro.arch import Direction, DType, Floorplan, Hemisphere
from repro.compiler import PartitionPlan, StreamProgramBuilder, execute
from repro.compiler.runner import execute_batched
from repro.errors import MemoryFaultError
from repro.obs import TelemetryCollector
from repro.resil import Blacklist
from repro.resil.health import HealthMonitor, Watchdog
from repro.serve import ChipPool, DynamicBatcher, ProgramCache
from repro.serve.resilient import probe_memory
from repro.sim import LinkErrorModel, MultiChipSystem, TspChip
from repro.sim.chip import BENIGN, CONFIGURATION, INSTRUMENT, KEPT, STATE
from repro.sim.faults import FaultInjector
from repro.sim.icu import QueueSet
from repro.sim.mxm import MxmUnit
from repro.sim.replay import ReplayPlan, flights, replay_allowed
from repro.sim.streamreg import StreamRegisterFile
from repro.verify import assert_lockstep
from repro.verify.suite import PROGRAMS

N_ROWS, K, M = 4, 16, 8


def input_matmul_builder(config, seed=0):
    """An int8 matmul whose activations are a run-time input tensor; the
    ``seed`` draws only the weights, so every seed is one schedule."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-12, 12, (K, M)).astype(np.int8)
    g = StreamProgramBuilder(config)
    acts = g.input_tensor("acts", (N_ROWS, K))
    g.write_back(g.matmul(w, acts, name="weights"), name="acc")
    return g, w


def build_input_matmul(config, seed=0):
    g, w = input_matmul_builder(config, seed)
    return g.compile(), w


def acts_for(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-90, 90, (N_ROWS, K)).astype(np.int8)


def oracle(x, w):
    return x.astype(np.int32) @ w.astype(np.int32)


def planned_program(config, seed=0):
    """Compile a program: it carries a usable plan from the start."""
    compiled, w = build_input_matmul(config, seed=seed)
    assert compiled.replay is not None and compiled.replay.ok
    return compiled, w


class TestRecordReplay:
    def test_first_run_replays_bit_identical(self, config):
        compiled, w = build_input_matmul(config)
        plan = compiled.replay  # bound at compile time, before any run
        assert plan is not None and plan.ok, plan and plan.reason
        assert plan.activity is not None
        x1, x2 = acts_for(1), acts_for(2)
        first = execute(compiled, inputs={"acts": x1})
        assert first.run.skipped_cycles == first.run.cycles
        assert np.array_equal(first["acc"], oracle(x1, w))

        replayed = execute(compiled, inputs={"acts": x2})
        reference = execute(compiled, inputs={"acts": x2}, replay=False)
        assert np.array_equal(replayed["acc"], oracle(x2, w))
        assert np.array_equal(replayed["acc"], reference["acc"])
        assert replayed.run.cycles == reference.run.cycles
        assert replayed.run.instructions == reference.run.instructions
        assert replayed.run.activity == reference.run.activity
        # a replay walks no cycle, whichever engine the reference ran on
        assert replayed.run.skipped_cycles == replayed.run.cycles

    def test_replay_leaves_identical_chip_memory(self, config):
        compiled, _ = planned_program(config)
        x = acts_for(3)
        real_chip = TspChip(config)
        execute(compiled, chip=real_chip, inputs={"acts": x}, replay=False)
        replay_chip = TspChip(config)
        replayed = execute(compiled, chip=replay_chip, inputs={"acts": x})
        assert replayed.run.skipped_cycles == replayed.run.cycles
        assert real_chip.memory_image() == replay_chip.memory_image()

    def test_replay_disabled_simulates(self, config):
        compiled, w = build_input_matmul(config)
        x = acts_for(4)
        result = execute(compiled, inputs={"acts": x}, replay=False)
        assert compiled.replay.ok and result.run.skipped_cycles == 0
        assert np.array_equal(result["acc"], oracle(x, w))


class TestOnePlanPerSchedule:
    """The plan is emitted and finished once per schedule, with the memory
    image among its inputs, and bound to every program of that schedule."""

    def test_a_never_seen_model_replays_its_first_run(self, config):
        seen, _ = input_matmul_builder(config, seed=0)
        unseen, w = input_matmul_builder(config, seed=1)
        first = seen.compile()
        finished = first.schedule.plan  # before anything has run
        assert finished is not None and finished.ok
        assert finished.activity is not None
        program = unseen.bind(first.schedule)
        assert program.replay.ok and program.replay.activity is finished.activity
        x = acts_for(2)
        result = execute(program, inputs={"acts": x})
        assert result.run.skipped_cycles == result.run.cycles
        assert np.array_equal(result["acc"], oracle(x, w))
        assert first.schedule.plan is finished

    def test_threads_bind_one_plan_to_their_own_weights(self, config):
        """More threads than cores each replay the one schedule plan for
        a model of its own at once: every answer is its own model's, and
        the plan stays the schedule's."""
        seen, _ = input_matmul_builder(config, seed=0)
        first = seen.compile()
        models = [input_matmul_builder(config, seed=s) for s in range(1, 9)]
        programs = [g.bind(first.schedule) for g, _w in models]
        finished = first.schedule.plan
        x = acts_for(3)
        results = [None] * len(programs)
        barrier = threading.Barrier(len(programs))

        def worker(i):
            barrier.wait(10)
            results[i] = execute(programs[i], inputs={"acts": x})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(programs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (_g, w), result in zip(models, results):
            assert result.run.skipped_cycles == result.run.cycles
            assert np.array_equal(result["acc"], oracle(x, w))
        assert first.schedule.plan is finished

    def test_an_input_derived_weight_install_fails_closed(self, config):
        """No compiled program installs weights it reads from an input,
        but a plan that did would bind to a refusal, never to a guess —
        decided once per plan, from its ops, whatever image is bound."""
        compiled, _ = planned_program(config)
        key = compiled.replay.in_words[0][3]
        plan = replace(compiled.replay, ops=[
            ("read", 0, key),
            ("install", 1, DType.INT8, 1, config.n_lanes, [("s", 0)]),
        ])
        bound = plan.bind(compiled.image)
        assert not bound.ok
        assert bound.reason == "input-derived IW weight install"
        recipe = plan.recipe
        plan.ops = []  # a second walk would find nothing to refuse
        redrawn_image = np.random.default_rng(1).integers(
            0, 256, compiled.image.shape, dtype=np.uint8
        )
        again = plan.bind(redrawn_image)
        assert plan.recipe is recipe
        assert not again.ok
        assert again.reason == "input-derived IW weight install"


class TestPlanSharesTheInstalledWeights:
    def test_dot_ops_of_one_install_hold_one_widened_matrix(self, config):
        """The int64 weights are widened once per ``IW``, not once per row:
        a 32-row plan retains one matrix per MXM plane it ran on — all
        four, for weights this cheap to copy to the far hemisphere."""
        rows, k, m = 32, 9, 4
        rng = np.random.default_rng(0)
        w = rng.integers(-12, 12, (k, m)).astype(np.int8)
        g = StreamProgramBuilder(config)
        acts = g.input_tensor("acts", (rows, k))
        g.write_back(g.matmul(w, acts, name="weights"), name="acc")
        compiled = g.compile()
        x = rng.integers(-90, 90, (rows, k)).astype(np.int8)
        result = execute(compiled, inputs={"acts": x})
        assert np.array_equal(result["acc"], oracle(x, w))
        dots = [op for op in compiled.replay.ops if op[0] == "dot"]
        assert len(dots) == rows
        matrices = {id(op[4]): op[4] for op in dots}
        assert len(matrices) == compiled.stats.mxm_planes == 4
        lanes = config.n_lanes
        retained = sum(wide.nbytes for wide in matrices.values())
        assert retained == 4 * k * lanes * 8  # was one copy per row: 8x
        replayed = execute_batched(compiled, [{"acts": x}])
        assert np.array_equal(replayed[0]["acc"], result["acc"])


class TestLockstep:
    """The comparator's modes (``tests/test_corpus.py`` runs it on every
    corpus program): simulation, write-through replay and batched replay
    agree on every observable surface."""

    def test_lockstep_with_warmup_barrier(self):
        builder = GOLDEN_PROGRAMS["matmul"]()
        compiled = builder.compile()
        result = assert_lockstep(
            compiled, timing=builder.timing, warmup_barrier=True
        )
        assert result.ok and result.replay is not None, result.plan.reason
        # the barrier's park/release epoch is part of the compared run
        assert result.replay.run.cycles > compiled.stats.makespan + 1

    def test_lockstep_with_ecc(self):
        builder = GOLDEN_PROGRAMS["conv3"]()
        result = assert_lockstep(
            builder.compile(), timing=builder.timing, enable_ecc=True
        )
        assert result.ok and result.replay is not None, result.plan.reason

    def test_a_divergence_is_reported(self, config):
        """The comparator is not vacuous: a replay that lands one wrong
        byte, or one cycle off, fails it and says where."""
        from repro.errors import DivergenceError
        from repro.sim.replay import ReplayPlan

        compiled, _ = build_input_matmul(config)
        honest = ReplayPlan.replay_into

        def off_by_one(plan, chip):
            run = honest(plan, chip)
            run.cycles += 1
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ReplayPlan, "replay_into", off_by_one)
            with pytest.raises(DivergenceError, match="cycles: simulated="):
                assert_lockstep(compiled, inputs={"acts": acts_for(5)})

    def test_a_miscounted_activity_is_reported(self, config):
        """The activity the compiler counted is held against the
        simulated run's, not a copy of that run against itself: a plan
        that counts one ``read`` too few fails the comparator."""
        from repro.errors import DivergenceError

        compiled, _ = build_input_matmul(config)
        plan = compiled.schedule.plan
        short = replace(
            plan.activity,
            sram_read_bytes=plan.activity.sram_read_bytes - config.n_lanes,
        )
        compiled.schedule.plan = replace(plan, activity=short)
        with pytest.raises(DivergenceError, match="activity: simulated="):
            assert_lockstep(compiled, inputs={"acts": acts_for(5)})


class TestHopSweep:
    def test_the_sweep_counts_what_the_register_file_counts(self, config):
        """Each bound of the plan's hop count, held against the register
        file stepped cycle by cycle: values that reach the die edge, that
        the run's end cuts off, and — what the stream allocator never
        lets a schedule do — that a later drive onto the register they
        flow into overwrites."""
        floorplan = Floorplan(config)
        n = floorplan.n_positions
        east, west = Direction.EASTWARD, Direction.WESTWARD
        drives = [
            (east, 0, 0, 0), (east, 0, 3, 3),  # the second overwrites
            (west, 1, n - 1, 1), (west, 1, n - 3, 3),  # likewise
            (east, 2, n - 2, 0),  # leaves the die after one hop
            (west, 3, n - 1, 6),  # the run ends first
        ]
        cycles = 10
        srf = StreamRegisterFile(config, floorplan)
        vector = np.ones(config.n_lanes, np.uint8)
        for t in range(cycles):
            for direction, stream, position, at in drives:
                if at == t:
                    srf.drive(direction, stream, position, vector)
            srf.step()

        def hops(drives):
            return sum(h for _d, _t, h, _o in flights(drives, n, cycles))

        assert 0 < hops(drives) * config.n_lanes == srf.hop_bytes_total
        # without the overwrite bound the sweep would count more
        assert hops(drives[:1]) + hops(drives[1:]) > hops(drives)


class TestLazyPlanTrace:
    """A plan reads its dispatch events off the program on demand."""

    def test_trace_off_recording_replays_the_simulated_trace(self, config):
        """Simulated vs replayed: the plan's dispatch events, read off the
        program text, equal the ones the simulation recorded."""
        compiled, _ = build_input_matmul(config)
        result = assert_lockstep(compiled, inputs={"acts": acts_for(5)})
        assert result.replay is not None, result.plan.reason
        assert result.replay.run.trace  # non-empty, and == simulated
        assert result.replay.run.trace == result.simulated.run.trace

    def test_nothing_is_formatted_until_a_trace_is_asked_for(self, config):
        compiled, _ = planned_program(config)
        plan = compiled.replay
        assert "trace" not in vars(plan)
        quiet = TspChip(config)
        replayed = execute(compiled, chip=quiet, inputs={"acts": acts_for(6)})
        assert replayed.run.skipped_cycles == replayed.run.cycles
        assert replayed.run.trace == [] and "trace" not in vars(plan)

        traced = TspChip(config, trace=True)
        replayed = execute(compiled, chip=traced, inputs={"acts": acts_for(6)})
        assert replayed.run.skipped_cycles == replayed.run.cycles
        simulated = TspChip(config, trace=True)
        reference = execute(
            compiled, chip=simulated, inputs={"acts": acts_for(6)},
            replay=False,
        )
        assert replayed.run.trace == reference.run.trace
        assert traced.trace == simulated.trace
        assert "trace" in vars(plan)


class TestReplayWorkCounts:
    """What a replay costs, as counts: no cycle walked, no queue dispatched,
    each plan op run once however many inputs ride the batch."""

    @pytest.fixture()
    def entered(self, monkeypatch):
        counts = {}

        def counted(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[attr] = counts.get(attr, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        counted(TspChip, "step_cycle")
        counted(QueueSet, "dispatch")
        counted(StreamRegisterFile, "step")
        counted(StreamRegisterFile, "flush")
        return counts

    @staticmethod
    def count_ops(plan):
        """Swap in an op list that logs every op the interpreter takes."""
        taken = []

        class Logged(list):
            def __iter__(self):
                for op in list.__iter__(self):
                    taken.append(op[0])
                    yield op

        plan.ops = Logged(plan.ops)
        return taken

    def test_write_through_replay_walks_no_cycle(self, config, entered):
        compiled, _ = planned_program(config)
        plan = compiled.replay
        taken = self.count_ops(plan)
        chip = TspChip(config)
        entered.clear()
        result = execute(compiled, chip=chip, inputs={"acts": acts_for(7)})
        # begin_run's drain of whatever the last run left in flight is the
        # only stream movement; nothing steps, nothing dispatches
        assert entered == {"flush": 1}
        assert len(taken) == len(plan.ops)
        assert result.run.cycles - result.run.skipped_cycles == 0

    @pytest.mark.parametrize("B", [1, 5])
    def test_batched_replay_runs_each_op_once_whatever_B(
        self, config, entered, B
    ):
        compiled, _ = planned_program(config)
        plan = compiled.replay
        taken = self.count_ops(plan)
        chip = TspChip(config)
        entered.clear()
        results = execute_batched(
            compiled, [{"acts": acts_for(i)} for i in range(B)], chip=chip
        )
        assert len(results) == B
        assert entered == {}
        assert len(taken) == len(plan.ops)
        for res in results:
            assert res.run.cycles - res.run.skipped_cycles == 0


class TestStoredOnce:
    """An emitted vector is narrowed once, into one lane-padded array of
    its output dtype, and its byte planes are views of that array."""

    #: int64 accumulators at, inside and beyond the int32 range
    INT = np.array([
        [0, 1, -1, 2 ** 31 - 1, 2 ** 31, -(2 ** 31), -(2 ** 31) - 1],
        [2 ** 40, -(2 ** 40), 2 ** 63 - 1, -(2 ** 63), 12345, -6789, 255],
        [2 ** 31 - 2, -(2 ** 31) + 1, 2 ** 32, -(2 ** 32), 256, -256, 7],
    ], dtype=np.int64)
    #: fp16 products' float64 sums, some of which fp32 rounds
    FLOAT = np.array([
        [0.0, -0.0, 0.1, -2.5, 1 / 3, 3.0000001, 65504.0 * 65504.0],
        [1e-40, -1e-45, 2.0 ** -126, 1.5, -1e30, 7.0, 0.2],
    ], dtype=np.float64)

    @staticmethod
    def replayed(config, value, out_dtype):
        """The planes an ``emit`` of ``value`` stores, one per byte."""
        plan = ReplayPlan(config=config, timing=None, program=None, cycles=1)
        n = out_dtype.n_bytes
        values = [value] + [None] * n
        plan._execute_ops(
            [("emit", list(range(1, n + 1)), ("s", 0), out_dtype)],
            values, None, None, value.shape[0],
        )
        return values[1:]

    @staticmethod
    def simulated(config, row, out_dtype):
        """The planes the simulator's MXM (``MxmUnit._emit``) drives for
        one row of accumulators."""
        driven = []
        unit = SimpleNamespace(
            chip=SimpleNamespace(config=config),
            drive_at=lambda _cycle, _direction, _stream, v: driven.append(v),
            apply_superlane_power=lambda v: v,
        )
        MxmUnit._emit(
            unit, SimpleNamespace(cols=row.shape[0]),
            SimpleNamespace(out_dtype=out_dtype, direction=None,
                            base_stream=0),
            row, 0,
        )
        return driven

    @pytest.mark.parametrize("out_dtype", [DType.INT32, DType.FP32])
    def test_an_emit_stores_the_mxms_planes(self, config, out_dtype):
        value = self.INT if out_dtype is DType.INT32 else self.FLOAT
        planes = self.replayed(config, value, out_dtype)
        assert len(planes) == out_dtype.n_bytes
        for b, row in enumerate(value):
            expected = self.simulated(config, row, out_dtype)
            assert [plane[b].tobytes() for plane in planes] == [
                plane.tobytes() for plane in expected
            ], b

    def test_an_emitted_vectors_planes_share_one_buffer(self, config):
        """Four interleaved views of one ``(B, lanes)`` int32 array — no
        plane is a copy, and none overlaps another's bytes."""
        planes = self.replayed(config, self.INT, DType.INT32)

        def root(array):
            while array.base is not None:
                array = array.base
            return array

        (buffer,) = {id(root(plane)): root(plane) for plane in planes}.values()
        assert buffer.nbytes == 3 * config.n_lanes * 4
        for b, plane in enumerate(planes):
            assert plane.shape == (3, config.n_lanes)
            assert np.shares_memory(plane, buffer)
            assert not any(np.shares_memory(plane, other)
                           for other in planes[b + 1:])


class TestBatched:
    def test_batched_matches_sequential(self, config):
        compiled, w = planned_program(config)
        xs = [acts_for(10 + i) for i in range(5)]
        results = execute_batched(
            compiled, [{"acts": x} for x in xs]
        )
        assert results is not None and len(results) == len(xs)
        for x, res in zip(xs, results):
            reference = execute(
                compiled, inputs={"acts": x}, replay=False
            )
            assert np.array_equal(res["acc"], oracle(x, w))
            assert np.array_equal(res["acc"], reference["acc"])
            assert res.run.cycles == reference.run.cycles
            assert res.run.activity == reference.run.activity

    @pytest.mark.parametrize("name, build", [
        (name, build) for name, build in PROGRAMS if name.startswith("fed-")
    ])
    def test_input_fed_ops_match_three_simulations(self, config, name, build):
        """``vxm1`` / ``vxm2`` / ``vxmc`` / ``route`` / fp16 ``dot``: the ops
        a constants-only program folds away, fed three distinct inputs in
        one pass against three real simulations."""
        builder, _inputs = build(config)
        compiled = builder.compile()
        assert compiled.replay.ok, compiled.replay.reason
        batch = [draw_inputs(builder, seed) for seed in (1, 2, 3)]
        results = execute_batched(compiled, batch)
        assert results is not None
        for bound, res in zip(batch, results):
            reference = execute(compiled, inputs=bound, replay=False)
            for out, expected in reference.outputs.items():
                assert res[out].tobytes() == expected.tobytes(), (name, out)

    def test_batched_accounts_on_the_chip(self, config):
        compiled, _ = planned_program(config)
        plan = compiled.replay
        chip = TspChip(config)
        results = execute_batched(
            compiled, [{"acts": acts_for(20 + i)} for i in range(3)],
            chip=chip,
        )
        assert results is not None
        assert chip.activity.instructions == plan.activity.instructions * 3
        assert (
            chip.activity.stream_hop_bytes
            == plan.activity.stream_hop_bytes * 3
        )

    def test_batched_replay_leaves_the_final_cycle_on_the_chip(self, config):
        """``chip.now`` after a batch is where a simulation of its last
        input leaves it, so a health poll reports the cycle it ran to."""
        compiled, _ = planned_program(config)
        simulated = TspChip(config)
        execute(compiled, chip=simulated, inputs={"acts": acts_for(25)},
                replay=False)
        chip = TspChip(config)
        chip.scrub()
        assert chip.now == 0
        execute_batched(
            compiled, [{"acts": acts_for(25 + i)} for i in range(2)],
            chip=chip,
        )
        assert chip.now == compiled.replay.final_now == simulated.now > 0
        assert HealthMonitor().poll(chip).cycle == simulated.now

    def test_batched_empty_and_unrecorded(self, config):
        compiled, _ = build_input_matmul(config)
        assert execute_batched(compiled, []) == []
        # a program with no schedule has no plan -> the caller must fall
        # back
        assert execute_batched(
            replace(compiled, schedule=None), [{"acts": acts_for(0)}]
        ) is None


EAST = Hemisphere.EAST


def _on_fresh_chip(perturb, undo=TspChip.scrub):
    """A bypass-table row: ``perturb`` a fresh chip, ``undo`` it later."""

    def setup(config):
        chip = TspChip(config)
        perturb(chip)
        return chip, lambda: undo(chip)

    return setup


def _pool_checkout_hook(config):
    pool = ChipPool(config, [], DynamicBatcher(), ProgramCache(), n_workers=1)
    worker = pool.workers[0]
    worker.inject_at_checkout(lambda hw: None)
    worker._checkout()
    # the hook was one-shot: the next checkout scrubs the flag away
    return worker.chip, worker._checkout


#: each public ``FaultInjector`` method and its arguments: the planned
#: program lives in the West, so East MEM slice 0 faults spare its run
INJECTIONS = {
    "inject_sram_fault": (EAST, 0, 7, 3),
    "inject_double_sram_fault": (EAST, 0, 7, (3, 4)),
    "inject_stream_fault": (Direction.EASTWARD, 0, 0, 5),
    "inject_double_stream_fault": (Direction.EASTWARD, 0, 0, (3, 4)),
    "inject_stream_fault_at": (22, Direction.EASTWARD, 28, 2, 3),
    "csr_corrections": (),
    "wearout_flag": (),
}


def _injected(name):
    return _on_fresh_chip(
        lambda chip: getattr(FaultInjector(chip), name)(*INJECTIONS[name])
    )


#: ``entry: (label, setup)``: how to set each instrument and unit fault
PERTURBATIONS = {
    "error_model": ("link-error-model", _on_fresh_chip(
        lambda chip: chip.c2c_unit(EAST).set_error_model(
            0, LinkErrorModel(dead_after=0)),
        lambda chip: chip.c2c_unit(EAST).set_error_model(0, None))),
    "dead": ("dead-slice", _on_fresh_chip(
        lambda chip: chip.mem_unit(EAST, 0).mark_dead(),
        lambda chip: chip.mem_unit(EAST, 0).revive())),
    "faults_injected": ("sram-flip", _injected("inject_sram_fault")),
    "events": ("stream-flip-armed", _injected("inject_stream_fault_at")),
    "superlanes_off": ("superlane-off", _on_fresh_chip(
        lambda chip: chip.set_superlane_power(0, False),
        lambda chip: chip.set_superlane_power(0, True))),
    "watchdog": ("watchdog-armed", _on_fresh_chip(
        lambda chip: chip.arm_watchdog(Watchdog(deadline=10**9, label="t")),
        TspChip.disarm_watchdog)),
    "external_fault_hooks": ("pool-checkout-hook", _pool_checkout_hook),
}
#: the faults above the planned program never touches: East, a link
UNTOUCHED = ("dead", "error_model")
#: injections that set an entry another row sets
DOUBLES = {"double-sram-flip": _injected("inject_double_sram_fault")}
#: injections whose flip the next run's start drains: it never sees them
DRAINED = ("inject_stream_fault", "inject_double_stream_fault")


def _rows(untouched):
    rows = {label: setup for entry, (label, setup) in PERTURBATIONS.items()
            if (entry in UNTOUCHED) == untouched}
    rows.update({} if untouched else DOUBLES)
    return [pytest.param(setup, id=label) for label, setup in rows.items()]


def _transfer_row(config, perturb, replays, blacklist=None):
    """The boundary transfer out of stage 0 of a 3-chip ring ``perturb``
    set up: its plan answers iff ``replays``, and lands the words a
    simulation of an identically perturbed ring lands, every chip's run
    equal to the simulated one's."""
    plan = PartitionPlan.plan(["a", "b", "c"], [1.0] * 3, 3, config, 24)
    payload = np.arange(3 * config.n_lanes).astype(np.uint8).reshape(3, -1)
    outcomes = []
    for replay in (True, False):
        system = MultiChipSystem.ring(config, 3)
        perturb(system)
        transfer = plan.transfer(system, 0, len(payload),
                                 blacklist=blacklist)
        if replay:
            assert transfer.replays(system) == replays
        landed, runs = transfer.run(system, payload, replay=replay)
        outcomes.append((landed.tobytes(), runs))
    (landed, runs), (simulated, reference) = outcomes
    assert landed == simulated == payload.tobytes()
    for run, ref in zip(runs, reference):
        assert run.skipped_cycles == (run.cycles if replays else 0)
        assert (run.cycles, run.activity) == (ref.cycles, ref.activity)


def _allowed(plan, chip):
    return replay_allowed(plan, chip, max_cycles=10**6, warmup_barrier=False)


def _run_row(config, setup, replays):
    """The plan answers for a chip ``setup`` perturbed iff ``replays``,
    equal to a simulation of a twin, and once that is undone it does."""
    compiled, _ = planned_program(config)
    x, (chip, undo) = acts_for(30), setup(config)
    assert _allowed(compiled.replay, chip) == replays
    result = execute(compiled, chip=chip, inputs={"acts": x})
    reference = execute(
        compiled, chip=setup(config)[0], inputs={"acts": x}, replay=False
    )
    assert result.run.skipped_cycles == (result.run.cycles if replays else 0)
    assert np.array_equal(result["acc"], reference["acc"])
    assert result.run.cycles == reference.run.cycles
    assert result.run.activity == reference.run.activity
    undo()
    again = execute(compiled, chip=chip, inputs={"acts": x})
    assert again.run.skipped_cycles == again.run.cycles


class TestBypass:
    """A plan answers for a chip only where nothing it runs through is
    perturbed: every instrument, and every unit fault its run touches,
    forces real simulation (fail-closed)."""

    def test_every_attribute_is_declared(self, config):
        """A fresh chip and each of its parts hold exactly the attributes
        the state record names — a field added untagged fails here — and
        a scrub resets each benign and instrument one, no configuration."""
        parts = TspChip(config).parts
        assert set(parts) == set(STATE)
        for kind, group in parts.items():
            for part in group:
                assert set(vars(part)) == set(STATE[kind]), kind.__name__
        kept = {(e.tag, e.fresh is KEPT)
                for record in STATE.values() for e in record.values()}
        assert not kept & {(CONFIGURATION, False), (BENIGN, True),
                           (INSTRUMENT, True)}

    def test_every_instrument_and_unit_fault_has_a_perturbation(
        self, config
    ):
        """A row per instrument or unit-fault entry and per public injector
        method: a write makes the chip refuse the plan, a CSR read or a
        flip the run never sees not."""
        assert set(PERTURBATIONS) == {
            name for record in STATE.values()
            for name, entry in record.items()
            if entry.tag not in (CONFIGURATION, BENIGN)
        }
        injector = {name for name, _ in inspect.getmembers(
            FaultInjector, inspect.isfunction) if not name.startswith("_")}
        assert injector == set(INJECTIONS)
        plan = planned_program(config)[0].replay
        for name, args in INJECTIONS.items():
            chip = TspChip(config)
            read = getattr(FaultInjector(chip), name)(*args)
            assert _allowed(plan, chip) == (
                read is not None or name in DRAINED
            ), name

    @pytest.mark.parametrize("setup", _rows(untouched=False))
    def test_perturbed_chip_simulates(self, config, setup):
        _run_row(config, setup, replays=False)

    @pytest.mark.parametrize("setup", _rows(untouched=True))
    def test_a_fault_the_plan_does_not_touch_replays(self, config, setup):
        """A dead slice off the footprint, or a link error model."""
        assert (EAST, 0) not in planned_program(config)[0].replay.footprint
        _run_row(config, setup, replays=True)

    @pytest.mark.parametrize("name", DRAINED)
    def test_a_flip_made_before_the_run_is_drained(self, config, name):
        """A stream flip made between runs is gone when the next one
        starts, so the plan answers — equal to a simulation of a twin,
        and the healthy result."""
        _run_row(config, _injected(name), replays=True)
        compiled, w = planned_program(config)
        x, (chip, _undo) = acts_for(30), _injected(name)(config)
        assert chip.srf._dirty
        result = execute(compiled, chip=chip, inputs={"acts": x})
        assert np.array_equal(result["acc"], oracle(x, w))

    def test_a_watched_chip_replays(self, config):
        """A telemetry collector is charged with what ran, not watching it
        run: the chip replays, to a simulated twin's result and counts."""
        _run_row(config, _on_fresh_chip(
            lambda chip: chip.attach_telemetry(TelemetryCollector()),
            TspChip.detach_telemetry), replays=True)

    def test_a_dead_slice_the_plan_touches_faults(self, config):
        """The batched route declines; ``execute`` simulates into it."""
        compiled, _ = planned_program(config)
        x, chip = acts_for(30), TspChip(config)
        chip.mem_unit(*min(compiled.replay.footprint, key=str)).mark_dead()
        assert not _allowed(compiled.replay, chip)
        assert execute_batched(compiled, [{"acts": x}], chip=chip) is None
        with pytest.raises(MemoryFaultError, match="slice is dead"):
            execute(compiled, chip=chip, inputs={"acts": x})

    def test_armed_flip_fires_in_the_run_it_was_armed_for(self, config):
        """A flip armed for a future cycle belongs to the next run on that
        chip: the plan must not answer around it with the healthy result
        and leave it waiting for whichever run comes after."""
        compiled, w = planned_program(config)
        x = acts_for(31)
        chip = TspChip(config)
        injector = FaultInjector(chip)
        injector.inject_stream_fault_at(22, Direction.EASTWARD, 28, 2, 3)
        assert chip.events.pending == 1
        result = execute(compiled, chip=chip, inputs={"acts": x})
        assert result.run.skipped_cycles == 0
        assert len(injector.log) == 1 and chip.events.pending == 0
        assert not np.array_equal(result["acc"], oracle(x, w))  # it landed

    def test_plan_bound_checks(self, config):
        compiled, _ = planned_program(config)
        plan = compiled.replay
        chip = TspChip(config)
        # tighter cycle budget than the plan's -> no replay
        assert not replay_allowed(
            plan, chip, max_cycles=plan.cycles - 1, warmup_barrier=False
        )
        # warmup-barrier mismatch -> no replay
        assert not replay_allowed(
            plan, chip, max_cycles=10**6, warmup_barrier=True
        )

    def test_a_transfer_over_a_link_with_an_error_model_simulates(
        self, config
    ):
        """The error model sits on the route's link: the plan refuses, and
        the simulated run lands the words through the noise."""
        _transfer_row(config, lambda system: system.set_link_error_model(
            0, EAST, 0, LinkErrorModel(seed=3, ber=1e-3, max_retries=2)),
            replays=False)

    def test_a_dead_cable_reroute_replays_its_own_plan(self, config):
        """The dark cable is off the detour's route, so the detour's plan
        answers, equal to a simulation."""
        _transfer_row(config, lambda system: system.set_link_error_model(
            0, EAST, 0, LinkErrorModel(dead_after=0)), replays=True,
            blacklist=Blacklist(ring_cables=frozenset({0})))

    @pytest.mark.parametrize("perturb", [
        lambda system: system.chips[1].arm_watchdog(
            Watchdog(deadline=10**9, label="t")),
        lambda system: setattr(system.chips[0], "external_fault_hooks",
                               True),
    ], ids=["watchdog-armed", "pool-checkout-hook"])
    def test_a_transfer_on_a_chip_with_an_instrument_set_simulates(
        self, config, perturb
    ):
        _transfer_row(config, perturb, replays=False)

    def test_unsupported_op_fails_closed(self, config, rng):
        """A program that gathers has no plan — its text says so — and
        every run of it simulates."""
        table = rng.integers(0, 200, (8, 64)).astype(np.uint8)
        idx = rng.integers(0, 8, (3, 64)).astype(np.uint8)
        g = StreamProgramBuilder(config)
        out = g.gather(
            table, g.constant_tensor("idx", idx, dtype=DType.UINT8)
        )
        g.write_back(out, name="o")
        compiled = g.compile()
        assert compiled.schedule.plan is None
        first = execute(compiled)
        second = execute(compiled)
        assert compiled.replay is None
        assert first.run.skipped_cycles == second.run.skipped_cycles == 0
        assert np.array_equal(first["o"], second["o"])


class TestPoolCheckout:
    def _pool(self, config):
        return ChipPool(
            config, [], DynamicBatcher(), ProgramCache(), n_workers=1
        )

    def test_hardware_fault_hook_forces_real_sim(self, config):
        compiled, _ = planned_program(config)
        pool = self._pool(config)
        worker = pool.workers[0]
        pool.attach_hardware_fault(
            worker.hardware, "window", lambda hw: None
        )
        worker._checkout()
        assert worker.chip.external_fault_hooks
        assert not replay_allowed(
            compiled.replay, worker.chip,
            max_cycles=10**6, warmup_barrier=False,
        )
        # fault window over: the next checkout scrubs the flag away
        pool.detach_hardware_fault("window")
        worker._checkout()
        assert not worker.chip.external_fault_hooks
        assert replay_allowed(
            compiled.replay, worker.chip,
            max_cycles=10**6, warmup_barrier=False,
        )

    def test_one_shot_checkout_hook_forces_real_sim_once(self, config):
        compiled, _ = planned_program(config)
        pool = self._pool(config)
        worker = pool.workers[0]
        worker.inject_at_checkout(lambda hw: None)
        worker._checkout()
        assert worker.chip.external_fault_hooks
        worker._checkout()
        assert worker.chip.external_fault_hooks is False
        assert replay_allowed(
            compiled.replay, worker.chip,
            max_cycles=10**6, warmup_barrier=False,
        )

    def test_repair_probe_then_scrub_replays_exact(self, config):
        """Mid-quarantine probes leave junk in MEM; the checkout scrub
        restores pristine state, so a repaired chip replays bit-exact."""
        compiled, w = planned_program(config)
        chip = TspChip(config)
        probe_memory(chip)  # the repair loop's SRAM sweep
        chip.scrub()
        x = acts_for(40)
        result = execute(compiled, chip=chip, inputs={"acts": x})
        assert result.run.skipped_cycles == result.run.cycles
        assert np.array_equal(result["acc"], oracle(x, w))


class TestScrubReuse:
    def test_scrubbed_reuse_bit_exact_with_ecc(self, config):
        """Run, scrub, re-run == fresh chip (incl. ECC check pipeline);
        the double scrub exercises the trimmed already-clean fast path."""
        compiled, _ = build_input_matmul(config, seed=7)
        x, y = acts_for(50), acts_for(51)
        reference = execute(
            compiled, chip=TspChip(config, enable_ecc=True),
            inputs={"acts": x}, replay=False,
        )
        chip = TspChip(config, enable_ecc=True)
        execute(compiled, chip=chip, inputs={"acts": y}, replay=False)
        chip.scrub()
        chip.scrub()  # second scrub hits the untouched fast path
        again = execute(
            compiled, chip=chip, inputs={"acts": x}, replay=False
        )
        assert np.array_equal(again["acc"], reference["acc"])
        assert again.run.cycles == reference.run.cycles
        assert again.run.activity == reference.run.activity

    def test_scrub_fast_path_state_is_factory_clean(self, config):
        compiled, _ = build_input_matmul(config, seed=8)
        chip = TspChip(config)
        execute(compiled, chip=chip, inputs={"acts": acts_for(60)},
                replay=False)
        chip.scrub()
        assert not chip.srf._values.any()
        chip.scrub()  # fast path: nothing touched since the last scrub
        assert not chip.srf._values.any()
        assert chip.memory_image() == {}
        assert replay_allowed(
            compiled.replay, chip, max_cycles=10**6, warmup_barrier=False
        )

"""The fast-forward execution core: equivalence, per-run state, boundaries.

The fast path (``fast_forward=True``, the default) skips quiescent spans
in bulk; these tests pin the properties that make that safe:

* bit-identical results versus the cycle-by-cycle reference — on raw
  programs, compiled golden programs, warmup-barrier runs, and lockstep
  multi-chip systems;
* per-run :class:`RunResult` isolation across back-to-back ``run()``
  calls on one chip (the cross-run state-leak fix);
* the ``max_cycles`` bound is exact (the off-by-one fix): a program
  needing N cycles passes with ``max_cycles=N`` and times out at N-1.
"""

import numpy as np
import pytest

from golden_programs import GOLDEN_PROGRAMS
from repro.arch import Direction, Hemisphere
from repro.errors import SimulationError
from repro.isa import IcuId, Nop, Program, Read, Receive, Repeat, Send, Write
from repro.sim import DEFAULT_LINK_LATENCY, LinkSpec, MultiChipSystem, TspChip
from repro.verify import assert_lockstep

E = Direction.EASTWARD


def paced_program(chip, requests=6, interval=16):
    """Read + write-back every ``interval`` cycles: mostly quiescent."""
    program = Program()
    src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
    dst = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
    program.add(src, Read(address=0, stream=0, direction=E))
    program.add(src, Repeat(n=requests - 1, d=interval))
    program.add(dst, Nop(8))
    program.add(dst, Write(address=1, stream=0, direction=E))
    program.add(dst, Repeat(n=requests - 1, d=interval))
    return program


def run_mode(config, fast_forward, rng_data=None):
    chip = TspChip(config, trace=True)
    if rng_data is not None:
        chip.load_memory(Hemisphere.WEST, 0, 0, rng_data)
    result = chip.run(paced_program(chip), fast_forward=fast_forward)
    landed = chip.read_memory(Hemisphere.EAST, 0, 1)
    return result, landed


class TestEquivalence:
    def test_fast_matches_slow_on_paced_program(self, config, rng):
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        slow, slow_mem = run_mode(config, False, data)
        fast, fast_mem = run_mode(config, True, data)
        assert fast.cycles == slow.cycles
        assert fast.instructions == slow.instructions
        assert fast.activity == slow.activity
        assert fast.trace == slow.trace
        assert np.array_equal(fast_mem, slow_mem)
        assert slow.skipped_cycles == 0
        assert fast.skipped_cycles > 0  # the paced gaps actually skip

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
    def test_lockstep_on_golden_programs(self, name):
        builder = GOLDEN_PROGRAMS[name]()
        result = assert_lockstep(builder.compile(), timing=builder.timing)
        assert result.ok

    def test_lockstep_with_warmup_barrier(self):
        builder = GOLDEN_PROGRAMS["matmul"]()
        result = assert_lockstep(
            builder.compile(), timing=builder.timing, warmup_barrier=True
        )
        assert result.ok
        # the barrier's park/release epoch is itself a skippable span
        assert result.fast.run.skipped_cycles > 0

    def test_lockstep_with_ecc(self):
        builder = GOLDEN_PROGRAMS["conv3"]()
        result = assert_lockstep(
            builder.compile(), timing=builder.timing, enable_ecc=True
        )
        assert result.ok


def _ffn_chunk_program(config):
    """The serving stack's FFN up-projection chunk (the cold-path unit)."""
    from repro.nn.transformer import TransformerConfig
    from repro.nn.tsp_inference import build_chunk_builder
    from repro.serve import TransformerMlpServeModel

    ffn = TransformerConfig(
        d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1, vocab=128
    )
    model = TransformerMlpServeModel(
        "ffn", ffn, config, seed=0, max_vectors_per_program=16
    )
    builder, _ = build_chunk_builder(config, model.runner.layers[0], 16)
    return builder.compile().program


def _compiled_programs(config):
    programs = {
        name: build().compile().program
        for name, build in sorted(GOLDEN_PROGRAMS.items())
    }
    programs["ffn-chunk"] = _ffn_chunk_program(config)
    return programs


class TestWorkFollowsDispatches:
    """Host work is proportional to dispatches, not queues x cycles:
    a queue is stepped only when it dispatches or retires a released
    Sync — never polled while busy, parked or retired."""

    @pytest.fixture()
    def step_calls(self, monkeypatch):
        from repro.sim.icu import IcuQueue

        calls = []
        step = IcuQueue.step

        def counting(queue, cycle):
            calls.append((queue.index, cycle))
            step(queue, cycle)

        monkeypatch.setattr(IcuQueue, "step", counting)
        return calls

    @pytest.mark.parametrize("warmup_barrier", [False, True])
    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_queue_steps_bounded_by_dispatches(
        self, config, step_calls, fast_forward, warmup_barrier
    ):
        for name, program in _compiled_programs(config).items():
            step_calls.clear()
            chip = TspChip(config)
            queues = len(program.icus)
            result = chip.run(
                program, fast_forward=fast_forward,
                warmup_barrier=warmup_barrier,
            )
            # the warm-up barrier parks every queue once; each park is
            # one dispatch (counted in instructions) and its release
            # rides the step that dispatches the next instruction
            releases = queues if warmup_barrier else 0
            assert len(step_calls) <= result.instructions + releases, name
            # at most one step per queue per cycle, in queue order
            assert len(set(step_calls)) == len(step_calls), name
            by_cycle = sorted(step_calls, key=lambda call: call[1])
            assert by_cycle == sorted(step_calls, key=lambda c: (c[1], c[0]))

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_quiescent_queues_are_not_swept(
        self, config, step_calls, fast_forward
    ):
        """The all-queues-every-cycle sweep paid queues x cycles; on a
        paced program (fixed by hand, so no schedule can tighten it) the
        steps are a small fraction of that."""
        chip = TspChip(config)
        program = paced_program(chip)
        result = chip.run(program, fast_forward=fast_forward)
        assert len(step_calls) <= result.instructions
        assert len(step_calls) * 8 < len(program.icus) * result.cycles

    def test_dense_and_fast_step_the_same_queues_at_the_same_cycles(
        self, config, step_calls
    ):
        program = _ffn_chunk_program(config)
        TspChip(config).run(program, fast_forward=False)
        dense = list(step_calls)
        step_calls.clear()
        TspChip(config).run(program, fast_forward=True)
        assert step_calls == dense


class TestPerRunState:
    def test_back_to_back_runs_are_independent(self, config, rng):
        """run() must not leak trace or activity into the next run."""
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        chip = TspChip(config, trace=True)
        chip.load_memory(Hemisphere.WEST, 0, 0, data)
        first = chip.run(paced_program(chip))
        second = chip.run(paced_program(chip))
        assert second.cycles == first.cycles
        assert second.instructions == first.instructions
        assert second.trace == first.trace  # not first + second
        assert second.activity == first.activity
        # the chip-level tallies stay cumulative across runs
        assert chip.activity.instructions == 2 * first.instructions
        assert len(chip.trace) == 2 * len(first.trace)

    def test_result_activity_is_a_snapshot(self, config):
        chip = TspChip(config)
        result = chip.run(paced_program(chip))
        before = result.activity.instructions
        chip.run(paced_program(chip))
        # the first result must not alias the chip's live counters
        assert result.activity.instructions == before

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_event_store_is_empty_between_runs(self, config, fast_forward):
        """Un-scrubbed reuse (the resilience paths) must not accumulate
        event bookkeeping: the dense core never asks for the next event
        cycle, so the store has to shed its heap on its own."""
        chip = TspChip(config)
        program = _ffn_chunk_program(config)
        for _ in range(3):
            chip.run(program, fast_forward=fast_forward)
            assert chip.events.pending == 0
            assert chip.events._cycles == []


class TestMaxCycles:
    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_bound_is_exact(self, config, fast_forward):
        """A program needing N cycles runs at max_cycles=N, not N-1."""
        program = Program()
        icu = IcuId(TspChip(config).floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Nop(10))
        need = TspChip(config).run(program, fast_forward=fast_forward).cycles
        exact = TspChip(config).run(
            program, max_cycles=need, fast_forward=fast_forward
        )
        assert exact.cycles == need
        with pytest.raises(SimulationError):
            TspChip(config).run(
                program, max_cycles=need - 1, fast_forward=fast_forward
            )

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_timeout_mid_skip_span(self, config, fast_forward):
        """max_cycles inside a quiescent span still times out, both modes."""
        chip = TspChip(config)
        program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Read(address=0, stream=0, direction=E))
        program.add(icu, Repeat(n=2, d=500))
        with pytest.raises(SimulationError):
            chip.run(program, max_cycles=100, fast_forward=fast_forward)


class TestMultiChip:
    def _transfer_programs(self, system, config, rng):
        data = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        system.chips[0].load_memory(Hemisphere.EAST, 0, 4, data)
        fp = system.chips[0].floorplan
        program0 = Program()
        mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        c2c = IcuId(fp.c2c(Hemisphere.EAST), 0)
        program0.add(mem, Read(address=4, stream=0, direction=E))
        hops = fp.delta(fp.mem_slice(Hemisphere.EAST, 0), fp.c2c(Hemisphere.EAST))
        program0.add(c2c, Nop(4 + hops))
        program0.add(c2c, Send(link=0, stream=0, direction=E))
        capture = 5 + hops
        program1 = Program()
        c2c1 = IcuId(system.chips[1].floorplan.c2c(Hemisphere.WEST), 0)
        program1.add(c2c1, Nop(capture + DEFAULT_LINK_LATENCY))
        program1.add(c2c1, Receive(link=0, mem_slice=1, address=6))
        return data, [program0, program1]

    def _run(self, config, rng, fast_forward):
        system = MultiChipSystem(
            config,
            2,
            [LinkSpec(0, Hemisphere.EAST, 0, 1, Hemisphere.WEST, 0)],
            trace=True,
        )
        data, programs = self._transfer_programs(system, config, rng)
        results = system.run(programs, fast_forward=fast_forward)
        landed = system.chips[1].read_memory(Hemisphere.WEST, 1, 6)[0]
        return data, results, landed

    def test_fast_matches_slow_across_links(self, config):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        data, slow, slow_landed = self._run(config, rng_a, False)
        _, fast, fast_landed = self._run(config, rng_b, True)
        assert np.array_equal(slow_landed, data[0])
        assert np.array_equal(fast_landed, data[0])
        for s, f in zip(slow, fast):
            assert f.cycles == s.cycles
            assert f.instructions == s.instructions
            assert f.activity == s.activity
            assert f.trace == s.trace
            assert s.skipped_cycles == 0
        # the link-latency gap is quiescent on both chips: it must skip
        assert fast[0].skipped_cycles > 0

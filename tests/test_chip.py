"""Chip-level behaviour: determinism, power gating, tracing, limits,
per-run state on a reused chip, and host work that follows dispatches —
the core's, and that of the observers riding it (an armed watchdog, an
attached telemetry collector)."""

import inspect

import numpy as np
import pytest

from corpus import corpus
from repro.arch import Direction, Hemisphere
from repro.errors import SimulationError
from repro.isa import (
    AluOp,
    BinaryOp,
    Config,
    IcuId,
    Nop,
    Notify,
    Program,
    Read,
    Repeat,
    Sync,
    Write,
)
from repro.sim import TspChip, dispatch_counts, render_schedule, render_stagger

E = Direction.EASTWARD


def build_add_program(chip):
    """The Figure 3 / Listing 1 program: Z = X + Y through streams."""
    fp = chip.floorplan
    program = Program()
    w1 = IcuId(fp.mem_slice(Hemisphere.WEST, 1))
    w0 = IcuId(fp.mem_slice(Hemisphere.WEST, 0))
    vxm = IcuId(fp.vxm(), 0)
    e0 = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
    program.add(w1, Read(address=0, stream=1, direction=E))
    program.add(w0, Nop(1))
    program.add(w0, Read(address=0, stream=0, direction=E))
    # W0 drive@6 -> VXM@7; W1 drive@5 (2 hops) -> VXM@7
    program.add(vxm, Nop(7))
    program.add(
        vxm,
        BinaryOp(
            op=AluOp.ADD_SAT, src1_stream=0, src2_stream=1, dst_stream=2,
            dst_direction=E,
        ),
    )
    program.add(e0, Nop(8))
    program.add(e0, Write(address=5, stream=2, direction=E))
    return program


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


def load_operands(chip, rng):
    x = rng.integers(-60, 60, chip.config.n_lanes).astype(np.int8)
    y = rng.integers(-60, 60, chip.config.n_lanes).astype(np.int8)
    chip.load_memory(Hemisphere.WEST, 0, 0, x.view(np.uint8)[None, :])
    chip.load_memory(Hemisphere.WEST, 1, 0, y.view(np.uint8)[None, :])
    return x, y


class TestStreamingAdd:
    def test_z_equals_x_plus_y(self, config, rng):
        chip = TspChip(config)
        x, y = load_operands(chip, rng)
        chip.run(build_add_program(chip))
        z = chip.read_memory(Hemisphere.EAST, 0, 5)[0].view(np.int8)
        expected = np.clip(
            x.astype(np.int64) + y.astype(np.int64), -128, 127
        ).astype(np.int8)
        assert np.array_equal(z, expected)


class TestDeterminism:
    """Section IV-F: performance is deterministic and precisely
    predictable from run-to-run execution."""

    def test_identical_cycle_counts(self, config, rng):
        cycles = []
        for _run in range(3):
            chip = TspChip(config)
            load_operands(chip, np.random.default_rng(7))
            result = chip.run(build_add_program(chip))
            cycles.append(result.cycles)
        assert len(set(cycles)) == 1

    def test_identical_traces(self, config):
        traces = []
        for _run in range(2):
            chip = TspChip(config, trace=True)
            load_operands(chip, np.random.default_rng(7))
            chip.run(build_add_program(chip))
            traces.append(
                [(e.cycle, e.icu, e.mnemonic) for e in chip.trace]
            )
        assert traces[0] == traces[1]

    def test_identical_memory_state(self, config):
        images = []
        for _run in range(2):
            chip = TspChip(config)
            load_operands(chip, np.random.default_rng(7))
            chip.run(build_add_program(chip))
            images.append(chip.read_memory(Hemisphere.EAST, 0, 5).tobytes())
        assert images[0] == images[1]


class TestSuperlanePower:
    def test_config_gates_lanes(self, config, rng):
        """Section II-F: powered-down superlanes produce zeros."""
        chip = TspChip(config)
        x, y = load_operands(chip, rng)
        program = build_add_program(chip)
        # power down superlane 1 before anything else runs
        gate = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 2))
        program.add(gate, Config(superlane=1, power_on=False))
        chip.run(program)
        z = chip.read_memory(Hemisphere.EAST, 0, 5)[0].view(np.int8)
        lanes = config.lanes_per_superlane
        assert np.all(z[lanes : 2 * lanes] == 0)
        expected = np.clip(
            x.astype(np.int64) + y.astype(np.int64), -128, 127
        ).astype(np.int8)
        assert np.array_equal(z[:lanes], expected[:lanes])

    def test_invalid_superlane_rejected(self, config):
        chip = TspChip(config)
        with pytest.raises(SimulationError):
            chip.set_superlane_power(99, False)


class TestRunLimits:
    def test_max_cycles_enforced(self, config):
        chip = TspChip(config)
        program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Nop(1000))
        with pytest.raises(SimulationError):
            chip.run(program, max_cycles=10)

    def test_bound_is_exact(self, config):
        """A program needing N cycles runs at max_cycles=N, not N-1."""
        program = Program()
        icu = IcuId(TspChip(config).floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Nop(10))
        need = TspChip(config).run(program).cycles
        exact = TspChip(config).run(program, max_cycles=need)
        assert exact.cycles == need
        with pytest.raises(SimulationError):
            TspChip(config).run(program, max_cycles=need - 1)

    def test_timeout_inside_a_quiet_span(self, config):
        """max_cycles between two paced dispatches still times out."""
        chip = TspChip(config)
        program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Read(address=0, stream=0, direction=E))
        program.add(icu, Repeat(n=2, d=500))
        with pytest.raises(SimulationError):
            chip.run(program, max_cycles=100)

    def test_empty_program_finishes(self, config):
        chip = TspChip(config)
        result = chip.run(Program())
        assert result.instructions == 0

    def test_run_result_seconds(self, config):
        chip = TspChip(config)
        program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(icu, Nop(90))
        result = chip.run(program)
        assert result.seconds(0.9) == pytest.approx(
            result.cycles / 0.9e9
        )


def _compiled_programs():
    """The golden programs and the FFN up-projection chunk (the cold-path
    unit) of the serving stack."""
    return {
        entry.name: entry.compile().program for entry in corpus()
        if entry.name.startswith("golden/")
        or entry.name == "chunk/ffn.dense0x16"
    }


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
        assert first.skipped_cycles == second.skipped_cycles == 0
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

    def test_event_store_is_empty_between_runs(self, config):
        """Un-scrubbed reuse (the resilience paths) must not accumulate
        event bookkeeping from one run to the next."""
        chip = TspChip(config)
        program = _compiled_programs()["chunk/ffn.dense0x16"]
        for _ in range(3):
            chip.run(program)
            assert chip.events.pending == 0
            assert chip.events._buckets == ({}, {})

    def test_begin_run_drains_in_flight_streams(self, config):
        """A value the last run left in flight runs off the edge in the
        gap between runs: the next run never sees it, and its remaining
        hops are billed to the gap, not to either run's window."""
        chip = TspChip(config)
        program = Program()
        src = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        program.add(src, Read(address=0, stream=0, direction=E))
        first = chip.run(program)
        in_flight = int(chip.srf.snapshot_valid().sum())
        assert in_flight == 1  # the run ended with the read still flying
        total = chip.srf.hop_bytes_total
        assert first.activity.stream_hop_bytes == total

        # what walking the drain would have billed, one hop at a time
        walked = TspChip(config)
        walked.run(program)
        while walked.srf.snapshot_valid().any():
            walked.srf.step()
        gap = walked.srf.hop_bytes_total - total
        assert gap > 0

        second = chip.run(Program())
        assert not chip.srf.snapshot_valid().any()
        assert second.activity.stream_hop_bytes == 0
        assert chip.srf.hop_bytes_total == total + gap

    def test_begin_run_clears_mem_access_log_and_barrier_epochs(self, config):
        """Cycle numbering restarts per run: run N's SRAM accesses must
        not bank-conflict with run N+1's, and run N's Notify must not
        release a Sync that run N+1 parks."""
        chip = TspChip(config)
        mem = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        other = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 1))
        reads = Program()
        reads.add(mem, Read(address=0, stream=0, direction=E))
        chip.run(reads)
        chip.run(reads)  # the same read at the same cycle: no conflict

        barrier = Program()
        barrier.add(mem, Notify())
        barrier.add(other, Sync())
        released = chip.run(barrier)
        assert released.cycles >= config.barrier_latency_cycles
        parked = Program()
        parked.add(other, Sync())
        with pytest.raises(SimulationError, match="barrier deadlock"):
            chip.run(parked)


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
    def test_queue_steps_bounded_by_dispatches(
        self, config, step_calls, warmup_barrier
    ):
        for name, program in _compiled_programs().items():
            step_calls.clear()
            chip = TspChip(config)
            queues = len(program.icus)
            result = chip.run(program, warmup_barrier=warmup_barrier)
            # the warm-up barrier parks every queue once; each park is
            # one dispatch (counted in instructions) and its release
            # rides the step that dispatches the next instruction
            releases = queues if warmup_barrier else 0
            assert len(step_calls) <= result.instructions + releases, name
            # at most one step per queue per cycle, in queue order
            assert len(set(step_calls)) == len(step_calls), name
            by_cycle = sorted(step_calls, key=lambda call: call[1])
            assert by_cycle == sorted(step_calls, key=lambda c: (c[1], c[0]))

    def test_quiescent_queues_are_not_swept(self, config, step_calls):
        """The all-queues-every-cycle sweep paid queues x cycles; on a
        paced program (fixed by hand, so no schedule can tighten it) the
        steps are a small fraction of that."""
        chip = TspChip(config)
        program = paced_program(chip)
        result = chip.run(program)
        assert len(step_calls) <= result.instructions
        assert len(step_calls) * 8 < len(program.icus) * result.cycles


class TestObserversFollowDispatches:
    """What observing a run costs, as counts of work (these were two
    wall-clock ratio gates in ``benchmarks/test_simulator_performance.py``,
    ≤ 2 % and ≤ 45 %, measured below a shared host's noise floor): an
    armed watchdog that never fires does nothing at all, and a telemetry
    collector is charged once per run, never per dispatch or per cycle."""

    @pytest.fixture()
    def programs(self, config):
        programs = _compiled_programs()
        programs["paced"] = paced_program(
            TspChip(config), requests=6, interval=64
        )
        return programs

    def test_never_firing_watchdog_is_never_checked(
        self, config, programs, monkeypatch
    ):
        from repro.resil import Watchdog

        checks = []
        check = TspChip.check_watchdog
        monkeypatch.setattr(
            TspChip, "check_watchdog",
            lambda chip, queues, cycle: (
                checks.append(cycle), check(chip, queues, cycle)
            ),
        )
        for name, program in programs.items():
            bare = TspChip(config).run(program)
            chip = TspChip(config)
            chip.arm_watchdog(Watchdog(deadline=10**9, label="never"))
            armed = chip.run(program)
            assert checks == [], name  # checked from the deadline on only
            # hooks observe, never steer: the armed run is cycle-identical
            assert (armed.cycles, armed.instructions, armed.activity) == (
                bare.cycles, bare.instructions, bare.activity
            ), name
        # and one that does fire is entered exactly at its deadline
        chip = TspChip(config)
        chip.arm_watchdog(Watchdog(deadline=5, label="fires"))
        with pytest.raises(SimulationError, match="fired"):
            chip.run(programs["paced"])
        assert checks == [5]

    def test_collector_is_charged_once_per_run(
        self, config, programs, monkeypatch
    ):
        """The chip calls its collector once, as the run ends — never on a
        dispatch or a cycle — and that call is the charge with what ran."""
        from repro.obs import TelemetryCollector

        now = [None]   # the cycle being stepped; None outside the loop
        calls = []     # (method, cycle) of every outermost collector call
        depth = [0]

        def counting(name, method):
            def counted(self, *args, **kwargs):
                if not depth[0]:
                    calls.append((name, now[0]))
                depth[0] += 1
                try:
                    return method(self, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return counted

        for name, method in vars(TelemetryCollector).items():
            if inspect.isfunction(method):
                monkeypatch.setattr(
                    TelemetryCollector, name, counting(name, method)
                )
        step_cycle = TspChip.step_cycle

        def stepping(chip, queues, cycle):
            now[0] = cycle
            step_cycle(chip, queues, cycle)
            now[0] = None

        monkeypatch.setattr(TspChip, "step_cycle", stepping)
        for name, program in programs.items():
            chip = TspChip(config)
            collector = TelemetryCollector()
            chip.attach_telemetry(collector)
            calls.clear()
            result = chip.run(program)
            assert calls == [("charge", None)], name
            assert collector.rollup() == result.activity, name

    def test_occupancy_is_worked_out_once_per_instruction(
        self, config, monkeypatch
    ):
        """A kept dispatch carries its occupancy, worked out once per
        instruction object of the program however often it issues — a
        ``Repeat`` reuses its instruction's — not once per dispatch."""
        from golden_programs import build_matmul
        from repro.compiler import execute
        from repro.obs import TelemetryCollector
        from repro.sim import chip as chip_module
        from repro.sim import tracer

        asked = []

        def counted(instruction, timing, config):
            asked.append(instruction)
            return tracer.instruction_duration(instruction, timing, config)

        monkeypatch.setattr(chip_module, "instruction_duration", counted)
        compiled = build_matmul().compile()
        chip = TspChip(compiled.config, trace=True)
        chip.attach_telemetry(TelemetryCollector())
        result = execute(compiled, chip=chip, replay=False)
        program = [i for q in compiled.program.icus
                   for i in compiled.program.queue(q)]
        assert len(asked) == len({id(i) for i in asked})
        assert len(asked) == len({id(i) for i in program}) < len(program)
        assert len(chip.trace) == result.run.instructions
        for event in chip.trace:
            assert event.occupancy == tracer.instruction_duration(
                event.instruction, chip.timing, chip.config
            )

        asked.clear()
        repeat = TspChip(config, trace=True)
        program = Program()
        mem0 = IcuId(repeat.floorplan.mem_slice(Hemisphere.WEST, 0))
        read = Read(address=0, stream=0, direction=E)
        program.add(mem0, read)
        program.add(mem0, Repeat(n=3, d=2))
        repeat.run(program)
        assert [e.occupancy for e in repeat.trace if e.instruction is read] \
            == [tracer.instruction_duration(read, repeat.timing, config)] * 4
        assert len(asked) == 2  # the Read and the Repeat


class TestActivityAccounting:
    def test_instruction_and_sram_counts(self, config, rng):
        chip = TspChip(config)
        load_operands(chip, rng)
        result = chip.run(build_add_program(chip))
        assert result.instructions == 7
        assert result.activity.sram_read_bytes == 2 * config.n_lanes
        assert result.activity.sram_write_bytes == config.n_lanes
        assert result.activity.alu_ops == config.n_lanes
        assert result.activity.stream_hop_bytes > 0


class TestTracer:
    def test_render_schedule_shows_units(self, config, rng):
        chip = TspChip(config, trace=True)
        load_operands(chip, rng)
        chip.run(build_add_program(chip))
        art = render_schedule(chip.trace)
        assert "MEM_W0" in art and "VXM.alu0" in art
        assert "legend:" in art

    def test_render_schedule_empty(self):
        assert "empty" in render_schedule([])

    def test_render_stagger_figure6(self, full_config):
        art = render_stagger(full_config.tiles_per_slice, issue_cycle=0)
        assert "tile 19" in art and "tile  0" in art

    def test_dispatch_counts(self, config, rng):
        chip = TspChip(config, trace=True)
        load_operands(chip, rng)
        chip.run(build_add_program(chip))
        counts = dispatch_counts(chip.trace)
        assert counts["MEM_W0"] == 2  # NOP + Read

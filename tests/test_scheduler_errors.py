"""Scheduler failure modes: the compiler must reject what the hardware
cannot do, with actionable messages."""

import numpy as np
import pytest

from repro.arch import Direction, DType, Hemisphere
from repro.compiler import StreamProgramBuilder, Scheduler
from repro.compiler.graph import Graph, OpKind
from repro.compiler.schedule import QueueBuilder
from repro.config import small_test_chip
from repro.errors import CompileError, ScheduleError
from repro.isa import IcuId, Nop, Program


class TestGraphValidation:
    def test_program_without_outputs(self, config):
        g = StreamProgramBuilder(config)
        g.constant_tensor("x", np.zeros((1, 64), np.int8))
        with pytest.raises(CompileError, match="no outputs"):
            g.compile()

    def test_duplicate_tensor_names(self, config):
        g = StreamProgramBuilder(config)
        g.constant_tensor("x", np.zeros((1, 64), np.int8))
        with pytest.raises(CompileError, match="already used"):
            g.constant_tensor("x", np.zeros((1, 64), np.int8))

    def test_vector_length_bounds(self, config):
        g = StreamProgramBuilder(config)
        with pytest.raises(CompileError, match="maxVL"):
            g.constant_tensor("too_wide", np.zeros((1, 65), np.int8))
        with pytest.raises(CompileError):
            g.constant_tensor("empty", np.zeros((0, 4), np.int8))

    def test_write_back_of_constant_rejected(self, config):
        """Constants are already in memory; writing them back is a no-op
        the compiler refuses rather than silently scheduling."""
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.zeros((1, 64), np.int8))
        g.write_back(x, name="y")
        with pytest.raises(CompileError, match="already in memory"):
            g.compile()


class TestResourceExhaustion:
    def test_stream_exhaustion_reported(self, config):
        """A 16-wide transpose group cannot fit in 8 streams/direction —
        the allocator reports it rather than corrupting the schedule."""
        tight = config.with_overrides(streams_per_direction=8)
        g = StreamProgramBuilder(tight)
        rng = np.random.default_rng(0)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (16, 64)).astype(np.int8)
        )
        g.write_back(g.transpose16(x), name="t")
        with pytest.raises((CompileError, ScheduleError)):
            g.compile()

    def test_deep_chains_fit_few_streams(self, config):
        """The moving-frame allocator packs dependent chains densely: a
        64-deep chain of relus compiles even with 4 streams/direction."""
        from repro.compiler import execute

        tight = config.with_overrides(streams_per_direction=4)
        g = StreamProgramBuilder(tight)
        rng = np.random.default_rng(0)
        data = rng.integers(-9, 9, (2, 64)).astype(np.int8)
        current = g.constant_tensor("x", data)
        for _ in range(64):
            current = g.relu(current)
        g.write_back(current, name="out")
        result = execute(g.compile(), replay=False)
        assert np.array_equal(result["out"], np.maximum(data, 0))

    def test_memory_exhaustion_reported(self, config):
        tiny = config.with_overrides(mem_addr_bits=4)  # 16 words per slice
        g = StreamProgramBuilder(tiny)
        rng = np.random.default_rng(0)
        with pytest.raises((CompileError, ScheduleError)):
            for i in range(64):
                x = g.constant_tensor(
                    f"x{i}", rng.integers(-9, 9, (8, 64)).astype(np.int8)
                )
                g.write_back(g.relu(x), name=f"y{i}")
            g.compile()


class TestHandBuiltGraphs:
    def test_unknown_node_kind_rejected(self, config):
        graph = Graph()
        c = graph.add_node(
            OpKind.CONSTANT, [], DType.INT8, 1, 8,
            data=np.zeros((1, 8), np.int8),
        )
        w = graph.add_node(OpKind.WRITE, [c.id], DType.INT8, 1, 8)
        # sneak in an unsupported kind by mutating after construction
        c.kind = OpKind.INPUT
        c.name = "bound_later"
        scheduler = Scheduler(config)
        with pytest.raises(CompileError):
            scheduler.schedule(graph)

    def test_matmul_weights_must_be_constant(self, config):
        graph = Graph()
        w = graph.add_node(
            OpKind.INPUT, [], DType.INT8, 8, 8, name="w"
        )
        x = graph.add_node(
            OpKind.CONSTANT, [], DType.INT8, 1, 8, name="x",
            data=np.zeros((1, 8), np.int8),
        )
        mm = graph.add_node(
            OpKind.MATMUL, [w.id, x.id], DType.INT32, 1, 8,
            params={"k": 8, "m": 8, "weight_tiles": [np.zeros((8, 8), np.int8)]},
        )
        graph.add_node(OpKind.WRITE, [mm.id], DType.INT32, 1, 8)
        with pytest.raises(CompileError, match="constant"):
            Scheduler(config).schedule(graph)

    def test_gather_table_must_be_constant(self, config):
        graph = Graph()
        t = graph.add_node(OpKind.INPUT, [], DType.UINT8, 4, 8, name="t")
        i = graph.add_node(
            OpKind.CONSTANT, [], DType.UINT8, 1, 8, name="i",
            data=np.zeros((1, 8), np.uint8),
        )
        ga = graph.add_node(
            OpKind.GATHER, [t.id, i.id], DType.UINT8, 1, 8
        )
        graph.add_node(OpKind.WRITE, [ga.id], DType.UINT8, 1, 8)
        with pytest.raises(CompileError, match="constant"):
            Scheduler(config).schedule(graph)


class TestSearchWindowMessages:
    def test_unplaceable_node_is_actionable(self, config):
        """Failure messages point at the resource, not a stack trace."""
        tight = config.with_overrides(streams_per_direction=8)
        g = StreamProgramBuilder(tight)
        rng = np.random.default_rng(1)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (16, 64)).astype(np.int8)
        )
        g.write_back(g.transpose16(x), name="t")
        with pytest.raises((CompileError, ScheduleError)) as excinfo:
            g.compile()
        message = str(excinfo.value)
        assert any(
            token in message
            for token in ("stream", "search window", "place")
        )


class TestQueueBuilder:
    """Absolute dispatch cycles -> one NOP-padded ICU queue."""

    def test_gap_filling_is_exact(self, chip):
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
        queue = QueueBuilder(icu)
        queue.reserve(5, Nop(1))
        queue.reserve(0, Nop(1))
        program = Program()
        queue.emit(program)
        # sorted by cycle, with a 4-cycle filler between dispatch 0 and 5
        assert [i.issue_cycles() for i in program.queue(icu)] == [1, 4, 1]

    def test_taken_cell_raises(self, chip):
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
        queue = QueueBuilder(icu)
        queue.reserve(3, Nop(1))
        with pytest.raises(ScheduleError, match="already taken"):
            queue.reserve(3, Nop(1))

    def test_empty_emit_is_an_empty_program(self, chip):
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.EAST, 0))
        program = Program()
        assert QueueBuilder(icu).emit(program) == (0, 0)
        assert len(program) == 0

"""A schedule never reads a weight: schedule by shape, bind by value.

``Scheduler.schedule`` decides program text, layouts, stats, intent and
*where* every constant will live from the graph's shape key alone;
``Schedule.bind`` packs one graph's constants into those words.  So a
schedule made for one model binds to a never-seen model of the same
shape — and the bound program is the fresh compile, byte for byte
(``binary_digest.digest``: program text, memory image, layouts, stats,
intent) with the same content ``cache_key``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binary_digest import DEGRADED, digest
from repro.arch import DType, Hemisphere
from repro.compiler import StreamProgramBuilder
from repro.config import small_test_chip
from repro.errors import CompileError, ScheduleError
from repro.isa.encoding import encode_program_text
from repro.resil import Blacklist
from repro.testing import redrawn

CONFIG = small_test_chip()
LANES = CONFIG.n_lanes
#: the far hemisphere's planes are gone: a split stays in the near one
NEAR_ONLY = Blacklist(mxm_planes=frozenset({
    (Hemisphere.EAST, 0), (Hemisphere.EAST, 1),
}))


def model_program(shape_seed: int, weight_seed: int) -> StreamProgramBuilder:
    """One program shape per ``shape_seed``; ``weight_seed`` draws only
    what its constants hold.  A serving-style matmul (rows free to split
    over planes and hemispheres, int8 or fp16, one K-tile or two) next to
    VXM work on constants and a table lookup."""
    shape = np.random.default_rng(shape_seed)
    data = np.random.default_rng(1_000_003 * weight_seed + shape_seed)
    fp16 = bool(shape.integers(2))
    rows = int(shape.integers(1, 41))
    k_tiles = [int(k) for k in shape.integers(5, 41, int(shape.integers(1, 3)))]
    m = int(shape.integers(4, 41))
    n_const = int(shape.integers(1, 5))

    def weights(size):
        if fp16:
            return data.uniform(-1, 1, size).astype(np.float16)
        return data.integers(-128, 128, size).astype(np.int8)

    g = StreamProgramBuilder(CONFIG)
    acts = [
        g.input_tensor(f"acts{i}", (rows, k), DType.FP16 if fp16 else DType.INT8)
        for i, k in enumerate(k_tiles)
    ]
    g.write_back(g.matmul(weights((sum(k_tiles), m)), acts, name="w"), "acc")
    bias = g.constant_tensor(
        "bias", data.integers(-128, 128, (n_const, LANES)).astype(np.int8)
    )
    fed = g.input_tensor("fed", (n_const, LANES))
    g.write_back(g.relu(g.add(fed, bias)), "biased")
    wide = g.constant_tensor(
        "wide", data.integers(-2**31, 2**31, (n_const, 24)).astype(np.int32)
    )
    g.write_back(g.convert(wide, DType.INT8, scale=2.0**-24), "narrow")
    idx = g.input_tensor("idx", (n_const, LANES), DType.UINT8)
    table = data.integers(0, 256, (int(shape.integers(2, 9)), LANES))
    g.write_back(g.gather(table.astype(np.uint8), idx, name="lut"), "looked_up")
    return g


class TestBoundEqualsFresh:
    @settings(max_examples=40, deadline=None)
    @given(
        shape_seed=st.integers(0, 10_000),
        weight_seeds=st.tuples(st.integers(0, 999), st.integers(0, 999)),
        blacklist=st.sampled_from([None, DEGRADED, NEAR_ONLY]),
    )
    def test_a_schedule_binds_to_a_never_seen_model(
        self, shape_seed, weight_seeds, blacklist
    ):
        seen = model_program(shape_seed, weight_seeds[0])
        unseen = model_program(shape_seed, weight_seeds[1])
        try:
            schedule = seen.schedule(blacklist)
        except ScheduleError as rejected:
            # too crowded for this chip — whatever the constants hold
            with pytest.raises(ScheduleError, match=re.escape(str(rejected))):
                unseen.compile(blacklist)
            return
        bound = unseen.bind(schedule, blacklist)
        fresh = unseen.compile(blacklist)
        assert digest(lambda: bound) == digest(lambda: fresh)
        assert bound.cache_key == fresh.cache_key == unseen.fingerprint(blacklist)
        # spelled out: the parts a chip executes and a host binds through
        assert [
            encode_program_text(bound.program.queue(icu))
            for icu in bound.program.icus
        ] == [
            encode_program_text(fresh.program.queue(icu))
            for icu in fresh.program.icus
        ]
        assert [
            (w.hemisphere, w.slice_index, w.address, w.data.tobytes())
            for w in bound.memory_image
        ] == [
            (w.hemisphere, w.slice_index, w.address, w.data.tobytes())
            for w in fresh.memory_image
        ]
        assert bound.inputs == fresh.inputs and bound.outputs == fresh.outputs

    def test_bound_programs_share_the_schedule_not_the_weights(self):
        seen, unseen = model_program(7, 0), model_program(7, 1)
        first = seen.compile()
        second = unseen.bind(first.schedule)
        assert second.schedule is first.schedule
        assert second.program is first.program
        assert second.cache_key != first.cache_key
        assert any(
            a.data.tobytes() != b.data.tobytes()
            for a, b in zip(first.memory_image, second.memory_image)
        )
        # whether a schedule has a plan is decided with it, before any
        # run, from the program text: this one looks a table up, so
        # neither the schedule nor its programs ever hold one
        assert first.schedule.plan is None
        assert first.replay is None and second.replay is None

    def test_compile_is_schedule_then_bind(self):
        g = model_program(3, 0)
        assert digest(g.compile) == digest(lambda: g.bind(g.schedule()))


class TestShapeKey:
    """Constant bytes are the only thing the shape key leaves out."""

    def test_constant_bytes_are_out_everything_else_is_in(self):
        base = model_program(11, 0)
        assert model_program(11, 1).shape_key() == base.shape_key()
        assert redrawn(base).shape_key() == base.shape_key()
        assert redrawn(base).fingerprint() != base.fingerprint()
        assert model_program(12, 0).shape_key() != base.shape_key()
        assert base.shape_key(DEGRADED) != base.shape_key()
        assert base.shape_key() != base.fingerprint()

    @pytest.mark.parametrize("change", [
        lambda g, x: g.write_back(g.convert(x, DType.INT32, scale=0.5), "o"),
        lambda g, x: g.write_back(g.shift(x, 2), "o"),
        lambda g, x: g.write_back(g.relu(x), "renamed"),
        lambda g, x: g.write_back(
            g.permute(x, np.roll(np.arange(LANES), 1)), "o"
        ),
    ])
    def test_parameters_names_and_ops_stay_in(self, change):
        def build(tail):
            g = StreamProgramBuilder(CONFIG)
            tail(g, g.constant_tensor("x", np.ones((2, LANES), np.int8)))
            return g

        base = build(lambda g, x: g.write_back(g.relu(x), "o"))
        assert build(change).shape_key() != base.shape_key()

    def test_a_schedule_of_another_shape_is_refused(self):
        small, large = model_program(1, 0), model_program(2, 0)
        with pytest.raises(CompileError, match="another shape"):
            large.bind(small.schedule())
        with pytest.raises(CompileError, match="another shape"):
            small.bind(small.schedule(DEGRADED))

    def test_a_graph_that_does_not_fill_its_slots_is_refused(self):
        """Below the shape-key check: the slots themselves know how many
        words their constant must pack into."""
        def build(rows):
            g = StreamProgramBuilder(CONFIG)
            x = g.constant_tensor("x", np.ones((rows, LANES), np.int8))
            g.write_back(g.relu(x), "o")
            return g

        with pytest.raises(CompileError, match="not the shape"):
            build(2).schedule().bind(build(3).graph)


class TestNoConstantReachesAnInstruction:
    """Were a constant's bytes to become an operand of an instruction, it
    would have to stay in the shape key.  None does — not even a gather
    table, whose ``Gather`` carries the table's base address and takes the
    row offsets from a stream."""

    def programs(self, seed):
        rng = np.random.default_rng(seed)
        g = StreamProgramBuilder(CONFIG)
        idx = g.input_tensor("idx", (3, LANES), DType.UINT8)
        table = rng.integers(-128, 128, (6, LANES)).astype(np.int8)
        g.write_back(g.gather(table, idx, name="lut"), "out")
        baked = g.constant_tensor(
            "baked", rng.integers(0, 6, (3, LANES)).astype(np.uint8),
            dtype=DType.UINT8,
        )
        g.write_back(g.gather(table[::-1].copy(), baked, name="lut2"), "out2")
        return g

    def test_gather_tables_and_indices(self):
        one, other = self.programs(0), self.programs(1)
        assert one.shape_key() == other.shape_key()
        a, b = one.compile(), other.compile()
        assert a.program.icus == b.program.icus
        for icu in a.program.icus:
            assert a.program.queue(icu) == b.program.queue(icu)
        assert digest(lambda: other.bind(a.schedule)) == digest(lambda: b)

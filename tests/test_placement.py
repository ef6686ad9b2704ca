"""Transit-aware placement: the pure scoring helpers (where a tensor
lives, how wide a weight feed is, how many MXM planes a matmul's rows
stream through, whether the far hemisphere's are worth their weight copy),
and the schedules they produce (results downstream of
their producer, no allocator leak, degraded mode a bounded detour,
critical-path marks on the stats)."""

import numpy as np
import pytest

from repro.arch import Direction, DType, Hemisphere
from repro.arch.geometry import Floorplan
from repro.compiler import Scheduler, StreamProgramBuilder, execute
from repro.compiler.graph import OpKind
from repro.compiler.placement import (
    MatmulPart,
    MemSlice,
    MxmClock,
    PlaneOffer,
    co_consumed,
    contested_cycles,
    earliest,
    feed_options,
    feed_widths,
    matmul_cost,
    matmul_parts,
    operand_slices,
    plane_split,
    read_direction,
    rows_are_free,
    split_rows,
)
from repro.errors import CompileError
from repro.resil import Blacklist, assert_avoids, compile_degraded
from repro.verify.oracle import run_differential

W, E = Hemisphere.WEST, Hemisphere.EAST


def row(*positions):
    return [MemSlice(E, i, p) for i, p in enumerate(positions)]


class TestEarliest:
    def test_takes_the_lowest_completion_cycles_in_order(self):
        a, b, c, d = row(10, 11, 12, 13)
        done = {a: 30, b: 10, c: 20, d: 40}
        assert earliest([a, b, c, d], 2, done.get) == [b, c]

    def test_ties_keep_candidate_order(self):
        a, b, c = row(5, 6, 7)
        assert earliest([c, a, b], 2, lambda s: 0) == [c, a]

    def test_infeasible_candidates_are_skipped(self):
        a, b, c = row(5, 6, 7)
        score = lambda s: None if s is a else 1
        assert earliest([a, b, c], 2, score) == [b, c]

    def test_too_few_feasible_candidates_is_none(self):
        a, b = row(5, 6)
        assert earliest([a, b], 2, lambda s: None if s is a else 1) is None
        assert earliest([], 1, lambda s: 0) is None

    def test_tuple_scores_order_lexicographically(self):
        a, b, c = row(5, 6, 7)
        cost = {a: (1, 0), b: (0, 9), c: (0, 2)}
        assert earliest([a, b, c], 3, cost.get) == [c, b, a]


class TestContestedCycles:
    def test_short_operands_are_never_in_the_way(self):
        assert contested_cycles(rows=4, transit=1, dfunc_read=5) == 0

    def test_long_operands_clear_with_distance(self):
        # 32 reads from 2 hops away are still issuing when a derived
        # value could be back; from 14 hops away they are not
        assert contested_cycles(32, 2, 5) == 23
        assert contested_cycles(32, 13, 5) == 1
        assert contested_cycles(32, 14, 5) == 0


class TestFeedWidths:
    def test_one_option_per_install_length_narrowest_feed(self):
        assert feed_widths(9, 16) == [(1, 9), (2, 5), (3, 3), (5, 2), (9, 1)]

    def test_limit_caps_the_width(self):
        assert feed_widths(64, 4) == [(1, 64), (2, 32), (3, 22), (4, 16)]
        assert feed_widths(1, 16) == [(1, 1)]

    @pytest.mark.parametrize("n_chunks", [1, 7, 9, 36, 64])
    def test_every_option_carries_all_chunks(self, n_chunks):
        for width, cycles in feed_widths(n_chunks, 16):
            assert width * cycles >= n_chunks > width * (cycles - 1)


class TestOperandSlices:
    """Consumer at position 0, slices at 2, 3, 4, ... hops (as the MEM
    slices inboard of a West MXM), ``d_func(Read) = 5``."""

    always = staticmethod(lambda s, t, n: t >= 0)

    def test_short_operand_takes_the_nearest_slice(self):
        slices = row(2, 3, 4, 5)
        (chosen,) = operand_slices(slices, 1, 4, 0, 20, 5, self.always)
        assert chosen.position == 2

    def test_long_operand_clears_the_landing_zone_within_its_slack(self):
        slices = row(*range(2, 18))
        # arrival 12 leaves 7 hops of slack: the farthest deliverable slice
        # is the least contested
        (chosen,) = operand_slices(slices, 1, 32, 0, 12, 5, self.always)
        assert chosen.position == 7
        # with slack to spare it stops at the first uncontested slice
        (chosen,) = operand_slices(slices, 1, 32, 0, 40, 5, self.always)
        assert chosen.position == 14

    def test_busy_slices_are_skipped_and_none_when_nothing_delivers(self):
        slices = row(2, 3, 4)
        free = lambda s, t, n: t >= 0 and s.position != 2
        (chosen,) = operand_slices(slices, 1, 4, 0, 20, 5, free)
        assert chosen.position == 3
        assert operand_slices(slices, 1, 4, 0, 6, 5, self.always) is None

    def test_planes_stay_on_one_side_of_the_consumer(self):
        west = [MemSlice(W, i, 9 - i) for i in range(3)]  # 9, 8, 7
        east = [MemSlice(E, i, 11 + i) for i in range(3)]  # 11, 12, 13
        both = [west[0], east[0], west[1], east[1], west[2], east[2]]
        chosen = operand_slices(both, 2, 1, 10, 20, 5, self.always)
        assert len({s.hemisphere for s in chosen}) == 1
        # one side short of slices: the other takes the whole tensor
        chosen = operand_slices(
            [west[0], *east], 3, 1, 10, 20, 5, self.always
        )
        assert chosen == east

    def test_read_direction(self):
        assert read_direction(W, 5, 9) is Direction.EASTWARD
        assert read_direction(E, 12, 9) is Direction.WESTWARD
        # a consumer at the slice's own position: inward, by convention
        assert read_direction(W, 9, 9) is Direction.EASTWARD
        assert read_direction(E, 9, 9) is Direction.WESTWARD


class TestFeedOptions:
    near = row(*range(3, 19))  # MXM at position 1: 2 .. 17 hops
    fits_all = staticmethod(lambda s, n_words: True)

    def test_most_promising_first(self):
        options = feed_options(self.near, 9, 1, 0, 5, self.fits_all)
        bounds = [bound for bound, *_ in options]
        assert bounds == sorted(bounds)
        bound, ready, roomy, width, cycles = options[0]
        # three streams: farthest slice 4 hops away, 3 install cycles
        assert (width, cycles, ready, bound) == (3, 3, 9, 12)
        assert roomy == self.near

    def test_a_late_start_hides_the_reach(self):
        """Once the MXM is busy until ``t_start`` a wide feed's transit is
        free, and the widest (shortest) install wins."""
        bound, ready, _roomy, width, cycles = feed_options(
            self.near, 9, 1, 40, 5, self.fits_all
        )[0]
        assert (width, cycles, ready, bound) == (9, 1, 40, 41)

    def test_widths_without_enough_roomy_slices_are_dropped(self):
        fits = lambda s, n_words: s.position < 6  # three slices have room
        widths = {w for _b, _r, _roomy, w, _c in
                  feed_options(self.near, 9, 1, 0, 5, fits)}
        assert widths == {1, 2, 3}


class TestSplitRows:
    def test_blocks_are_contiguous_and_cover_every_row(self):
        assert split_rows(32, 1) == [32]
        assert split_rows(32, 2) == [16, 16]
        assert split_rows(17, 2) == [9, 8]
        assert split_rows(9, 4) == [3, 3, 3, 0]
        assert split_rows(1, 2) == [1, 0]


class TestPlaneSplit:
    """Hops from a West MXM to the MEM slices inboard of it: 2, 3, 4, ...;
    an int32 result is four byte-plane streams."""

    near = list(range(2, 18))

    def test_a_tie_keeps_one_plane(self):
        # 8 rows: 8 + 5 on one plane, 4 + 9 on two; 9 rows: 9 + 5, 5 + 9
        assert plane_split([0, 1], 8, 4, self.near) == [0]
        assert plane_split([0, 1], 9, 4, self.near) == [0]

    @pytest.mark.parametrize("rows", [10, 16, 17, 32, 64])
    def test_longer_row_streams_take_both_planes(self, rows):
        assert plane_split([0, 1], rows, 4, self.near) == [0, 1]

    def test_the_preferred_plane_leads(self):
        assert plane_split([1, 0], 32, 4, self.near) == [1, 0]
        assert plane_split([1, 0], 4, 4, self.near) == [1]

    def test_no_sibling_on_offer_is_one_plane(self):
        assert plane_split([1], 64, 4, self.near) == [1]

    def test_far_result_slices_cost_more_than_the_rows_they_save(self):
        # slices at hops 6.. are gone: the second result would land
        # across the chip, 22 hops out
        far = [2, 3, 4, 5, 19, 20, 21, 22]
        assert plane_split([0, 1], 16, 4, far) == [0]
        assert plane_split([0, 1], 32, 4, far) == [0]
        # ... until the row stream is long enough to pay for the trip
        assert plane_split([0, 1], 36, 4, far) == [0, 1]

    def test_too_few_slices_for_a_second_result_is_one_plane(self):
        assert plane_split([0, 1], 64, 4, [2, 3, 4, 5, 6, 7, 8]) == [0]

    def test_a_plane_is_never_handed_an_empty_row_block(self):
        assert plane_split([0, 1], 1, 4, self.near) == [0]
        # 9 rows in blocks of 3 leave a fourth plane nothing
        assert len(plane_split([0, 1, 2, 3], 9, 1, [1] * 16)) == 3

    def test_wider_hemispheres_split_further(self):
        # four planes, 16 result slices: 64 rows stream in 16 cycles
        assert plane_split([0, 1, 2, 3], 64, 4, self.near) == [0, 1, 2, 3]
        # narrower results reach less deep: int8-wide results always split
        assert plane_split([0, 1], 8, 1, self.near) == [0, 1]


    def test_a_busy_sibling_is_not_worth_waiting_for(self):
        """Planes are a scheduled resource: the sibling is still draining
        another matmul until cycle 30, and 12 rows alone (12 + 5) are done
        long before both could be (30 + 6 + 9)."""
        assert plane_split([1, 0], 12, 4, self.near, ready=[0, 30]) == [1]
        assert plane_split([1, 0], 12, 4, self.near, ready=[0, 0]) == [1, 0]
        # ... unless the rows saved outlast the wait
        assert plane_split([1, 0], 64, 4, self.near, ready=[0, 10]) == [1, 0]
        # nothing starts before the first plane is free either way
        assert plane_split([0, 1], 32, 4, self.near, ready=[40, 40]) == [0, 1]


def offer(hemisphere=W, planes=(0, 1), ready=None, landing=range(2, 18)):
    """One MXM of the small test chip as a matmul sees it: at position 1,
    MEM slices 2, 3, 4, ... hops inboard with room for anything, every
    plane idle; ``landing`` gives the hops to the slices a result may
    take."""
    planes = list(planes)
    return PlaneOffer(
        hemisphere, 1, planes, list(ready or [0] * len(planes)),
        row(*(1 + hops for hops in landing)), row(*range(3, 19)),
        lambda s, n_words: True,
    )


#: ``d_func(Read)``; the small chip's systolic depth is 4: fill = 4 +
#: d_func(ACC), a new install waits depth + 1 past the row stream, a Write
#: retires on arrival
CLOCK = MxmClock(read=5, fill=7, turn=5, retire=0)
INT8_TO_INT32 = (1, 4)

#: (weight chunks, rows) -> ((cycles, instructions) in the near hemisphere
#: alone, the same through both) for the 13 benchmark chunk programs
#: (tests/test_schedule_cycles.py pins the scheduled side of these)
CHUNK_PROGRAMS = {
    "conv0 x8": (9, 8, (32, 52), (28, 64)),
    "conv0 x16": (9, 16, (36, 95), (32, 104)),
    "conv0 x32": (9, 32, (44, 175), (36, 190)),
    "conv1 x8": (36, 8, (38, 79), (34, 118)),
    "conv1 x16": (36, 16, (42, 122), (38, 158)),
    "conv1 x32": (36, 32, (50, 202), (42, 244)),
    "dense2 x8": (32, 8, (38, 75), (34, 110)),
    "dense2 x16": (32, 16, (42, 118), (38, 150)),
    "dense2 x32": (32, 32, (50, 198), (42, 236)),
    "dense0 x8": (32, 8, (38, 75), (34, 110)),
    "dense0 x16": (32, 16, (42, 118), (38, 150)),
    "dense1 x8": (64, 8, (42, 107), (38, 174)),
    "dense1 x16": (64, 16, (46, 150), (42, 214)),
}


class TestMatmulCost:
    """feed + fill + stream + drain cycles; feed reads + three MXM
    instructions per plane + a read per row in, a write per row and byte
    out."""

    def cost(self, parts, chunks=(9,)):
        return matmul_cost(parts, list(chunks), INT8_TO_INT32, CLOCK)

    def test_one_plane(self):
        # 12 + 7 + 8 + 5 cycles; 9 + 3 + 8 + 32 instructions
        assert self.cost([MatmulPart(offer(), [0], [8])]) == (32, 52)

    def test_a_second_plane_halves_the_stream_and_deepens_the_drain(self):
        # 12 + 7 + 16 + 9; three more MXM instructions than one plane's 172
        part = MatmulPart(offer(), [0, 1], [16, 16])
        assert self.cost([part]) == (44, 175)

    def test_parts_run_side_by_side_and_each_pays_for_its_weights(self):
        near = MatmulPart(offer(W), [0, 1], [8, 8])
        far = MatmulPart(offer(E), [0, 1], [8, 8])
        assert self.cost([near]) == (36, 9 + 6 + 16 + 64)
        assert self.cost([near, far]) == (36, 2 * (9 + 6 + 16 + 64))

    def test_the_longest_part_sets_the_cycles(self):
        near = MatmulPart(offer(W), [0, 1], [6, 6])
        far = MatmulPart(offer(E, planes=[0]), [0], [6])
        # 12 + 7 + 6 + 9 in the paired hemisphere, + 5 in the other
        assert self.cost([near, far])[0] == 34
        late = MatmulPart(offer(E, planes=[0], ready=[20]), [0], [6])
        assert self.cost([near, late])[0] == 20 + 1 + 7 + 6 + 5

    def test_k_tiles_install_one_after_the_other(self):
        """The second tile's install waits for the first tile's drain
        (first activation + rows + turn), by when a feed as wide as its
        chunks is in reach: one install cycle."""
        part = MatmulPart(offer(), [0], [8])
        cycles, instructions = self.cost([part], chunks=(9, 5))
        assert cycles == (12 + 8 + 5) + 1 + 7 + 8 + 5
        assert instructions == (9 + 3 + 8) + (5 + 3 + 8) + 32


class TestMatmulParts:
    """Engage the far hemisphere only when predicted cycles x predicted
    instructions falls."""

    def parts(self, rows, chunks, offers=None):
        return matmul_parts(
            rows, offers or [offer(W), offer(E)], [chunks], INT8_TO_INT32,
            CLOCK,
        )

    @pytest.mark.parametrize("name", sorted(CHUNK_PROGRAMS))
    def test_the_benchmark_chunk_programs(self, name):
        chunks, rows, alone, both = CHUNK_PROGRAMS[name]
        parts = self.parts(rows, chunks)
        split = both[0] * both[1] < alone[0] * alone[1]
        assert split == (name in ("conv0 x16", "conv0 x32"))
        assert len(parts) == 1 + split
        assert matmul_cost(parts, [chunks], INT8_TO_INT32, CLOCK) == (
            both if split else alone
        )
        # and the road not taken costs what the table says
        near_only = self.parts(rows, chunks, [offer(W)])
        assert matmul_cost(near_only, [chunks], INT8_TO_INT32, CLOCK) == alone

    def test_the_32_row_programs_bracket_break_even(self):
        """conv0's 9 weight chunks are worth copying; conv1's 36 and
        dense2's 32 fall 1.5 % and 0.1 % short — pinned, not argued."""
        assert 36 * 190 < 44 * 175
        assert 42 * 244 > 50 * 202 and 42 * 236 > 50 * 198
        for chunks, planes in ((9, 4), (30, 4), (31, 2), (32, 2), (36, 2)):
            parts = self.parts(32, chunks)
            assert sum(len(part.planes) for part in parts) == planes

    def test_blocks_are_cut_once_over_every_plane(self):
        near, far = self.parts(34, 9)
        assert (near.planes, far.planes) == ([0, 1], [0, 1])
        assert (near.rows, far.rows) == ([9, 9], [9, 7])
        assert (near.offer.hemisphere, far.offer.hemisphere) == (W, E)

    def test_each_hemisphere_asks_plane_split_for_its_share(self):
        # 16 rows: 8 a side tie at one plane each (8 + 5 = 4 + 9)
        near, far = self.parts(16, 9)
        assert (near.planes, near.rows, far.planes, far.rows) == (
            [0], [8], [0], [8]
        )

    def test_too_few_rows_to_share_stay_at_home(self):
        """Rows go out a plane at a time over the planes on offer, the
        home hemisphere's first: one or two never leave it."""
        for rows in (1, 2):
            (part,) = self.parts(rows, 1)
            assert part.planes == [0] and part.rows == [rows]
        # eight do, if the weights are light enough to copy
        assert [p.rows for p in self.parts(8, 1)] == [[4], [4]]
        assert [p.rows for p in self.parts(8, 36)] == [[8]]

    def test_a_degraded_far_hemisphere_is_left_alone(self):
        # no far planes on offer: the scheduler passes one offer
        (part,) = self.parts(32, 9, [offer(W)])
        assert part.planes == [0, 1]
        # far results would land across the chip: 14 hops and more
        distant = offer(E, landing=range(14, 30))
        (part,) = self.parts(32, 9, [offer(W), distant])
        assert part.offer.hemisphere is W and part.planes == [0, 1]
        # one far plane left: three planes, blocks 11 + 11 | 10
        near, far = self.parts(32, 9, [offer(W), offer(E, planes=[1])])
        assert (near.rows, far.planes, far.rows) == ([11, 11], [1], [10])

    def test_busy_far_planes_are_not_worth_the_wait(self):
        busy = offer(E, ready=[40, 40])
        (part,) = self.parts(32, 9, [offer(W), busy])
        assert part.offer.hemisphere is W


class TestRowsAreFree:
    """Only ``input -> matmul -> write`` leaves the row layout to the
    schedule."""

    def graph(self, config, activations="input", epilogue=None, writes=1):
        g = StreamProgramBuilder(config)
        k = 16
        if activations == "input":
            acts = g.input_tensor("acts", (16, k))
        else:
            acts = g.constant_tensor("acts", np.ones((16, k), np.int8))
        out = g.matmul(np.ones((k, 8), np.int8), acts, name="w")
        if epilogue is not None:
            out = epilogue(g, out)
        for i in range(writes):
            g.write_back(out, name=f"acc{i}")
        (matmul,) = [
            n for n in g.graph.nodes.values() if n.kind is OpKind.MATMUL
        ]
        return g, matmul

    def test_serving_chunk_shape(self, config):
        g, matmul = self.graph(config)
        assert rows_are_free(g.graph, matmul)

    def test_constant_activations_are_already_materialised(self, config):
        g, matmul = self.graph(config, activations="constant")
        assert not rows_are_free(g.graph, matmul)

    def test_a_chained_result_must_stay_one_stream(self, config):
        g, matmul = self.graph(
            config, epilogue=lambda g, x: g.convert(x, DType.INT8, 0.1)
        )
        assert not rows_are_free(g.graph, matmul)

    def test_a_result_written_twice_is_not_free(self, config):
        g, matmul = self.graph(config, writes=2)
        assert not rows_are_free(g.graph, matmul)

    def test_an_input_another_node_reads_is_not_free(self, config):
        g = StreamProgramBuilder(config)
        acts = g.input_tensor("acts", (16, 16))
        for name in ("a", "b"):
            g.write_back(
                g.matmul(np.ones((16, 8), np.int8), acts, name=f"w{name}"),
                name=name,
            )
        for node in g.graph.nodes.values():
            if node.kind is OpKind.MATMUL:
                assert not rows_are_free(g.graph, node)
        # and the shared-input program still compiles and runs on one
        # plane per matmul
        compiled = g.compile()
        assert compiled.stats.mxm_planes == 1
        x = (np.arange(256) % 7).astype(np.int8).reshape(16, 16)
        result = execute(compiled, inputs={"acts": x})
        expected = x.astype(np.int32) @ np.ones((16, 8), np.int32)
        assert np.array_equal(result["a"], expected)
        assert np.array_equal(result["b"], expected)


class TestCoConsumed:
    def test_tensors_one_node_consumes_are_partners(self, config):
        g = StreamProgramBuilder(config)
        lanes = config.n_lanes
        x = g.constant_tensor("x", np.ones((2, lanes), np.int8))
        y = g.constant_tensor("y", np.ones((2, lanes), np.int8))
        z = g.constant_tensor("z", np.ones((2, lanes), np.int8))
        g.write_back(g.add(g.add(x, y), z), name="out")
        partners = co_consumed(g.graph)
        assert partners[x.node_id] == {y.node_id}
        assert partners[y.node_id] == {x.node_id}
        assert partners[z.node_id] == set()  # its co-operand is in flight

    def test_partners_never_share_a_slice(self, config):
        """``y`` is first wanted one cycle after ``x``, when the slice
        nearest the VXM has a free read cell again — but a later node
        consumes both at once, and one queue cannot issue both reads."""
        g = StreamProgramBuilder(config)
        lanes = config.n_lanes
        x = g.constant_tensor("x", np.full((1, lanes), 3, np.int8))
        y = g.constant_tensor("y", np.full((1, lanes), 4, np.int8))
        g.write_back(g.add(y, g.add(x, x)), name="a")
        g.write_back(g.mul(y, x), name="b")
        scheduler = Scheduler(config)
        compiled = scheduler.schedule(g.graph).bind(g.graph)
        home = {
            node: {
                (p.hemisphere, p.slice_index)
                for p in scheduler.layouts[node.node_id].planes
            }
            for node in (x, y)
        }
        assert home[x].isdisjoint(home[y])
        result = execute(compiled)
        assert (result["a"] == 10).all() and (result["b"] == 12).all()


def matmul_program(config, n=32, k=36, m=8, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.integers(-8, 8, (k, m)).astype(np.int8)
    x = rng.integers(-8, 8, (n, k)).astype(np.int8)
    g = StreamProgramBuilder(config)
    g.write_back(g.matmul(w, g.constant_tensor("x", x)), name="r")
    return g, x.astype(np.int32) @ w.astype(np.int32)


def slice_positions(config, placements):
    floorplan = Floorplan(config)
    return [
        floorplan.position(floorplan.mem_slice(p.hemisphere, p.slice_index))
        for p in placements
    ]


class TestResultsLandDownstream:
    def test_matmul_result_stays_in_the_producers_hemisphere(self, config):
        """An inward-flowing MXM result is written by the slices it meets
        first, not carried across the chip to the far hemisphere."""
        builder, expected = matmul_program(config)
        compiled = builder.compile()
        floorplan = Floorplan(config)
        mxm = floorplan.position(floorplan.mxm(W))
        landed = slice_positions(config, compiled.outputs["r"].layout.planes)
        assert landed == [mxm + 2, mxm + 3, mxm + 4, mxm + 5]
        assert np.array_equal(execute(compiled)["r"], expected)

    def test_result_shares_a_slice_with_the_weights_it_used(self, config):
        """Bank 0 streams operands, bank 1 takes the result: the slices
        nearest the MXM hold both."""
        builder, _ = matmul_program(config)
        compiled = builder.compile()
        result = {
            (p.hemisphere, p.slice_index)
            for p in compiled.outputs["r"].layout.planes
        }
        constants = {
            (word.hemisphere, word.slice_index)
            for word in compiled.memory_image
        }
        assert result & constants


class TestWritesAllocateOnce:
    def test_outputs_can_fill_result_memory_exactly(self, config):
        """Placement probes candidates without taking words, so outputs
        that exactly fill bank 1 of every slice they can reach still
        place — with contended landing slices, a retry that leaked would
        end in "bank 1 is full"."""
        rows = 32
        per_slice = config.mem_words_per_slice_tile // 2
        n_outputs = config.mem_slices_per_hemisphere * per_slice // rows
        rng = np.random.default_rng(0)
        g = StreamProgramBuilder(config)
        data = []
        for i in range(n_outputs):
            data.append(rng.integers(-9, 9, (rows, config.n_lanes), np.int8))
            x = g.constant_tensor(f"x{i}", data[-1])
            g.write_back(g.relu(x), name=f"y{i}")
        result = execute(g.compile())
        for i in range(n_outputs):
            assert np.array_equal(result[f"y{i}"], np.maximum(data[i], 0))


class TestDegradedPlacement:
    @pytest.mark.parametrize("n", [4, 32])
    def test_dead_nearest_slice_and_plane_is_a_bounded_detour(self, config, n):
        """With the MEM slice nearest the MXM and one MXM plane dead the
        program still places, matches the oracle, and pays one extra hop
        out (the feed) and one back (the result)."""
        builder, expected = matmul_program(config, n=n)
        healthy = builder.compile()
        outer = config.mem_slices_per_hemisphere - 1
        blacklist = Blacklist(
            mem_slices=frozenset({(W, outer)}),
            mxm_planes=frozenset({(W, 0)}),
        )
        with pytest.raises(CompileError, match="degraded-mode violation"):
            assert_avoids(healthy, blacklist)
        degraded = compile_degraded(builder, blacklist)
        result = run_differential(builder, compiled=degraded)
        assert result.ok
        assert np.array_equal(result.outputs["r"], expected)
        extra = degraded.stats.makespan - healthy.stats.makespan
        assert 0 <= extra <= 2


class TestCriticalPathMarks:
    def test_marks_bracket_the_makespan(self, config):
        builder, _ = matmul_program(config)
        stats = builder.compile().stats
        assert (
            0
            <= stats.weights_installed
            < stats.first_operand
            < stats.first_result
            < stats.last_write
            == stats.makespan - 1
        )

    def test_programs_without_a_matmul_have_no_mxm_marks(self, config):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.ones((2, config.n_lanes), np.int8))
        g.write_back(g.relu(x), name="y")
        stats = g.compile().stats
        assert stats.weights_installed is None
        assert stats.first_operand is None
        assert stats.first_result is None
        assert stats.last_write == stats.makespan - 1

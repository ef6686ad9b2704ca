"""Memory and stream allocation: banks, nearness, interval exclusivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Direction, Hemisphere
from repro.arch.geometry import Floorplan
from repro.compiler.allocator import (
    INPUT_BANK,
    MemoryAllocator,
    RESULT_BANK,
    StreamAllocator,
    TensorLayout,
)
from repro.compiler import StreamProgramBuilder
from repro.config import small_test_chip
from repro.errors import AllocationError
from repro.resil import Blacklist


def vxm_position(config):
    floorplan = Floorplan(config)
    return floorplan.position(floorplan.vxm())


def mxm_position(config, hemisphere):
    floorplan = Floorplan(config)
    return floorplan.position(floorplan.mxm(hemisphere))


def east_of_vxm(alloc, config, count):
    vxm = vxm_position(config)
    return [s for s in alloc.slices_near(vxm) if s.position > vxm][:count]


class TestMemoryAllocator:
    def test_bank_parity(self, config):
        """Inputs land in bank 0 (even addresses), results in bank 1."""
        alloc = MemoryAllocator(config)
        one = east_of_vxm(alloc, config, 1)
        inputs = alloc.alloc_sequential(one, 4, INPUT_BANK)
        results = alloc.alloc_sequential(one, 4, RESULT_BANK)
        for j in range(4):
            assert inputs.address_of(0, j)[2] % 2 == 0
            assert results.address_of(0, j)[2] % 2 == 1

    def test_planes_get_distinct_slices(self, config):
        alloc = MemoryAllocator(config)
        layout = alloc.alloc_sequential(east_of_vxm(alloc, config, 4), 2)
        slices = {p.slice_index for p in layout.planes}
        assert len(slices) == 4

    def test_parallel_rows_distinct_slices(self, config):
        alloc = MemoryAllocator(config)
        layout = alloc.alloc_parallel(east_of_vxm(alloc, config, 16))
        assert len({p.slice_index for p in layout.parallel}) == 16
        assert layout.is_parallel

    def test_sequential_addresses_bank_strided(self, config):
        alloc = MemoryAllocator(config)
        layout = alloc.alloc_sequential(east_of_vxm(alloc, config, 1), 3)
        addresses = [layout.address_of(0, j)[2] for j in range(3)]
        assert addresses == [addresses[0], addresses[0] + 2, addresses[0] + 4]

    def test_row_blocks_hide_behind_address_of(self, config):
        """Two row blocks of a 4-byte tensor: eight slices, block after
        block; callers still address it by (byte-plane, row)."""
        alloc = MemoryAllocator(config)
        slices = east_of_vxm(alloc, config, 8)
        layout = alloc.alloc_sequential(slices, 9, RESULT_BANK, row_blocks=2)
        assert layout.row_blocks == 2
        assert [p.n_words for p in layout.planes] == [5] * 4 + [4] * 4
        for plane in range(4):
            homes = [layout.address_of(plane, j) for j in range(9)]
            first, second = slices[plane], slices[4 + plane]
            assert {h[:2] for h in homes[:5]} == {
                (first.hemisphere, first.index)
            }
            assert {h[:2] for h in homes[5:]} == {
                (second.hemisphere, second.index)
            }
            base = layout.planes[plane].base_address
            assert [h[2] for h in homes[:5]] == [base + 2 * j for j in range(5)]
            base = layout.planes[4 + plane].base_address
            assert [h[2] for h in homes[5:]] == [base + 2 * j for j in range(4)]

    def test_parts_join_into_one_layout_with_uniform_blocks(self, config):
        """A tensor split across both hemispheres: each part cuts to the
        whole tensor's block size (34 rows over four blocks are 9 + 9 and
        9 + 7, not 9 + 9 and 8 + 8), so the joined layout addresses every
        row with one ``divmod``."""
        alloc = MemoryAllocator(config)
        slices = east_of_vxm(alloc, config, 4)
        near = alloc.alloc_sequential(slices[:2], 18, row_blocks=[9, 9])
        far = alloc.alloc_sequential(slices[2:], 16, row_blocks=[9, 7])
        assert TensorLayout.join([near]) is near
        whole = TensorLayout.join([near, far])
        assert whole.row_blocks == 4
        assert [p.n_words for p in whole.planes] == [9, 9, 9, 7]
        homes = [whole.address_of(0, j) for j in range(34)]
        assert len(set(homes)) == 34
        for j, (hemisphere, index, _address) in enumerate(homes):
            assert (hemisphere, index) == (
                slices[j // 9].hemisphere, slices[j // 9].index
            )

    def test_near_allocation_prefers_close_slices(self, config):
        """Nearest first, in both hemispheres: MEM0 sits beside the VXM,
        the outermost slice beside each SXM/MXM."""
        alloc = MemoryAllocator(config)
        near_vxm = alloc.slices_near(vxm_position(config))
        assert {(s.hemisphere, s.index) for s in near_vxm[:2]} == {
            (Hemisphere.WEST, 0), (Hemisphere.EAST, 0),
        }
        outer = config.mem_slices_per_hemisphere - 1
        for hemisphere in (Hemisphere.WEST, Hemisphere.EAST):
            position = mxm_position(config, hemisphere)
            order = alloc.slices_near(position)
            assert len(order) == config.n_mem_slices
            own = order[: outer + 1]
            assert [s.hemisphere for s in own] == [hemisphere] * (outer + 1)
            assert [s.index for s in own] == list(range(outer, -1, -1))
            transit = [abs(s.position - position) for s in order]
            assert transit == sorted(transit)

    def test_blacklisted_slices_are_never_offered(self, config):
        dead = frozenset({(Hemisphere.WEST, 15), (Hemisphere.EAST, 0)})
        alloc = MemoryAllocator(config, blacklisted_slices=dead)
        offered = alloc.slices_near(mxm_position(config, Hemisphere.WEST))
        assert len(offered) == config.n_mem_slices - 2
        assert dead.isdisjoint((s.hemisphere, s.index) for s in offered)
        assert (offered[0].hemisphere, offered[0].index) == (
            Hemisphere.WEST, 14,
        )

    def test_probing_never_mutates(self, config):
        """``fits`` answers from the cursors without moving them."""
        alloc = MemoryAllocator(config)
        (s,) = east_of_vxm(alloc, config, 1)
        half = config.mem_words_per_slice_tile // 2
        for _ in range(3):
            assert alloc.fits(s, RESULT_BANK, half)
            assert not alloc.fits(s, RESULT_BANK, half + 1)
        assert alloc.alloc_sequential([s], half, RESULT_BANK).planes[
            0
        ].base_address == 1
        assert not alloc.fits(s, RESULT_BANK, 1)
        assert alloc.fits(s, INPUT_BANK, half)

    def test_contiguous_tables_cap_the_banks(self, config):
        alloc = MemoryAllocator(config)
        (s,) = east_of_vxm(alloc, config, 1)
        words = config.mem_words_per_slice_tile
        table = alloc.alloc_contiguous(s, words // 2)
        assert (table.base_address, table.stride) == (words // 2, 1)
        assert alloc.fits(s, INPUT_BANK, words // 4)
        assert not alloc.fits(s, INPUT_BANK, words // 4 + 1)
        assert not alloc.fits_contiguous(s, words // 2 + 1)

    def test_capacity_exhaustion(self, config):
        alloc = MemoryAllocator(config)
        (s,) = east_of_vxm(alloc, config, 1)
        half = config.mem_words_per_slice_tile // 2
        alloc.alloc_sequential([s], half)
        with pytest.raises(AllocationError, match="bank 0 is full"):
            alloc.alloc_sequential([s], 1)

    def test_too_many_concurrent_slices(self, config):
        """A 16-row transpose group needs 16 slices at once; with 15
        healthy ones the compile reports it."""
        n = config.mem_slices_per_hemisphere
        dead = {(Hemisphere.WEST, i) for i in range(n)}
        dead.add((Hemisphere.EAST, 0))
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.zeros((16, config.n_lanes), np.int8))
        g.write_back(g.transpose16(x), name="t")
        with pytest.raises(AllocationError, match="16 concurrent MEM slices"):
            g.compile(blacklist=Blacklist(mem_slices=frozenset(dead)))

    def test_weight_feed_near_outer_edge(self, config):
        """The slices a feed reaches first are the outboard ones, adjacent
        to the MXM."""
        alloc = MemoryAllocator(config)
        feed = alloc.slices_near(mxm_position(config, Hemisphere.EAST))[:8]
        outer = config.mem_slices_per_hemisphere - 1
        assert all(
            s.hemisphere is Hemisphere.EAST and s.index >= outer - 8
            for s in feed
        )


class TestStreamAllocator:
    def test_disjoint_times_share_stream(self, config):
        alloc = StreamAllocator(config)
        a = alloc.allocate(Direction.EASTWARD, 1, 0, 10)
        b = alloc.allocate(Direction.EASTWARD, 1, 11, 20)
        assert a.base == b.base  # same stream, disjoint windows

    def test_overlapping_times_get_distinct_streams(self, config):
        alloc = StreamAllocator(config)
        a = alloc.allocate(Direction.EASTWARD, 1, 0, 10)
        b = alloc.allocate(Direction.EASTWARD, 1, 5, 15)
        assert a.base != b.base

    def test_directions_independent(self, config):
        alloc = StreamAllocator(config)
        a = alloc.allocate(Direction.EASTWARD, 1, 0, 10)
        b = alloc.allocate(Direction.WESTWARD, 1, 0, 10)
        assert a.base == b.base  # each direction has its own 32 streams

    def test_group_alignment(self, config):
        alloc = StreamAllocator(config)
        alloc.allocate(Direction.EASTWARD, 1, 0, 10)  # a narrow grant
        quad = alloc.allocate(Direction.EASTWARD, 4, 0, 10)
        assert quad.base % 4 == 0  # SG4 alignment

    def test_narrow_grants_pack_high(self, config):
        """Narrow grants take high streams, keeping aligned low blocks
        free for weight feeds and transpose groups."""
        alloc = StreamAllocator(config)
        single = alloc.allocate(Direction.EASTWARD, 1, 0, 10)
        wide = alloc.allocate(Direction.EASTWARD, 16, 0, 10)
        assert single.base == config.streams_per_direction - 1
        assert wide.base == 0

    def test_exhaustion_raises(self, config):
        alloc = StreamAllocator(config)
        for _ in range(config.streams_per_direction):
            alloc.allocate(Direction.EASTWARD, 1, 0, 10)
        with pytest.raises(AllocationError):
            alloc.allocate(Direction.EASTWARD, 1, 0, 10)

    def test_release_returns_capacity(self, config):
        alloc = StreamAllocator(config)
        grants = [
            alloc.allocate(Direction.EASTWARD, 1, 0, 10)
            for _ in range(config.streams_per_direction)
        ]
        alloc.release(grants[0])
        alloc.allocate(Direction.EASTWARD, 1, 0, 10)

    def test_invalid_window_rejected(self, config):
        alloc = StreamAllocator(config)
        with pytest.raises(AllocationError):
            alloc.allocate(Direction.EASTWARD, 1, 10, 5)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),  # width (1, 2, or 4 after rounding)
                st.integers(0, 50),  # start
                st.integers(0, 30),  # duration
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_no_two_grants_overlap(self, requests):
        """Property: the allocator never double-books (stream, time)."""
        alloc = StreamAllocator(small_test_chip())
        granted = []
        for width, start, duration in requests:
            width = {1: 1, 2: 2, 3: 2, 4: 4}[width]
            try:
                granted.append(
                    alloc.allocate(
                        Direction.EASTWARD, width, start, start + duration
                    )
                )
            except AllocationError:
                continue
        for i, a in enumerate(granted):
            for b in granted[i + 1 :]:
                streams_overlap = not (
                    a.base + a.width <= b.base or b.base + b.width <= a.base
                )
                times_overlap = not (
                    a.t_end < b.t_start or b.t_end < a.t_start
                )
                assert not (streams_overlap and times_overlap)

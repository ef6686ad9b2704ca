"""Degraded-mode recompilation: blacklists, plane fallback, ring re-route."""

import numpy as np
import pytest

from repro.arch import Hemisphere
from repro.arch.geometry import SliceKind
from repro.compiler import (
    StreamProgramBuilder,
    build_ring_transfer,
    plan_ring_route,
)
from repro.errors import C2cLinkError, CompileError
from repro.resil import Blacklist, assert_avoids, compile_degraded
from repro.sim import LinkErrorModel, MultiChipSystem
from repro.verify.oracle import run_differential


def matmul_builder(config, seed=21, k=32, m=32, n=4):
    rng = np.random.default_rng(seed)
    w = rng.integers(-8, 8, (k, m)).astype(np.int8)
    x = rng.integers(-8, 8, (n, k)).astype(np.int8)
    g = StreamProgramBuilder(config)
    r = g.matmul(w, g.constant_tensor("x", x))
    g.write_back(r, name="r")
    return g


class TestBlacklistCompile:
    def test_healthy_schedule_violates_the_blacklist(self, config):
        """The check is meaningful: the healthy compile really does use
        the slice we are about to declare dead."""
        healthy = matmul_builder(config).compile()
        word = healthy.memory_image[0]
        blacklist = Blacklist(
            mem_slices=frozenset({(word.hemisphere, word.slice_index)})
        )
        with pytest.raises(CompileError, match="degraded-mode violation"):
            assert_avoids(healthy, blacklist)

    def test_degraded_compile_avoids_and_matches_oracle(self, config):
        builder = matmul_builder(config)
        healthy = builder.compile()
        reference = run_differential(builder, compiled=healthy)
        assert reference.ok
        word = healthy.memory_image[0]
        blacklist = Blacklist(
            mem_slices=frozenset(
                {
                    (word.hemisphere, word.slice_index),
                    (Hemisphere.EAST, 0),
                    (Hemisphere.WEST, 0),
                }
            )
        )
        degraded = compile_degraded(builder, blacklist)
        result = run_differential(builder, compiled=degraded)
        assert result.ok
        for name in reference.outputs:
            assert np.array_equal(result.outputs[name], reference.outputs[name])
        # fewer healthy slices -> narrower weight feed -> never faster
        assert result.run.cycles >= reference.run.cycles

    def test_dead_plane_steers_to_survivors(self, config):
        blacklist = Blacklist(
            mxm_planes=frozenset({(Hemisphere.WEST, 0), (Hemisphere.EAST, 0)})
        )
        degraded = compile_degraded(matmul_builder(config), blacklist)
        mxm_icus = [
            icu
            for icu in degraded.program.icus
            if icu.address.kind is SliceKind.MXM
        ]
        assert mxm_icus, "matmul program must dispatch to the MXM"
        assert all(icu.unit // 2 == 1 for icu in mxm_icus)
        assert run_differential(
            matmul_builder(config), compiled=degraded
        ).ok

    def test_lone_plane_falls_back_across_the_chip(self, config):
        """One plane per hemisphere: a dead West plane has no sibling, the
        survivor is the East one."""
        lone = config.with_overrides(mxm_planes=2)
        blacklist = Blacklist(mxm_planes=frozenset({(Hemisphere.WEST, 0)}))
        degraded = compile_degraded(matmul_builder(lone), blacklist)
        mxm_icus = [
            icu
            for icu in degraded.program.icus
            if icu.address.kind is SliceKind.MXM
        ]
        assert {(i.address.hemisphere, i.unit // 2) for i in mxm_icus} == {
            (Hemisphere.EAST, 0)
        }
        assert run_differential(matmul_builder(lone), compiled=degraded).ok

    def test_all_planes_dead_raises(self, config):
        blacklist = Blacklist(
            mxm_planes=frozenset(
                {
                    (h, p)
                    for h in (Hemisphere.WEST, Hemisphere.EAST)
                    for p in (0, 1)
                }
            )
        )
        with pytest.raises(CompileError, match="no healthy MXM plane"):
            matmul_builder(config).compile(blacklist=blacklist)

    def test_empty_blacklist_is_falsy_and_free(self, config):
        assert not Blacklist()
        assert Blacklist(mem_slices=frozenset({(Hemisphere.EAST, 0)}))
        healthy = matmul_builder(config).compile()
        assert_avoids(healthy, Blacklist())  # vacuously clean


class TestRingRoute:
    def test_prefers_the_short_arc(self):
        assert plan_ring_route(4, 0, 1) == [0, 1]
        assert plan_ring_route(4, 0, 3) == [0, 3]
        assert plan_ring_route(4, 1, 1) == [1]

    def test_dead_cable_forces_the_long_way(self):
        assert plan_ring_route(4, 0, 1, {0}) == [0, 3, 2, 1]
        # cable 3 is West(0)<->East(3): the counter-clockwise exit
        assert plan_ring_route(4, 0, 3, {3}) == [0, 1, 2, 3]

    def test_disconnected_pair_raises(self):
        with pytest.raises(C2cLinkError, match="disconnect"):
            plan_ring_route(4, 0, 2, {1, 3})

    def test_bad_endpoints_raise(self):
        with pytest.raises(C2cLinkError):
            plan_ring_route(4, 0, 7)


class TestRingTransfer:
    def test_multi_hop_store_and_forward(self, config, rng):
        payload = rng.integers(0, 256, (3, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, 4)
        plan = build_ring_transfer(
            system, plan_ring_route(4, 0, 2), len(payload)
        )
        landed, _ = plan.run(system, payload)
        assert np.array_equal(landed, payload)

    def test_reroute_around_dead_cable_recovers(self, config, rng):
        payload = rng.integers(0, 256, (2, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, 4)
        system.set_link_error_model(
            0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
        )
        route = plan_ring_route(4, 0, 1, {0})
        assert route == [0, 3, 2, 1]
        plan = build_ring_transfer(system, route, len(payload))
        landed, _ = plan.run(system, payload)
        assert np.array_equal(landed, payload)

    def test_transfer_rides_through_link_noise(self, config, rng):
        payload = rng.integers(0, 256, (4, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, 4)
        system.set_link_error_model(
            0, Hemisphere.EAST, 0,
            LinkErrorModel(seed=5, burst=(0, 2), max_retries=1),
        )
        plan = build_ring_transfer(
            system, plan_ring_route(4, 0, 2), len(payload)
        )
        landed, _ = plan.run(system, payload)
        assert np.array_equal(landed, payload)
        assert system.chips[1].c2c_unit(Hemisphere.WEST).links[0].retries == 2

    def test_westward_route(self, config, rng):
        payload = rng.integers(0, 256, (2, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem.ring(config, 4)
        plan = build_ring_transfer(
            system, plan_ring_route(4, 1, 0), len(payload)
        )
        landed, _ = plan.run(system, payload)
        assert np.array_equal(landed, payload)

    def test_unwired_cable_rejected_at_plan_time(self, config, rng):
        payload = rng.integers(0, 256, (1, config.n_lanes), dtype=np.uint8)
        system = MultiChipSystem(config, 4)  # no links at all
        with pytest.raises(C2cLinkError, match="not wired"):
            build_ring_transfer(system, [0, 1], len(payload))


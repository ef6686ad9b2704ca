"""Floorplan geometry: positions, transit delays, directions."""

import pickle

import pytest

from repro.arch import Direction, Floorplan, Hemisphere, SliceKind
from repro.arch.geometry import SliceAddress
from repro.errors import ConfigError
from repro.isa import IcuId


class TestLayout:
    def test_position_count(self, full_config):
        fp = Floorplan(full_config)
        # 88 MEM + VXM + 2x(SXM, MXM, C2C)
        assert fp.n_positions == 88 + 1 + 6

    def test_vxm_is_central(self, full_config):
        fp = Floorplan(full_config)
        vxm = fp.position(fp.vxm())
        assert vxm == fp.n_positions // 2

    def test_mem0_adjacent_to_vxm(self, full_config):
        """Section III-B: MEM0 closest to the VXM."""
        fp = Floorplan(full_config)
        vxm = fp.position(fp.vxm())
        assert fp.position(fp.mem_slice(Hemisphere.EAST, 0)) == vxm + 1
        assert fp.position(fp.mem_slice(Hemisphere.WEST, 0)) == vxm - 1

    def test_mem43_adjacent_to_sxm(self, full_config):
        """Section III-B: MEM43 nearest the SXM."""
        fp = Floorplan(full_config)
        east43 = fp.position(fp.mem_slice(Hemisphere.EAST, 43))
        assert fp.position(fp.sxm(Hemisphere.EAST)) == east43 + 1

    def test_mxm_outboard_of_sxm(self, full_config):
        fp = Floorplan(full_config)
        assert fp.position(fp.mxm(Hemisphere.EAST)) > fp.position(
            fp.sxm(Hemisphere.EAST)
        )
        assert fp.position(fp.mxm(Hemisphere.WEST)) < fp.position(
            fp.sxm(Hemisphere.WEST)
        )

    def test_c2c_at_edges(self, full_config):
        fp = Floorplan(full_config)
        assert fp.position(fp.c2c(Hemisphere.WEST)) == 0
        assert fp.position(fp.c2c(Hemisphere.EAST)) == fp.n_positions - 1

    def test_at_inverts_position(self, full_config):
        fp = Floorplan(full_config)
        for address in fp.slices:
            assert fp.at(fp.position(address)) == address

    def test_at_off_chip_raises(self, config):
        fp = Floorplan(config)
        with pytest.raises(ConfigError):
            fp.at(fp.n_positions)
        with pytest.raises(ConfigError):
            fp.at(-1)

    def test_mem_slice_range_checked(self, config):
        fp = Floorplan(config)
        with pytest.raises(ConfigError):
            fp.mem_slice(Hemisphere.EAST, config.mem_slices_per_hemisphere)

    def test_mem_slices_enumeration(self, full_config):
        fp = Floorplan(full_config)
        mems = fp.mem_slices()
        assert len(mems) == 88
        assert all(m.kind is SliceKind.MEM for m in mems)


class TestTransitDelay:
    def test_delta_symmetry(self, full_config):
        fp = Floorplan(full_config)
        a = fp.mem_slice(Hemisphere.WEST, 10)
        b = fp.mxm(Hemisphere.EAST)
        assert fp.delta(a, b) == fp.delta(b, a)

    def test_delta_adjacent_is_one(self, full_config):
        fp = Floorplan(full_config)
        assert fp.delta(fp.vxm(), fp.mem_slice(Hemisphere.EAST, 0)) == 1

    def test_delta_self_is_zero(self, full_config):
        fp = Floorplan(full_config)
        assert fp.delta(fp.vxm(), fp.vxm()) == 0

    def test_direction_from(self, full_config):
        fp = Floorplan(full_config)
        assert (
            fp.direction_from(fp.vxm(), fp.mxm(Hemisphere.EAST))
            is Direction.EASTWARD
        )
        assert (
            fp.direction_from(fp.vxm(), fp.mxm(Hemisphere.WEST))
            is Direction.WESTWARD
        )

    def test_direction_from_same_position_raises(self, full_config):
        fp = Floorplan(full_config)
        with pytest.raises(ConfigError):
            fp.direction_from(fp.vxm(), fp.vxm())

    def test_unknown_slice_raises(self, config):
        fp = Floorplan(config)
        bogus = SliceAddress(SliceKind.MEM, Hemisphere.EAST, 99)
        with pytest.raises(ConfigError):
            fp.position(bogus)


class TestDirections:
    def test_opposites(self):
        assert Direction.EASTWARD.opposite is Direction.WESTWARD
        assert Direction.WESTWARD.opposite is Direction.EASTWARD

    def test_steps(self):
        assert Direction.EASTWARD.step == 1
        assert Direction.WESTWARD.step == -1

    def test_inward_outward(self):
        assert Direction.inward_for(Hemisphere.WEST) is Direction.EASTWARD
        assert Direction.inward_for(Hemisphere.EAST) is Direction.WESTWARD
        assert Direction.outward_for(Hemisphere.WEST) is Direction.WESTWARD
        assert Direction.outward_for(Hemisphere.EAST) is Direction.EASTWARD

    def test_hemisphere_other(self):
        assert Hemisphere.EAST.other is Hemisphere.WEST
        assert Hemisphere.WEST.other is Hemisphere.EAST


class TestIcuDecomposition:
    def test_full_chip_has_144_queues(self, full_config):
        fp = Floorplan(full_config)
        assert sum(fp.icu_count().values()) == 144

    def test_mem_queues_match_slices(self, full_config):
        fp = Floorplan(full_config)
        assert fp.icu_count()[SliceKind.MEM] == 88

    def test_slice_str_forms(self, full_config):
        fp = Floorplan(full_config)
        assert str(fp.vxm()) == "VXM"
        assert str(fp.mem_slice(Hemisphere.EAST, 3)) == "MEM_E3"
        assert str(fp.sxm(Hemisphere.WEST)) == "SXM_W"


class TestHashing:
    """Addresses and queue ids key every dict on the compile path: the
    enums hash by identity and the dataclasses once, at construction."""

    def test_enum_members_hash_by_identity(self):
        for member in (*SliceKind, *Hemisphere, *Direction):
            assert hash(member) == object.__hash__(member)
            assert {member: 1}[type(member)(member.value)] == 1

    def test_equal_addresses_and_queues_are_one_key(self):
        a = SliceAddress(SliceKind.MEM, Hemisphere.WEST, 3)
        b = SliceAddress(SliceKind.MEM, Hemisphere.WEST, 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "slice"}[b] == "slice"
        assert {IcuId(a, 1): "queue"}[IcuId(b, 1)] == "queue"
        assert hash(a) != hash(SliceAddress(SliceKind.MEM, Hemisphere.EAST, 3))
        assert IcuId(a, 1) != IcuId(a, 0)

    def test_a_copy_is_rebuilt_not_handed_a_stale_hash(self):
        """The cached hash is built on this process's enum identities, so
        pickling goes back through ``__init__``."""
        icu = IcuId(SliceAddress(SliceKind.MXM, Hemisphere.EAST), 3)
        clone = pickle.loads(pickle.dumps(icu))
        assert clone == icu and hash(clone) == hash(icu)
        assert clone.address.hemisphere is Hemisphere.EAST
        assert {icu: 1}[clone] == 1

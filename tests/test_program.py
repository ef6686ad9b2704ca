"""Program container: queues, listing, 144-ICU enumeration."""

import pytest

from repro.arch import Floorplan, Hemisphere
from repro.config import groq_tsp_v1
from repro.errors import IsaError
from repro.isa import IcuId, Nop, Program, Read, UnaryOp, all_icu_ids
from repro.isa.vxm import AluOp


class TestIcuEnumeration:
    def test_full_chip_has_144_icus(self):
        config = groq_tsp_v1()
        ids = all_icu_ids(config, Floorplan(config))
        assert len(ids) == 144

    def test_mxm_queues_follow_the_plane_count(self, config):
        """Two queues per plane the hemisphere actually has."""
        lone = config.with_overrides(mxm_planes=2)
        for cfg, per_hemisphere in ((config, 4), (lone, 2)):
            ids = all_icu_ids(cfg, Floorplan(cfg))
            west = Floorplan(cfg).mxm(Hemisphere.WEST)
            assert sum(i.address == west for i in ids) == per_hemisphere

    def test_icu_ids_unique(self):
        config = groq_tsp_v1()
        ids = all_icu_ids(config, Floorplan(config))
        assert len(set(ids)) == len(ids)

    def test_icu_str_forms(self, config):
        fp = Floorplan(config)
        assert str(IcuId(fp.mem_slice(Hemisphere.EAST, 2))) == "MEM_E2"
        assert str(IcuId(fp.vxm(), 5)) == "VXM.alu5"
        assert str(IcuId(fp.sxm(Hemisphere.WEST), 3)) == "SXM_W.permute"
        assert (
            str(IcuId(fp.mxm(Hemisphere.EAST), 3))
            == "MXM_E.plane1.compute"
        )


class TestProgram:
    def test_add_and_queue(self, config):
        fp = Floorplan(config)
        program = Program()
        icu = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        program.add(icu, Read(address=0, stream=0))
        assert len(program.queue(icu)) == 1
        assert program.n_instructions() == 1

    def test_wrong_slice_kind_rejected(self, config):
        fp = Floorplan(config)
        program = Program()
        icu = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        with pytest.raises(IsaError):
            program.add(icu, UnaryOp(op=AluOp.COPY))

    def test_icu_common_allowed_anywhere(self, config):
        fp = Floorplan(config)
        program = Program()
        program.add(IcuId(fp.vxm(), 0), Nop(1))
        program.add(IcuId(fp.mem_slice(Hemisphere.WEST, 1)), Nop(1))

    def test_dispatch_length_counts_nops(self, config):
        fp = Floorplan(config)
        program = Program()
        icu = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        program.add(icu, Nop(10))
        program.add(icu, Read(address=0, stream=0))
        assert program.dispatch_length(icu) == 11

    def test_makespan_lower_bound(self, config):
        fp = Floorplan(config)
        program = Program()
        a = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        b = IcuId(fp.mem_slice(Hemisphere.EAST, 1))
        program.add(a, Nop(100))
        program.add(b, Nop(5))
        assert program.makespan_lower_bound() == 100

    def test_listing_contains_annotations(self, config):
        fp = Floorplan(config)
        program = Program()
        icu = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        program.add(icu, Read(address=0, stream=0), note="load x")
        listing = program.listing()
        assert "MEM_E0" in listing
        assert "load x" in listing

    def test_text_bytes_positive(self, config):
        fp = Floorplan(config)
        program = Program()
        icu = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
        program.add(icu, Read(address=0, stream=0))
        assert program.text_bytes() > 0

    def test_icus_sorted_deterministically(self, config):
        fp = Floorplan(config)
        program = Program()
        program.add(IcuId(fp.vxm(), 1), Nop(1))
        program.add(IcuId(fp.mem_slice(Hemisphere.EAST, 0)), Nop(1))
        program.add(IcuId(fp.vxm(), 0), Nop(1))
        names = [str(icu) for icu in program.icus]
        assert names == sorted(names, key=lambda n: n)

    def test_len(self, config):
        fp = Floorplan(config)
        program = Program()
        assert len(program) == 0
        program.add(IcuId(fp.vxm(), 0), Nop(1))
        assert len(program) == 1

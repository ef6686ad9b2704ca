"""ArchConfig: every derived quantity the paper states, plus validation."""

import pytest

from repro.config import ArchConfig, groq_tsp_v1, small_test_chip
from repro.errors import ConfigError


class TestPaperConstants:
    """Section II's architecturally visible state, from the defaults."""

    def test_lane_count(self, full_config):
        assert full_config.n_lanes == 320

    def test_superlanes(self, full_config):
        assert full_config.n_superlanes == 20
        assert full_config.lanes_per_superlane == 16

    def test_vector_lengths(self, full_config):
        assert full_config.min_vector_length == 16
        assert full_config.max_vector_length == 320

    def test_stream_count(self, full_config):
        assert full_config.n_streams == 64
        assert full_config.streams_per_direction == 32

    def test_mem_slices(self, full_config):
        assert full_config.n_mem_slices == 88
        assert full_config.mem_slices_per_hemisphere == 44

    def test_mem_slice_capacity_is_2_5_mib(self, full_config):
        assert full_config.mem_slice_bytes == int(2.5 * 2**20)

    def test_total_sram_is_220_mib(self, full_config):
        assert full_config.mem_total_bytes == 220 * 2**20

    def test_mem_concurrency_176_way(self, full_config):
        assert full_config.mem_concurrency == 176

    def test_mem_addressing(self, full_config):
        assert full_config.mem_words_per_slice_tile == 8192
        assert full_config.mem_word_bytes == 16

    def test_icu_count(self, full_config):
        assert full_config.n_icus == 144

    def test_vxm_alu_count(self, full_config):
        assert full_config.vxm_alus == 5120

    def test_mxm_macc_units(self, full_config):
        assert full_config.mxm_macc_units == 409_600

    def test_barrier_latency(self, full_config):
        assert full_config.barrier_latency_cycles == 35


class TestBandwidthBudget:
    """Equations 1 and 2 and the instruction-fetch budget."""

    def test_stream_bandwidth_eq1(self, full_config):
        assert full_config.stream_bytes_per_cycle == 20_480
        assert full_config.paper_tib_per_s(20_480) == 20.0

    def test_sram_bandwidth_eq2(self, full_config):
        assert full_config.sram_bytes_per_cycle == 56_320
        assert full_config.paper_tib_per_s(56_320) == 55.0

    def test_sram_bandwidth_per_hemisphere(self, full_config):
        per_hem = full_config.sram_bytes_per_cycle_per_hemisphere
        assert per_hem == 28_160
        assert full_config.paper_tib_per_s(per_hem) == 27.5

    def test_ifetch_bandwidth(self, full_config):
        assert full_config.ifetch_bytes_per_cycle == 2304
        assert full_config.paper_tib_per_s(2304) == 2.25

    def test_sram_exceeds_stream_plus_ifetch(self, full_config):
        # Section II-B: SRAM bandwidth must cover both stream operand
        # bandwidth and peak instruction fetch
        assert (
            full_config.sram_bytes_per_cycle
            >= full_config.stream_bytes_per_cycle
            + full_config.ifetch_bytes_per_cycle
        )

    def test_bytes_per_second_uses_clock(self, full_config):
        assert full_config.bytes_per_second(1000) == pytest.approx(
            1000 * 0.9e9
        )


class TestComputeBudget:
    def test_peak_ops_per_cycle(self, full_config):
        assert full_config.peak_ops_per_cycle == 819_200

    def test_peak_teraops_at_1ghz(self, full_config):
        assert full_config.peak_teraops(1.0) == pytest.approx(819.2)

    def test_peak_teraops_at_nominal_clock(self, full_config):
        assert full_config.peak_teraops() == pytest.approx(737.28)

    def test_compute_density_above_1_teraop_per_mm2(self, full_config):
        # conclusion: "more than 1 TeraOp/s per square mm"
        assert full_config.teraops_per_mm2(1.0) > 1.0

    def test_ops_per_transistor_near_30k(self, full_config):
        value = full_config.ops_per_second_per_transistor(1.0)
        assert value == pytest.approx(30_567, rel=0.01)

    def test_die_area(self, full_config):
        assert full_config.die_area_mm2 == pytest.approx(725.0)


class TestC2CBudget:
    def test_off_chip_bandwidth_3_84_tbps(self, full_config):
        assert full_config.c2c_tbps == pytest.approx(3.84)


class TestValidation:
    def test_default_config_is_valid(self):
        groq_tsp_v1()
        small_test_chip()

    def test_word_must_match_superlane(self):
        with pytest.raises(ConfigError):
            ArchConfig(mem_word_bytes=8).validate()

    def test_mxm_rows_must_match_lanes(self):
        with pytest.raises(ConfigError):
            ArchConfig(mxm_plane_rows=256).validate()

    def test_mxm_planes_split_evenly_between_hemispheres(self):
        assert groq_tsp_v1().mxm_planes_per_hemisphere == 2
        lone = small_test_chip().with_overrides(mxm_planes=2)
        assert lone.mxm_planes_per_hemisphere == 1
        assert ArchConfig(mxm_planes=8).mxm_planes_per_hemisphere == 4
        for planes in (0, 3):
            with pytest.raises(ConfigError, match="split evenly"):
                ArchConfig(mxm_planes=planes).validate()

    def test_needs_streams(self):
        with pytest.raises(ConfigError):
            ArchConfig(streams_per_direction=0).validate()

    def test_secded_check_bits_floor(self):
        with pytest.raises(ConfigError):
            ArchConfig(ecc_check_bits=8).validate()

    def test_pseudo_dual_port_required(self):
        with pytest.raises(ConfigError):
            ArchConfig(mem_banks_per_slice=4).validate()

    def test_zero_superlanes_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(n_superlanes=0).validate()

    def test_with_overrides_validates(self):
        cfg = groq_tsp_v1().with_overrides(clock_ghz=1.0)
        assert cfg.clock_ghz == 1.0
        with pytest.raises(ConfigError):
            groq_tsp_v1().with_overrides(mem_word_bytes=4)

    def test_required_secded_bits_for_128(self):
        assert ArchConfig()._required_secded_bits() == 9

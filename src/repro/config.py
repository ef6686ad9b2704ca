"""Architecture configuration for the Tensor Streaming Processor.

:class:`ArchConfig` captures every architecturally visible quantity from the
paper (Section II) plus the physical-design figures used in the evaluation
(Section V and the conclusion).  All derived bandwidth, compute, and density
figures are computed here so that the benchmark harness and the simulator
share a single source of truth.

The paper reports bandwidths in "TiB/s" computed as ``bytes_per_cycle / 1024``
at a 1 GHz clock (e.g. 2 x 32 x 320 = 20,480 B/cycle is quoted as "20 TiB/s").
We expose both the exact bytes/cycle figures and helpers that apply the
paper's unit convention, so benches can print paper-comparable numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError

#: Paper unit convention: "TiB/s" at 1 GHz is bytes-per-cycle divided by 1024.
PAPER_TIB_DIVISOR = 1024.0


@dataclass(frozen=True)
class ArchConfig:
    """Architecturally visible configuration of one TSP chip.

    The defaults reproduce the first-generation 14 nm Groq TSP exactly as
    described in the paper.  Alternative configurations (smaller chips for
    fast tests, scaled-up research designs) are constructed by overriding
    fields; :meth:`validate` checks internal consistency.
    """

    # ---- lanes and vectors (Section II) ----
    n_superlanes: int = 20
    lanes_per_superlane: int = 16

    # ---- streams (Section II-B) ----
    streams_per_direction: int = 32

    # ---- memory (Section II item 5, Section III-B) ----
    hemispheres: int = 2
    mem_slices_per_hemisphere: int = 44
    mem_word_bytes: int = 16
    mem_addr_bits: int = 13
    mem_banks_per_slice: int = 2

    # ---- functional units ----
    vxm_alu_mesh: tuple[int, int] = (4, 4)
    mxm_planes: int = 4
    mxm_plane_rows: int = 320
    mxm_plane_cols: int = 320
    sxm_per_hemisphere: int = 1
    sxm_transpose_issue: int = 2  # simultaneous transpose ops per SXM

    # ---- instruction control (Section II) ----
    n_icus: int = 144
    ifetch_bytes: int = 640  # one IFetch fills a pair of 320-byte vectors
    iq_capacity_bytes: int = 4096
    barrier_latency_cycles: int = 35  # chip-wide Sync/Notify (Section III-A2)

    # ---- chip-to-chip (Section II item 6) ----
    c2c_links: int = 16
    c2c_lanes_per_link: int = 4
    c2c_gbps_per_lane: float = 30.0

    # ---- ECC (Section II-D) ----
    ecc_data_bits: int = 128
    ecc_check_bits: int = 9

    # ---- physical design (Section V / conclusion) ----
    clock_ghz: float = 0.9  # nominal; the paper quotes peak figures at 1 GHz
    die_width_mm: float = 25.0
    die_height_mm: float = 29.0
    transistors: float = 26.8e9
    process_nm: int = 14

    # ------------------------------------------------------------------
    # Derived lane/vector geometry
    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        """Total parallel lanes on-chip (paper: 320)."""
        return self.n_superlanes * self.lanes_per_superlane

    @property
    def min_vector_length(self) -> int:
        """minVL: one superlane of elements (paper: 16)."""
        return self.lanes_per_superlane

    @property
    def max_vector_length(self) -> int:
        """maxVL: all superlanes (paper: 320)."""
        return self.n_lanes

    @property
    def tiles_per_slice(self) -> int:
        """Vertical tiles composing one functional slice (paper: 20)."""
        return self.n_superlanes

    # ------------------------------------------------------------------
    # Derived stream geometry
    # ------------------------------------------------------------------
    @property
    def n_streams(self) -> int:
        """Total logical streams per lane (paper: 64 = 32 East + 32 West)."""
        return 2 * self.streams_per_direction

    # ------------------------------------------------------------------
    # Derived memory geometry
    # ------------------------------------------------------------------
    @property
    def n_mem_slices(self) -> int:
        """MEM slices across both hemispheres (paper: 88)."""
        return self.hemispheres * self.mem_slices_per_hemisphere

    @property
    def mem_words_per_slice_tile(self) -> int:
        """Addressable 16-byte words per MEM tile (paper: 2^13 = 8192)."""
        return 1 << self.mem_addr_bits

    @property
    def mem_slice_bytes(self) -> int:
        """Capacity of one MEM slice (paper: 2.5 MiB)."""
        return (
            self.tiles_per_slice
            * self.mem_words_per_slice_tile
            * self.mem_word_bytes
        )

    @property
    def mem_total_bytes(self) -> int:
        """Total on-chip SRAM (paper: 220 MiB)."""
        return self.n_mem_slices * self.mem_slice_bytes

    @property
    def mem_concurrency(self) -> int:
        """Independent banks addressable per cycle (paper: 176-way)."""
        return self.n_mem_slices * self.mem_banks_per_slice

    # ------------------------------------------------------------------
    # Derived bandwidth budget (Section II-B, Eq. 1 and Eq. 2)
    # ------------------------------------------------------------------
    @property
    def stream_bytes_per_cycle(self) -> int:
        """Eq. 1: 2 directions x 32 streams x 320 lanes = 20,480 B/cycle."""
        return 2 * self.streams_per_direction * self.n_lanes

    @property
    def sram_bytes_per_cycle(self) -> int:
        """Eq. 2: 2 hem x 44 slices x 2 banks x 320 B = 56,320 B/cycle."""
        return (
            self.hemispheres
            * self.mem_slices_per_hemisphere
            * self.mem_banks_per_slice
            * self.n_lanes
        )

    @property
    def sram_bytes_per_cycle_per_hemisphere(self) -> int:
        """Eq. 2 per hemisphere (paper: 27.5 "TiB/s")."""
        return self.sram_bytes_per_cycle // self.hemispheres

    @property
    def ifetch_bytes_per_cycle(self) -> int:
        """Peak instruction-fetch demand: 144 IQs x 16 B (paper: 2.25 "TiB/s")."""
        return self.n_icus * self.mem_word_bytes

    def paper_tib_per_s(self, bytes_per_cycle: float) -> float:
        """Convert bytes/cycle to the paper's "TiB/s at 1 GHz" convention."""
        return bytes_per_cycle / PAPER_TIB_DIVISOR

    def bytes_per_second(self, bytes_per_cycle: float) -> float:
        """Exact bandwidth in bytes/s at the configured clock."""
        return bytes_per_cycle * self.clock_ghz * 1e9

    # ------------------------------------------------------------------
    # Derived compute budget (conclusion)
    # ------------------------------------------------------------------
    @property
    def mxm_planes_per_hemisphere(self) -> int:
        """MACC planes in each hemisphere's MXM (paper: 2 of the 4)."""
        return self.mxm_planes // self.hemispheres

    @property
    def mxm_macc_units(self) -> int:
        """Total MACC cells across all MXM planes (paper: 409,600)."""
        return self.mxm_planes * self.mxm_plane_rows * self.mxm_plane_cols

    @property
    def vxm_alus(self) -> int:
        """Total vector ALUs (paper: 5,120 = 320 lanes x 16 ALUs)."""
        rows, cols = self.vxm_alu_mesh
        return self.n_lanes * rows * cols

    @property
    def peak_ops_per_cycle(self) -> int:
        """MXM multiply+accumulate ops per cycle (paper: 819,200)."""
        return 2 * self.mxm_macc_units

    def peak_teraops(self, clock_ghz: float | None = None) -> float:
        """Peak TeraOps/s (paper: 820 at 1 GHz)."""
        clk = self.clock_ghz if clock_ghz is None else clock_ghz
        return self.peak_ops_per_cycle * clk * 1e9 / 1e12

    # ------------------------------------------------------------------
    # Derived physical-density figures (conclusion)
    # ------------------------------------------------------------------
    @property
    def die_area_mm2(self) -> float:
        """Die area (paper: 25 x 29 = 725 mm^2)."""
        return self.die_width_mm * self.die_height_mm

    def teraops_per_mm2(self, clock_ghz: float = 1.0) -> float:
        """Computational density (paper: > 1 TeraOp/s/mm^2)."""
        return self.peak_teraops(clock_ghz) / self.die_area_mm2

    def ops_per_second_per_transistor(self, clock_ghz: float = 1.0) -> float:
        """Conversion-rate metric (paper: ~30K ops/s/transistor)."""
        return self.peak_teraops(clock_ghz) * 1e12 / self.transistors

    # ------------------------------------------------------------------
    # Derived C2C budget (Section II item 6)
    # ------------------------------------------------------------------
    @property
    def c2c_tbps(self) -> float:
        """Off-chip pin bandwidth, both directions (paper: 3.84 Tb/s)."""
        return (
            self.c2c_links
            * self.c2c_lanes_per_link
            * self.c2c_gbps_per_lane
            * 2
            / 1000.0
        )

    # ------------------------------------------------------------------
    # Validation and variants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""
        if self.n_superlanes < 1 or self.lanes_per_superlane < 1:
            raise ConfigError("chip must have at least one superlane and lane")
        if self.mem_word_bytes != self.lanes_per_superlane:
            raise ConfigError(
                "a 16-byte MEM word must map one byte per lane of a "
                f"superlane: word={self.mem_word_bytes} "
                f"lanes={self.lanes_per_superlane}"
            )
        if self.mxm_plane_rows != self.n_lanes:
            raise ConfigError(
                "MXM plane height must equal the lane count so a maxVL "
                f"vector fills one plane edge: {self.mxm_plane_rows} != "
                f"{self.n_lanes}"
            )
        if self.mxm_planes < 1 or self.mxm_planes % self.hemispheres:
            raise ConfigError(
                "MXM planes are split evenly between the hemispheres: "
                f"{self.mxm_planes} planes over {self.hemispheres}"
            )
        if self.streams_per_direction < 1:
            raise ConfigError("need at least one stream per direction")
        if self.ecc_check_bits < self._required_secded_bits():
            raise ConfigError(
                f"SECDED over {self.ecc_data_bits} data bits needs at least "
                f"{self._required_secded_bits()} check bits"
            )
        if self.mem_banks_per_slice != 2:
            raise ConfigError("MEM slices are pseudo-dual-ported (2 banks)")

    def _required_secded_bits(self) -> int:
        """Minimum check bits for SECDED over ``ecc_data_bits``."""
        r = 0
        while (1 << r) < self.ecc_data_bits + r + 1:
            r += 1
        return r + 1  # +1 for the overall parity bit

    def with_overrides(self, **overrides: object) -> "ArchConfig":
        """Return a validated copy with the given fields replaced."""
        cfg = dataclasses.replace(self, **overrides)  # type: ignore[arg-type]
        cfg.validate()
        return cfg


def groq_tsp_v1() -> ArchConfig:
    """The first-generation 14 nm Groq TSP described in the paper."""
    cfg = ArchConfig()
    cfg.validate()
    return cfg


def small_test_chip() -> ArchConfig:
    """A scaled-down chip used by fast unit tests.

    4 superlanes of 16 lanes (64-lane maxVL), 16 MEM slices per hemisphere
    (enough to feed a full transpose stream group), and a 64x64 MXM plane:
    small enough that cycle-level tests run in milliseconds, yet exercising
    every structural feature of the full chip.
    """
    cfg = ArchConfig(
        n_superlanes=4,
        mem_slices_per_hemisphere=16,
        mem_addr_bits=8,
        mxm_plane_rows=64,
        mxm_plane_cols=64,
        n_icus=2 * 16 + 16 + 8 + 16 + 16,
    )
    cfg.validate()
    return cfg

"""Mapping NN layers onto the TSP's functional slices.

Implements the deployment strategy Section IV describes: convolutions and
matmuls lower to weight tiles on the four 320x320 MXM planes; the 16 VXM
ALUs per lane requantize int32 results to int8 and apply ReLU *chained* on
the result streams (no extra cycles — the point of dataflow chaining);
pooling and tensor reshapes stream through the SXM.

Tiling policy for a lowered matmul K x M over N spatial positions:

* ``k_tiles = ceil(K / 320)``, ``m_tiles = ceil(M / 320)``, giving
  ``T = k_tiles * m_tiles`` weight tiles;
* if ``T <= 4`` the tiles are replicated across the planes and the spatial
  dimension is split ``floor(4 / T)`` ways — four simultaneous conv2d
  windows, the regime the paper's power plot shows as spikes;
* if ``T > 4`` the tiles run in ``ceil(T / 4)`` rounds of plane installs,
  streaming all N activations each round.

Weight installs cost ``ceil(rows*cols / (16 streams x 320 lanes))`` cycles
(20 for a full plane — the "409,600 weights in under 40 cycles" figure
covers all four planes fed by both hemispheres in parallel).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig
from .resnet import LayerKind, LayerSpec


@dataclass(frozen=True)
class LayerMapping:
    """How one layer uses the chip, before timing."""

    spec: LayerSpec
    k_tiles: int
    m_tiles: int
    rounds: int  # sequential install rounds
    spatial_split: int  # simultaneous plane copies of the same tile set
    install_cycles: int  # per round, per plane (parallel across planes)
    stream_cycles: int  # activation vectors streamed per round
    vxm_vectors: int  # vectors through the requant/activation chain
    sxm_vectors: int  # vectors through the SXM (pool/reshape)
    planes: int  # MXM planes on the chip the layer was mapped onto
    lanes: int  # ... and the edge of each (square) plane

    @property
    def is_matrix_op(self) -> bool:
        return self.spec.kind in (LayerKind.CONV, LayerKind.FC)

    @property
    def active_planes(self) -> int:
        """Planes busy during this layer's streaming phase."""
        if not self.is_matrix_op:
            return 0
        tiles = self.k_tiles * self.m_tiles
        return min(self.planes, tiles * self.spatial_split)

    @property
    def mxm_utilization(self) -> float:
        """Fraction of the peak MACC array doing useful work."""
        if not self.is_matrix_op:
            return 0.0
        total_cycles = self.rounds * self.stream_cycles
        if total_cycles == 0:
            return 0.0
        peak = self.planes * self.lanes * self.lanes * total_cycles
        return min(1.0, self.spec.macs / peak)


def map_layer(spec: LayerSpec, config: ArchConfig) -> LayerMapping:
    """Tile one layer onto the MXM/VXM/SXM."""
    lanes = config.n_lanes
    planes = config.mxm_planes
    chip = {"planes": planes, "lanes": lanes}
    if spec.kind in (LayerKind.CONV, LayerKind.FC):
        k_tiles = -(-spec.k_dim // lanes)
        m_tiles = -(-spec.m_dim // lanes)
        tiles = k_tiles * m_tiles
        if tiles <= planes:
            spatial_split = planes // tiles
            rounds = 1
            stream = -(-spec.n_spatial // spatial_split)
        else:
            spatial_split = 1
            rounds = -(-tiles // planes)
            stream = spec.n_spatial
        install = -(
            -(lanes * lanes) // (16 * lanes)
        )  # 20 cycles for a full 320x320 tile
        out_vectors = -(-spec.output_elements // lanes)
        return LayerMapping(
            spec=spec,
            k_tiles=k_tiles,
            m_tiles=m_tiles,
            rounds=rounds,
            spatial_split=spatial_split,
            install_cycles=install,
            stream_cycles=stream,
            vxm_vectors=out_vectors,  # requant + ReLU chained on results
            sxm_vectors=0,
            **chip,
        )
    # pooling / elementwise layers: pure streaming ops
    in_vectors = -(
        -(spec.in_channels * spec.in_size * spec.in_size) // lanes
    )
    out_vectors = -(-spec.output_elements // lanes)
    if spec.kind is LayerKind.ADD:
        # residual adds chain on the producing conv's result stream
        return LayerMapping(
            spec, 0, 0, 0, 0, 0, 0, vxm_vectors=out_vectors, sxm_vectors=0,
            **chip,
        )
    if spec.kind is LayerKind.STREAM_EW:
        # softmax/normalization: chained VXM stages at stream rate
        vectors = -(-spec.n_spatial * spec.out_channels // lanes)
        return LayerMapping(
            spec, 0, 0, 0, 0, 0,
            stream_cycles=vectors,
            vxm_vectors=vectors,
            sxm_vectors=0,
            **chip,
        )
    # max/avg pool stream every input vector through SXM + VXM
    return LayerMapping(
        spec, 0, 0, 0, 0, 0,
        stream_cycles=in_vectors,
        vxm_vectors=out_vectors,
        sxm_vectors=in_vectors,
        **chip,
    )


def weight_install_summary(config: ArchConfig) -> dict[str, float]:
    """The Section V-b weight-load figure, from first principles.

    All four planes install simultaneously: each hemisphere's 32 streams
    (16 per plane x 2 planes per hemisphere... using both directions) feed
    16 streams x 320 lanes per plane per cycle.
    """
    lanes = config.n_lanes
    total_weights = config.mxm_macc_units  # 409,600 int8 weights
    per_cycle = config.mxm_planes * 16 * lanes  # bytes/cycle, all planes
    install = -(-total_weights // per_cycle)
    transit = config.mem_slices_per_hemisphere // 4 + 5  # SRAM + network
    return {
        "weights": total_weights,
        "install_cycles": install,
        "with_transit": install + transit,
        "claim_cycles": 40,
    }

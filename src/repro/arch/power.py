"""Energy/power model used for the Figure 10 reproduction.

The paper plots per-layer power for ResNet50 (Figure 10): power spikes when
all four MXM planes run simultaneous conv2d operations and drops on
element-wise / data-movement layers.  We model chip power as a static floor
plus dynamic energy integrated over the deterministic activity schedule:

    P = P_static + (sum over ops of E_op) / T

Absolute per-op energies on Groq's 14 nm silicon are unpublished; the
constants below are standard 14 nm-class estimates (int8 MACC ~ 0.35 pJ,
SRAM access ~ 1 pJ/byte, ~0.15 pJ/byte/mm-class wire hop) chosen so a fully
saturated chip lands near a 300 W-class TDP — the regime Figure 10 shows.
The *shape* of the trace (which layers spike, which idle) comes entirely
from the schedule, not from these constants.

The TSP's scalable-vector power feature (Section II-F) is modelled by
``active_superlanes``: powered-down superlanes contribute neither dynamic
nor per-tile static power.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..config import ArchConfig


@dataclass
class ActivityCounts:
    """Dynamic-activity tally over a window of cycles."""

    cycles: int = 0
    macc_ops: int = 0  # int8 multiply-accumulates executed in the MXM
    alu_ops: int = 0  # VXM vector-ALU lane-operations
    sram_read_bytes: int = 0
    sram_write_bytes: int = 0
    stream_hop_bytes: int = 0  # bytes advanced one stream-register hop
    sxm_bytes: int = 0  # bytes permuted/shifted/transposed
    instructions: int = 0

    def merge(self, other: "ActivityCounts") -> "ActivityCounts":
        """Element-wise sum; cycle windows are concatenated."""
        return ActivityCounts(
            cycles=self.cycles + other.cycles,
            macc_ops=self.macc_ops + other.macc_ops,
            alu_ops=self.alu_ops + other.alu_ops,
            sram_read_bytes=self.sram_read_bytes + other.sram_read_bytes,
            sram_write_bytes=self.sram_write_bytes + other.sram_write_bytes,
            stream_hop_bytes=self.stream_hop_bytes + other.stream_hop_bytes,
            sxm_bytes=self.sxm_bytes + other.sxm_bytes,
            instructions=self.instructions + other.instructions,
        )

    def copy(self) -> "ActivityCounts":
        """An independent snapshot of the current tally."""
        return replace(self)

    def delta(self, start: "ActivityCounts") -> "ActivityCounts":
        """Counts accumulated since a ``start`` snapshot of this tally.

        Lets a chip keep one cumulative tally across several runs while
        each :class:`~repro.sim.chip.RunResult` reports only its own
        window.
        """
        return ActivityCounts(
            **{
                f.name: getattr(self, f.name) - getattr(start, f.name)
                for f in fields(self)
            }
        )

    #: (domain, counter) -> ActivityCounts field: how the fine-grained
    #: telemetry hierarchy rolls up into this coarse tally.  Ifetch refills
    #: read program text out of the same SRAM as data, so they land in
    #: ``sram_read_bytes`` alongside MEM-slice reads.
    FINE_ROLLUP = {
        ("mem", "read_bytes"): "sram_read_bytes",
        ("mem", "write_bytes"): "sram_write_bytes",
        ("icu", "ifetch_bytes"): "sram_read_bytes",
        ("icu", "dispatches"): "instructions",
        ("mxm", "macc_ops"): "macc_ops",
        ("vxm", "alu_ops"): "alu_ops",
        ("sxm", "bytes"): "sxm_bytes",
        ("srf", "hop_bytes"): "stream_hop_bytes",
    }

    @classmethod
    def from_fine(
        cls, unit_totals: dict, cycles: int = 0
    ) -> "ActivityCounts":
        """Roll a telemetry counter hierarchy up into an activity tally.

        ``unit_totals`` maps ``"domain:instance"`` unit names to
        ``{counter: total}`` dicts (the shape of
        :meth:`repro.obs.TelemetryCollector.totals`).  Counters without a
        :data:`FINE_ROLLUP` entry (stall/parked cycles,
        occupancy, C2C link traffic, weight installs) have no dynamic-energy
        term here and are ignored.
        """
        activity = cls(cycles=cycles)
        for unit, counters in unit_totals.items():
            domain = unit.split(":", 1)[0]
            for counter, value in counters.items():
                target = cls.FINE_ROLLUP.get((domain, counter))
                if target is not None:
                    setattr(activity, target, getattr(activity, target) + value)
        return activity


@dataclass(frozen=True)
class PowerModel:
    """Per-operation energies (picojoules) and static power (watts)."""

    e_macc_pj: float = 0.35
    e_alu_pj: float = 0.9
    e_sram_read_pj_per_byte: float = 1.0
    e_sram_write_pj_per_byte: float = 1.2
    e_stream_hop_pj_per_byte: float = 0.15
    e_sxm_pj_per_byte: float = 0.4
    e_instruction_pj: float = 12.0
    static_w: float = 45.0
    #: Fraction of static power attributable to the superlane array (the
    #: part the Config low-power instruction can shed).
    superlane_static_fraction: float = 0.6

    def dynamic_energy_pj(self, activity: ActivityCounts) -> float:
        """Total dynamic energy of a window, in picojoules."""
        return (
            activity.macc_ops * self.e_macc_pj
            + activity.alu_ops * self.e_alu_pj
            + activity.sram_read_bytes * self.e_sram_read_pj_per_byte
            + activity.sram_write_bytes * self.e_sram_write_pj_per_byte
            + activity.stream_hop_bytes * self.e_stream_hop_pj_per_byte
            + activity.sxm_bytes * self.e_sxm_pj_per_byte
            + activity.instructions * self.e_instruction_pj
        )

    def static_power_w(
        self, config: ArchConfig, active_superlanes: int | None = None
    ) -> float:
        """Static power, reduced when superlanes are powered down.

        Section II-F: unused superlanes can be configured into a low-power
        mode, yielding a more energy-proportional system.
        """
        if active_superlanes is None:
            active_superlanes = config.n_superlanes
        active_superlanes = max(0, min(active_superlanes, config.n_superlanes))
        lane_fraction = active_superlanes / config.n_superlanes
        fixed = self.static_w * (1.0 - self.superlane_static_fraction)
        scaled = self.static_w * self.superlane_static_fraction * lane_fraction
        return fixed + scaled

    def average_power_w(
        self,
        config: ArchConfig,
        activity: ActivityCounts,
        active_superlanes: int | None = None,
    ) -> float:
        """Average power over the activity window at the configured clock."""
        if activity.cycles <= 0:
            return self.static_power_w(config, active_superlanes)
        seconds = activity.cycles / (config.clock_ghz * 1e9)
        dynamic_w = self.dynamic_energy_pj(activity) * 1e-12 / seconds
        return self.static_power_w(config, active_superlanes) + dynamic_w

    def peak_power_w(self, config: ArchConfig) -> float:
        """Power with every MACC, ALU, and stream register busy every cycle."""
        per_cycle = ActivityCounts(
            cycles=1,
            macc_ops=config.mxm_macc_units,
            alu_ops=config.vxm_alus // 4,
            sram_read_bytes=config.sram_bytes_per_cycle // 2,
            sram_write_bytes=config.sram_bytes_per_cycle // 4,
            stream_hop_bytes=config.stream_bytes_per_cycle,
            sxm_bytes=config.n_lanes * 4,
            instructions=config.n_icus,
        )
        return self.average_power_w(config, per_cycle)

"""Lockstep multi-chip simulation over C2C links.

The TSP's off-chip links are deterministic: software-scheduled Send and
Receive with fixed latency, no flow control, no arbitration (Section II
item 6).  A :class:`MultiChipSystem` therefore runs all chips in cycle
lockstep, which preserves the single-chip timing contract across the
system — the property that lets large-scale TSP systems be scheduled by a
single compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.geometry import Hemisphere
from ..config import ArchConfig
from ..errors import ConfigError, SimulationError
from ..isa.program import Program
from .c2c import DEFAULT_LINK_LATENCY, C2cLink, LinkErrorModel
from .chip import RunResult, TspChip, run_lockstep


@dataclass(frozen=True)
class LinkSpec:
    """One bidirectional cable between two chips."""

    chip_a: int
    hemisphere_a: Hemisphere
    link_a: int
    chip_b: int
    hemisphere_b: Hemisphere
    link_b: int
    latency: int = DEFAULT_LINK_LATENCY


class MultiChipSystem:
    """A set of TSP chips wired by C2C links, simulated in lockstep."""

    def __init__(
        self,
        config: ArchConfig,
        n_chips: int,
        links: list[LinkSpec] | None = None,
        **chip_kwargs,
    ) -> None:
        if n_chips < 1:
            raise SimulationError("a system needs at least one chip")
        self.config = config
        self.chips = [
            TspChip(config, chip_id=i, **chip_kwargs) for i in range(n_chips)
        ]
        for spec in links or []:
            self.connect(spec)

    def connect(self, spec: LinkSpec) -> None:
        a = self.chips[spec.chip_a].c2c_unit(spec.hemisphere_a)
        b = self.chips[spec.chip_b].c2c_unit(spec.hemisphere_b)
        a.connect(spec.link_a, b, spec.link_b, spec.latency)

    def set_link_error_model(
        self,
        chip: int,
        hemisphere: Hemisphere,
        link: int,
        model: LinkErrorModel | None,
    ) -> None:
        """Attach a deterministic error process to one link egress."""
        self.chips[chip].c2c_unit(hemisphere).set_error_model(link, model)

    def attach_telemetry(self, collectors: list) -> None:
        """Attach one :class:`repro.obs.TelemetryCollector` per chip."""
        if len(collectors) != len(self.chips):
            raise SimulationError(
                f"{len(self.chips)} chips but {len(collectors)} collectors"
            )
        for chip, collector in zip(self.chips, collectors):
            chip.attach_telemetry(collector)

    def scrub(self) -> None:
        """Factory-reset every chip (tenant state dies, wiring survives).

        The multi-chip form of :meth:`TspChip.scrub` — the serve pool's
        checkout discipline extended across a whole system.
        """
        for chip in self.chips:
            chip.scrub()

    def clear_error_models(self) -> None:
        """Detach every injected link error process, leaving wiring intact.

        :meth:`TspChip.scrub` deliberately keeps error models (a unit
        fault with no fresh value, :data:`repro.sim.chip.STATE`); a pool
        that hands whole systems to tenants calls this so a fault
        injected for one batch cannot poison the next tenant's links.
        """
        for chip in self.chips:
            for link in chip.parts[C2cLink]:
                link.error_model = None

    @staticmethod
    def ring(
        config: ArchConfig,
        n_chips: int,
        loopback: bool = False,
        latency: int = DEFAULT_LINK_LATENCY,
        **chip_kwargs,
    ) -> "MultiChipSystem":
        """A ring: each chip's East C2C link 0 feeds the next chip's West.

        A one-chip "ring" would silently wire the chip's East link 0 to
        its own West link 0 — almost always a sizing mistake, so it is
        rejected unless ``loopback=True`` makes the single-chip self-ring
        explicit.
        """
        if n_chips == 1 and not loopback:
            raise ConfigError(
                "ring(n_chips=1) wires chip 0's East link 0 back to its "
                "own West link 0; pass loopback=True if a single-chip "
                "self-ring is really intended"
            )
        links = [
            LinkSpec(
                i, Hemisphere.EAST, 0, (i + 1) % n_chips, Hemisphere.WEST, 0,
                latency=latency,
            )
            for i in range(n_chips)
        ]
        return MultiChipSystem(config, n_chips, links, **chip_kwargs)

    # ------------------------------------------------------------------
    def run(
        self,
        programs: list[Program],
        max_cycles: int = 1_000_000,
    ) -> list[RunResult]:
        """Execute one program per chip in cycle lockstep.

        The loop and its step body are the single-chip ones
        (:func:`repro.sim.chip.run_lockstep`), driven over every chip at
        once, so the lockstep contract — every chip observes the same
        logical cycle — holds by construction.

        Per-chip watchdogs (:meth:`TspChip.arm_watchdog`) are honoured:
        a chip with unfinished work past its deadline aborts the whole
        system with a :class:`~repro.errors.WatchdogError` carrying the
        chip's identity — the single-chip deadlock detector does not run
        here, so the watchdog is what catches a queue hung on a barrier
        release that another chip was supposed to trigger.
        """
        if len(programs) != len(self.chips):
            raise SimulationError(
                f"{len(self.chips)} chips but {len(programs)} programs"
            )
        queue_sets = [
            chip.make_queues(program)
            for chip, program in zip(self.chips, programs)
        ]
        windows = [chip.open_run() for chip in self.chips]
        cycles = run_lockstep(
            self.chips, queue_sets, max_cycles, standalone=False
        )
        return [
            chip.close_run(window, cycles)
            for chip, window in zip(self.chips, windows)
        ]

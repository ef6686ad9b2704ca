"""Base class shared by all simulated functional-slice units.

A unit owns one floorplan position and translates dispatched instructions
into DRIVE/CAPTURE events against the stream register file.  The helpers
here encode the paper's timing contract once:

* a result produced by an instruction dispatched at cycle ``t`` appears on
  this unit's stream register at ``t + d_func`` (DRIVE phase);
* an operand consumed by an instruction dispatched at ``t`` is sampled off
  this unit's stream register at ``t + d_skew`` (CAPTURE phase).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..arch.geometry import Direction, SliceAddress
from ..errors import SimulationError
from ..isa.base import Instruction
from ..isa.program import IcuId
from .events import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chip import TspChip


class FunctionalUnit:
    """One simulated slice (MEM slice, VXM, MXM, SXM, or C2C module)."""

    def __init__(self, chip: "TspChip", address: SliceAddress) -> None:
        self.chip = chip
        self.address = address
        self.name = str(address)
        self.position = chip.floorplan.position(address)

    # ------------------------------------------------------------------
    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        """Dispatch hook; concrete units override."""
        raise SimulationError(
            f"{self.address} cannot execute {instruction.mnemonic}"
        )

    # -- timing helpers --------------------------------------------------
    def dfunc(self, instruction: Instruction) -> int:
        return instruction.dfunc(self.chip.timing)

    def dskew(self, instruction: Instruction) -> int:
        return instruction.dskew(self.chip.timing)

    # -- stream helpers ----------------------------------------------------
    def drive_at(
        self,
        cycle: int,
        direction: Direction,
        stream: int,
        vector: np.ndarray,
        checks: np.ndarray | None = None,
    ) -> None:
        """Place ``vector`` on this unit's stream register at ``cycle``."""

        def _do(_c: int) -> None:
            self.chip.srf.drive(direction, stream, self.position, vector)
            if checks is not None and self.chip.srf_ecc_enabled:
                self.chip.srf.override_checks(
                    direction, stream, self.position, checks
                )

        self.chip.events.schedule(cycle, Phase.DRIVE, _do)

    def capture_at(
        self,
        cycle: int,
        direction: Direction,
        stream: int,
        callback: Callable[[np.ndarray], None],
    ) -> None:
        """Sample a stream at this unit's position at ``cycle``."""

        def _do(_c: int) -> None:
            try:
                value = self.chip.srf.read_checked(
                    direction, stream, self.position
                )
            except SimulationError as fault:
                fault.with_context(cycle=_c, unit=self.name)
                raise
            callback(value)

        self.chip.events.schedule(cycle, Phase.CAPTURE, _do)

    def capture_group_at(
        self,
        cycle: int,
        direction: Direction,
        base_stream: int,
        n_streams: int,
        callback: Callable[[list[np.ndarray]], None],
    ) -> None:
        """Sample an aligned group of streams at once."""

        def _do(_c: int) -> None:
            try:
                values = [
                    self.chip.srf.read_checked(
                        direction, base_stream + k, self.position
                    )
                    for k in range(n_streams)
                ]
            except SimulationError as fault:
                fault.with_context(cycle=_c, unit=self.name)
                raise
            callback(values)

        self.chip.events.schedule(cycle, Phase.CAPTURE, _do)

    # -- lane masking ------------------------------------------------------
    def apply_superlane_power(self, vector: np.ndarray) -> np.ndarray:
        """Zero lanes of powered-down superlanes (Config low-power mode)."""
        off = self.chip.superlanes_off
        if not off:
            return vector
        lanes = self.chip.config.lanes_per_superlane
        out = vector.copy()
        for sl in off:
            out[sl * lanes : (sl + 1) * lanes] = 0
        return out

"""Soft-error (SEU) injection and the error-handling CSR model.

Section II-D: single-bit upsets in SRAM or anywhere along the streaming
datapath are corrected automatically and recorded in a control-and-status
register for an error handler to interrogate; accumulating corrections are
an early wearout signal used to identify marginal chips.  This module
injects faults and exposes the CSR view that a fleet-health monitor would
poll.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from .chip import TspChip


@dataclass
class CorrectionRecord:
    """One logged ECC correction event."""

    kind: str  # "sram" or "stream"
    location: str
    bit: int


@dataclass
class FaultInjector:
    """Deterministic SEU injection against a chip under test."""

    chip: TspChip
    log: list[CorrectionRecord] = field(default_factory=list)

    def inject_sram_fault(
        self, hemisphere: Hemisphere, slice_index: int, address: int, bit: int
    ) -> None:
        """Flip one stored data bit without refreshing its ECC."""
        unit = self.chip.mem_unit(hemisphere, slice_index)
        unit.inject_fault(address, bit)
        self.log.append(
            CorrectionRecord(
                "sram", f"MEM_{hemisphere.value}{slice_index}@{address}", bit
            )
        )

    def inject_double_sram_fault(
        self,
        hemisphere: Hemisphere,
        slice_index: int,
        address: int,
        bits: tuple[int, int],
    ) -> None:
        """Flip two bits in the same word: detectable but uncorrectable."""
        first, second = bits
        if first == second:
            raise ValueError("double fault needs two distinct bits")
        unit = self.chip.mem_unit(hemisphere, slice_index)
        unit.inject_fault(address, first)
        unit.inject_fault(address, second)

    def inject_stream_fault(
        self, direction: Direction, stream: int, position: int, bit: int
    ) -> None:
        """Flip one bit of an in-flight stream value (datapath SEU).

        A flip made between runs never reaches the next one: its start
        drains every value left in flight.  To hit a run, arm the flip
        for one of its cycles (:meth:`inject_stream_fault_at`).
        """
        self.chip.srf.inject_stream_fault(direction, stream, position, bit)
        self.log.append(
            CorrectionRecord(
                "stream", f"S{stream}{direction.value}@{position}", bit
            )
        )

    def inject_double_stream_fault(
        self,
        direction: Direction,
        stream: int,
        position: int,
        bits: tuple[int, int],
    ) -> None:
        """Flip two bits of one in-flight ECC word: detectable, not
        correctable.

        The stream SECDED code protects 128-bit words, so both flips
        must land in the same 16-byte superlane word for the fault to
        present as a double — two bits in different words would be two
        independently *correctable* singles.
        """
        first, second = bits
        if first == second:
            raise ValueError("double fault needs two distinct bits")
        if first // 128 != second // 128:
            raise ValueError(
                "double stream fault needs both bits in the same 128-bit "
                f"ECC word (got words {first // 128} and {second // 128})"
            )
        self.chip.srf.inject_stream_fault(direction, stream, position, first)
        self.chip.srf.inject_stream_fault(direction, stream, position, second)

    def inject_stream_fault_at(
        self,
        cycle: int,
        direction: Direction,
        stream: int,
        position: int,
        bit: int,
    ) -> None:
        """Schedule a stream-bit flip for a future cycle of the next run.

        The flip lands at the top of ``cycle``'s DRIVE phase, before that
        cycle's producers overwrite anything — so it corrupts whatever value
        is passing ``position`` at that moment.  A value driven at cycle
        ``c0`` from position ``p0`` flowing eastward sits at ``p0 + (c -
        c0)`` during cycle ``c``.
        """
        from .events import Phase

        def _flip(_cycle: int) -> None:
            self.chip.srf.inject_stream_fault(direction, stream, position, bit)
            self.log.append(
                CorrectionRecord(
                    "stream",
                    f"S{stream}{direction.value}@{position}+c{cycle}",
                    bit,
                )
            )

        self.chip.events.schedule(cycle, Phase.DRIVE, _flip)

    # ------------------------------------------------------------------
    def csr_corrections(self) -> int:
        """The CSR counter of automatically corrected soft errors."""
        return self.chip.srf.corrections

    def wearout_flag(self, threshold: int = 10) -> bool:
        """A fleet-health proxy: too many corrections marks a marginal chip."""
        return self.csr_corrections() >= threshold

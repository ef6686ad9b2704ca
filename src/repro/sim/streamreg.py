"""The chip-wide stream register file (Sections II-A, V-c).

Streams are the only inter-slice communication mechanism: 32 eastward and 32
westward per-lane byte channels.  On every core-clock tick each stream value
advances exactly one stream-register hop in its direction of flow; the
hardware tracks neither origin nor destination — values simply propagate
until they fall off the edge of the chip or a functional slice overwrites
them.  This module implements that contract literally, which is what makes
the compiler's ``delta(j, i)`` arithmetic physically true in simulation.

When ECC mode is on, 9 check bits ride with each 16-byte superlane word of
every stream value (the paper stores 137 bits); a consumer slice verifies
and corrects before operating (see :meth:`read_checked`).

Storage is a ring: a hop moves no data.  Both directions are stored in
*flow order* — slot ``q`` holds the eastward register at position ``q`` or
the westward register at position ``last - q``, so every value flows
toward higher ``q`` and leaves past ``q = last`` — and slot ``q`` lives at
physical column ``(q - hops) mod n_positions`` where ``hops`` counts the
shifts so far.  One hop is then ``hops += 1`` plus clearing the single
column whose values just left the chip; the dense arrays still hold
exactly the state the per-register hardware would.
"""

from __future__ import annotations

import numpy as np

from ..arch.geometry import Direction, Floorplan
from ..config import ArchConfig
from ..errors import SimulationError, StreamContentionError
from . import ecc

_EAST = Direction.EASTWARD


class StreamRegisterFile:
    """All stream registers of one chip.

    State is a dense array ``values[dir, stream, column, lane]`` plus a
    validity mask, columns being ring slots (see the module docstring).
    ``step()`` advances the flow; ``drive()`` overwrites a position (a
    producing slice); ``read()`` observes one (a consumer).
    """

    def __init__(self, config: ArchConfig, floorplan: Floorplan) -> None:
        self.config = config
        self.floorplan = floorplan
        n_pos = floorplan.n_positions
        lanes = config.n_lanes
        streams = config.streams_per_direction
        self._n_pos = n_pos
        self._n_streams = streams
        self._hops = 0
        self._values = np.zeros((2, streams, n_pos, lanes), dtype=np.uint8)
        self._valid = np.zeros((2, streams, n_pos), dtype=bool)
        self._ecc_enabled = False
        self._checks = np.zeros(
            (2, streams, n_pos, config.n_superlanes), dtype=np.uint16
        )
        self._driven_this_cycle: set[tuple[int, int, int]] = set()
        self._live: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self._n_live = [0, 0]
        # set when state was mutated behind ``drive()``'s back (fault
        # injection, raw check overrides) — disables the empty-chip
        # shortcut so such bytes still propagate exactly
        self._dirty = False
        self.hop_bytes_total = 0
        self.corrections = 0
        self.on_drive = None

    # ------------------------------------------------------------------
    def enable_ecc(self, enabled: bool = True) -> None:
        self._ecc_enabled = enabled

    @property
    def ecc_enabled(self) -> bool:
        return self._ecc_enabled

    def override_checks(
        self,
        direction: Direction,
        stream: int,
        position: int,
        checks: np.ndarray,
    ) -> None:
        """Replace the check bits riding with a stream value.

        Used by MEM reads: check bits are generated at the *producer* and
        stored with the word (Section II-D), so a read drives the stored
        checks rather than recomputing them — which is what lets a consumer
        detect corruption that happened while the word sat in SRAM.
        """
        d, s, p = self._index(direction, stream, position)
        self._checks[d, s, p] = np.asarray(checks, dtype=np.uint16)
        if not self._valid[d, s, p]:
            self._dirty = True

    def _index(self, direction: Direction, stream: int, position: int):
        """(direction index, stream, physical ring column) of a register."""
        if not 0 <= stream < self._n_streams:
            raise SimulationError(f"stream {stream} out of range")
        n_pos = self._n_pos
        if not 0 <= position < n_pos:
            raise SimulationError(f"position {position} is off-chip")
        if direction is _EAST:
            return 0, stream, (position - self._hops) % n_pos
        return 1, stream, (n_pos - 1 - position - self._hops) % n_pos

    # ------------------------------------------------------------------
    def drive(
        self,
        direction: Direction,
        stream: int,
        position: int,
        vector: np.ndarray,
    ) -> None:
        """A slice overwrites the stream register at its position.

        Two drives of the same register in one cycle are a compiler bug; the
        hardware has no arbiter to resolve them, so we fault.
        """
        d, s, p = self._index(direction, stream, position)
        key = (d, s, p)
        if self.on_drive is not None:
            self.on_drive(direction, stream, position)
        if key in self._driven_this_cycle:
            raise StreamContentionError(
                f"two producers drove stream {stream}{direction.value} at "
                f"position {position} in one cycle"
            )
        self._driven_this_cycle.add(key)
        vec = np.asarray(vector, dtype=np.uint8)
        if vec.shape != (self.config.n_lanes,):
            raise SimulationError(
                f"stream vectors are {self.config.n_lanes} bytes, got "
                f"{vec.shape}"
            )
        self._values[d, s, p] = vec
        if not self._valid[d, s, p]:
            self._valid[d, s, p] = True
            live = self._live[d]
            live[p] = live.get(p, 0) + 1
            self._n_live[d] += 1
        if self._ecc_enabled:
            words = vec.reshape(self.config.n_superlanes, -1)
            self._checks[d, s, p] = ecc.encode_checks(words)

    # ------------------------------------------------------------------
    def read(
        self, direction: Direction, stream: int, position: int
    ) -> np.ndarray:
        """Observe the value currently at a stream register (no ECC check)."""
        d, s, p = self._index(direction, stream, position)
        return self._values[d, s, p].copy()

    def read_checked(
        self, direction: Direction, stream: int, position: int
    ) -> np.ndarray:
        """Consume a value, verifying and correcting ECC (Section II-D)."""
        d, s, p = self._index(direction, stream, position)
        value = self._values[d, s, p]
        if not self._ecc_enabled:
            return value.copy()
        words = value.reshape(self.config.n_superlanes, -1)
        result = ecc.verify_and_correct(words, self._checks[d, s, p])
        self.corrections += result.corrections
        corrected = result.corrected_words.reshape(-1)
        self._values[d, s, p] = corrected
        return corrected.copy()

    def is_valid(
        self, direction: Direction, stream: int, position: int
    ) -> bool:
        d, s, p = self._index(direction, stream, position)
        return bool(self._valid[d, s, p])

    # ------------------------------------------------------------------
    def inject_stream_fault(
        self, direction: Direction, stream: int, position: int, bit: int
    ) -> None:
        """Flip one bit of a stream value in place (datapath SEU)."""
        d, s, p = self._index(direction, stream, position)
        byte, bitpos = divmod(bit, 8)
        self._values[d, s, p, byte] ^= np.uint8(1 << bitpos)
        self._dirty = True

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every stream one hop; edge values fall off the chip.

        A hop is charged only when a value actually lands on the next
        stream register, so an edge value is never billed for the cycle
        in which it leaves.  The accounting reads the per-column live
        tallies — no mask is scanned, and a hop that drops nothing
        touches no array.
        """
        n_live = self._n_live
        if n_live[0] or n_live[1] or self._dirty:
            n_pos = self._n_pos
            hops = self._hops
            # the last flow slot's column: whatever it holds leaves
            column = (n_pos - 1 - hops) % n_pos
            fell_e = self._live[0].pop(column, 0)
            fell_w = self._live[1].pop(column, 0)
            n_live[0] -= fell_e
            n_live[1] -= fell_w
            self.hop_bytes_total += (
                (n_live[0] + n_live[1]) * self.config.n_lanes
            )
            if fell_e or fell_w or self._dirty:
                self._values[:, :, column] = 0
                self._valid[:, :, column] = False
                if self._ecc_enabled or self._dirty:
                    self._checks[:, :, column] = 0
            self._hops = (hops + 1) % n_pos
        self._driven_this_cycle.clear()

    def flush(self) -> None:
        """Drain the chip: every in-flight value runs off its edge.

        What ``n_positions`` single steps would leave — an empty file,
        each value billed the hops it had left — without walking them:
        the idle gap between two runs, which belongs to neither run's
        telemetry windows.
        """
        if self._n_live[0] or self._n_live[1] or self._dirty:
            n_pos = self._n_pos
            hops = self._hops
            moved = 0
            for live in self._live:
                for column, count in live.items():
                    moved += count * (n_pos - 1 - (column + hops) % n_pos)
                live.clear()
            self._n_live = [0, 0]
            self.hop_bytes_total += moved * self.config.n_lanes
            self._values[:] = 0
            self._valid[:] = False
            self._checks[:] = 0
            self._hops = 0
            self._dirty = False
        self._driven_this_cycle.clear()

    # ------------------------------------------------------------------
    def snapshot_valid(self) -> np.ndarray:
        """The validity mask as ``[direction, stream, position]``, for
        tracing and tests (a copy, un-rotated out of the ring)."""
        columns = (np.arange(self._n_pos) - self._hops) % self._n_pos
        flow = self._valid[:, :, columns]
        return np.stack([flow[0], flow[1][:, ::-1]])

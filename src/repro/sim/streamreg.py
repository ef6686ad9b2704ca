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
        #: hops shifted so far, mod ``n_pos`` — the ring's rotation
        self._hops = 0
        self._values = np.zeros((2, streams, n_pos, lanes), dtype=np.uint8)
        self._valid = np.zeros((2, streams, n_pos), dtype=bool)
        # ECC check bits per superlane word of each stream value
        self._ecc_enabled = False
        self._checks = np.zeros(
            (2, streams, n_pos, config.n_superlanes), dtype=np.uint16
        )
        self._driven_this_cycle: set[tuple[int, int, int]] = set()
        #: live values per direction as ``{ring column: count}``, and
        #: their totals: a shift reads who completes hops and who leaves
        #: the chip from these, never from a scan of the mask
        self._live: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self._n_live = [0, 0]
        #: set when state was mutated behind ``drive()``'s back (fault
        #: injection, raw check overrides) — disables the empty-chip
        #: shortcut so such bytes still propagate exactly
        self._dirty = False
        #: any write since construction/scrub; lets ``scrub`` skip the
        #: three dense-array clears on a register file that is still
        #: bit-identical to freshly constructed (the common pool case)
        self._touched = False
        #: bytes that advanced a hop, for the power model
        self.hop_bytes_total = 0
        #: single-bit stream errors corrected at consumers (CSR counter)
        self.corrections = 0
        #: optional observer called as ``on_drive(direction, stream,
        #: position)`` on every drive, *before* contention faulting, so
        #: invariant checkers see the colliding drive too
        self.on_drive = None
        #: attached telemetry collector (repro.obs), or None; fed every
        #: ``_shift``'s per-direction hop and fall-off totals (and, for a
        #: span crossing a telemetry window, the pre-shift positions) so
        #: hop bytes and occupancy integrate exactly across bulk skips
        self.collector = None
        #: cycle number of the current/most recent shift (set by callers
        #: through ``step``/``step_n``; only meaningful with a collector)
        self.now = 0

    # ------------------------------------------------------------------
    def scrub(self) -> None:
        """Checkout reset: no value, check bit, or counter survives.

        Part of the worker-pool chip-reuse discipline (see
        :meth:`repro.sim.chip.TspChip.scrub`): a scrubbed register file is
        bit-identical to a freshly constructed one, including the CSR-style
        cumulative tallies.  The ECC enable stays — it is configuration,
        not run state.
        """
        if self._touched:
            self._values[:] = 0
            self._valid[:] = False
            self._checks[:] = 0
            self._touched = False
        self._driven_this_cycle.clear()
        self._hops = 0
        for live in self._live:
            live.clear()
        self._n_live = [0, 0]
        self._dirty = False
        self.hop_bytes_total = 0
        self.corrections = 0
        self.now = 0

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
        self._touched = True
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
        self._touched = True
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
        self._touched = True

    # ------------------------------------------------------------------
    def step(self, now: int = 0) -> None:
        """Advance every stream one hop; edge values fall off the chip.

        ``now`` is the cycle being completed — only consumed by an
        attached telemetry collector, so existing no-argument callers keep
        their exact behaviour.
        """
        self.step_n(1, now)

    def step_n(self, n: int, now: int = 0) -> None:
        """Advance ``n`` hops at once — the fast-forward bulk path.

        Bit-identical to calling :meth:`step` ``n`` times: values past the
        chip edge fall off, and ``hop_bytes_total`` integrates each value's
        completed hops analytically instead of summing the mask ``n``
        times.  Used by :meth:`~repro.sim.chip.TspChip.run` to cross
        quiescent cycle spans in one shot.  ``now`` is the first cycle of
        the span (telemetry attribution only).
        """
        n_live = self._n_live
        if n > 0 and (n_live[0] or n_live[1] or self._dirty):
            self.now = now
            self._shift(n)
        self._driven_this_cycle.clear()

    def _shift(self, n: int) -> None:
        """Move all content ``n`` positions; charge completed hops.

        A hop is charged only when a value actually lands on the next
        stream register: a value with ``room`` hops left before its edge
        of the chip completes ``min(n, room)`` of them, so edge values are
        never billed for the cycle in which they leave.  The accounting
        reads the per-column live tallies — no mask is scanned, and a
        shift that drops nothing touches no array.
        """
        lanes = self.config.n_lanes
        n_pos = self._n_pos
        last = n_pos - 1
        hops = self._hops
        k = min(n, n_pos)
        live_e, live_w = self._live
        n_live = self._n_live
        collector = self.collector
        slots = None
        if collector is not None:
            width = collector.window_cycles
            if self.now // width != (self.now + n - 1) // width:
                # the span crosses a telemetry window: the collector
                # integrates per value, from each one's pre-shift flow slot
                slots = [
                    np.array(
                        [
                            (column + hops) % n_pos
                            for column, count in live.items()
                            for _ in range(count)
                        ],
                        dtype=np.intp,
                    )
                    for live in self._live
                ]
        before_e, before_w = n_live
        if n == 1:
            # the one-hop step: every value completes the hop except the
            # last flow slot's column, which leaves
            column = (last - hops) % n_pos
            fell_e = live_e.pop(column, 0)
            fell_w = live_w.pop(column, 0)
            moved_e = before_e - fell_e
            moved_w = before_w - fell_w
        else:
            moved_e, fell_e = self._fly(live_e, n, k)
            moved_w, fell_w = self._fly(live_w, n, k)
        n_live[0] = before_e - fell_e
        n_live[1] = before_w - fell_w
        self.hop_bytes_total += (moved_e + moved_w) * lanes
        if slots is not None:
            collector.on_stream_shift(
                self.now, n, slots[0], last - slots[1], last, lanes
            )
        elif collector is not None:
            # inside one window the totals computed here settle the charge
            collector.on_stream_flow(
                self.now, lanes,
                before_e, moved_e, fell_e, before_w, moved_w, fell_w,
            )

        if k == n_pos:  # a full flush: every column left
            self._values[:] = 0
            self._valid[:] = False
            self._checks[:] = 0
            self._hops = 0
            self._dirty = False
            return
        if fell_e or fell_w or self._dirty:
            # flow slots last-k+1 .. last left: k consecutive ring columns
            self._clear_columns((n_pos - k - hops) % n_pos, k)
        self._hops = (hops + k) % n_pos

    def _fly(self, live: dict[int, int], n: int, k: int) -> tuple[int, int]:
        """Fly one direction's values ``n`` hops: (completed hops, values
        that left); columns that left are dropped from ``live``."""
        n_pos = self._n_pos
        hops = self._hops
        moved = fell = 0
        for column, count in list(live.items()):
            room = n_pos - 1 - (column + hops) % n_pos
            if room < k:
                fell += count
                moved += count * room
                del live[column]
            else:  # room >= k means k == n: the whole span is flown
                moved += count * n
        return moved, fell

    def _clear_columns(self, start: int, k: int) -> None:
        """Zero ``k`` ring columns from ``start``, wrapping at the seam."""
        n_pos = self._n_pos
        end = start + k
        spans = (
            ((start, end),) if end <= n_pos
            else ((start, n_pos), (0, end - n_pos))
        )
        for a, b in spans:
            self._values[:, :, a:b] = 0
            self._valid[:, :, a:b] = False
            if self._ecc_enabled or self._dirty:
                self._checks[:, :, a:b] = 0

    # ------------------------------------------------------------------
    def snapshot_valid(self) -> np.ndarray:
        """The validity mask as ``[direction, stream, position]``, for
        tracing and tests (a copy, un-rotated out of the ring)."""
        columns = (np.arange(self._n_pos) - self._hops) % self._n_pos
        flow = self._valid[:, :, columns]
        return np.stack([flow[0], flow[1][:, ::-1]])

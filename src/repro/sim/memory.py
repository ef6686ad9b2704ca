"""MEM slice simulation: banked pseudo-dual-port SRAM with stored ECC.

Each MEM slice holds 20 tiles x 8192 words x 16 bytes (2.5 MiB); a word
address names one 320-byte vector spread one-byte-per-lane across the whole
slice (Section II-B).  The SRAM is pseudo-dual-ported: one read and one
write can proceed in the same cycle *only* when they target opposite banks
(the exposed bank bit is ``address & 1``); any other same-cycle pairing is a
bank conflict, which deterministic hardware cannot arbitrate, so the
simulator faults (Section IV-A).

ECC check bits are generated at the producer and stored alongside each word
(Section II-D).  A ``Read`` forwards the *stored* checks onto the stream, so
corruption injected into the SRAM is detected and corrected at the consumer
exactly as on silicon.
"""

from __future__ import annotations

import numpy as np

from ..arch.geometry import SliceAddress
from ..errors import BankConflictError, MemoryFaultError, SimulationError
from ..isa.base import Instruction
from ..isa.mem import Gather, Read, Scatter, Write
from ..isa.program import IcuId
from . import ecc
from .unit import FunctionalUnit


class MemSliceUnit(FunctionalUnit):
    """One of the 88 MEM slices."""

    def __init__(self, chip, address: SliceAddress) -> None:
        super().__init__(chip, address)
        self.n_words = chip.config.mem_words_per_slice_tile
        self.dead = False
        # the chip sets the rest: SRAM (made on first touch), checks, log

    # ------------------------------------------------------------------
    # hard-failure modeling
    # ------------------------------------------------------------------
    def mark_dead(self) -> None:
        """Hard-fail the whole slice: every access raises until revive().

        Models a permanently failed SRAM tile (as opposed to the soft
        errors of :meth:`inject_fault`, which ECC corrects): scrubs do not
        clear it, so a pooled chip carries the damage across checkouts and
        the serving layer recompiles around the slice.  A program that
        touches it simulates and faults; one whose plan's footprint
        (:attr:`repro.sim.replay.ReplayPlan.footprint`) avoids it replays.
        """
        self.dead = True

    def revive(self) -> None:
        """Clear a hard failure (a test's stand-in for a hardware repair)."""
        self.dead = False

    def _check_dead(self, cycle: int | None = None) -> None:
        if self.dead:
            raise MemoryFaultError(
                f"{self.address}: slice is dead (hard SRAM failure)",
                chip=self.chip.chip_id,
                cycle=cycle,
                unit=self.name,
            )

    @property
    def storage(self) -> np.ndarray:
        if self._storage is None:
            self._storage = np.zeros(
                (self.n_words, self.chip.config.n_lanes), dtype=np.uint8
            )
        return self._storage

    @property
    def checks(self) -> np.ndarray:
        if self._checks is None:
            self._checks = np.zeros(
                (self.n_words, self.chip.config.n_superlanes),
                dtype=np.uint16,
            )
        return self._checks

    @property
    def _checks_valid(self) -> np.ndarray:
        if self._checks_valid_arr is None:
            self._checks_valid_arr = np.zeros(self.n_words, dtype=bool)
        return self._checks_valid_arr

    # ------------------------------------------------------------------
    # host-side access (model loading / result extraction)
    # ------------------------------------------------------------------
    def host_write(self, address: int, data: np.ndarray) -> None:
        """Host DMA: place one or more 320-byte vectors starting at address."""
        self._check_dead()
        data = np.atleast_2d(np.asarray(data, dtype=np.uint8))
        if data.shape[1] != self.chip.config.n_lanes:
            raise SimulationError(
                f"host_write expects {self.chip.config.n_lanes}-byte vectors"
            )
        end = address + data.shape[0]
        if end > self.n_words:
            raise SimulationError(
                f"host_write spills past the slice: {end} > {self.n_words}"
            )
        self.storage[address:end] = data
        if self.chip.srf_ecc_enabled:
            for i in range(data.shape[0]):
                self._store_checks(address + i)

    def host_read(self, address: int, n_words: int = 1) -> np.ndarray:
        """Host readback of ``n_words`` vectors starting at ``address``."""
        self._check_dead()
        if address + n_words > self.n_words:
            raise SimulationError("host_read past end of slice")
        return self.storage[address : address + n_words].copy()

    def _store_checks(self, address: int) -> None:
        words = self.storage[address].reshape(
            self.chip.config.n_superlanes, -1
        )
        self.checks[address] = ecc.encode_checks(words)
        self._checks_valid[address] = True

    # ------------------------------------------------------------------
    # bank accounting
    # ------------------------------------------------------------------
    def _record_access(
        self, cycle: int, kind: str, bank: int, address: int = 0
    ) -> None:
        """Enforce the pseudo-dual-port constraint at ``cycle``."""
        # checkers see the access even when it faults below
        self.chip.notify_mem_access(self.address, cycle, kind, bank, address)
        accesses = self._accesses.setdefault(cycle, [])
        for other_kind, other_bank in accesses:
            if other_kind == kind:
                raise BankConflictError(
                    f"{self.address}: two {kind}s in cycle {cycle}"
                )
            if other_bank == bank:
                raise BankConflictError(
                    f"{self.address}: read and write hit bank {bank} in "
                    f"cycle {cycle}"
                )
        accesses.append((kind, bank))
        # trim old cycles so long simulations do not accumulate state
        if len(self._accesses) > 64:
            for old in [c for c in self._accesses if c < cycle - 8]:
                del self._accesses[old]

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        self._check_dead(cycle)
        handler = _MEM_HANDLERS.get(type(instruction))
        if handler is None:
            super().execute(icu, instruction, cycle)
        else:
            handler(self, instruction, cycle)

    def _exec_read(self, instruction: Read, cycle: int) -> None:
        self._record_access(
            cycle, "read", instruction.bank, instruction.address
        )
        address = instruction.address
        if address >= self.n_words:
            raise SimulationError(
                f"{self.address}: read address {address} out of range"
            )
        vector = self.apply_superlane_power(self.storage[address].copy())
        checks = None
        if self.chip.srf_ecc_enabled:
            if not self._checks_valid[address]:
                self._store_checks(address)
            checks = self.checks[address].copy()
        self.drive_at(
            cycle + self.dfunc(instruction),
            instruction.direction,
            instruction.stream,
            vector,
            checks=checks,
        )
        self.chip.activity.sram_read_bytes += self.chip.config.n_lanes

    def _exec_write(self, instruction: Write, cycle: int) -> None:
        sample_cycle = cycle + self.dskew(instruction)
        self._record_access(
            sample_cycle, "write", instruction.bank, instruction.address
        )

        def _commit(vector: np.ndarray) -> None:
            self.storage[instruction.address] = vector
            if self.chip.srf_ecc_enabled:
                self._store_checks(instruction.address)
            self.chip.activity.sram_write_bytes += self.chip.config.n_lanes

        self.capture_at(
            sample_cycle, instruction.direction, instruction.stream, _commit
        )

    def _exec_gather(self, instruction: Gather, cycle: int) -> None:
        """Indirect read: each lane's word offset comes from the map stream."""
        sample = cycle + self.dskew(instruction)

        def _with_map(map_vector: np.ndarray) -> None:
            offsets = map_vector.astype(np.int64)
            addresses = instruction.base + offsets
            if (addresses >= self.n_words).any():
                raise SimulationError(
                    f"{self.address}: gather address out of range"
                )
            lanes = np.arange(self.chip.config.n_lanes)
            vector = self.storage[addresses, lanes]
            vector = self.apply_superlane_power(vector)
            self.drive_at(
                cycle + self.dfunc(instruction),
                instruction.direction,
                instruction.stream,
                vector,
            )
            self.chip.activity.sram_read_bytes += self.chip.config.n_lanes

        self.capture_at(
            sample,
            instruction.map_direction,
            instruction.map_stream,
            _with_map,
        )

    def _exec_scatter(self, instruction: Scatter, cycle: int) -> None:
        """Indirect write: per-lane word offsets from the map stream."""
        state: dict[str, np.ndarray] = {}

        def _maybe_commit() -> None:
            if "map" not in state or "data" not in state:
                return
            offsets = state["map"].astype(np.int64)
            addresses = instruction.base + offsets
            if (addresses >= self.n_words).any():
                raise SimulationError(
                    f"{self.address}: scatter address out of range"
                )
            lanes = np.arange(self.chip.config.n_lanes)
            self.storage[addresses, lanes] = state["data"]
            # scattered words get producer-fresh checks
            if self.chip.srf_ecc_enabled:
                for a in np.unique(addresses):
                    self._store_checks(int(a))
            self.chip.activity.sram_write_bytes += self.chip.config.n_lanes

        sample = cycle + self.dskew(instruction)

        def _got_map(v: np.ndarray) -> None:
            state["map"] = v
            _maybe_commit()

        def _got_data(v: np.ndarray) -> None:
            state["data"] = v
            _maybe_commit()

        self.capture_at(
            sample, instruction.direction, instruction.map_stream, _got_map
        )
        self.capture_at(
            sample, instruction.direction, instruction.stream, _got_data
        )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, address: int, bit: int) -> None:
        """Flip one data bit of a stored word without refreshing its ECC."""
        word_bits = self.chip.config.mem_word_bytes * 8
        superlane, local_bit = divmod(bit, word_bits)
        lane0 = superlane * self.chip.config.lanes_per_superlane
        byte, bitpos = divmod(local_bit, 8)
        self.storage[address, lane0 + byte] ^= np.uint8(1 << bitpos)
        self.chip.faults_injected += 1


#: instruction type -> MEM slice handler
_MEM_HANDLERS = {
    Read: MemSliceUnit._exec_read,
    Write: MemSliceUnit._exec_write,
    Gather: MemSliceUnit._exec_gather,
    Scatter: MemSliceUnit._exec_scatter,
}

"""SXM simulation: lane shifting, selection, permutation, distribution,
rotation, and the 16x16 stream transpose (Section III-E).

The SXM is the Y dimension of the on-chip network: while MEM moves streams
East-West, the SXM moves data *between lanes*.  All operations here are
single-dispatch: operands are sampled at ``t + d_skew`` and results driven
at ``t + d_func``.

What a one-source instruction does to the vector it captures is a module
function (:func:`lane_transform`, :func:`rotation`, :func:`select_mask`):
the unit drives its result, and the compiler probes the same function for
the lane gather its replay plan runs instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SimulationError
from ..isa.base import Instruction
from ..isa.program import IcuId
from ..isa.sxm import (
    Distribute,
    Permute,
    Rotate,
    Select,
    Shift,
    ShiftDirection,
    Transpose,
)
from .unit import FunctionalUnit


def lane_transform(
    instruction: Shift | Permute | Distribute, config
) -> Callable[[np.ndarray], np.ndarray]:
    """The lane gather a ``Shift``, ``Permute`` or ``Distribute`` applies
    to one captured vector."""
    lanes = config.n_lanes
    if isinstance(instruction, Shift):
        n = instruction.amount
        north = instruction.shift is ShiftDirection.NORTH

        def shift(v: np.ndarray) -> np.ndarray:
            if n == 0:
                return v.copy()
            out = np.zeros_like(v)
            if n < lanes:
                if north:
                    out[:-n] = v[n:]  # toward lane 0
                else:
                    out[n:] = v[:-n]  # toward lane 319
            return out

        return shift
    mapping = np.asarray(instruction.mapping, dtype=np.int64)
    if isinstance(instruction, Permute):
        if mapping.size != lanes:
            raise SimulationError(
                f"Permute map covers {mapping.size} lanes, chip has {lanes}"
            )
        return lambda v: v[mapping]
    per = config.lanes_per_superlane
    if mapping.size != per:
        raise SimulationError(
            f"Distribute map must have {per} entries, got {mapping.size}"
        )
    zero = mapping < 0
    safe = np.where(zero, 0, mapping)

    def distribute(v: np.ndarray) -> np.ndarray:
        out = v.reshape(-1, per)[:, safe]
        out[:, zero] = 0
        return out.reshape(-1)

    return distribute


def rotation(n: int, per: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
    """Output stream ``r`` of a ``Rotate n``: each superlane's n x n block
    rolled up ``r // n`` rows and left ``r % n`` columns; the lanes past
    n^2 of a superlane are zero-filled."""
    dr, dc = divmod(r, n)

    def rotate(v: np.ndarray) -> np.ndarray:
        blocks = v.reshape(-1, per)
        grid = blocks[:, : n * n].reshape(-1, n, n)
        out = np.zeros_like(blocks)
        out[:, : n * n] = np.roll(grid, (-dr, -dc), axis=(1, 2)).reshape(
            -1, n * n
        )
        return out.reshape(-1)

    return rotate


def select_mask(instruction: Select, config) -> np.ndarray:
    """Per lane, whether a ``Select`` takes its second source."""
    lanes = config.n_lanes
    if not instruction.mask:
        return np.zeros(lanes, dtype=bool)
    m = np.asarray(instruction.mask, dtype=np.int64)
    if m.size == lanes:
        return m != 0
    if m.size == config.lanes_per_superlane:
        return np.tile(m != 0, config.n_superlanes)
    raise SimulationError(
        f"Select mask must cover {lanes} lanes or one superlane"
    )


class SxmUnit(FunctionalUnit):
    """One hemisphere's switch execution module."""

    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        if isinstance(instruction, (Shift, Permute, Distribute)):
            self._simple(
                instruction, cycle,
                lane_transform(instruction, self.chip.config),
            )
        elif isinstance(instruction, Select):
            self._exec_select(instruction, cycle)
        elif isinstance(instruction, Rotate):
            self._exec_rotate(instruction, cycle)
        elif isinstance(instruction, Transpose):
            self._exec_transpose(instruction, cycle)
        else:
            super().execute(icu, instruction, cycle)

    # ------------------------------------------------------------------
    def _count(self, cycle: int, n_streams: int = 1) -> None:
        self.chip.activity.sxm_bytes += n_streams * self.chip.config.n_lanes
        if self.chip.obs is not None:
            self.chip.obs.on_sxm(
                self.name, cycle, n_streams * self.chip.config.n_lanes
            )

    def _simple(
        self, instruction, cycle: int, transform
    ) -> None:
        """Capture one source stream, transform, drive one destination."""
        out_cycle = cycle + self.dfunc(instruction)

        def _with_value(vector: np.ndarray) -> None:
            self.drive_at(
                out_cycle,
                instruction.dst_direction,
                instruction.dst_stream,
                self.apply_superlane_power(transform(vector)),
            )
            self._count(out_cycle)

        self.capture_at(
            cycle + self.dskew(instruction),
            instruction.direction,
            instruction.src_stream,
            _with_value,
        )

    # ------------------------------------------------------------------
    def _exec_select(self, instruction: Select, cycle: int) -> None:
        mask = select_mask(instruction, self.chip.config)
        out_cycle = cycle + self.dfunc(instruction)
        state: dict[str, np.ndarray] = {}

        def _maybe() -> None:
            if "a" not in state or "b" not in state:
                return
            result = np.where(mask, state["b"], state["a"]).astype(np.uint8)
            self.drive_at(
                out_cycle,
                instruction.dst_direction,
                instruction.dst_stream,
                self.apply_superlane_power(result),
            )
            self._count(out_cycle)

        sample = cycle + self.dskew(instruction)
        self.capture_at(
            sample,
            instruction.direction,
            instruction.src_stream_a,
            lambda v: (state.__setitem__("a", v), _maybe()),
        )
        self.capture_at(
            sample,
            instruction.direction,
            instruction.src_stream_b,
            lambda v: (state.__setitem__("b", v), _maybe()),
        )

    def _exec_rotate(self, instruction: Rotate, cycle: int) -> None:
        """Generate all n^2 rotations of each superlane's n x n block,
        output ``r`` on stream ``dst_base_stream + r`` (:func:`rotation`)."""
        n = instruction.n
        per = self.chip.config.lanes_per_superlane
        out_cycle = cycle + self.dfunc(instruction)

        def _with_value(vector: np.ndarray) -> None:
            for r in range(n * n):
                self.drive_at(
                    out_cycle,
                    instruction.dst_direction,
                    instruction.dst_base_stream + r,
                    self.apply_superlane_power(rotation(n, per, r)(vector)),
                )
            self._count(out_cycle, n * n)

        self.capture_at(
            cycle + self.dskew(instruction),
            instruction.direction,
            instruction.src_stream,
            _with_value,
        )

    def _exec_transpose(self, instruction: Transpose, cycle: int) -> None:
        """16x16 transpose across a 16-stream group, per superlane."""
        per = self.chip.config.lanes_per_superlane
        out_cycle = cycle + self.dfunc(instruction)

        def _with_group(vectors: list[np.ndarray]) -> None:
            # cube[s, superlane, lane]
            cube = np.stack(
                [v.reshape(-1, per) for v in vectors], axis=0
            )
            transposed = cube.transpose(2, 1, 0)  # swap stream <-> lane
            for s in range(per):
                out = transposed[s].reshape(-1)
                self.drive_at(
                    out_cycle,
                    instruction.dst_direction,
                    instruction.dst_base_stream + s,
                    self.apply_superlane_power(out),
                )
            self._count(out_cycle, per)

        self.capture_group_at(
            cycle + self.dskew(instruction),
            instruction.direction,
            instruction.src_base_stream,
            per,
            _with_group,
        )

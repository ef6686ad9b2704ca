"""MXM simulation: the hemisphere's 320x320 MACC planes (two of the four).

The weight array of a plane is installed from streams (``IW``: 16 streams x
16 bytes fill 256 weights per supercell per cycle, a full plane in 20
cycles) or from the ``LW`` staging buffer.  Activations stream in under
``ABC`` control, one vector per cycle; partial sums hop one 16-row
supercell per cycle, so a result emerges after the systolic pipeline depth
(rows / 16 cycles).  ``ACC`` drains int32/fp32 results onto an aligned
quad-stream group, optionally folding them into per-vector accumulators so
a dot product can span multiple K-tiles (Section III-D).

fp16 mode runs two byte-planes in tandem: the *even* plane of the
hemisphere holds the weights (2 bytes each) and the odd plane is
unavailable while an fp16 tile is installed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..arch.streams import DType, split_to_byte_planes
from ..errors import ScheduleError, SimulationError
from ..isa.base import Instruction
from ..isa.mxm import (
    Accumulate,
    ActivationBufferControl,
    InstallWeights,
    LoadWeights,
)
from ..isa.program import IcuId
from .events import Phase
from .unit import FunctionalUnit


@dataclass
class MxmPlane:
    """State of one 320x320 MACC plane."""

    rows: int  # K: installed weight rows (activation depth)
    cols: int  # M: installed weight columns (output features)
    dtype: DType = DType.INT8
    weights: np.ndarray | None = None  # (rows, cols) int8 or fp16
    #: ``weights`` at accumulator width (int64 / float32), converted once
    #: per install and shared by every dot product
    wide: np.ndarray | None = None
    staging: np.ndarray | None = None  # LW buffer, raw bytes
    #: results awaiting ACC: (ready_cycle, vector) in stream order
    results: deque = field(default_factory=deque)
    #: per-vector-slot accumulators for K-tiled matmuls
    accumulators: dict[int, np.ndarray] = field(default_factory=dict)
    next_result_slot: int = 0
    next_drain_slot: int = 0
    tandem_busy: bool = False  # True when the partner plane holds fp16 state


def dark_planes(unit: "MxmUnit") -> list[MxmPlane]:
    """``unit``'s planes as a fresh chip has them: no weights.  Planes
    nothing has touched since they were made are kept, not made again."""
    config = unit.chip.config
    planes = vars(unit).get("planes")
    if planes is not None and all(
        plane.weights is None and plane.wide is None
        and plane.staging is None
        and not plane.results and not plane.accumulators
        and not plane.next_result_slot and not plane.next_drain_slot
        and not plane.tandem_busy and plane.dtype is DType.INT8
        and plane.rows == config.n_lanes
        and plane.cols == config.mxm_plane_cols
        for plane in planes
    ):
        return planes
    return [
        MxmPlane(rows=config.n_lanes, cols=config.mxm_plane_cols)
        for _ in range(config.mxm_planes_per_hemisphere)
    ]


class MxmUnit(FunctionalUnit):
    """One hemisphere's matrix execution module; the chip sets its
    ``planes`` (:data:`repro.sim.chip.STATE`)."""

    # ------------------------------------------------------------------
    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        if isinstance(instruction, LoadWeights):
            self._exec_lw(instruction, cycle)
        elif isinstance(instruction, InstallWeights):
            self._exec_iw(instruction, cycle)
        elif isinstance(instruction, ActivationBufferControl):
            self._exec_abc(instruction, cycle)
        elif isinstance(instruction, Accumulate):
            self._exec_acc(instruction, cycle)
        else:
            super().execute(icu, instruction, cycle)

    # ------------------------------------------------------------------
    def _exec_lw(self, instruction: LoadWeights, cycle: int) -> None:
        plane = self.planes[instruction.plane]
        lanes = self.chip.config.n_lanes

        def _stage(vector: np.ndarray) -> None:
            if plane.staging is None:
                plane.staging = np.zeros((lanes, lanes), dtype=np.uint8)
            plane.staging[instruction.row % lanes] = vector

        self.capture_at(
            cycle + self.dskew(instruction),
            instruction.direction,
            instruction.stream,
            _stage,
        )

    # ------------------------------------------------------------------
    def _exec_iw(self, instruction: InstallWeights, cycle: int) -> None:
        plane = self.planes[instruction.plane]
        if plane.tandem_busy:
            raise SimulationError(
                f"{self.address}: plane {instruction.plane} is captive to an "
                "fp16 tandem installation"
            )
        lanes = self.chip.config.n_lanes
        elem_bytes = instruction.dtype.n_bytes
        total_bytes = instruction.rows * instruction.cols * elem_bytes

        if instruction.from_buffer:
            if plane.staging is None:
                raise SimulationError(
                    f"{self.address}: IW from empty LW buffer"
                )
            raw = plane.staging.reshape(-1)[:total_bytes].copy()
            self._finish_install(
                plane, instruction, raw, cycle + self.dskew(instruction)
            )
            return

        staging = bytearray()
        n_cycles = instruction.install_cycles(lanes)
        # the last IW capture cycle: installation completes here
        done_cycle = cycle + self.dskew(instruction) + n_cycles - 1

        for c in range(n_cycles):
            def _absorb(
                vectors: list[np.ndarray], last=(c == n_cycles - 1)
            ) -> None:
                for v in vectors:
                    staging.extend(v.tobytes())
                if last:
                    raw = np.frombuffer(
                        bytes(staging[:total_bytes]), dtype=np.uint8
                    ).copy()
                    self._finish_install(plane, instruction, raw, done_cycle)

            self.capture_group_at(
                cycle + self.dskew(instruction) + c,
                instruction.direction,
                instruction.base_stream,
                instruction.n_streams,
                _absorb,
            )

    def _finish_install(
        self,
        plane: MxmPlane,
        instruction: InstallWeights,
        raw: np.ndarray,
        done_cycle: int,
    ) -> None:
        if raw.size < instruction.rows * instruction.cols * instruction.dtype.n_bytes:
            raise SimulationError(
                f"{self.address}: IW received only {raw.size} weight bytes"
            )
        plane.rows = instruction.rows
        plane.cols = instruction.cols
        plane.dtype = instruction.dtype
        if instruction.dtype is DType.INT8:
            plane.weights = raw.view(np.int8).reshape(
                instruction.rows, instruction.cols
            )
            plane.wide = plane.weights.astype(np.int64)
        elif instruction.dtype is DType.FP16:
            plane.weights = raw.view(np.float16).reshape(
                instruction.rows, instruction.cols
            )
            plane.wide = plane.weights.astype(np.float32)
            partner = self.planes[1 - self.planes.index(plane)]
            partner.tandem_busy = True
        else:
            raise SimulationError(
                f"MXM weights are int8 or fp16, not {instruction.dtype.label}"
            )
        # in-flight results are invalidated by a new tile, but the per-slot
        # accumulators survive: they belong to the output streams, which is
        # what lets a dot product accumulate across K-tile installs
        plane.results.clear()
        self.chip.note_weights_installed(done_cycle, raw.size)

    # ------------------------------------------------------------------
    def _exec_abc(self, instruction: ActivationBufferControl, cycle: int) -> None:
        plane = self.planes[instruction.plane]
        depth = self.chip.timing.mxm_pipeline_depth(
            self.chip.config.mxm_plane_rows
        )

        for k in range(instruction.n_vectors):
            sample = cycle + self.dskew(instruction) + k

            def _compute(planes_bytes: list[np.ndarray], when=sample) -> None:
                if plane.weights is None:
                    raise SimulationError(
                        f"{self.address}: ABC with no installed weights"
                    )
                result = self._dot(plane, instruction.dtype, planes_bytes)
                plane.results.append((when + depth, result))
                self.chip.activity.macc_ops += plane.rows * plane.cols

            self.capture_group_at(
                sample,
                instruction.direction,
                instruction.base_stream,
                instruction.dtype.n_streams,
                _compute,
            )

    def _dot(
        self, plane: MxmPlane, dtype: DType, planes_bytes: list[np.ndarray]
    ) -> np.ndarray:
        """One activation vector through the plane: ``r = W.T @ a``."""
        if dtype is DType.INT8:
            a = planes_bytes[0].view(np.int8)[: plane.rows].astype(np.int64)
            return plane.wide.T @ a  # (cols,) int64, narrowed at ACC
        # fp16: reassemble from the stream pair
        raw = np.stack(planes_bytes[:2], axis=1).reshape(-1)
        a = raw.view(np.float16)[: plane.rows].astype(np.float32)
        return (plane.wide.T @ a).astype(np.float64)

    # ------------------------------------------------------------------
    def _exec_acc(self, instruction: Accumulate, cycle: int) -> None:
        plane = self.planes[instruction.plane]

        for k in range(instruction.n_vectors):
            drain = cycle + self.dskew(instruction) + k
            emit_cycle = cycle + self.dfunc(instruction) + k

            def _drain(_c: int, when=drain, out=emit_cycle) -> None:
                if not plane.results:
                    raise ScheduleError(
                        f"{self.address}: ACC drained at cycle {when} but "
                        "no MXM result is pending"
                    )
                ready, value = plane.results[0]
                if ready > when:
                    raise ScheduleError(
                        f"{self.address}: ACC drained at cycle {when} but "
                        f"the result is ready only at {ready} — the "
                        "compiler must respect the systolic pipeline depth"
                    )
                plane.results.popleft()
                slot = plane.next_drain_slot % max(instruction.n_vectors, 1)
                plane.next_drain_slot += 1
                if instruction.accumulate and slot in plane.accumulators:
                    value = value + plane.accumulators[slot]
                plane.accumulators[slot] = value
                if instruction.emit:
                    self._emit(plane, instruction, value, out)
                    plane.accumulators.pop(slot, None)

            self.chip.events.schedule(drain, Phase.CAPTURE, _drain)

    def _emit(
        self,
        plane: MxmPlane,
        instruction: Accumulate,
        value: np.ndarray,
        cycle: int,
    ) -> None:
        lanes = self.chip.config.n_lanes
        if instruction.out_dtype is DType.INT32:
            narrowed = np.clip(value, -(2**31), 2**31 - 1).astype(np.int32)
        else:
            narrowed = value.astype(np.float32)
        padded = np.zeros(lanes, dtype=narrowed.dtype)
        padded[: min(plane.cols, lanes)] = narrowed[: min(plane.cols, lanes)]
        byte_planes = split_to_byte_planes(padded, instruction.out_dtype)
        for offset, bp in enumerate(byte_planes):
            self.drive_at(
                cycle,
                instruction.direction,
                instruction.base_stream + offset,
                self.apply_superlane_power(bp),
            )

"""VXM simulation: the 4x4 per-lane ALU mesh.

Each of the 16 ALU mesh slots has its own instruction queue (unit index of
the :class:`~repro.isa.program.IcuId`), letting the compiler chain multiple
point-wise operations within a lane without spilling intermediates to MEM
(Section III-C).  Chaining in this model is stream-level: slot k's result
stream can be slot k+1's source stream, and because both slots sit at the
same floorplan position the transit delay between them is zero — only the
one-cycle ALU ``d_func`` separates chained operations.

Multi-byte data types occupy aligned stream groups; the unit gathers the
group, reassembles elements, applies the numpy semantics from
:mod:`repro.sim.alu`, and re-splits the result onto the destination group.
"""

from __future__ import annotations

import numpy as np

from ..arch.streams import DType, join_byte_planes, split_to_byte_planes
from ..errors import SimulationError
from ..isa.base import Instruction
from ..isa.program import IcuId
from ..isa.vxm import BinaryOp, Convert, UnaryOp
from . import alu
from .unit import FunctionalUnit


class VxmUnit(FunctionalUnit):
    """The vector execution module at the chip bisection."""

    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        if isinstance(instruction, UnaryOp):
            self._exec_unary(instruction, cycle)
        elif isinstance(instruction, BinaryOp):
            self._exec_binary(instruction, cycle)
        elif isinstance(instruction, Convert):
            self._exec_convert(instruction, cycle)
        else:
            super().execute(icu, instruction, cycle)

    # ------------------------------------------------------------------
    def _drive_elements(
        self,
        cycle: int,
        base_stream: int,
        direction,
        dtype: DType,
        elements: np.ndarray,
    ) -> None:
        """Split elements into byte planes and drive the stream group."""
        planes = split_to_byte_planes(elements, dtype)
        for offset, plane in enumerate(planes):
            self.drive_at(
                cycle,
                direction,
                base_stream + offset,
                self.apply_superlane_power(plane),
            )

    def _count_alu_ops(self) -> None:
        self.chip.activity.alu_ops += self.chip.config.n_lanes

    # ------------------------------------------------------------------
    def _exec_unary(self, instruction: UnaryOp, cycle: int) -> None:
        dtype = instruction.dtype
        out_cycle = cycle + self.dfunc(instruction)
        sample = cycle + self.dskew(instruction)

        def _with_operand(planes: list[np.ndarray]) -> None:
            x = join_byte_planes(planes, dtype)
            z = alu.apply_unary(instruction.op, dtype, x)
            # transcendentals widen int inputs to fp32
            out_dtype = (
                dtype if z.dtype == dtype.numpy_dtype else _dtype_of(z.dtype)
            )
            self._drive_elements(
                out_cycle,
                instruction.dst_stream,
                instruction.dst_direction,
                out_dtype,
                z,
            )
            self._count_alu_ops()

        self.capture_group_at(
            sample,
            instruction.src_direction,
            instruction.src_stream,
            dtype.n_streams,
            _with_operand,
        )

    def _exec_binary(self, instruction: BinaryOp, cycle: int) -> None:
        dtype = instruction.dtype
        out_cycle = cycle + self.dfunc(instruction)
        state: dict[str, np.ndarray] = {}

        def _maybe_compute() -> None:
            if "x" not in state or "y" not in state:
                return
            z = alu.apply_binary(instruction.op, dtype, state["x"], state["y"])
            self._drive_elements(
                out_cycle,
                instruction.dst_stream,
                instruction.dst_direction,
                dtype,
                z,
            )
            self._count_alu_ops()

        sample = cycle + self.dskew(instruction)

        def _got_x(planes: list[np.ndarray]) -> None:
            state["x"] = join_byte_planes(planes, dtype)
            _maybe_compute()

        def _got_y(planes: list[np.ndarray]) -> None:
            state["y"] = join_byte_planes(planes, dtype)
            _maybe_compute()

        self.capture_group_at(
            sample,
            instruction.src1_direction,
            instruction.src1_stream,
            dtype.n_streams,
            _got_x,
        )
        self.capture_group_at(
            sample,
            instruction.src2_direction,
            instruction.src2_stream,
            dtype.n_streams,
            _got_y,
        )

    def _exec_convert(self, instruction: Convert, cycle: int) -> None:
        src_dtype = instruction.from_dtype
        dst_dtype = instruction.to_dtype
        out_cycle = cycle + self.dfunc(instruction)
        sample = cycle + self.dskew(instruction)

        def _with_operand(planes: list[np.ndarray]) -> None:
            x = join_byte_planes(planes, src_dtype)
            z = alu.apply_convert(
                src_dtype, dst_dtype, instruction.scale, x
            )
            self._drive_elements(
                out_cycle,
                instruction.dst_stream,
                instruction.dst_direction,
                dst_dtype,
                z,
            )
            self._count_alu_ops()

        self.capture_group_at(
            sample,
            instruction.src_direction,
            instruction.src_stream,
            src_dtype.n_streams,
            _with_operand,
        )


def _dtype_of(np_dtype: np.dtype) -> DType:
    """Map a numpy dtype back to the hardware DType."""
    for member in DType:
        if member.numpy_dtype == np_dtype:
            return member
    raise SimulationError(f"no hardware dtype for {np_dtype}")

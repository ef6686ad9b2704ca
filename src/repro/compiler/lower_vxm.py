"""Lowering for what runs at the VXM's position: point-wise ALU ops,
temporal shifts (COPY chains through the ALUs) and — their results flow
the same way — stream-indirect gathers from a MEM slice near it.

Each method describes its node as a :class:`~.schedule.UnitOp` and hands
it to :meth:`~.scheduler.Scheduler._place`; a point-wise op's kernel is a
``vxm1`` / ``vxm2`` / ``vxmc`` plan op per row.
"""

from __future__ import annotations

from ..arch.geometry import Direction
from ..errors import AllocationError, CompileError
from ..isa import AluOp, BinaryOp, Convert, Gather, IcuId, Instruction, UnaryOp
from .allocator import StreamGrant, TensorLayout
from .graph import Graph, Node, OpKind
from .placement import MemSlice, earliest
from .schedule import SEARCH_LIMIT, Delivery, UnitOp

#: unary ALU ops the timing model names individually
_UNARY_MNEMONICS = {
    AluOp.RELU: "ReLU",
    AluOp.TANH: "TanH",
    AluOp.EXP: "Exp",
    AluOp.RSQRT: "RSqrt",
}


class VxmLowering:
    """Mixed into :class:`~.scheduler.Scheduler`."""

    def _schedule_vxm(self, graph: Graph, node: Node) -> None:
        inputs = [graph.node(i) for i in node.inputs]
        if node.kind is OpKind.UNARY:
            mnemonic = _UNARY_MNEMONICS.get(node.params["op"], "UnaryOp")
        else:
            mnemonic = "BinaryOp" if node.kind is OpKind.BINARY else "Convert"

        def build(
            icu: IcuId, operands: list[Delivery], out: StreamGrant
        ) -> Instruction:
            src = operands[0]
            if node.kind is OpKind.UNARY:
                return UnaryOp(
                    op=node.params["op"],
                    src_stream=src.base_stream,
                    src_direction=src.direction,
                    dst_stream=out.base,
                    dst_direction=out.direction,
                    dtype=inputs[0].dtype,
                    alu=icu.unit,
                )
            if node.kind is OpKind.BINARY:
                return BinaryOp(
                    op=node.params["op"],
                    src1_stream=src.base_stream,
                    src1_direction=src.direction,
                    src2_stream=operands[1].base_stream,
                    src2_direction=operands[1].direction,
                    dst_stream=out.base,
                    dst_direction=out.direction,
                    dtype=inputs[0].dtype,
                    alu=icu.unit,
                )
            return Convert(
                src_stream=src.base_stream,
                src_direction=src.direction,
                dst_stream=out.base,
                dst_direction=out.direction,
                from_dtype=inputs[0].dtype,
                to_dtype=node.dtype,
                scale=node.params.get("scale", 1.0),
                alu=icu.unit,
            )

        def kernel(instruction: Instruction, operands: list) -> list:
            cells = []
            for k in range(node.n_vectors):
                out = self.attempt.slots(node.dtype.n_bytes)
                if node.kind is OpKind.UNARY:
                    op = ("vxm1", instruction.op, instruction.dtype,
                          operands[0][k], node.dtype, out)
                elif node.kind is OpKind.BINARY:
                    op = ("vxm2", instruction.op, instruction.dtype,
                          operands[0][k], operands[1][k], node.dtype, out)
                else:
                    op = ("vxmc", instruction.from_dtype, instruction.to_dtype,
                          instruction.scale, operands[0][k], node.dtype, out)
                cells.append(([op], [[("s", slot) for slot in out]]))
            return cells

        self._place(node, inputs, UnitOp(
            position=self._vxm_position,
            icus=self._alus,
            cells=node.n_vectors,
            mnemonic=mnemonic,
            width=node.dtype.n_bytes,
            direction=Direction.EASTWARD,
            build=build,
            retime=True,
            kernel=kernel,
        ))

    def _schedule_temporal_shift(self, graph: Graph, node: Node) -> None:
        """``out[j] = in[j-k]``: re-drive the stream k cycles later, then
        declare its row alignment k rows earlier.

        Physically a chain of k VXM copies; rows j < k sample the stream
        before the first drive and read zeros.
        """
        self._place(node, [graph.node(node.inputs[0])], UnitOp(
            position=self._vxm_position,
            width=node.dtype.n_bytes,
            direction=Direction.EASTWARD,
            redrive=node.params["k"],
        ))

    def _schedule_gather(self, graph: Graph, node: Node) -> None:
        """Stream-indirect read (Section III-B): the MEM slice holding the
        table services one Gather per index vector, with per-lane
        addresses taken from the passing map stream."""
        table = graph.node(node.inputs[0])
        indices = graph.node(node.inputs[1])
        if table.kind is not OpKind.CONSTANT:
            raise CompileError("gather tables must be constant tensors")
        if table.id in self.layouts:
            raise CompileError(
                f"{table.name} is already placed; gather tables need their "
                "own contiguous placement"
            )
        n = node.n_vectors

        def start(s: MemSlice) -> int | None:
            """First cycle slice ``s`` could dispatch the ``n`` Gathers."""
            value = self.values.get(indices.id)
            if value is not None and not value.reaches(s.position):
                return None
            t_min = self._operand_min_arrival(indices, s.position)
            return next(
                (
                    t for t in range(t_min, t_min + SEARCH_LIMIT)
                    if self._slice_free(s, t, n)
                ),
                None,
            )

        # near the VXM so results flow far
        chosen = earliest(
            [
                s for s in self.mem.slices_near(self._vxm_position)
                if self.mem.fits_contiguous(s, table.n_vectors)
            ],
            1, start,
        )
        if chosen is None:
            raise AllocationError(
                f"no MEM slice can hold {table.name} as a "
                f"{table.n_vectors}-word contiguous table"
            )
        (home,) = chosen
        placement = self.mem.alloc_contiguous(home, table.n_vectors)
        layout = self.layouts[table.id] = TensorLayout(planes=[placement])
        self._materialize(table, layout)
        inward = Direction.inward_for(home.hemisphere)

        def build(
            icu: IcuId, operands: list[Delivery], out: StreamGrant
        ) -> Instruction:
            return Gather(
                stream=out.base,
                map_stream=operands[0].base_stream,
                direction=inward,
                map_direction=operands[0].direction,
                base=placement.base_address,
            )

        def kernel(instruction: Instruction, operands: list) -> list:
            # data-dependent addressing: no op fills these rows, and a
            # program holding a Gather has no plan
            return [([], [[("s", slot)]]) for slot in self.attempt.slots(n)]

        self._place(node, [indices], UnitOp(
            position=home.position,
            icus=[self._mem_icu(home)],
            cells=n,
            mnemonic="Gather",
            width=1,
            direction=inward,
            build=build,
            kernel=kernel,
        ))

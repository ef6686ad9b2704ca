"""Lowering for the SXM's lane rearrangements, and for the ``Write`` that
lands a finished value in MEM.

An SXM node is a :class:`~.schedule.UnitOp` for
:meth:`~.scheduler.Scheduler._place`; a write has nothing to search — the
value passes each slice exactly once — so it picks the slices that see it
first and commits the cells in one attempt.
"""

from __future__ import annotations

from functools import partial

from ..arch.geometry import Direction, Hemisphere
from ..errors import CompileError, ScheduleError
from ..isa import (
    SXM_UNITS,
    IcuId,
    Instruction,
    Select,
    Shift,
    Transpose,
    Write,
)
from ..isa.sxm import Distribute, Permute, Rotate
from .allocator import RESULT_BANK, StreamGrant, TensorLayout
from .graph import Graph, Node, OpKind
from .placement import MemSlice, earliest
from .schedule import Delivery, StreamValue, TensorSpec, UnitOp

#: node kind -> (candidate functional units, mnemonic)
SXM_KINDS = {
    OpKind.SHIFT: (("shift_n", "shift_s"), "Shift"),
    OpKind.PERMUTE: (("permute",), "Permute"),
    OpKind.DISTRIBUTE: (("distribute",), "Distribute"),
    OpKind.SELECT: (("select",), "Select"),
    OpKind.TRANSPOSE16: (("transpose0", "transpose1"), "Transpose"),
    OpKind.ROTATE: (("rotate",), "Rotate"),
}


class SxmLowering:
    """Mixed into :class:`~.scheduler.Scheduler`."""

    def _schedule_sxm(self, graph: Graph, node: Node) -> None:
        inputs = [graph.node(i) for i in node.inputs]
        hemisphere = Hemisphere.EAST
        for n_in in inputs:
            if n_in.id in self.values:
                hemisphere = (
                    Hemisphere.EAST
                    if self.values[n_in.id].direction is Direction.EASTWARD
                    else Hemisphere.WEST
                )
        sxm = self.floorplan.sxm(hemisphere)
        transpose = node.kind is OpKind.TRANSPOSE16
        parallel_out = transpose or node.kind is OpKind.ROTATE
        units, mnemonic = SXM_KINDS[node.kind]
        if transpose and self._transpose_rr % 2:
            units = units[::-1]
        self._transpose_rr += transpose
        if transpose:
            width = 16
        elif node.kind is OpKind.ROTATE:
            width = node.params["n"] ** 2
        else:
            width = node.dtype.n_bytes

        self._place(node, inputs, UnitOp(
            position=self.floorplan.position(sxm),
            width=width,
            direction=Direction.inward_for(hemisphere),
            icus=[IcuId(sxm, SXM_UNITS.index(name)) for name in units],
            cells=1 if transpose else inputs[0].n_vectors,
            mnemonic=mnemonic,
            build=partial(_sxm_instruction, node),
            parallel_in=transpose,
            parallel_out=parallel_out,
        ))

    # ------------------------------------------------------------------
    # WRITE nodes (program outputs)
    # ------------------------------------------------------------------
    def _schedule_write(self, graph: Graph, node: Node) -> None:
        source = graph.node(node.inputs[0])
        if source.id not in self.values:
            raise CompileError(
                f"{node.name}: only stream values can be written back; "
                "constants are already in memory"
            )
        value = self.values[source.id]
        layout = TensorLayout.join(
            [self._land(node, part) for part in (value, *value.rest)]
        )
        self.outputs[node.name] = TensorSpec(
            node.name, layout, node.n_vectors, node.length, value.dtype
        )

    def _land(self, node: Node, value: StreamValue) -> TensorLayout:
        """Write ``value`` into the slices it reaches first."""
        dskew = self.dskew("Write")
        # sequential values write one row per cycle into one slice per
        # byte-plane (of each row block); parallel values write each row
        # once, into its own
        count = value.dtype.n_bytes * len(value.blocks)
        rows = value.blocks[0]
        if value.parallel:
            count, rows = value.n_vectors, 1

        def landed(s: MemSlice) -> int | None:
            if not value.reaches(s.position):
                return None
            first = value.arrival_at(s.position) - dskew
            return first + rows if self._slice_free(s, first, rows) else None

        slices = earliest(
            self.mem.candidates(value.position, count, RESULT_BANK, rows),
            count, landed,
        )
        if slices is None:
            raise ScheduleError(
                f"could not place output writes for {node.name}"
            )
        if value.parallel:
            layout = self.mem.alloc_parallel(slices, bank=RESULT_BANK)
        else:
            layout = self.mem.alloc_sequential(
                slices, value.n_vectors, RESULT_BANK, list(value.blocks)
            )
        placements = layout.parallel or layout.planes
        with self.attempt as attempt:
            for index, (s, placement) in enumerate(zip(slices, placements)):
                first = value.arrival_at(s.position) - dskew
                icu, n = self._mem_icu(s), placement.n_words
                for j in range(n):
                    attempt.plan(
                        icu,
                        first + j,
                        Write(
                            address=placement.base_address
                            + placement.stride * j,
                            stream=value.grant.base + index,
                            direction=value.direction,
                        ),
                    )
                self._mark("last_write", first + n - 1, latest=True)
            attempt.commit(note=node.name)
        return layout


def _sxm_instruction(
    node: Node, icu: IcuId, operands: list[Delivery], out: StreamGrant
) -> Instruction:
    base0 = operands[0].base_stream
    in_dir = operands[0].direction
    out_dir = out.direction
    if node.kind is OpKind.SHIFT:
        return Shift(
            src_stream=base0,
            dst_stream=out.base,
            direction=in_dir,
            dst_direction=out_dir,
            shift=node.params["shift"],
            amount=node.params["amount"],
        )
    if node.kind is OpKind.PERMUTE:
        return Permute(
            src_stream=base0,
            dst_stream=out.base,
            direction=in_dir,
            dst_direction=out_dir,
            mapping=tuple(node.params["mapping"]),
        )
    if node.kind is OpKind.DISTRIBUTE:
        return Distribute(
            src_stream=base0,
            dst_stream=out.base,
            direction=in_dir,
            dst_direction=out_dir,
            mapping=tuple(node.params["mapping"]),
        )
    if node.kind is OpKind.SELECT:
        return Select(
            src_stream_a=base0,
            src_stream_b=operands[1].base_stream,
            dst_stream=out.base,
            direction=in_dir,
            dst_direction=out_dir,
            mask=tuple(node.params["mask"]),
        )
    if node.kind is OpKind.ROTATE:
        return Rotate(
            src_stream=base0,
            dst_base_stream=out.base,
            direction=in_dir,
            dst_direction=out_dir,
            n=node.params["n"],
        )
    return Transpose(
        src_base_stream=base0,
        dst_base_stream=out.base,
        direction=in_dir,
        dst_direction=out_dir,
        unit=icu.unit - SXM_UNITS.index("transpose0"),
    )

"""Lowering for the SXM's lane rearrangements, and for the ``Write`` that
lands a finished value in MEM.

An SXM node is a :class:`~.schedule.UnitOp` for
:meth:`~.scheduler.Scheduler._place`, whose kernel is a ``route`` plan op —
a lane gather — per stream it drives; a write has nothing to search — the
value passes each slice exactly once — so it picks the slices that see it
first and commits the cells, and a ``write`` plan op per word, in one
attempt.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

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
from ..sim.sxm import lane_transform, rotation, select_mask
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


def probe_gather(
    transform: Callable[[np.ndarray], np.ndarray], lanes: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Derive the (src_lane, zero_mask) of a pure gather-with-zero-fill.

    SXM shifts/permutes/distributes/rotations are data-independent lane
    gathers that may zero-fill some outputs.  Probing with the low and
    high bytes of ``lane_index + 1`` recovers the mapping; a third probe
    verifies the transform really is a gather.
    """
    idx = np.arange(1, lanes + 1, dtype=np.int64)
    lo = transform((idx & 0xFF).astype(np.uint8)).astype(np.int64)
    hi = transform((idx >> 8).astype(np.uint8)).astype(np.int64)
    code = (hi << 8) | lo
    zero = code == 0
    src = np.clip(code - 1, 0, lanes - 1)
    check_in = ((idx * 37 + 11) & 0xFF).astype(np.uint8)
    expect = transform(check_in)
    got = check_in[src].copy()
    got[zero] = 0
    if not np.array_equal(got, expect):
        raise CompileError("an SXM transform is not a lane gather")
    return src, (zero if bool(zero.any()) else None)


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
            kernel=partial(self._sxm_kernel, node),
        ))

    def _sxm_kernel(self, node: Node, instruction, operands: list) -> list:
        """Per dispatch cell, the ``route`` ops of an SXM instruction —
        the simulator's own transforms, probed as lane gathers — and the
        rows they drive."""
        config = self.config
        lanes, per = config.n_lanes, config.lanes_per_superlane
        lane = np.arange(lanes, dtype=np.int64)
        rows = operands[0]
        if node.kind is OpKind.TRANSPOSE16:
            # out_s[sl*per + j] = in_j[sl*per + s]
            routes = [(lane % per, (lane // per) * per + s, None)
                      for s in range(per)]
            sources = [[row[0] for row in rows]]
        elif node.kind is OpKind.ROTATE:
            n = instruction.n
            routes = [(None, *probe_gather(rotation(n, per, r), lanes))
                      for r in range(n * n)]
            sources = [[row[0]] for row in rows]
        elif node.kind is OpKind.SELECT:
            mask = select_mask(instruction, config).astype(np.int64)
            routes = [(mask, lane, None)]
            sources = [[a[0], b[0]] for a, b in zip(rows, operands[1])]
        else:
            routes = [(None, *probe_gather(
                lane_transform(instruction, config), lanes
            ))]
            sources = [[row[0]] for row in rows]
        cells = []
        for refs in sources:
            out = self.attempt.slots(len(routes))
            cells.append((
                [("route", slot, refs, *route)
                 for slot, route in zip(out, routes)],
                [[("s", slot)] for slot in out],
            ))
        return cells

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
                # slice ``index`` takes row ``index`` of a parallel value,
                # byte plane ``plane`` of row block ``block`` of another
                block, plane = divmod(index, value.dtype.n_bytes)
                for j in range(n):
                    write = Write(
                        address=placement.base_address + placement.stride * j,
                        stream=value.grant.base + index,
                        direction=value.direction,
                    )
                    attempt.plan(icu, first + j, write)
                    ref = (
                        value.refs[index][0] if value.parallel
                        else value.refs[block * value.blocks[0] + j][plane]
                    )
                    word = (s.hemisphere, s.index, write.address)
                    self._emit(
                        ("write", word, ref) if ref[0] == "s"
                        else ("wconst", word, ref[1]),
                        icu, first + j, write,
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

"""The two-dimensional (time x space) instruction scheduler.

This is the compiler back-end the paper describes in Sections II and III:
it "precisely tracks the chip's architectural state" — where every stream
value is on every cycle — and places instructions so that the vertically
flowing instruction and the horizontally flowing operands "properly
intersect in time and space".  Concretely, for every node of the dataflow
graph it:

1. picks a functional unit (MEM slices for tensors, a VXM ALU slot for
   point-wise ops, an MXM plane for matmuls, an SXM unit for reshapes);
2. computes when each operand's vector 0 can be present at that unit's
   stream-register position, using ``t_drive + delta(j, i)`` (Equation 4);
3. finds dispatch cells in the unit's instruction queue satisfying
   ``t_dispatch + d_skew = operand arrival``, searching later start times
   when queues or streams are contended;
4. reserves stream groups for the result with interval allocation, and
   records where/when the result will flow so downstream nodes repeat the
   process.

Tensors stream one vector per cycle, so a whole (n, L) tensor is scheduled
by reasoning about vector 0 and issuing n back-to-back instructions.

Physical constraints honoured here and enforced by the simulator: a stream
value cannot be delayed once driven (a consumer must sample it exactly when
it passes); MEM tensors go where the cycle model says they complete first
(Section V-b, :mod:`repro.compiler.placement`); reads come from bank 0 and
results land in bank 1 so one slice can do both in a cycle (Section IV-A).

Where the code lives: :mod:`.schedule` holds what a schedule is made of
(the compiled-program dataclasses, :class:`QueueBuilder`, and the
:class:`Attempt` transaction); this module is the scheduler core — the
chip's resources, operand delivery, the one placement loop
(:meth:`Scheduler._place`) and queue emission; the
per-unit lowerings (:mod:`.lower_vxm`, :mod:`.lower_mxm`,
:mod:`.lower_sxm`) say *what* to place as :class:`UnitOp` descriptors and
leave *how* to the loop.

Each lowering also emits the replay-plan ops (:mod:`repro.sim.replay`) of
what it places — a read per MEM word delivered, a kernel per dispatch
cell, a write per word landed — and notes every stream drive it makes
into the same :class:`Attempt`, so the plan of a schedule, and the drives
its timing contract promises, are complete the moment the schedule is.
"""

from __future__ import annotations

import numpy as np

from ..arch.geometry import Direction, Floorplan, Hemisphere
from ..arch.streams import pack_tensor, unpack_tensor  # noqa: F401 (re-export)
from ..arch.timing import TimingModel
from ..config import ArchConfig
from ..errors import CompileError, ScheduleError
from ..isa import AluOp, IcuId, Instruction, Program, Read, UnaryOp
from ..sim.replay import emitted_plan
from .allocator import (
    INPUT_BANK,
    MemoryAllocator,
    StreamAllocator,
    StreamGrant,
    TensorLayout,
)
from .graph import Graph, Node, OpKind
from .lower_mxm import MxmLowering
from .lower_sxm import SXM_KINDS, SxmLowering
from .lower_vxm import VxmLowering
from .placement import (
    MemSlice,
    MxmClock,
    co_consumed,
    operand_slices,
    read_direction,
)
from .schedule import (  # noqa: F401 (the module's public names live on)
    MAX_DELAY_CHAIN,
    SEARCH_LIMIT,
    Attempt,
    CompiledProgram,
    ConstantSlot,
    Delivery,
    MemWord,
    QueueBuilder,
    Schedule,
    ScheduleIntent,
    ScheduleStats,
    StreamValue,
    TensorSpec,
    UnitOp,
)


class Scheduler(VxmLowering, MxmLowering, SxmLowering):
    """Lowers a dataflow graph into a placed, timed instruction program."""

    def __init__(
        self,
        config: ArchConfig,
        timing: TimingModel | None = None,
        blacklist=None,
    ) -> None:
        self.config = config
        self.timing = timing or TimingModel()
        self.floorplan = Floorplan(config)
        # degraded-mode recompilation: ``blacklist`` (duck-typed, see
        # repro.resil.degrade.Blacklist) names dead MEM slices and MXM
        # planes; allocation and plane selection route around them
        self.blacklist = blacklist
        dead_slices = (
            frozenset(blacklist.mem_slices)
            if blacklist is not None
            else frozenset()
        )
        self._dead_planes = (
            frozenset(blacklist.mxm_planes)
            if blacklist is not None
            else frozenset()
        )
        self.mem = MemoryAllocator(config, blacklisted_slices=dead_slices)
        self.streams = StreamAllocator(config)
        self.queues: dict[IcuId, QueueBuilder] = {}
        #: where each constant will live, in memory-image order — the
        #: schedule never reads what it will hold
        self.slots: list[ConstantSlot] = []
        self.values: dict[int, StreamValue] = {}
        self.layouts: dict[int, TensorLayout] = {}
        self.inputs: dict[str, TensorSpec] = {}
        self.outputs: dict[str, TensorSpec] = {}
        self.stats = ScheduleStats()
        self._mxm_rr = 0  # the plane the next matmul prefers, all else equal
        # (hemisphere, plane) -> first cycle a new install may start there
        self._plane_busy: dict[tuple[Hemisphere, int], int] = {}
        self._mxm_clock = MxmClock.of(self.timing, config.mxm_plane_rows)
        self._transpose_rr = 0
        self._fp16_hemispheres: set[Hemisphere] = set()
        self._mem_icus: dict[int, IcuId] = {}  # by slice position
        self._partners: dict[int, set[int]] = {}  # see co_consumed
        #: the tentative schedule of the node being placed
        self.attempt = Attempt(self.queues, self.streams)
        vxm = self.floorplan.vxm()
        self._vxm_position = self.floorplan.position(vxm)
        self._alus = [IcuId(vxm, alu) for alu in range(16)]

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def dfunc(self, mnemonic: str) -> int:
        return self.timing.functional_delay(mnemonic)

    def dskew(self, mnemonic: str) -> int:
        return self.timing.operand_skew(mnemonic)

    def _slice_position(self, hemisphere: Hemisphere, index: int) -> int:
        return self.floorplan.position(
            self.floorplan.mem_slice(hemisphere, index)
        )

    def _mem_icu(self, s: MemSlice) -> IcuId:
        icu = self._mem_icus.get(s.position)
        if icu is None:
            icu = self._mem_icus[s.position] = IcuId(
                self.floorplan.mem_slice(s.hemisphere, s.index)
            )
        return icu

    def _slice_free(self, s: MemSlice, t: int, n: int = 1) -> bool:
        return self.attempt.cells_free(self._mem_icu(s), t, n)

    def _emit(
        self, op: tuple, icu: IcuId, t: int, instruction: Instruction,
        k: int = 0,
    ) -> None:
        """Keep plan op ``op`` of the ``instruction`` dispatched on ``icu``
        at ``t``, in the order the chip performs it: a ``Read``'s op at its
        dispatch, any other's at its ``k``-th capture — by cycle, then
        dispatches before captures, then captures as their instructions
        issued."""
        if isinstance(instruction, Read):
            order = (t, 0)
        else:
            order = (t + instruction.dskew(self.timing) + k, 1)
        self.attempt.emit(order + (t, icu.sort_key(), k), op)

    def _plan_read(
        self, icu: IcuId, t: int, word: tuple, stream: int,
        direction: Direction,
    ) -> tuple:
        """Plan a ``Read`` of MEM ``word`` — ``(hemisphere, slice,
        address)`` — at ``t``; the plan ref of the vector it drives."""
        read = Read(address=word[2], stream=stream, direction=direction)
        self.attempt.plan(icu, t, read)
        (slot,) = self.attempt.slots(1)
        self._emit(("read", slot, word), icu, t, read)
        self.attempt.drive(direction, stream, 1,
                           self.floorplan.position(icu.address),
                           t + read.dfunc(self.timing))
        return ("s", slot)

    def _mark(self, name: str, t: int, latest: bool = False) -> None:
        """Fold a critical-path mark into the stats (first, or last)."""
        seen = getattr(self.stats, name)
        if seen is None or (t > seen if latest else t < seen):
            setattr(self.stats, name, t)


    # ------------------------------------------------------------------
    # tensor residence
    # ------------------------------------------------------------------
    def ensure_layout(
        self, node: Node, position: int, arrival_t0: int, parallel: bool,
        blocks: list[int] | None = None,
    ) -> TensorLayout | None:
        """Place a CONSTANT/INPUT tensor in MEM on first use.

        The first consumer wants vector 0 (of each row block — ``blocks``
        lists their rows, one block unless given) at ``position`` at
        ``arrival_t0``; every slice that can deliver that (read cells
        free, dispatch not before cycle 0) completes at the same cycle, so
        the tensor takes the ones least in the way of what comes back —
        see :func:`repro.compiler.placement.operand_slices` — and never
        share a slice with a tensor the same node consumes.
        Returns None, with nothing allocated, when none can.
        """
        if node.id in self.layouts:
            layout = self.layouts[node.id]
            if layout.is_parallel != parallel:
                raise CompileError(
                    f"{node.name} is consumed both as a parallel stream "
                    "group and as a sequential stream — duplicate the "
                    "tensor instead"
                )
            return layout
        if parallel and node.dtype.n_bytes != 1:
            raise CompileError(
                "parallel (transpose-group) tensors must be 1-byte types"
            )
        blocks = blocks or [node.n_vectors]
        count, rows = node.dtype.n_bytes * len(blocks), blocks[0]
        if parallel:
            count, rows = node.n_vectors, 1
        shared = {
            (p.hemisphere, p.slice_index)
            for partner in self._partners.get(node.id, ())
            if partner in self.layouts
            for p in self.layouts[partner].parallel
            or self.layouts[partner].planes
        }
        roomy = [
            s
            for s in self.mem.candidates(position, count, INPUT_BANK, rows)
            if (s.hemisphere, s.index) not in shared
        ]
        slices = operand_slices(
            roomy, count, rows, position, arrival_t0, self.dfunc("Read"),
            self._slice_free,
        )
        if slices is None:
            return None
        if parallel:
            layout = self.mem.alloc_parallel(slices)
        else:
            layout = self.mem.alloc_sequential(
                slices, node.n_vectors, row_blocks=blocks
            )
        self.layouts[node.id] = layout
        spec = TensorSpec(
            node.name, layout, node.n_vectors, node.length, node.dtype
        )
        if node.kind is OpKind.CONSTANT:
            self._materialize(node, layout)
        elif node.kind is OpKind.INPUT:
            self.inputs[node.name] = spec
        return layout

    def _materialize(self, node: Node, layout: TensorLayout) -> None:
        """Keep a constant tensor's words of the memory image for it."""
        n_planes = 1 if layout.is_parallel else node.dtype.n_bytes
        self.slots.append(ConstantSlot(node.id, tuple(
            layout.address_of(p, j)
            for p in range(n_planes) for j in range(node.n_vectors)
        )))

    # ------------------------------------------------------------------
    # operand delivery
    # ------------------------------------------------------------------
    def _operand_min_arrival(self, node_in: Node, position: int) -> int:
        """Earliest possible arrival of an operand's vector 0 at a position.

        In-flight values arrive exactly when they arrive (fixed); MEM
        tensors can arrive any time >= read dispatch at cycle 0 plus
        transit.
        """
        if node_in.id in self.values:
            return self.values[node_in.id].arrival_at(position)
        layout = self.layouts.get(node_in.id)
        dfunc = self.dfunc("Read")
        if layout is None:
            return dfunc + 1  # nearest slice is 1 hop away
        positions = [
            self._slice_position(p.hemisphere, p.slice_index)
            for p in (layout.parallel or layout.planes)
        ]
        return max(dfunc + abs(position - p) for p in positions)


    def _deliver_operand(
        self,
        node_in: Node,
        position: int,
        arrival_t0: int,
        parallel_consumer: bool,
        blocks: list[int] | None = None,
    ) -> Delivery | None:
        """Arrange for an operand to be on streams at ``position`` at
        ``arrival_t0``.  Returns None when that exact timing is infeasible
        (the caller tries a later start); on success the reads and their
        stream grant belong to the attempt in progress.  A consumer free
        to lay the operand out may ask for row blocks of ``blocks`` rows
        side by side, block ``b`` on the sub-group at ``base_stream + b *
        n_bytes``."""
        if node_in.id in self.values:
            value = self.values[node_in.id]
            if not value.reaches(position):
                raise ScheduleError(
                    f"{node_in.name} flows {value.direction.value} and "
                    f"cannot reach position {position}"
                )
            if value.arrival_at(position) != arrival_t0:
                return None
            if parallel_consumer and not value.parallel:
                raise CompileError(
                    f"{node_in.name}: this consumer needs a parallel "
                    "stream group"
                )
            return Delivery(value.grant.base, value.direction, value.refs)

        layout = self.ensure_layout(
            node_in, position, arrival_t0, parallel_consumer, blocks
        )
        if layout is None:
            return None
        first = (layout.parallel or layout.planes)[0]
        direction = read_direction(
            first.hemisphere,
            self._slice_position(first.hemisphere, first.slice_index),
            position,
        )
        reads = self._plan_reads(
            node_in, layout, direction, position, arrival_t0, parallel_consumer
        )
        if reads is None:
            return None
        # every byte-plane read is timed so the group is aligned at the
        # consumer, which means they all share one moving-frame window
        grant = self.attempt.grant(
            direction,
            node_in.n_vectors if parallel_consumer
            else node_in.dtype.n_bytes * layout.row_blocks,
            arrival_t0,
            1 if parallel_consumer else layout.planes[0].n_words,
            parallel_consumer,
            position,
        )
        if grant is None:
            return None
        n_planes = 1 if layout.is_parallel else node_in.dtype.n_bytes
        refs = [[None] * n_planes for _ in range(node_in.n_vectors)]
        for icu, t, word, stream, plane, row in reads:
            refs[row][plane] = self._plan_read(
                icu, t, word, grant.base + stream, direction
            )
        return Delivery(grant.base, direction, refs)

    def _plan_reads(
        self,
        node: Node,
        layout: TensorLayout,
        direction: Direction,
        consumer_position: int,
        arrival_t0: int,
        parallel_consumer: bool,
    ) -> list[tuple] | None:
        """Time the Reads delivering a tensor to a consumer, as ``(queue,
        dispatch cycle, MEM word, stream, byte plane, row)``.

        Streams are *relative* (plane index / 0); the caller rebases them
        onto the grant.  Returns None if any dispatch cell is taken or
        would precede cycle 0.
        """
        dfunc = self.dfunc("Read")
        reads: list[tuple] = []

        def plan_one(plane: int, row: int, stream: int, arrival: int) -> bool:
            word = layout.address_of(plane, row)
            hemisphere, slice_index, _address = word
            dx = consumer_position - self._slice_position(
                hemisphere, slice_index
            )
            if dx != 0:
                flow = Direction.EASTWARD if dx > 0 else Direction.WESTWARD
                if flow is not direction:
                    return False
            t_dispatch = arrival - abs(dx) - dfunc
            icu = IcuId(self.floorplan.mem_slice(hemisphere, slice_index))
            if not self.attempt.cells_free(icu, t_dispatch):
                return False
            reads.append((icu, t_dispatch, word, stream, plane, row))
            return True

        if layout.is_parallel:
            for j in range(node.n_vectors):
                stream = j if parallel_consumer else 0
                arrival = arrival_t0 if parallel_consumer else arrival_t0 + j
                if not plan_one(0, j, stream, arrival):
                    return None
        else:
            if parallel_consumer and node.n_vectors > 1:
                raise CompileError(
                    f"{node.name} is stored sequentially but is consumed as "
                    "a parallel stream group — store it parallel"
                )
            n_bytes = node.dtype.n_bytes
            per_block = layout.planes[0].n_words
            for p in range(n_bytes):
                for j in range(node.n_vectors):
                    block, k = divmod(j, per_block)
                    stream = block * n_bytes + p
                    if not plan_one(p, j, stream, arrival_t0 + k):
                        return None
        return reads

    # ------------------------------------------------------------------
    # the one placement transaction
    # ------------------------------------------------------------------
    def _place(self, node: Node, inputs: list[Node], op: UnitOp) -> None:
        """Search → deliver → grant → commit: try each cycle from the
        operands' earliest arrival, each as one :class:`Attempt`; the
        first that gets a unit, every operand and an output group commits
        and the value it drives is recorded."""
        t_min = max(
            self._operand_min_arrival(n_in, op.position) for n_in in inputs
        )
        for t in range(t_min, t_min + SEARCH_LIMIT):
            with self.attempt as attempt:
                value = self._place_at(node, inputs, op, t)
                if value is None:
                    continue
                attempt.commit()
                self.values[node.id] = value
                return
        hint = (
            " — in-flight operands may be misaligned (stage one through "
            "memory with write_back)"
        ) if op.retime else ""
        raise ScheduleError(
            f"could not place {node.name} within the search window{hint}"
        )

    def _place_at(
        self, node: Node, inputs: list[Node], op: UnitOp, t: int
    ) -> StreamValue | None:
        """Plan ``op`` executing at cycle ``t``; None (anything taken so
        far is the attempt's to give back) when ``t`` does not work."""
        attempt, n = self.attempt, node.n_vectors
        operands: dict[int, Delivery] = {}
        for n_in in inputs if op.retime else ():
            value = self.values.get(n_in.id)
            if value is None or n_in.id in operands:
                continue
            early = t - value.arrival_at(op.position)
            if early == 0:
                continue
            if not 0 < early <= MAX_DELAY_CHAIN:
                return None
            redriven = self._redrive(
                Delivery(value.grant.base, value.direction, value.refs),
                value.dtype, t - early, early, value.n_vectors, "retime",
            )
            if redriven is None:
                return None
            operands[n_in.id] = redriven[1]
        icu = None
        if op.icus:
            icu = attempt.first_free(op.icus, t, op.cells)
            if icu is None:
                return None
            attempt.hold(icu, t, op.cells)
        # each distinct operand once: add(x, x) taps one stream for both
        for n_in in inputs:
            if n_in.id not in operands:
                delivery = self._deliver_operand(
                    n_in, op.position, t, op.parallel_in
                )
                if delivery is None:
                    return None
                operands[n_in.id] = delivery
        deliveries = [operands[n_in.id] for n_in in inputs]
        refs: list = []
        if op.redrive:
            # the declared alignment: row j of the output is sampled where
            # row j of the *input* was sampled, but physically carries
            # input row j-k (the data was re-driven k cycles later); the
            # first k rows sample a stream nothing has driven yet
            t0 = t
            redriven = self._redrive(
                deliveries[0], node.dtype, t, op.redrive, n,
                f"{node.name} delay", widen=op.redrive,
            )
            if redriven is None:
                return None
            grant, copied = redriven
            zero = ("c", np.zeros(self.config.n_lanes, dtype=np.uint8))
            refs = [[zero] * node.dtype.n_bytes] * op.redrive + copied.refs
            del refs[n:]
        else:
            t0 = t + self.dfunc(op.mnemonic)
            grant = attempt.grant(
                op.direction, op.width, t0, 1 if op.parallel_out else n,
                op.parallel_out, op.position,
            )
            if grant is None:
                return None
        if icu is not None:
            instruction = op.build(icu, deliveries, grant)
            for k in range(op.cells):
                attempt.plan(
                    icu, t + k, instruction, node.name if k == 0 else ""
                )
            cells = op.kernel(instruction, [d.refs for d in deliveries])
            for k, (ops, rows) in enumerate(cells):
                for plan_op in ops:
                    self._emit(plan_op, icu, t + k, instruction)
                attempt.drive(grant.direction, grant.base,
                              sum(map(len, rows)), op.position, t0 + k)
                refs += rows
        return StreamValue(
            grant, op.position, t0, n, node.dtype, node.length,
            parallel=op.parallel_out, refs=refs,
        )

    def _redrive(
        self, source: Delivery, dtype, t: int, steps: int, n: int,
        note: str, widen: int = 0,
    ) -> tuple[StreamGrant, Delivery] | None:
        """Re-drive ``n`` vectors passing the VXM from cycle ``t`` so they
        pass again ``steps`` cycles later; the last grant and the delivery
        of the rows it carries, or None.

        A stream cannot be stalled, but a VXM ALU can copy it back out one
        ``d_func`` later — the compiler's retiming idiom, one COPY per
        cycle of delay.  ``widen`` extends the last grant's window over
        that many leading (empty) slots, which a temporal shift declares
        as rows, so no other value can be scheduled into them.
        """
        grant = None
        for step in range(steps):
            t_copy = t + step
            icu = self.attempt.first_free(self._alus, t_copy, n)
            if icu is None:
                return None
            lead = widen if step == steps - 1 else 0
            grant = self.attempt.grant(
                Direction.EASTWARD, dtype.n_bytes, t_copy + 1 - lead,
                n + lead, False, self._vxm_position,
            )
            if grant is None:
                return None
            copy = UnaryOp(
                op=AluOp.COPY,
                src_stream=source.base_stream,
                src_direction=source.direction,
                dst_stream=grant.base,
                dst_direction=grant.direction,
                dtype=dtype,
                alu=icu.unit,
            )
            copied = []
            for k in range(n):
                self.attempt.plan(icu, t_copy + k, copy, note)
                out = self.attempt.slots(dtype.n_bytes)
                self._emit(
                    ("vxm1", AluOp.COPY, dtype, source.refs[k], dtype, out),
                    icu, t_copy + k, copy,
                )
                self.attempt.drive(grant.direction, grant.base, dtype.n_bytes,
                                   self._vxm_position,
                                   t_copy + k + copy.dfunc(self.timing))
                copied.append([("s", slot) for slot in out])
            source = Delivery(grant.base, grant.direction, copied)
        return grant, source

    # ------------------------------------------------------------------
    # the public entry point
    # ------------------------------------------------------------------
    def schedule(self, graph: Graph) -> Schedule:
        graph.validate()
        self._partners = co_consumed(graph)
        for node in graph.topological_order():
            self._schedule_node(graph, node)
        program = Program()
        instructions = 0
        nops = 0
        for icu in sorted(self.queues, key=IcuId.sort_key):
            i, n = self.queues[icu].emit(program)
            instructions += i
            nops += n
        stats = self.stats
        stats.nodes = len(graph.nodes)
        stats.instructions = instructions
        stats.nops_inserted = nops
        stats.makespan = max(
            (max(q.cells) + 1 for q in self.queues.values() if q.cells),
            default=0,
        )
        stats.stream_grants = self.streams.utilization()
        ops = sorted(self.attempt.emitted, key=lambda entry: entry[0])
        words = [where for slot in self.slots for where in slot.words]
        return Schedule(
            config=self.config,
            program=program,
            slots=self.slots,
            inputs=self.inputs,
            outputs=self.outputs,
            stats=stats,
            intent=ScheduleIntent(
                dispatch_cells={
                    str(icu): {
                        t: instruction.mnemonic
                        for t, instruction in queue.cells.items()
                    }
                    for icu, queue in self.queues.items()
                },
                drives=self.attempt.drives,
            ),
            words=words,
            plan=emitted_plan(
                self.config, self.timing, program, stats.makespan + 1,
                [op for _order, op in ops], self.attempt.n_slots,
                self.inputs, self.outputs, words, self.attempt.drives,
                self.floorplan.n_positions,
            ),
        )

    # ------------------------------------------------------------------
    def _schedule_node(self, graph: Graph, node: Node) -> None:
        if node.kind in (OpKind.CONSTANT, OpKind.INPUT):
            return  # placed lazily by the first consumer
        if node.kind in (OpKind.UNARY, OpKind.BINARY, OpKind.CONVERT):
            self._schedule_vxm(graph, node)
        elif node.kind is OpKind.TEMPORAL_SHIFT:
            self._schedule_temporal_shift(graph, node)
        elif node.kind is OpKind.GATHER:
            self._schedule_gather(graph, node)
        elif node.kind is OpKind.MATMUL:
            self._schedule_matmul(graph, node)
        elif node.kind in SXM_KINDS:
            self._schedule_sxm(graph, node)
        elif node.kind is OpKind.WRITE:
            self._schedule_write(graph, node)
        else:
            raise CompileError(f"cannot lower {node.kind.value}")

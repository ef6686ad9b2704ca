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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from ..arch.geometry import Direction, Floorplan, Hemisphere, SliceKind
from ..arch.streams import DType
from ..arch.timing import TimingModel
from ..config import ArchConfig
from ..errors import AllocationError, CompileError, ScheduleError
from ..isa import (
    Accumulate,
    ActivationBufferControl,
    AluOp,
    BinaryOp,
    Convert,
    IcuId,
    InstallWeights,
    Instruction,
    Nop,
    Program,
    Read,
    Select,
    Shift,
    Transpose,
    UnaryOp,
    Write,
)
from ..isa.program import SXM_UNITS
from ..isa.sxm import Distribute, Permute, Rotate
from .allocator import (
    INPUT_BANK,
    RESULT_BANK,
    MemoryAllocator,
    StreamAllocator,
    StreamGrant,
    TensorLayout,
)
from .graph import Graph, Node, OpKind
from .placement import (
    MatmulPart,
    MemSlice,
    MxmClock,
    PlaneOffer,
    co_consumed,
    earliest,
    feed_options,
    matmul_parts,
    operand_slices,
    read_direction,
    rows_are_free,
)

#: How many candidate start cycles to try before giving up on a node.
SEARCH_LIMIT = 4096


@dataclass
class StreamValue:
    """A value in flight: where and when its vectors are on streams.

    ``parallel`` values put each row on its own stream simultaneously
    (transpose/rotate groups); sequential values stagger rows one cycle
    apart on a single aligned group — or, ``split`` into row blocks (a
    matmul on several MXM planes), on one sub-group per block, every
    block's row 0 at ``t0``.  A matmul split across both hemispheres is
    one such value per hemisphere: the first carries the ``rest``, and
    only a ``Write`` may consume it (``placement.rows_are_free``).
    """

    grant: StreamGrant
    position: int
    t0: int  # drive cycle of vector 0 (row 0) at `position`
    n_vectors: int
    dtype: DType
    length: int
    parallel: bool = False
    split: tuple[int, ...] = ()  # rows per block; () is one block
    rest: tuple["StreamValue", ...] = ()

    @property
    def direction(self) -> Direction:
        return self.grant.direction

    @property
    def blocks(self) -> tuple[int, ...]:
        """Rows of each block streamed side by side."""
        return self.split or (self.n_vectors,)

    def reaches(self, position: int) -> bool:
        dx = position - self.position
        if dx == 0:
            return True
        flow = Direction.EASTWARD if dx > 0 else Direction.WESTWARD
        return flow is self.direction

    def arrival_at(self, position: int) -> int:
        """Cycle vector 0 is present at ``position`` (Equation 4 transit)."""
        if not self.reaches(position):
            raise ScheduleError(
                f"value flowing {self.direction.value} from position "
                f"{self.position} can never reach position {position}"
            )
        return self.t0 + abs(position - self.position)


@dataclass
class MemWord:
    """One initialized 320-byte MEM word of the memory image."""

    hemisphere: Hemisphere
    slice_index: int
    address: int
    data: np.ndarray  # (lanes,) uint8


@dataclass
class TensorSpec:
    """Host-visible description of a MEM-resident tensor."""

    name: str
    layout: TensorLayout
    n_vectors: int
    length: int
    dtype: DType


@dataclass
class ScheduleStats:
    """Compiler-reported schedule facts (printed by benches).

    The four marks are the schedule's critical path, first to last: the
    cycle a matmul's weights are fully installed, the cycle the first
    activation vector is at the MXM, the cycle the first result vector is
    on a stream, and the dispatch cycle of the last output ``Write``
    (``makespan - 1`` for a program that ends in a write).  None where the
    program has no such event.  ``mxm_planes`` is the most planes one
    matmul streams its rows through (0: the program has no matmul).
    """

    nodes: int = 0
    instructions: int = 0
    nops_inserted: int = 0
    makespan: int = 0
    stream_grants: dict = field(default_factory=dict)
    weights_installed: int | None = None
    first_operand: int | None = None
    first_result: int | None = None
    last_write: int | None = None
    mxm_planes: int = 0


@dataclass(frozen=True)
class PredictedDrive:
    """One stream drive the scheduler's timing model promises will happen.

    ``parallel`` values place ``n_vectors`` rows on streams ``base_stream ..
    base_stream + width - 1`` all at ``t0``; sequential values drive the
    ``width``-stream group once per row at ``t0 .. t0 + n_vectors - 1``.
    """

    name: str
    direction: Direction
    base_stream: int
    width: int
    position: int
    t0: int
    n_vectors: int
    parallel: bool = False

    def expected_drives(self) -> list[tuple[Direction, int, int, int]]:
        """(direction, stream, position, cycle) tuples this drive implies."""
        out = []
        for k in range(self.n_vectors):
            t = self.t0 if self.parallel else self.t0 + k
            for s in range(self.width):
                out.append(
                    (self.direction, self.base_stream + s, self.position, t)
                )
        # parallel groups repeat the same (stream, cycle) per row; dedup
        return sorted(set(out), key=lambda e: (e[3], e[1], e[2]))


@dataclass
class ScheduleIntent:
    """The scheduler's cycle-exact predictions, replayable against a run.

    This is Equation 4 made checkable: ``dispatch_cells`` records every
    reserved (queue, cycle, mnemonic) cell before NOP padding, and
    ``drives`` records where and when each scheduled value's vectors are
    promised to appear on stream registers.  The timing-contract checker in
    :mod:`repro.verify.invariants` replays both against an actual run.
    """

    #: str(IcuId) -> {dispatch cycle: mnemonic}
    dispatch_cells: dict[str, dict[int, str]] = field(default_factory=dict)
    drives: list[PredictedDrive] = field(default_factory=list)


@dataclass
class CompiledProgram:
    """Everything needed to execute a compiled graph on a chip."""

    config: ArchConfig
    program: Program
    memory_image: list[MemWord]
    inputs: dict[str, TensorSpec]
    outputs: dict[str, TensorSpec]
    stats: ScheduleStats
    intent: ScheduleIntent | None = None
    #: content-addressed identity of (graph, config, timing, blacklist) —
    #: see :mod:`repro.compiler.cachekey`; the serving layer's program
    #: cache keys on it.  A compiled program is immutable after scheduling,
    #: so one instance can be executed any number of times on any chip of
    #: the same configuration.
    cache_key: str | None = None
    #: recorded :class:`repro.sim.replay.ReplayPlan`, populated by the
    #: runner after the first clean execution; rides the compiled program
    #: (and hence the serving program cache) rather than living in a
    #: parallel registry.  Excluded from equality: the plan is a derived
    #: acceleration structure, not part of the program's identity.
    replay: object | None = field(default=None, repr=False, compare=False)


@dataclass
class _Delivery:
    """How one operand reaches a consumer: stream base + pending reads."""

    base_stream: int
    direction: Direction
    reads: list[tuple[IcuId, int, Read]] = field(default_factory=list)
    grant: StreamGrant | None = None


class QueueBuilder:
    """Time-indexed dispatch cells for one ICU, NOP-padded at assembly."""

    def __init__(self, icu: IcuId) -> None:
        self.icu = icu
        self.cells: dict[int, Instruction] = {}
        self.notes: dict[int, str] = {}

    def is_free(self, t: int, n: int = 1) -> bool:
        if t < 0:
            return False
        return all(t + k not in self.cells for k in range(n))

    def reserve(self, t: int, instruction: Instruction, note: str = "") -> None:
        if t in self.cells:
            raise ScheduleError(
                f"{self.icu}: dispatch cell {t} is already taken"
            )
        if t < 0:
            raise ScheduleError(f"{self.icu}: dispatch before cycle 0")
        self.cells[t] = instruction
        if note:
            self.notes[t] = note

    def emit(self, program: Program) -> tuple[int, int]:
        """Write NOP-padded instructions into ``program``.

        Returns (instructions, nops) emitted.
        """
        cursor = 0
        nops = 0
        for t in sorted(self.cells):
            gap = t - cursor
            while gap > 0:
                chunk = min(gap, 0xFFFF)
                program.add(self.icu, Nop(chunk))
                nops += 1
                gap -= chunk
            program.add(self.icu, self.cells[t], note=self.notes.get(t))
            cursor = t + 1
        return len(self.cells), nops


class Scheduler:
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
        self.memory_image: list[MemWord] = []
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
        # dispatch cells planned by the node attempt in progress: not yet
        # reserved in their queues, but no longer free to a placement probe
        self._pending: dict[IcuId, set[int]] = {}

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def queue(self, icu: IcuId) -> QueueBuilder:
        if icu not in self.queues:
            self.queues[icu] = QueueBuilder(icu)
        return self.queues[icu]

    def dfunc(self, mnemonic: str) -> int:
        return self.timing.functional_delay(mnemonic)

    def dskew(self, mnemonic: str) -> int:
        return self.timing.operand_skew(mnemonic)

    def _grant_for_drive(
        self,
        direction: Direction,
        width: int,
        t0: int,
        n_vectors: int,
        parallel: bool,
        position: int,
    ) -> StreamGrant:
        """Allocate streams for a value present at ``position`` from ``t0``.

        Intervals are booked in the *moving frame* of the stream: for an
        eastward value, ``c = t - position`` is invariant as it flows (it
        advances one position per cycle), so two values on the same stream
        collide iff their ``c`` windows overlap — regardless of where they
        were driven.  This is exact: a value driven behind another on the
        same stream never catches up.
        """
        c0 = t0 - position if direction is Direction.EASTWARD else t0 + position
        span = 0 if parallel else n_vectors - 1
        return self.streams.allocate(direction, width, c0, c0 + span)

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

    def _cells_free(self, icu: IcuId, t: int, n: int = 1) -> bool:
        """Dispatch cells ``t .. t+n-1`` of a queue are neither reserved
        nor planned by the attempt in progress.  A pure probe: unlike
        :meth:`queue` it never creates the queue."""
        if t < 0:
            return False
        queue = self.queues.get(icu)
        reserved = queue.cells if queue is not None else ()
        planned = self._pending.get(icu, ())
        return not any(
            c in reserved or c in planned for c in range(t, t + n)
        )

    def _slice_free(self, s: MemSlice, t: int, n: int = 1) -> bool:
        return self._cells_free(self._mem_icu(s), t, n)

    def _free_alu(self, t: int, n: int) -> int | None:
        """The first VXM ALU slot free to dispatch at ``t .. t+n-1``."""
        vxm = self.floorplan.vxm()
        return next(
            (a for a in range(16) if self._cells_free(IcuId(vxm, a), t, n)),
            None,
        )

    def _plan_cell(self, icu: IcuId, t: int) -> None:
        self._pending.setdefault(icu, set()).add(t)

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
        """Append a constant tensor's words to the memory image."""
        planes = pack_tensor(node.data, node.dtype, self.config.n_lanes)
        n_planes = 1 if layout.is_parallel else node.dtype.n_bytes
        for p in range(n_planes):
            for j in range(node.n_vectors):
                hemisphere, s, a = layout.address_of(p, j)
                self.memory_image.append(
                    MemWord(hemisphere, s, a, planes[p, j])
                )

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
    ) -> _Delivery | None:
        """Arrange for an operand to be on streams at ``position`` at
        ``arrival_t0``.  Returns None when that exact timing is infeasible
        (the caller tries a later start); on success the planned read
        cells join ``_pending``.  A consumer free to lay the operand out
        may ask for row blocks of ``blocks`` rows side by side, block ``b``
        on the sub-group at ``base_stream + b * n_bytes``."""
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
            return _Delivery(value.grant.base, value.direction)

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
        width = (
            node_in.n_vectors if parallel_consumer
            else node_in.dtype.n_bytes * layout.row_blocks
        )
        # every byte-plane read is timed so the group is aligned at the
        # consumer, which means they all share one moving-frame window
        try:
            grant = self._grant_for_drive(
                direction,
                width,
                arrival_t0,
                1 if parallel_consumer else layout.planes[0].n_words,
                parallel_consumer,
                position,
            )
        except AllocationError:
            return None
        reads = [
            (
                icu,
                t,
                Read(
                    address=r.address,
                    stream=grant.base + r.stream,
                    direction=r.direction,
                ),
            )
            for (icu, t, r) in reads
        ]
        for icu, t, _read in reads:
            self._plan_cell(icu, t)
        return _Delivery(grant.base, direction, reads, grant)

    def _plan_reads(
        self,
        node: Node,
        layout: TensorLayout,
        direction: Direction,
        consumer_position: int,
        arrival_t0: int,
        parallel_consumer: bool,
    ) -> list[tuple[IcuId, int, Read]] | None:
        """Plan Read instructions delivering a tensor to a consumer.

        Stream fields are *relative* (plane index / 0); the caller rebases
        them onto the allocated grant.  Returns None if any dispatch cell is
        taken or would precede cycle 0.
        """
        dfunc = self.dfunc("Read")
        reads: list[tuple[IcuId, int, Read]] = []

        def plan_one(
            hemisphere: Hemisphere,
            slice_index: int,
            address: int,
            stream: int,
            arrival: int,
        ) -> bool:
            slice_pos = self._slice_position(hemisphere, slice_index)
            dx = consumer_position - slice_pos
            if dx != 0:
                flow = Direction.EASTWARD if dx > 0 else Direction.WESTWARD
                if flow is not direction:
                    return False
            t_dispatch = arrival - abs(dx) - dfunc
            icu = IcuId(self.floorplan.mem_slice(hemisphere, slice_index))
            if not self._cells_free(icu, t_dispatch):
                return False
            reads.append(
                (
                    icu,
                    t_dispatch,
                    Read(address=address, stream=stream, direction=direction),
                )
            )
            return True

        if layout.is_parallel:
            for j in range(node.n_vectors):
                hemisphere, s, a = layout.address_of(0, j)
                stream = j if parallel_consumer else 0
                arrival = arrival_t0 if parallel_consumer else arrival_t0 + j
                if not plan_one(hemisphere, s, a, stream, arrival):
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
                    hemisphere, s, a = layout.address_of(p, j)
                    stream = block * n_bytes + p
                    if not plan_one(hemisphere, s, a, stream, arrival_t0 + k):
                        return None
        return reads

    def _commit_delivery(self, delivery: _Delivery) -> None:
        for icu, t, instruction in delivery.reads:
            self.queue(icu).reserve(t, instruction)

    # one delivery may serve two operand ports (add(x, x)): act on it once
    def _commit_deliveries(self, deliveries: list[_Delivery]) -> None:
        for delivery in {id(d): d for d in deliveries}.values():
            self._commit_delivery(delivery)

    def _release_deliveries(self, deliveries: list[_Delivery]) -> None:
        for delivery in {id(d): d for d in deliveries}.values():
            if delivery.grant is not None:
                self.streams.release(delivery.grant)

    # ------------------------------------------------------------------
    # the public entry point
    # ------------------------------------------------------------------
    def schedule(self, graph: Graph) -> CompiledProgram:
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
        return CompiledProgram(
            config=self.config,
            program=program,
            memory_image=self.memory_image,
            inputs=self.inputs,
            outputs=self.outputs,
            stats=stats,
            intent=self._build_intent(graph),
        )

    def _build_intent(self, graph: Graph) -> ScheduleIntent:
        """Record the schedule's timing promises for later verification."""
        intent = ScheduleIntent()
        dfunc_read = self.dfunc("Read")
        for icu, builder in self.queues.items():
            intent.dispatch_cells[str(icu)] = {
                t: instruction.mnemonic
                for t, instruction in builder.cells.items()
            }
            if icu.address.kind is not SliceKind.MEM:
                continue
            position = self.floorplan.position(icu.address)
            for t, instruction in builder.cells.items():
                if isinstance(instruction, Read):
                    intent.drives.append(
                        PredictedDrive(
                            name=f"{icu}.read@{t}",
                            direction=instruction.direction,
                            base_stream=instruction.stream,
                            width=1,
                            position=position,
                            t0=t + dfunc_read,
                            n_vectors=1,
                        )
                    )
        for node_id, whole in self.values.items():
            node = graph.node(node_id)
            if node.kind is OpKind.TEMPORAL_SHIFT:
                # the declared t0 is an alignment fiction: the physical
                # drives happen k cycles later (see _schedule_temporal_shift)
                continue
            for value in (whole, *whole.rest):
                width = value.grant.width // len(value.blocks)
                for b, rows in enumerate(value.blocks):
                    intent.drives.append(
                        PredictedDrive(
                            name=node.name,
                            direction=value.direction,
                            base_stream=value.grant.base + b * width,
                            width=width,
                            position=value.position,
                            t0=value.t0,
                            n_vectors=rows,
                            parallel=value.parallel,
                        )
                    )
        return intent

    # ------------------------------------------------------------------
    def _schedule_node(self, graph: Graph, node: Node) -> None:
        if node.kind in (OpKind.CONSTANT, OpKind.INPUT):
            return  # placed lazily by the first consumer
        self._pending.clear()
        if node.kind in (OpKind.UNARY, OpKind.BINARY, OpKind.CONVERT):
            self._schedule_vxm(graph, node)
        elif node.kind is OpKind.TEMPORAL_SHIFT:
            self._schedule_temporal_shift(graph, node)
        elif node.kind is OpKind.GATHER:
            self._schedule_gather(graph, node)
        elif node.kind is OpKind.MATMUL:
            self._schedule_matmul(graph, node)
        elif node.kind in (
            OpKind.SHIFT,
            OpKind.PERMUTE,
            OpKind.DISTRIBUTE,
            OpKind.SELECT,
            OpKind.TRANSPOSE16,
            OpKind.ROTATE,
        ):
            self._schedule_sxm(graph, node)
        elif node.kind is OpKind.WRITE:
            self._schedule_write(graph, node)
        else:
            raise CompileError(f"cannot lower {node.kind.value}")

    # ------------------------------------------------------------------
    # VXM point-wise nodes
    # ------------------------------------------------------------------
    def _vxm_mnemonic(self, node: Node) -> str:
        if node.kind is OpKind.UNARY:
            op: AluOp = node.params["op"]
            return {
                AluOp.RELU: "ReLU",
                AluOp.TANH: "TanH",
                AluOp.EXP: "Exp",
                AluOp.RSQRT: "RSqrt",
            }.get(op, "UnaryOp")
        if node.kind is OpKind.BINARY:
            return "BinaryOp"
        return "Convert"

    def _schedule_vxm(self, graph: Graph, node: Node) -> None:
        position = self.floorplan.position(self.floorplan.vxm())
        mnemonic = self._vxm_mnemonic(node)
        inputs = [graph.node(i) for i in node.inputs]
        t_min = max(
            self._operand_min_arrival(n_in, position) for n_in in inputs
        )
        for t_exec in range(t_min, t_min + SEARCH_LIMIT):
            if self._try_vxm_at(node, inputs, position, t_exec, mnemonic):
                return
        raise ScheduleError(
            f"could not place {node.name} within the search window — "
            "in-flight operands may be misaligned (stage one through "
            "memory with write_back)"
        )

    #: Largest stream retiming (in chained-COPY cycles) the scheduler will
    #: synthesize to align two in-flight operands.
    MAX_DELAY_CHAIN = 64

    def _plan_delay_chain(
        self, value: StreamValue, target_arrival: int, position: int
    ):
        """Retime an in-flight value to arrive at ``position`` at
        ``target_arrival`` by chaining COPY ops through VXM ALUs.

        A stream cannot be stalled, but a VXM ALU at the same position can
        re-drive it one ``d_func`` later — the compiler's retiming idiom.
        Returns (delayed StreamValue, reservations, grants) or None; the
        chain's cells join ``_pending``.
        """
        arrival = value.arrival_at(position)
        delay = target_arrival - arrival
        if delay < 0 or delay > self.MAX_DELAY_CHAIN:
            return None
        reservations: list[tuple[IcuId, int, Instruction]] = []
        grants: list[StreamGrant] = []
        n = value.n_vectors
        current = value
        for _step in range(delay):
            t_exec = current.arrival_at(position)
            alu = self._free_alu(t_exec, n)
            if alu is None:
                for g in grants:
                    self.streams.release(g)
                return None
            try:
                grant = self._grant_for_drive(
                    Direction.EASTWARD, current.dtype.n_bytes, t_exec + 1,
                    n, False, position,
                )
            except AllocationError:
                for g in grants:
                    self.streams.release(g)
                return None
            grants.append(grant)
            icu = IcuId(self.floorplan.vxm(), alu)
            instr = UnaryOp(
                op=AluOp.COPY,
                src_stream=current.grant.base,
                src_direction=current.direction,
                dst_stream=grant.base,
                dst_direction=grant.direction,
                dtype=current.dtype,
                alu=alu,
            )
            for k in range(n):
                self._plan_cell(icu, t_exec + k)
                reservations.append((icu, t_exec + k, instr))
            current = StreamValue(
                grant, position, t_exec + 1, n, current.dtype,
                current.length,
            )
        return current, reservations, grants

    def _try_vxm_at(self, node, inputs, position, t_exec, mnemonic) -> bool:
        n = node.n_vectors
        self._pending.clear()
        chain_reservations: list[tuple[IcuId, int, Instruction]] = []
        chain_grants: list[StreamGrant] = []
        overrides: dict[int, StreamValue] = {}

        def fail() -> bool:
            for g in chain_grants:
                self.streams.release(g)
            self._release_deliveries(deliveries)
            return False

        deliveries: list[_Delivery] = []
        # retime any in-flight operand that would arrive too early
        for n_in in inputs:
            if n_in.id not in self.values or n_in.id in overrides:
                continue
            value = self.values[n_in.id]
            if not value.reaches(position):
                raise ScheduleError(
                    f"{n_in.name} cannot reach the VXM from its position"
                )
            if value.arrival_at(position) == t_exec:
                continue
            planned = self._plan_delay_chain(value, t_exec, position)
            if planned is None:
                return fail()
            delayed, reservations, grants = planned
            overrides[n_in.id] = delayed
            chain_reservations.extend(reservations)
            chain_grants.extend(grants)

        alu = self._free_alu(t_exec, n)
        if alu is None:
            return fail()

        seen: dict[int, _Delivery] = {}
        for n_in in inputs:
            if n_in.id in seen:
                # the same value consumed twice (e.g. add(x, x)): one
                # stream carries it to both operand ports
                deliveries.append(seen[n_in.id])
                continue
            if n_in.id in overrides:
                value = overrides[n_in.id]
                delivery = _Delivery(value.grant.base, value.direction)
            else:
                delivery = self._deliver_operand(
                    n_in, position, t_exec, False
                )
            if delivery is None:
                return fail()
            deliveries.append(delivery)
            seen[n_in.id] = delivery

        dfunc = self.dfunc(mnemonic)
        t_drive = t_exec + dfunc
        try:
            out_grant = self._grant_for_drive(
                Direction.EASTWARD, node.dtype.n_bytes, t_drive, n, False,
                position,
            )
        except AllocationError:
            return fail()

        self._commit_deliveries(deliveries)
        for icu, t, instr in chain_reservations:
            self.queue(icu).reserve(t, instr, note="retime")
        icu = IcuId(self.floorplan.vxm(), alu)
        instr = self._vxm_instruction(node, inputs, deliveries, out_grant, alu)
        for k in range(n):
            self.queue(icu).reserve(
                t_exec + k, instr, note=node.name if k == 0 else ""
            )
        self.values[node.id] = StreamValue(
            out_grant, position, t_drive, n, node.dtype, node.length
        )
        return True

    def _vxm_instruction(
        self, node, inputs, deliveries: list[_Delivery],
        out_grant: StreamGrant, alu: int,
    ) -> Instruction:
        if node.kind is OpKind.UNARY:
            return UnaryOp(
                op=node.params["op"],
                src_stream=deliveries[0].base_stream,
                src_direction=deliveries[0].direction,
                dst_stream=out_grant.base,
                dst_direction=out_grant.direction,
                dtype=inputs[0].dtype,
                alu=alu,
            )
        if node.kind is OpKind.BINARY:
            return BinaryOp(
                op=node.params["op"],
                src1_stream=deliveries[0].base_stream,
                src1_direction=deliveries[0].direction,
                src2_stream=deliveries[1].base_stream,
                src2_direction=deliveries[1].direction,
                dst_stream=out_grant.base,
                dst_direction=out_grant.direction,
                dtype=inputs[0].dtype,
                alu=alu,
            )
        return Convert(
            src_stream=deliveries[0].base_stream,
            src_direction=deliveries[0].direction,
            dst_stream=out_grant.base,
            dst_direction=out_grant.direction,
            from_dtype=inputs[0].dtype,
            to_dtype=node.dtype,
            scale=node.params.get("scale", 1.0),
            alu=alu,
        )

    # ------------------------------------------------------------------
    # gather (stream-indirect addressing, Section III-B)
    # ------------------------------------------------------------------
    def _schedule_gather(self, graph: Graph, node: Node) -> None:
        """Stream-indirect read: the MEM slice holding the table services
        one Gather per index vector, with per-lane addresses taken from
        the passing map stream."""
        from ..isa.mem import Gather

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
            icu = self._mem_icu(s)
            return next(
                (
                    t for t in range(t_min, t_min + SEARCH_LIMIT)
                    if self._cells_free(icu, t, n)
                ),
                None,
            )

        # near the VXM so results flow far
        vxm = self.floorplan.position(self.floorplan.vxm())
        chosen = earliest(
            [
                s for s in self.mem.slices_near(vxm)
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
        self.layouts[table.id] = TensorLayout(planes=[placement])
        # materialize the table rows contiguously
        planes = pack_tensor(table.data, table.dtype, self.config.n_lanes)
        for j in range(table.n_vectors):
            self.memory_image.append(
                MemWord(
                    placement.hemisphere,
                    placement.slice_index,
                    placement.base_address + j,
                    planes[0, j],
                )
            )

        position = home.position
        icu = self._mem_icu(home)
        inward = Direction.inward_for(home.hemisphere)
        dfunc = self.dfunc("Gather")

        t_first = start(home)
        for t_exec in range(t_first, t_first + SEARCH_LIMIT):
            if not self.queue(icu).is_free(t_exec, n):
                continue
            self._pending = {icu: set(range(t_exec, t_exec + n))}
            delivery = self._deliver_operand(indices, position, t_exec, False)
            if delivery is None:
                continue
            try:
                out_grant = self._grant_for_drive(
                    inward, 1, t_exec + dfunc, n, False, position
                )
            except AllocationError:
                if delivery.grant is not None:
                    self.streams.release(delivery.grant)
                continue
            self._commit_delivery(delivery)
            instr = Gather(
                stream=out_grant.base,
                map_stream=delivery.base_stream,
                direction=inward,
                map_direction=delivery.direction,
                base=placement.base_address,
            )
            for j in range(n):
                self.queue(icu).reserve(
                    t_exec + j, instr, note=node.name if j == 0 else ""
                )
            self.values[node.id] = StreamValue(
                out_grant, position, t_exec + dfunc, n, node.dtype,
                node.length,
            )
            return
        raise ScheduleError(
            f"could not place {node.name} within the search window"
        )

    # ------------------------------------------------------------------
    # temporal shift (streaming-window delay)
    # ------------------------------------------------------------------
    def _schedule_temporal_shift(self, graph: Graph, node: Node) -> None:
        """``out[j] = in[j-k]``: re-drive the stream k cycles later, then
        declare its row alignment k rows earlier.

        Physically a chain of k VXM copies; rows j < k sample the stream
        before the first drive and read zeros.  The final grant's window
        is widened to cover those early (empty) slots so no other value
        can be scheduled into them.
        """
        position = self.floorplan.position(self.floorplan.vxm())
        k = node.params["k"]
        n = node.n_vectors
        source = graph.node(node.inputs[0])
        t_min = self._operand_min_arrival(source, position)

        for t_exec in range(t_min, t_min + SEARCH_LIMIT):
            self._pending.clear()
            delivery = self._deliver_operand(source, position, t_exec, False)
            if delivery is None:
                continue
            reservations: list[tuple[IcuId, int, Instruction]] = []
            grants: list[StreamGrant] = []
            current_base = delivery.base_stream
            current_dir = delivery.direction
            ok = True
            for step in range(k):
                cap_t = t_exec + step
                alu = self._free_alu(cap_t, n)
                if alu is None:
                    ok = False
                    break
                drive_t = cap_t + 1
                last = step == k - 1
                c0 = drive_t - position
                try:
                    if last:
                        # cover the k declared-but-empty leading slots too
                        grant = self.streams.allocate(
                            Direction.EASTWARD,
                            node.dtype.n_bytes,
                            c0 - k,
                            c0 + n - 1,
                        )
                    else:
                        grant = self._grant_for_drive(
                            Direction.EASTWARD, node.dtype.n_bytes,
                            drive_t, n, False, position,
                        )
                except AllocationError:
                    ok = False
                    break
                grants.append(grant)
                icu = IcuId(self.floorplan.vxm(), alu)
                instr = UnaryOp(
                    op=AluOp.COPY,
                    src_stream=current_base,
                    src_direction=current_dir,
                    dst_stream=grant.base,
                    dst_direction=grant.direction,
                    dtype=node.dtype,
                    alu=alu,
                )
                for j in range(n):
                    self._plan_cell(icu, cap_t + j)
                    reservations.append((icu, cap_t + j, instr))
                current_base = grant.base
                current_dir = grant.direction
            if not ok:
                for g in grants:
                    self.streams.release(g)
                if delivery.grant is not None:
                    self.streams.release(delivery.grant)
                continue
            self._commit_delivery(delivery)
            for icu, t, instr in reservations:
                self.queue(icu).reserve(
                    t, instr, note=f"{node.name} delay"
                )
            # declared alignment: row j of the output is sampled where
            # row j of the *input* was sampled, but physically carries
            # input row j-k (the data was re-driven k cycles later)
            self.values[node.id] = StreamValue(
                grants[-1], position, t_exec, n, node.dtype, node.length
            )
            return
        raise ScheduleError(
            f"could not place {node.name} within the search window"
        )

    # ------------------------------------------------------------------
    # MXM matmul
    # ------------------------------------------------------------------
    def _schedule_matmul(self, graph: Graph, node: Node) -> None:
        lanes = self.config.n_lanes
        weight_node = graph.node(node.inputs[0])
        act_nodes = [graph.node(i) for i in node.inputs[1:]]
        if weight_node.kind is not OpKind.CONSTANT:
            raise CompileError("matmul weights must be a constant tensor")
        m = node.params["m"]
        if m > lanes:
            raise CompileError(
                f"matmul output width {m} exceeds a {lanes}-wide plane; "
                "tile the M dimension at the API level"
            )
        tiles: list[np.ndarray] = node.params["weight_tiles"]
        if len(tiles) != len(act_nodes):
            raise CompileError(
                f"{len(tiles)} weight K-tiles but {len(act_nodes)} "
                "activation tensors"
            )

        weight_dtype = node.params.get("weight_dtype", DType.INT8)
        fp16 = weight_dtype is DType.FP16
        free = not fp16 and rows_are_free(graph, node)
        offers = self._plane_offers(node, act_nodes, fp16, free)
        # rows the schedule may lay out freely stream through as many
        # planes, of one hemisphere or both, as the closed forms say pay
        parts = [MatmulPart(offers[0], offers[0].planes[:1], [node.n_vectors])]
        if free:
            parts = matmul_parts(
                node.n_vectors, offers,
                [tile.shape[0] * weight_dtype.n_bytes for tile in tiles],
                (act_nodes[0].dtype.n_bytes, node.dtype.n_bytes),
                self._mxm_clock,
            )
        claimed = sum(len(part.planes) for part in parts)
        self._mxm_rr += 2 if fp16 else claimed
        self.stats.mxm_planes = max(self.stats.mxm_planes, claimed)
        if fp16:
            self._fp16_hemispheres.add(offers[0].hemisphere)
        # each part of a split is a matmul of its own rows in its own
        # hemisphere, on nodes of its own; the host sees one tensor per
        # name, its row blocks in both (and only a Write consumes the result)
        split = len(parts) > 1
        values = []
        for i, part in enumerate(parts):
            piece, *acts = (
                replace(n, id=(n.id, i), n_vectors=sum(part.rows))
                if split else n
                for n in (node, *act_nodes)
            )
            if not self._try_matmul_at(piece, acts, part):
                raise ScheduleError(
                    f"could not place matmul {node.name} within the search "
                    "window"
                )
            values.append(self.values.pop(piece.id))
        self.values[node.id] = replace(values[0], rest=tuple(values[1:]))
        for act in {a.id: a for a in act_nodes}.values() if split else ():
            layout = self.layouts[act.id] = TensorLayout.join(
                [self.layouts.pop((act.id, i)) for i in range(len(parts))]
            )
            self.inputs[act.name] = TensorSpec(
                act.name, layout, act.n_vectors, act.length, act.dtype
            )

    def _plane_offers(
        self, node: Node, act_nodes: list[Node], fp16: bool, free: bool
    ) -> list[PlaneOffer]:
        """What each hemisphere's MXM offers ``node``, the one it lands in
        first: in-flight activations dictate it, else it is where a plane
        is free first — the round-robin only breaks ties, and a blacklist
        (degraded mode) only shortens the offers.  An fp16 tile runs two
        byte-planes in tandem, hosted by plane 0 with its siblings captive
        (Section III-D): it needs them all healthy and idle, and later int8
        work on that hemisphere must use plane 0 too.  ``free`` rows get
        the landing slices the closed forms score.
        """
        every = range(self.config.mxm_planes_per_hemisphere)
        east, lead = divmod(self._mxm_rr % self.config.mxm_planes, len(every))
        home = Hemisphere.EAST if east else Hemisphere.WEST
        hemispheres = [home, home.other]
        for act in act_nodes:
            if act.id in self.values:
                inbound = self.values[act.id].direction
                hemispheres = [
                    Hemisphere.EAST if inbound is Direction.EASTWARD
                    else Hemisphere.WEST
                ]
        offers = []
        for hemisphere in hemispheres:
            busy = [self._plane_busy.get((hemisphere, p), 0) for p in every]
            dead = [p for p in every if (hemisphere, p) in self._dead_planes]
            if fp16:
                planes, ready = ([] if dead else [0]), [max(busy)]
            elif hemisphere in self._fp16_hemispheres:
                planes, ready = ([] if 0 in dead else [0]), busy[:1]
            else:
                first = lead if hemisphere is home else 0
                planes = sorted(
                    (p for p in every if p not in dead),
                    key=lambda p: (busy[p], p != first),
                )
                ready = [busy[p] for p in planes]
            if not planes:
                continue
            position = self.floorplan.position(self.floorplan.mxm(hemisphere))
            landing = self.mem.candidates(
                position, node.dtype.n_bytes, RESULT_BANK, node.n_vectors
            ) if free else []
            near = self.mem.slices_near(position) if free else []
            offers.append(PlaneOffer(
                hemisphere, position, planes, ready, landing, near,
                self._weights_fit,
            ))
        if not offers:
            dead = sorted((h.value, p) for h, p in self._dead_planes)
            pinned = " (hemisphere pinned by in-flight activations)"
            raise CompileError(
                f"degraded mode: no healthy MXM plane for {node.name} — "
                f"blacklist {dead}{pinned if len(hemispheres) == 1 else ''}"
            )
        return sorted(offers, key=lambda offer: offer.ready[0])

    def _try_matmul_at(self, node, act_nodes, part: MatmulPart) -> bool:
        """Plan the matmul on the planes of ``part``, none of them touched
        before it is free: one weight feed installed into all of them at
        once, plane ``b`` then streaming its own block of ``rows[b]``."""
        lanes = self.config.n_lanes
        tiles, m = node.params["weight_tiles"], node.params["m"]
        weight_dtype = node.params.get("weight_dtype", DType.INT8)
        hemisphere, planes, rows = part.offer.hemisphere, part.planes, part.rows
        n = rows[0]
        mxm, position = self.floorplan.mxm(hemisphere), part.offer.position
        depth = self.timing.mxm_pipeline_depth(self.config.mxm_plane_rows)
        act_width = act_nodes[0].dtype.n_bytes
        out_width = node.dtype.n_bytes
        outward = Direction.outward_for(hemisphere)
        inward = Direction.inward_for(hemisphere)
        weights_icus = [IcuId(mxm, plane * 2) for plane in planes]
        compute_icus = [IcuId(mxm, plane * 2 + 1) for plane in planes]
        dskew_iw = self.dskew("IW")
        dskew_abc = self.dskew("ABC")
        dskew_acc = self.dskew("ACC")
        clock = self._mxm_clock

        reservations: list[tuple[IcuId, int, Instruction]] = []
        grants: list[StreamGrant] = []
        weight_words: list[MemWord] = []
        self._pending.clear()

        def rollback() -> bool:
            for g in grants:
                self.streams.release(g)
            return False

        def plan(icu: IcuId, t: int, instruction: Instruction) -> None:
            self._plan_cell(icu, t)
            reservations.append((icu, t, instruction))

        t_cursor = max(clock.read, *part.offer.ready[: len(planes)])
        for act in act_nodes:
            t_cursor = max(t_cursor, self._operand_min_arrival(act, position))
        for p_idx, tile in enumerate(tiles):
            k_p = tile.shape[0]
            w_padded = np.zeros(
                (k_p, lanes), dtype=weight_dtype.numpy_dtype
            )
            w_padded[:, :m] = tile
            raw = w_padded.view(np.uint8).reshape(-1)
            n_chunks = -(-raw.size // lanes)

            # the feed whose last chunk installs first, with a stream group
            # free for its whole flight; a group conflict retries later
            grant = None
            search_from = t_cursor
            for _retry in range(64):
                feed = self._plan_weight_feed(
                    n_chunks, position, weights_icus, search_from
                )
                if feed is None:
                    return rollback()
                t_w, slices, install_cycles = feed
                try:
                    grant = self._grant_for_drive(
                        outward, len(slices), t_w, install_cycles, False,
                        position,
                    )
                    break
                except AllocationError:
                    search_from = t_w + install_cycles
            if grant is None:
                return rollback()
            grants.append(grant)
            n_streams = len(slices)
            flat = np.zeros(install_cycles * n_streams * lanes, dtype=np.uint8)
            flat[: raw.size] = raw
            chunks = flat.reshape(install_cycles, n_streams, lanes)
            layout = self.mem.alloc_sequential(slices, install_cycles)
            for j, (s, placement) in enumerate(zip(slices, layout.planes)):
                t_first = t_w - abs(position - s.position) - clock.read
                for c in range(install_cycles):
                    address = placement.base_address + 2 * c
                    plan(
                        self._mem_icu(s),
                        t_first + c,
                        Read(
                            address=address,
                            stream=grant.base + j,
                            direction=outward,
                        ),
                    )
                    weight_words.append(
                        MemWord(s.hemisphere, s.index, address, chunks[c, j])
                    )
            for plane, icu in zip(planes, weights_icus):
                plan(
                    icu,
                    t_w - dskew_iw,
                    InstallWeights(
                        plane=plane,
                        base_stream=grant.base,
                        n_streams=n_streams,
                        direction=outward,
                        rows=tile.shape[0],
                        cols=lanes,
                        dtype=weight_dtype,
                    ),
                )
            install_done = t_w + install_cycles - 1
            self._mark("weights_installed", install_done)

            # activations for this pass
            act = act_nodes[p_idx]
            t_a_min = max(
                install_done + 1,
                self._operand_min_arrival(act, position),
            )
            placed = False
            is_last = p_idx == len(tiles) - 1
            for t_a in range(t_a_min, t_a_min + SEARCH_LIMIT):
                t_abc = t_a - dskew_abc
                t_acc = t_a + depth - dskew_acc
                if t_acc <= t_abc or not all(
                    self._cells_free(icu, t)
                    for icu in compute_icus for t in (t_abc, t_acc)
                ):
                    continue
                out_grant = None
                if is_last:
                    try:
                        out_grant = self._grant_for_drive(
                            inward, out_width * len(planes),
                            t_a + clock.fill, n, False, position,
                        )
                    except AllocationError:
                        continue
                delivery = self._deliver_operand(
                    act, position, t_a, False, rows
                )
                if delivery is None:
                    if out_grant is not None:
                        self.streams.release(out_grant)
                    continue
                # every resource is granted: commit this pass to the plan
                if delivery.grant is not None:
                    grants.append(delivery.grant)
                reservations.extend(delivery.reads)
                out_base = out_grant.base if out_grant else 0
                for b, (plane, icu) in enumerate(zip(planes, compute_icus)):
                    plan(
                        icu,
                        t_abc,
                        ActivationBufferControl(
                            plane=plane,
                            base_stream=delivery.base_stream + b * act_width,
                            direction=delivery.direction,
                            n_vectors=rows[b],
                            dtype=weight_dtype,
                        ),
                    )
                    plan(
                        icu,
                        t_acc,
                        Accumulate(
                            plane=plane,
                            base_stream=out_base + b * out_width,
                            direction=inward,
                            n_vectors=rows[b],
                            out_dtype=node.dtype,
                            accumulate=p_idx > 0,
                            emit=is_last,
                        ),
                    )
                self._mark("first_operand", t_a)
                if is_last:
                    grants.append(out_grant)
                    self.values[node.id] = StreamValue(
                        out_grant, position, t_a + clock.fill,
                        node.n_vectors, node.dtype, m, split=tuple(rows),
                    )
                    self._mark("first_result", t_a + clock.fill)
                # a new install wipes in-flight results: wait for the drain
                t_cursor = t_a + n + clock.turn
                placed = True
                break
            if not placed:
                return rollback()

        for icu, t, instruction in reservations:
            self.queue(icu).reserve(t, instruction, note=node.name)
        self.memory_image.extend(weight_words)
        for plane in planes:
            self._plane_busy[(hemisphere, plane)] = t_cursor
        return True

    def _plan_weight_feed(
        self, n_chunks: int, position: int, icus: list[IcuId], t_start: int
    ) -> tuple[int, list[MemSlice], int] | None:
        """Choose a weight feed: ``(t_w, slices, install cycles)``.

        ``n_chunks`` 320-byte chunks reach the MXM over ``width`` streams,
        slice ``j`` holding every ``width``-th chunk so all streams feed at
        once.  A wider feed installs in fewer cycles, but its farthest
        slice sets when the aligned feed can start; the winner is the width
        whose last chunk installs first (degraded mode simply has fewer
        slices to offer); every IW queue in ``icus`` installs from it at
        once.  A pure probe: nothing is allocated or reserved.
        """
        options = feed_options(
            self.mem.slices_near(position), n_chunks, position, t_start,
            self.dfunc("Read"), self._weights_fit,
        )
        # most promising first: stop once a bound cannot beat the best found
        best = None
        for bound, ready, roomy, width, cycles in options:
            if best is not None and bound >= best[0] + best[2]:
                break
            found = self._find_weight_window(
                roomy, width, cycles, position, icus, ready
            )
            if found is not None and (
                best is None or found[0] + cycles < best[0] + best[2]
            ):
                best = (*found, cycles)
        return best

    def _weights_fit(self, s: MemSlice, n_words: int) -> bool:
        return self.mem.fits(s, INPUT_BANK, n_words)

    def _find_weight_window(
        self, roomy, width, install_cycles, position, icus, t_start
    ) -> tuple[int, list[MemSlice]] | None:
        """Earliest ``t_w >= t_start`` at which the IW cells are free and
        ``width`` of the ``roomy`` slices (nearest first) can each issue
        their ``install_cycles`` reads; returns it with those slices."""
        dfunc_read = self.dfunc("Read")
        t_iw_offset = self.dskew("IW")
        feeds = [
            (s, self._mem_icu(s), abs(position - s.position) + dfunc_read)
            for s in roomy
        ]
        for t_w in range(t_start, t_start + SEARCH_LIMIT):
            if not all(self._cells_free(i, t_w - t_iw_offset) for i in icus):
                continue
            slices = list(
                islice(
                    (
                        s for s, icu, lead in feeds
                        if self._cells_free(icu, t_w - lead, install_cycles)
                    ),
                    width,
                )
            )
            if len(slices) == width:
                return t_w, slices
        return None

    # ------------------------------------------------------------------
    # SXM nodes
    # ------------------------------------------------------------------
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
        sxm_addr = self.floorplan.sxm(hemisphere)
        position = self.floorplan.position(sxm_addr)
        inward = Direction.inward_for(hemisphere)
        parallel_in = node.kind is OpKind.TRANSPOSE16
        parallel_out = node.kind in (OpKind.TRANSPOSE16, OpKind.ROTATE)

        unit_names, mnemonic = {
            OpKind.SHIFT: (["shift_n", "shift_s"], "Shift"),
            OpKind.PERMUTE: (["permute"], "Permute"),
            OpKind.DISTRIBUTE: (["distribute"], "Distribute"),
            OpKind.SELECT: (["select"], "Select"),
            OpKind.TRANSPOSE16: (["transpose0", "transpose1"], "Transpose"),
            OpKind.ROTATE: (["rotate"], "Rotate"),
        }[node.kind]
        if node.kind is OpKind.TRANSPOSE16 and self._transpose_rr % 2:
            unit_names = list(reversed(unit_names))
        self._transpose_rr += node.kind is OpKind.TRANSPOSE16
        icus = [
            IcuId(sxm_addr, SXM_UNITS.index(name)) for name in unit_names
        ]

        t_min = max(
            self._operand_min_arrival(n_in, position) for n_in in inputs
        )
        n_in_vectors = inputs[0].n_vectors
        n_cells = 1 if (parallel_in or n_in_vectors == 1) else n_in_vectors
        if node.kind is OpKind.TRANSPOSE16:
            out_width = 16
        elif node.kind is OpKind.ROTATE:
            out_width = node.params["n"] ** 2
        else:
            out_width = node.dtype.n_bytes

        for t_exec in range(t_min, t_min + SEARCH_LIMIT):
            icu = next(
                (c for c in icus if self.queue(c).is_free(t_exec, n_cells)),
                None,
            )
            if icu is None:
                continue
            self._pending.clear()
            deliveries: list[_Delivery] = []
            seen: dict[int, _Delivery] = {}
            failed = False
            for n_in in inputs:
                if n_in.id in seen:
                    deliveries.append(seen[n_in.id])
                    continue
                delivery = self._deliver_operand(
                    n_in, position, t_exec, parallel_in
                )
                if delivery is None:
                    failed = True
                    break
                deliveries.append(delivery)
                seen[n_in.id] = delivery
            if failed:
                self._release_deliveries(deliveries)
                continue
            t_drive = t_exec + self.dfunc(mnemonic)
            try:
                out_grant = self._grant_for_drive(
                    inward, out_width, t_drive,
                    1 if parallel_out else node.n_vectors,
                    parallel_out, position,
                )
            except AllocationError:
                self._release_deliveries(deliveries)
                continue
            self._commit_deliveries(deliveries)
            instr = self._sxm_instruction(node, deliveries, out_grant, icu)
            for k in range(n_cells):
                self.queue(icu).reserve(
                    t_exec + k, instr, note=node.name if k == 0 else ""
                )
            self.values[node.id] = StreamValue(
                out_grant, position, t_drive, node.n_vectors, node.dtype,
                node.length, parallel=parallel_out,
            )
            return
        raise ScheduleError(
            f"could not place {node.name} within the search window"
        )

    def _sxm_instruction(
        self, node: Node, deliveries: list[_Delivery],
        out_grant: StreamGrant, icu: IcuId | None = None,
    ) -> Instruction:
        base0 = deliveries[0].base_stream
        in_dir = deliveries[0].direction
        out_dir = out_grant.direction
        if node.kind is OpKind.SHIFT:
            return Shift(
                src_stream=base0,
                dst_stream=out_grant.base,
                direction=in_dir,
                dst_direction=out_dir,
                shift=node.params["shift"],
                amount=node.params["amount"],
            )
        if node.kind is OpKind.PERMUTE:
            return Permute(
                src_stream=base0,
                dst_stream=out_grant.base,
                direction=in_dir,
                dst_direction=out_dir,
                mapping=tuple(node.params["mapping"]),
            )
        if node.kind is OpKind.DISTRIBUTE:
            return Distribute(
                src_stream=base0,
                dst_stream=out_grant.base,
                direction=in_dir,
                dst_direction=out_dir,
                mapping=tuple(node.params["mapping"]),
            )
        if node.kind is OpKind.SELECT:
            return Select(
                src_stream_a=deliveries[0].base_stream,
                src_stream_b=deliveries[1].base_stream,
                dst_stream=out_grant.base,
                direction=in_dir,
                dst_direction=out_dir,
                mask=tuple(node.params["mask"]),
            )
        if node.kind is OpKind.ROTATE:
            return Rotate(
                src_stream=base0,
                dst_base_stream=out_grant.base,
                direction=in_dir,
                dst_direction=out_dir,
                n=node.params["n"],
            )
        unit = 0
        if icu is not None and str(icu).endswith("transpose1"):
            unit = 1
        return Transpose(
            src_base_stream=base0,
            dst_base_stream=out_grant.base,
            direction=in_dir,
            dst_direction=out_dir,
            unit=unit,
        )

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
        for index, (s, placement) in enumerate(zip(slices, placements)):
            first = value.arrival_at(s.position) - dskew
            queue = self.queue(self._mem_icu(s))
            n = placement.n_words
            for j in range(n):
                queue.reserve(
                    first + j,
                    Write(
                        address=placement.base_address + placement.stride * j,
                        stream=value.grant.base + index,
                        direction=value.direction,
                    ),
                    note=node.name,
                )
            self._mark("last_write", first + n - 1, latest=True)
        return layout


# ----------------------------------------------------------------------
# host-side packing helpers
# ----------------------------------------------------------------------
def pack_tensor(data: np.ndarray, dtype: DType, lanes: int) -> np.ndarray:
    """(n, L) host tensor -> (bytes, n, lanes) byte-plane words."""
    arr = np.atleast_2d(np.asarray(data, dtype=dtype.numpy_dtype))
    n, length = arr.shape
    if length > lanes:
        raise CompileError(
            f"vector length {length} exceeds the {lanes}-lane maxVL"
        )
    padded = np.zeros((n, lanes), dtype=dtype.numpy_dtype)
    padded[:, :length] = arr
    raw = padded.view(np.uint8).reshape(n, lanes, dtype.n_bytes)
    return np.ascontiguousarray(raw.transpose(2, 0, 1))


def unpack_tensor(
    planes: np.ndarray, dtype: DType, length: int
) -> np.ndarray:
    """(bytes, n, lanes) byte-plane words -> (n, length) host tensor."""
    b, n, lanes = planes.shape
    raw = np.ascontiguousarray(planes.transpose(1, 2, 0))
    full = raw.reshape(n, lanes * b).view(dtype.numpy_dtype)
    return full[:, :length].copy()

"""What the scheduler produces, and the transaction it produces it with.

The dataclasses are the compiler's outputs — a :class:`Schedule` (program
text, tensor specs, :class:`ScheduleStats`, the checkable
:class:`ScheduleIntent` — reserved dispatch cells and the one list of
stream drives the lowerings noted, which the replay plan shares — a
:class:`ConstantSlot` per constant and the replay plan its lowerings
emitted: all a function of shapes alone) and the
:class:`CompiledProgram` that :meth:`Schedule.bind` makes of it by packing
one graph's constants into those slots — and :class:`StreamValue`, the
scheduler's record of a value in flight.  :class:`QueueBuilder` is one
ICU's committed dispatch cells; :class:`Attempt` is the tentative schedule
of one node, the only thing that writes to a queue, returns a stream grant
or keeps a plan op or a drive.

A plan op (:mod:`repro.sim.replay`) names the values it consumes by
*ref*: ``("s", slot)`` for a value the plan computes into slot ``slot``,
``("c", vector)`` for a one-lane constant.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..arch.streams import DType, pack_tensor
from ..config import ArchConfig
from ..errors import AllocationError, CompileError, ScheduleError
from ..isa import IcuId, Instruction, Nop, Program
from .allocator import StreamAllocator, StreamGrant, TensorLayout
from .graph import Graph, Node

#: How many candidate start cycles to try before giving up on a node.
SEARCH_LIMIT = 4096

#: Largest stream retiming (in chained-COPY cycles) the scheduler will
#: synthesize to align two in-flight operands.
MAX_DELAY_CHAIN = 64


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
    #: per row, the plan ref of each of its byte streams
    refs: list = field(default_factory=list, repr=False)

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


@dataclass(frozen=True)
class ConstantSlot:
    """The MEM words one constant will occupy, in memory-image order.

    The scheduler decides *where* a constant lives from its shape alone;
    :meth:`pack` is the only code that reads its bytes.  A plain tensor
    fills its words byte plane by byte plane, vector by vector.  A
    matmul's K-tile — rows ``tile`` of the weights constant — is padded
    to full lanes and cut into lane-wide chunks dealt round-robin over
    the ``streams`` slices that feed the MXM side by side.
    """

    node_id: int
    #: ``(hemisphere, slice index, address)`` per word
    words: tuple[tuple[Hemisphere, int, int], ...]
    tile: tuple[int, int] | None = None
    streams: int = 1

    def pack(self, node: Node, lanes: int) -> np.ndarray:
        """``node``'s bytes as one ``(lanes,)`` uint8 row per word."""
        if node.data is None:
            raise CompileError(f"{node.name} has no data to bind")
        if self.tile is None:
            rows = pack_tensor(node.data, node.dtype, lanes)
        else:
            tile = node.data[slice(*self.tile)]
            padded = np.zeros((tile.shape[0], lanes), node.dtype.numpy_dtype)
            padded[:, : tile.shape[1]] = tile
            # whole feed cycles: the last is zero-filled past the end
            cycles = -(-padded.nbytes // (self.streams * lanes))
            rows = np.zeros((cycles, self.streams, lanes), dtype=np.uint8)
            rows.reshape(-1)[: padded.nbytes] = padded.view(np.uint8).reshape(-1)
            rows = rows.transpose(1, 0, 2)
        rows = rows.reshape(-1, lanes)
        if len(rows) != len(self.words):
            raise CompileError(
                f"{node.name} packs into {len(rows)} MEM words and the "
                f"schedule keeps {len(self.words)} for it: this graph is "
                "not the shape that was scheduled"
            )
        return rows


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


@dataclass
class ScheduleIntent:
    """The scheduler's cycle-exact predictions, replayable against a run.

    This is Equation 4 made checkable: ``dispatch_cells`` records every
    reserved (queue, cycle, mnemonic) cell before NOP padding, and
    ``drives`` is every ``(direction, stream, position, cycle)`` stream
    drive the lowerings placed — the list the schedule's replay plan
    counts its hops from (``intent.drives is plan.drives``), physical
    re-drives of a temporal shift included.  The timing-contract checker
    in :mod:`repro.verify.invariants` replays both against an actual run.
    """

    #: str(IcuId) -> {dispatch cycle: mnemonic}
    dispatch_cells: dict[str, dict[int, str]] = field(default_factory=dict)
    drives: list[tuple[Direction, int, int, int]] = field(
        default_factory=list
    )


@dataclass(frozen=True)
class PassShape:
    """What repeats of a periodic schedule (:mod:`repro.compiler.repeat`):
    every ``period`` cycles, one more pass of its dispatch ``cells`` (per
    queue), its ``drives`` and the plan ops ``ops`` marks; the rest —
    the weight feed and install — is a prologue run once."""

    period: int
    cells: dict[IcuId, frozenset[int]]
    drives: frozenset
    #: per plan op, in plan order, whether the pass performs it
    ops: tuple[bool, ...]


@dataclass
class Schedule:
    """Everything the scheduler decides — none of it from a constant's
    bytes: a pure function of the graph's shapes, dtypes, names and op
    parameters, the configuration, the timing model and the blacklist
    (:func:`repro.compiler.cachekey.shape_fingerprint`).

    One schedule serves every graph of that shape: :meth:`bind` packs a
    graph's constants into ``slots`` and the bound programs share the
    program text, specs, stats, intent and replay plan, which nothing
    mutates — a plan finished, activity counted, with the schedule itself.
    """

    config: ArchConfig
    program: Program
    slots: list[ConstantSlot]
    inputs: dict[str, TensorSpec]
    outputs: dict[str, TensorSpec]
    stats: ScheduleStats
    intent: ScheduleIntent
    #: ``(hemisphere, slice, address)`` of each memory-image row
    words: list = field(default_factory=list, repr=False)
    #: ``shape_fingerprint`` of what was scheduled, attached by
    #: :meth:`repro.compiler.api.StreamProgramBuilder.schedule`
    shape_key: str | None = None
    #: the finished :class:`repro.sim.replay.ReplayPlan` the lowerings
    #: emitted, its memory-image words among its inputs — None for a
    #: program no plan stands in for; every program binds its own from it
    plan: object | None = field(default=None, repr=False, compare=False)
    #: a periodic schedule's pass; None for a schedule run once
    pass_shape: PassShape | None = field(default=None, repr=False)
    #: passes one run of the program makes (:mod:`repro.compiler.repeat`)
    passes: int = 1
    #: the periodic schedule this one repeats ``passes`` times
    source: "Schedule | None" = field(default=None, repr=False, compare=False)
    _repeats: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def repeated(self, passes: int) -> "Schedule":
        """:func:`~repro.compiler.repeat.repeat` of this periodic schedule
        — ``passes`` passes, or as many as MEM holds — made once per
        count and shared by every program of its shape."""
        from .repeat import max_passes, repeat

        passes = min(passes, max_passes(self))
        made = self._repeats.get(passes)
        if made is None:
            made = self._repeats[passes] = repeat(self, passes)
            # this schedule's key is ``passes_key(key, None)``: the
            # repeat's is ``passes_key(key, passes)``
            made.shape_key = f"{self.shape_key}*{passes}"
        return made

    def bind(self, graph: Graph, cache_key: str | None = None) -> "CompiledProgram":
        """The program of ``graph`` — one this schedule's shape — with
        its constants emplaced; byte for byte what scheduling ``graph``
        from scratch compiles."""
        lanes = self.config.n_lanes
        program = CompiledProgram(
            config=self.config,
            program=self.program,
            image=np.concatenate([np.empty((0, lanes), np.uint8)] + [
                slot.pack(graph.node(slot.node_id), lanes)
                for slot in self.slots
            ]),
            inputs=self.inputs,
            outputs=self.outputs,
            stats=self.stats,
            intent=self.intent,
            cache_key=cache_key,
            schedule=self,
        )
        return program


@dataclass
class CompiledProgram:
    """Everything needed to execute a compiled graph on a chip: a
    :class:`Schedule` bound to one graph's constants."""

    config: ArchConfig
    program: Program
    #: the memory image: a ``(lanes,)`` uint8 row per ``schedule.words``
    image: np.ndarray = field(repr=False)
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
    #: what this program was bound from; a program of the same shape and
    #: other constants can be bound from it too
    schedule: Schedule | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def replay(self):
        """This program's :class:`repro.sim.replay.ReplayPlan`, or None:
        its schedule's plan bound to ``image`` on first read, so a program
        that only ever simulates (an oracle's) never binds one."""
        plan = self.schedule.plan if self.schedule is not None else None
        return plan.bind(self.image) if plan is not None else None

    @functools.cached_property
    def memory_image(self) -> list[MemWord]:
        """``image`` a :class:`MemWord` a row, built on first read."""
        return [MemWord(*w, d) for w, d in zip(self.schedule.words, self.image)]


class QueueBuilder:
    """Time-indexed dispatch cells for one ICU, NOP-padded at assembly."""

    def __init__(self, icu: IcuId) -> None:
        self.icu = icu
        self.cells: dict[int, Instruction] = {}
        self.notes: dict[int, str] = {}

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


@dataclass(frozen=True)
class Delivery:
    """Where a consumer finds one operand: the group's base stream — and
    what it finds there: per row, the plan ref of each byte stream."""

    base_stream: int
    direction: Direction
    refs: list = field(compare=False)


@dataclass
class UnitOp:
    """What a lowering asks :meth:`Scheduler._place` to place: one
    instruction, dispatched ``cells`` times back to back on the first of
    ``icus`` that is free, consuming its operands at ``position`` and
    driving a ``width``-stream result ``d_func(mnemonic)`` later."""

    position: int
    width: int
    direction: Direction
    icus: Sequence[IcuId] = ()
    cells: int = 0
    mnemonic: str = ""
    #: (queue chosen, operand deliveries in input order, output grant)
    build: (
        Callable[[IcuId, list[Delivery], StreamGrant], Instruction] | None
    ) = None
    parallel_in: bool = False  # operands arrive as a one-row-per-stream group
    parallel_out: bool = False
    #: an in-flight operand that arrives early is re-driven until it is due
    retime: bool = False
    #: a temporal shift has no instruction of its own (no ``icus``): its
    #: result is the operand, re-driven this many cycles later
    redrive: int = 0
    #: (instruction built, operand refs in input order) -> per dispatch
    #: cell, the plan ops it performs and the result rows it drives
    kernel: Callable[[Instruction, list], list] | None = None


class Attempt:
    """The tentative schedule of one node: a transaction over the queues
    and the stream allocator.

    A placement attempt *plans* dispatch cells, takes stream grants and
    emits plan ops (and their drives) into fresh value slots as it goes;
    nothing reaches a queue or the plan before :meth:`commit`, and leaving
    the ``with`` block uncommitted gives every grant and slot back, so an
    attempt abandoned at any point leaves the queues, the set of queues
    that exist, the stream allocator and the plan exactly as it found them.
    A planned cell is not free to the attempt's own later probes
    (:meth:`cells_free` is the one probe, and it is pure).  One attempt is
    live at a time: the scheduler owns a single instance and re-enters it
    per candidate cycle.
    """

    def __init__(
        self, queues: dict[IcuId, QueueBuilder], streams: StreamAllocator
    ) -> None:
        self.queues = queues
        self.streams = streams
        #: cells claimed so far, by queue in the order first claimed
        self.cells: dict[IcuId, set[int]] = {}
        self.reservations: list[tuple[IcuId, int, Instruction, str]] = []
        self.grants: list[StreamGrant] = []
        #: every committed plan op as ``(order, op, in pass)``, ``order``
        #: being when the chip performs it; the slots they number
        self.emitted: list[tuple[tuple, tuple, bool]] = []
        self.n_slots = 0
        #: every committed ``(direction, stream, position, cycle)`` drive
        self.drives: list[tuple[Direction, int, int, int]] = []
        #: a periodic schedule's period (see :meth:`cells_free`) and, per
        #: queue, its pass's committed cells; the drives of the pass
        self.period: int | None = None
        self.in_pass = False
        self.pass_cells: dict[IcuId, set[int]] = {}
        self.pass_drives: list[tuple[Direction, int, int, int]] = []
        self._ops: list[tuple[tuple, tuple, bool]] = []
        self._slots = 0
        self._drives: list[tuple[Direction, int, int, int]] = []
        self._pass_planned: dict[IcuId, set[int]] = {}
        self._pass_drives: list[tuple[Direction, int, int, int]] = []

    def __enter__(self) -> "Attempt":
        return self

    def __exit__(self, *exc) -> None:
        for grant in self.grants:
            self.streams.release(grant)
        self._forget()

    def _forget(self) -> None:
        self.cells.clear()
        self.reservations.clear()
        self.grants.clear()
        self._ops.clear()
        self._slots = 0
        self._drives.clear()
        self._pass_planned.clear()
        self._pass_drives.clear()

    def slots(self, n: int) -> list[int]:
        """``n`` fresh value slots of the plan."""
        first = self.n_slots + self._slots
        self._slots += n
        return list(range(first, first + n))

    def emit(self, order: tuple, op: tuple) -> None:
        """Keep plan op ``op``, which the chip performs at ``order``."""
        self._ops.append((order, op, self.in_pass))

    def drive(self, direction: Direction, base: int, n: int, position: int,
              t: int) -> None:
        """Keep the drives of streams ``base .. base+n-1`` at ``position``
        in cycle ``t``."""
        drives = [(direction, s, position, t) for s in range(base, base + n)]
        self._drives += drives
        if self.in_pass:
            self._pass_drives += drives

    def cells_free(self, icu: IcuId, t: int, n: int = 1) -> bool:
        """Dispatch cells ``t .. t+n-1`` of a queue are neither reserved
        nor planned by this attempt.  Never creates the queue."""
        if t < 0:
            return False
        queue = self.queues.get(icu)
        reserved = queue.cells if queue is not None else ()
        planned = self.cells.get(icu, ())
        if any(c in reserved or c in planned for c in range(t, t + n)):
            return False
        return self.period is None or not any(
            self._recurs_on(icu, c, reserved, planned) for c in range(t, t + n)
        )

    def _recurs_on(self, icu: IcuId, t: int, reserved, planned) -> bool:
        """In a periodic schedule a pass cell taken at ``t`` is taken at
        every ``t + k * period`` too: whether cell ``t`` (a pass cell when
        :attr:`in_pass`) meets another's recurrence, or its own meets
        another cell."""
        period = self.period
        repeated = self.pass_cells.get(icu, set()) | self._pass_planned.get(
            icu, set()
        )
        for c in (*reserved, *planned):
            if (c - t) % period:
                continue
            if c in repeated:
                if self.in_pass or c < t:
                    return True
            elif self.in_pass and c > t:
                return True
        return False

    def first_free(
        self, icus: Sequence[IcuId], t: int, n: int
    ) -> IcuId | None:
        """The first of ``icus`` whose cells ``t .. t+n-1`` are free."""
        return next((c for c in icus if self.cells_free(c, t, n)), None)

    def hold(self, icu: IcuId, t: int, n: int = 1) -> None:
        """Claim cells whose instruction is not known yet."""
        self.cells.setdefault(icu, set()).update(range(t, t + n))
        if self.in_pass:
            self._pass_planned.setdefault(icu, set()).update(range(t, t + n))

    def plan(
        self, icu: IcuId, t: int, instruction: Instruction, note: str = ""
    ) -> None:
        self.cells.setdefault(icu, set()).add(t)
        self.reservations.append((icu, t, instruction, note))
        if self.in_pass:
            self._pass_planned.setdefault(icu, set()).add(t)

    def grant(
        self,
        direction: Direction,
        width: int,
        t0: int,
        n_vectors: int,
        parallel: bool,
        position: int,
    ) -> StreamGrant | None:
        """Streams for a value present at ``position`` from ``t0``, or
        None when no aligned group is free.

        Intervals are booked in the *moving frame* of the stream: for an
        eastward value, ``c = t - position`` is invariant as it flows (it
        advances one position per cycle), so two values on the same stream
        collide iff their ``c`` windows overlap — regardless of where they
        were driven.  This is exact: a value driven behind another on the
        same stream never catches up.
        """
        c0 = t0 - position if direction is Direction.EASTWARD else t0 + position
        span = 0 if parallel else n_vectors - 1
        try:
            grant = self.streams.allocate(
                direction, width, c0, c0 + span,
                recurs=self.in_pass and self.period is not None,
            )
        except AllocationError:
            return None
        self.grants.append(grant)
        return grant

    def give_back(self, grant: StreamGrant) -> None:
        """Return one grant early: the attempt goes on without it."""
        self.grants.remove(grant)
        self.streams.release(grant)

    def commit(self, note: str = "") -> None:
        """Reserve every planned cell (``note`` annotates those planned
        without one) and keep the grants.  Queues come into being in the
        order the attempt first claimed a cell of them."""
        for icu in self.cells:
            if icu not in self.queues:
                self.queues[icu] = QueueBuilder(icu)
        for icu, t, instruction, own in self.reservations:
            self.queues[icu].reserve(t, instruction, own or note)
        for icu, cells in self._pass_planned.items():
            self.pass_cells.setdefault(icu, set()).update(cells)
        self.emitted += self._ops
        self.n_slots += self._slots
        self.drives += self._drives
        self.pass_drives += self._pass_drives
        self._forget()

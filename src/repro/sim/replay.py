"""Deterministic schedule replay: the compiler's plan of a schedule, re-run
over data.

The TSP has no dynamic behaviour (paper Sections I, IV-F): the compiler
knows the cycle-exact schedule ahead of time, so a program's execution is a
pure *plan* over which only data varies — and since a
:class:`~repro.compiler.schedule.Schedule` is a function of shape alone,
so is the plan.  This module exploits that literally.  Each lowering of
the scheduler emits the plan ops of what it places, from what it already
knows — a node's operand values, its result value, its MEM layout and its
constant's words — into a linear :class:`ReplayPlan` of fused numpy
kernels whose inputs are the run-time input tensors *and* the memory
image, and notes each stream drive it places.  :class:`ScheduleRecorder`
counts the plan's activity from the ops and the drives: the compiler
fixes every byte a run moves, so no run is needed to learn it.
:meth:`ReplayPlan.bind` fills the plan from one program's memory image,
and every execution of every program of the schedule, its first
included, runs a bound plan directly — no ICU queues, no event heap, no
per-cycle SRF stepping.  One interpreter runs the kernels, always along a
leading batch axis: the pure entry point evaluates B inputs in one pass,
the write-through one is a batch of one whose words come from and go back
to a chip's SRAM.

Correctness strategy:

* **The plan is the schedule's dataflow.**  A read names the MEM word it
  reads, every other op the values it consumes: the values of its
  operands' rows as the scheduler delivered them, or a constant where the
  schedule delivers nothing (the leading rows of a temporal shift).  Ops
  are kept in the order the chip performs them.
* **Binding is a gather.**  Which ops read no run-time input is decided
  once per plan (:attr:`ReplayPlan.recipe`); :meth:`ReplayPlan.bind`
  gathers their constants from one program's memory image, so a bound
  plan costs per replay only what its inputs reach.  A constant that
  would reach what the plan cannot express (an input-derived weight
  install) fails closed, once per schedule.
* **The program text decides.**  A program holding an instruction outside
  the plan's straight-line ISA (``Gather``, ``Scatter``, ``Config``, C2C
  transfers, ``LW``, the barrier and fetch instructions) gets no plan from
  the scheduler; the dispatch list and the cycle count are read off the
  program.  A C2C transfer's planner
  (:func:`repro.compiler.partition.build_ring_transfer`) writes each
  chip's plan itself: its ``read`` ops, drives and :attr:`ReplayPlan.links`,
  counted like any plan's; the words it moves land by the transfer's own
  word map, so no op computes them.
* **The activity is counted, then checked.**  Every counter but the hop
  count tallies the ops, and the hop count sweeps the drives;
  :func:`repro.verify.lockstep.run_lockstep` holds both to a simulation.
* **Bypass predicate.**  :func:`replay_allowed` reads the chip's state
  record (:data:`repro.sim.chip.STATE`): any instrument set refuses (an
  instrument watches or steers a run as it goes — an armed event, a
  watchdog), and so does a unit fault the run touches
  (:meth:`ReplayPlan.touches`) — a dead MEM slice in the plan's
  footprint, an error model on a C2C link it drives, powered-down
  superlanes — so a chip degraded around a dead slice still replays.  A
  telemetry collector is no instrument: it is charged with what ran, and
  a plan's dispatches and drives are what its run would run.

A program of ``n`` passes (:mod:`repro.compiler.repeat`) keeps its
pass's plan: :attr:`ReplayPlan.passes` bindings make one run, and
:meth:`ScheduleRecorder.finish` counts the prologue's ops once and the
pass's ``n`` times.

What a replay reproduces is what a caller reads back from a run: its
:class:`~repro.sim.chip.RunResult` (outputs, cycles, instructions,
activity, dispatch trace) plus the SRAM words it writes.  The finished
plan carries the exact cycle and dispatch counts and the activity-counter
delta, and reads its dispatch trace off the program when a replay that
keeps dispatches first asks — all of them functions of the schedule — and
:meth:`ReplayPlan.charge` is the one place a replayed run lands on a chip,
its telemetry collector included.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..arch.geometry import Direction
from ..arch.power import ActivityCounts
from ..arch.streams import DType, pack_tensor, unpack_tensor
from ..errors import SimulationError
from ..isa.icu import Nop
from ..isa.mem import Read, Write
from ..isa.mxm import Accumulate, ActivationBufferControl, InstallWeights
from ..isa.sxm import Distribute, Permute, Rotate, Select, Shift, Transpose
from ..isa.vxm import BinaryOp, Convert, UnaryOp
from . import alu
from .c2c import C2cLink
from .chip import INSTRUMENT, RunResult, TraceEvent
from .memory import MemSliceUnit
from .tracer import instruction_duration

#: the instructions a plan can stand in for: what the stream compiler
#: emits, less the data-dependent ``Gather``
_PLANNED = frozenset((
    Read, Write,
    UnaryOp, BinaryOp, Convert,
    Shift, Select, Permute, Distribute, Rotate, Transpose,
    InstallWeights, ActivationBufferControl, Accumulate,
    Nop,
))


def issue_order(program, timing, config,
                barrier: int | None = None) -> list[TraceEvent]:
    """The :class:`~repro.sim.chip.TraceEvent` of every dispatch of a
    straight-line ``program``, in the order the chip dispatches them.

    Each queue issues an instruction a cycle (a ``NOP n`` holds it ``n``),
    and in one cycle the queues go in program order.  With ``barrier`` —
    the post-reset barrier's release latency — every queue first parks on
    a ``Sync`` that the first queue's ``Notify`` releases, and the program
    starts there.
    """
    from .icu import RESET_SEQUENCE

    issued = []
    start = barrier or 0
    notify, sync = RESET_SEQUENCE
    for index, icu in enumerate(program.icus):
        t = start
        if barrier is not None:
            issued.append((0, index, icu, notify if index == 0 else sync))
            if index == 0:
                issued.append((1, 0, icu, sync))
        for instruction in program.queue(icu):
            issued.append((t, index, icu, instruction))
            t += max(instruction.count, 1) if isinstance(instruction, Nop) else 1
    issued.sort(key=lambda dispatch: dispatch[:2])
    return [
        TraceEvent(t, str(icu), icu, instruction,
                   instruction_duration(instruction, timing, config))
        for t, _i, icu, instruction in issued
    ]


def _words(spec) -> list[tuple[int, int, tuple]]:
    """``(byte plane, row, MEM word)`` of every word a tensor occupies."""
    n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
    return [
        (p, j, spec.layout.address_of(p, j))
        for p in range(n_planes) for j in range(spec.n_vectors)
    ]


def emitted_plan(config, timing, program, cycles: int, ops: list,
                 n_slots: int, inputs: dict, outputs: dict,
                 image_words: list, drives: list, n_positions: int):
    """The finished plan of a schedule whose lowerings emitted ``ops`` and
    ``drives`` over ``n_positions`` stream-register positions, or None
    when its program holds an instruction no plan stands in for."""
    if any(
        type(instruction) not in _PLANNED
        for icu in program.icus for instruction in program.queue(icu)
    ):
        return None
    return ScheduleRecorder(ReplayPlan(
        config=config,
        timing=timing,
        program=program,
        cycles=cycles,
        ops=ops,
        n_slots=n_slots,
        in_words=[
            (name, p, j, key)
            for name, spec in inputs.items() for p, j, key in _words(spec)
        ],
        out_words={
            name: [("t", key) for _p, _j, key in _words(spec)]
            for name, spec in outputs.items()
        },
        inputs=dict(inputs),
        outputs=dict(outputs),
        image_words=image_words,
        drives=drives,
        n_positions=n_positions,
    ), warmup_barrier=False).finish()


def flights(drives: list, n_positions: int, cycles: int):
    """``(direction, cycle, hops, occupancy)`` of the value each of
    ``drives`` puts on a stream register, over ``n_positions`` positions
    in a run of ``cycles``: driven at ``cycle``, it occupies a register a
    cycle and hops on until it leaves the die (its last cycle, no hop),
    the run ends or a later drive on its stream and moving-frame
    diagonal overwrites it."""
    until: dict[tuple, int] = {}  # (direction, stream, diagonal) -> cycle
    eastward = Direction.EASTWARD
    for direction, stream, position, t in sorted(
        drives, key=lambda drive: drive[3], reverse=True
    ):
        east = direction is eastward
        key = (east, stream, t - position if east else t + position)
        edge = n_positions - 1 - position if east else position
        span = until.get(key, cycles) - t
        until[key] = t
        yield direction, t, min(edge, span), min(edge + 1, span)


class ScheduleRecorder:
    """Finishes a schedule's plan — counts what a run of it leaves on the
    chip's counters — from its ops, its drives and its program text.

    The name is from when a plan was finished by its first simulated run;
    it stays because the benchmark's layer tracer counts :meth:`finish`.
    """

    def __init__(self, plan: "ReplayPlan", *, warmup_barrier: bool) -> None:
        self.plan = plan
        self.warmup_barrier = warmup_barrier

    def finish(self) -> "ReplayPlan":
        """The plan — emitted, or finished without the barrier — finished
        for runs with or without it; :meth:`ReplayPlan.bind` it to a
        program before running it.

        A read or a write moves one vector, a VXM op is an ALU op per
        lane, a route moves one vector through the SXM and a ``dot`` is
        one pass through its install's ``rows × cols`` plane; the barrier
        adds cycles and dispatches, and drives nothing.
        """
        plan = self.plan
        barrier = (
            plan.config.barrier_latency_cycles if self.warmup_barrier
            else None
        )
        if barrier is not None and barrier < 2:
            return replace(plan, ok=False, ops=[], reason=f"a {barrier}-"
                           "cycle barrier overlaps its own Notify and Sync")
        cycles, drives = plan.cycles, plan.drives
        if barrier is not None:  # the run starts at the barrier's release
            cycles += barrier
            drives = [(d, s, p, t + barrier) for d, s, p, t in drives]
        lanes, tally = plan.lanes, Counter()
        times = [plan.passes if each else 1 for each in plan.body] or (
            [1] * len(plan.ops)
        )
        for op, n in zip(plan.ops, times):
            tally[op[0]] += n
        plane = {op[1]: op[3] * op[4] for op in plan.ops if op[0] == "install"}
        icus = plan.program.icus
        # a barrier parks every queue on a Sync, and the first queue also
        # dispatches the Notify that releases them (:func:`issue_order`)
        dispatches = sum(len(plan.program.queue(icu)) for icu in icus) + (
            0 if barrier is None else len(icus) + 1
        )
        return replace(
            plan, cycles=cycles, drives=drives,
            warmup_barrier=self.warmup_barrier,
            activity=ActivityCounts(
                cycles=cycles,
                macc_ops=sum(
                    plane[op[4][1]] * n
                    for op, n in zip(plan.ops, times) if op[0] == "dot"
                ),
                alu_ops=lanes * (tally["vxm1"] + tally["vxm2"]
                                 + tally["vxmc"]),
                sram_read_bytes=lanes * tally["read"],
                sram_write_bytes=lanes * (tally["write"] + tally["wconst"]),
                stream_hop_bytes=lanes * sum(
                    hops for _d, _t, hops, _o
                    in flights(drives, plan.n_positions, cycles)
                ),
                sxm_bytes=lanes * tally["route"],
                instructions=dispatches,
            ),
        )


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

#: the activity counters a charge adds to: all but the hop bytes, which
#: the chip's register file keeps
_COUNTED = tuple(f.name for f in fields(ActivityCounts)
                 if f.name != "stream_hop_bytes")


def _load(values: list, ref: tuple) -> np.ndarray:
    return values[ref[1]] if ref[0] == "s" else ref[1]


def _rows(values: list, ref: tuple, B: int) -> np.ndarray:
    """A ref over the batch: a slot as stored, a recorded constant (one
    lane vector, the same for every input) broadcast to ``(B, lanes)``."""
    value = _load(values, ref)
    if value.ndim == 2:
        return value
    return np.broadcast_to(value, (B, value.shape[0]))


def _join_refs(values: list, refs: list, dtype: DType, B: int) -> np.ndarray:
    stacked = np.stack([_rows(values, r, B) for r in refs], axis=2)
    return np.ascontiguousarray(stacked).view(dtype.numpy_dtype)\
        .reshape(B, -1)


def _store_planes(values: list, z: np.ndarray, out_dtype: DType,
                  slots: list) -> None:
    arr = np.ascontiguousarray(z, dtype=out_dtype.numpy_dtype)
    raw = arr.view(np.uint8).reshape(
        arr.shape[0], arr.shape[1], out_dtype.n_bytes
    )
    for b, slot in enumerate(slots):
        values[slot] = np.ascontiguousarray(raw[:, :, b])


#: per op tag, the fields holding one ref and the fields holding a list of
#: refs; ``read`` and ``wconst`` name MEM words, not refs
_REF_FIELDS = {
    "write": ((2,), ()),
    "vxm1": ((), (3,)),
    "vxm2": ((), (3, 4)),
    "vxmc": ((), (4,)),
    "route": ((), (2,)),
    "dot": ((), (5,)),
    "acc": ((2, 3), ()),
    "emit": ((2,), ()),
    "install": ((), (5,)),
}


#: per computing op tag, the field holding the slot (or slots) it fills
_OUT_FIELD = {"vxm1": 5, "vxm2": 6, "vxmc": 6, "route": 1, "dot": 1,
              "acc": 1, "emit": 1}


def _map_refs(op: tuple, f) -> tuple:
    """``op`` with every ref it consumes replaced by ``f(ref)``."""
    singles, lists = _REF_FIELDS[op[0]]
    mapped = list(op)
    for i in singles:
        mapped[i] = f(op[i])
    for i in lists:
        mapped[i] = [f(r) for r in op[i]]
    return tuple(mapped)


def _widen(dtype: DType, rows: int, cols: int, fed: np.ndarray) -> np.ndarray:
    """The weights an ``IW`` of constant words ``fed`` installs, at
    accumulator width — what :class:`~repro.sim.mxm.MxmPlane` keeps as
    ``wide``."""
    raw = fed.reshape(-1)[: rows * cols * dtype.n_bytes]
    if dtype is DType.FP16:
        return raw.view(np.float16).reshape(rows, cols).astype(np.float32)
    return raw.view(np.int8).reshape(rows, cols).astype(np.int64)


@dataclass
class BindRecipe:
    """How a plan binds to a memory image (:attr:`ReplayPlan.recipe`).
    Until then a constant is a placeholder ref: ``("i", row)`` for image
    row ``row``, ``("k", slot)`` for what an op of ``pre`` computes."""

    #: why no image binds (an input-derived weight install), or None
    reason: str | None = None
    #: ``(slot, dtype, rows, cols, image rows widened)`` per ``IW``
    installs: list = field(default_factory=list)
    #: the constant-only ops other than reads, run once per bind
    pre: list = field(default_factory=list)
    #: the bound plan's ops and output words, and which ops a bind fills
    #: (those holding a placeholder, and every ``dot``: its weights)
    ops: list = field(default_factory=list)
    holes: list = field(default_factory=list)
    out_words: dict = field(default_factory=dict)


@dataclass
class ReplayPlan:
    """The execution plan of a schedule, or of one program of it.

    The scheduler emits the schedule's plan, whose inputs include the
    memory image, and :meth:`ScheduleRecorder.finish` counts its activity;
    :meth:`bind` turns it into one program's plan, whose only inputs are
    the run-time input tensors.  Only a bound plan runs.
    """

    config: object
    timing: object
    #: the straight-line program the plan stands in for
    program: object = field(repr=False)
    cycles: int
    ops: list = field(repr=False, default_factory=list)
    n_slots: int = 0
    in_words: list = field(repr=False, default_factory=list)
    out_words: dict = field(repr=False, default_factory=dict)
    inputs: dict = field(repr=False, default_factory=dict)
    outputs: dict = field(repr=False, default_factory=dict)
    #: ``(hemisphere, slice, address)`` of each memory-image row, in order
    image_words: list = field(repr=False, default_factory=list)
    #: ``(direction, stream, position, cycle)`` of every stream drive,
    #: over ``n_positions`` stream-register positions
    drives: list = field(repr=False, default_factory=list)
    n_positions: int = 0
    #: ``(hemisphere, link) -> (deskews, sends, receives)`` of each C2C
    #: link a run drives: a transfer's (:mod:`repro.compiler.partition`)
    links: dict = field(repr=False, default_factory=dict)
    #: what a run of the program leaves on the chip's counters, counted
    #: by :meth:`ScheduleRecorder.finish`; None until then
    activity: object = None
    warmup_barrier: bool = False
    ok: bool = True
    reason: str | None = None
    #: passes one run makes (:mod:`repro.compiler.repeat`): a run takes
    #: one input binding per pass, pass ``k``'s MEM words ``k * stride``
    #: above pass 0's, and performs the ops ``body`` marks once a pass
    #: (every op once when ``body`` is empty)
    passes: int = 1
    stride: int = 0
    body: tuple = field(repr=False, default=())

    @property
    def lanes(self) -> int:
        return self.config.n_lanes

    @property
    def final_now(self) -> int:
        """``chip.now`` after a run: its last cycle."""
        return self.cycles - 1

    @functools.cached_property
    def trace(self) -> list[TraceEvent]:
        """Every dispatch of a run, in order, read off the program on
        first use (only a trace-enabled replay ever asks)."""
        return issue_order(
            self.program, self.timing, self.config,
            self.config.barrier_latency_cycles if self.warmup_barrier
            else None,
        )

    @functools.cached_property
    def footprint(self) -> frozenset:
        """``(hemisphere, slice)`` of each MEM slice a real run touches:
        its ops' words, and the inputs, image and outputs the host moves."""
        words = [op[2] if op[0] == "read" else op[1] for op in self.ops
                 if op[0] in ("read", "write", "wconst")]
        words += [key for *_, key in self.in_words] + self.image_words
        words += [key for out in self.out_words.values()
                  for kind, key in out if kind == "t"]
        return frozenset(key[:2] for key in words)

    def touches(self, part) -> bool:
        """Whether a run touches ``part`` of a chip: the MEM slices of its
        :attr:`footprint`, the C2C links of :attr:`links`, and the rest
        always — every plan streams, on every superlane."""
        if isinstance(part, MemSliceUnit):
            address = part.address
            return (address.hemisphere, address.index) in self.footprint
        if isinstance(part, C2cLink):
            return (part.hemisphere, part.index) in self.links
        return True

    # -- kernel interpreter ------------------------------------------------

    def _execute_ops(self, ops, values, mem_read, mem_write, B: int) -> None:
        """Run ``ops`` over a leading batch axis of ``B`` inputs.

        The one interpreter behind both front ends and :meth:`bind`:
        ``mem_read(key)`` returns a ``(B, lanes)`` word,
        ``mem_write(key, vector, is_const)`` takes one back (a recorded
        constant stays one lane vector), and every slot in between holds
        ``B`` rows.
        """
        lanes = self.lanes
        for op in ops:
            tag = op[0]
            if tag == "read":
                _, slot, key = op
                values[slot] = mem_read(key)
            elif tag == "write":
                _, key, ref = op
                mem_write(key, _load(values, ref), False)
            elif tag == "wconst":
                _, key, data = op
                mem_write(key, data, True)
            elif tag == "vxm1":
                _, alu_op, dtype, in_refs, out_dtype, slots = op
                x = _join_refs(values, in_refs, dtype, B)
                z = alu.apply_unary(alu_op, dtype, x)
                _store_planes(values, z, out_dtype, slots)
            elif tag == "vxm2":
                _, alu_op, dtype, x_refs, y_refs, out_dtype, slots = op
                x = _join_refs(values, x_refs, dtype, B)
                y = _join_refs(values, y_refs, dtype, B)
                z = alu.apply_binary(alu_op, dtype, x, y)
                _store_planes(values, z, out_dtype, slots)
            elif tag == "vxmc":
                _, from_dtype, to_dtype, scale, in_refs, out_dtype, slots = op
                x = _join_refs(values, in_refs, from_dtype, B)
                z = alu.apply_convert(from_dtype, to_dtype, scale, x)
                _store_planes(values, z, out_dtype, slots)
            elif tag == "route":
                _, slot, in_refs, src_input, src_lane, zero_mask = op
                if src_input is None:
                    out = _rows(values, in_refs[0], B)[:, src_lane]
                else:
                    stacked = np.stack(
                        [_rows(values, r, B) for r in in_refs], axis=1
                    )
                    out = stacked[:, src_input, src_lane]
                if zero_mask is not None:
                    out[:, zero_mask] = 0
                values[slot] = out
            elif tag == "dot":
                _, slot, dtype, rows, w, refs = op
                if dtype is DType.FP16:
                    a = _join_refs(values, refs[:2], dtype, B)[:, :rows]\
                        .astype(np.float32)
                    # a matrix-vector product per input, as the MXM
                    # computes it: one (B, K) @ (K, M) product may round
                    # in another order
                    values[slot] = np.stack(
                        [w.T @ row for row in a]
                    ).astype(np.float64)
                else:
                    p0 = np.ascontiguousarray(_rows(values, refs[0], B))
                    a = p0.view(np.int8)[:, :rows].astype(np.int64)
                    values[slot] = a @ w
            elif tag == "acc":
                _, out_slot, ref_a, ref_b = op
                values[out_slot] = _load(values, ref_a) + _load(values, ref_b)
            elif tag == "emit":
                _, slots, ref, out_dtype = op
                value = _load(values, ref)
                if out_dtype is DType.INT32:
                    narrowed = np.clip(
                        value, -(2 ** 31), 2 ** 31 - 1
                    ).astype(np.int32)
                else:
                    narrowed = value.astype(np.float32)
                padded = np.zeros((B, lanes), dtype=narrowed.dtype)
                n = min(narrowed.shape[1], lanes)
                padded[:, :n] = narrowed[:, :n]
                _store_planes(values, padded, out_dtype, slots)
            else:  # pragma: no cover - lowerings and interpreter move together
                raise SimulationError(f"unknown replay op {tag!r}")

    # -- binding -----------------------------------------------------------

    @functools.cached_property
    def recipe(self) -> BindRecipe:
        """How this plan binds to a memory image: a function of the
        schedule, not of the bytes bound, so walked once per plan."""
        mem = {key: ("i", row) for row, key in enumerate(self.image_words)}
        const: dict[int, tuple] = {}  # slot -> placeholder or ("c", value)
        recipe, kinds = BindRecipe(), set()

        def source(ref):
            if ref[0] == "s":
                ref = const.get(ref[1], ref)
            kinds.add(ref[0])
            return ref

        for op in self.ops:
            tag = op[0]
            if tag == "read" and op[2] in mem:
                const[op[1]] = mem[op[2]]
                continue
            if tag in ("read", "wconst"):
                if tag == "wconst":
                    mem[op[1]] = ("c", op[2])
                recipe.ops.append(op)
                continue
            kinds.clear()
            mapped = _map_refs(op, source)
            if tag == "install":
                if kinds != {"i"}:
                    return BindRecipe(reason="input-derived IW weight install"
                                      if "s" in kinds
                                      else "IW weights off the memory image")
                recipe.installs.append(
                    op[1:5] + (np.array([ref[1] for ref in mapped[5]]),)
                )
            elif "s" not in kinds and tag == "write":
                mem[op[1]] = mapped[2]
                recipe.holes.append(len(recipe.ops))
                recipe.ops.append(("wconst", op[1], mapped[2]))
            elif "s" not in kinds:
                recipe.pre.append(_map_refs(
                    mapped, lambda r: ("s", r[1]) if r[0] == "k" else r
                ))
                out = op[_OUT_FIELD[tag]]
                for slot in out if isinstance(out, list) else (out,):
                    const[slot] = ("k", slot)
            else:
                if tag == "write":
                    mem.pop(op[1], None)
                if tag == "dot" or kinds & {"i", "k"}:
                    recipe.holes.append(len(recipe.ops))
                recipe.ops.append(mapped)
        recipe.out_words = {
            name: [
                mem.get(payload, (kind, payload)) if kind == "t"
                else (kind, payload)
                for kind, payload in words
            ]
            for name, words in self.out_words.items()
        }
        return recipe

    def bind(self, image: np.ndarray) -> "ReplayPlan":
        """This schedule plan for the program whose memory image is
        ``image`` (a ``(lanes,)`` uint8 row per word of ``image_words``).

        A gather over :attr:`recipe`: each weight install widens the rows
        it reads, the constant-only ops that are not reads (a matmul
        program has none) run once through the interpreter, and each
        placeholder becomes the one-lane constant it stands for.
        """
        if not self.ok:
            return self
        recipe = self.recipe
        if recipe.reason is not None:
            return replace(self, ok=False, ops=[], reason=recipe.reason)
        weights = {
            slot: _widen(dtype, rows, cols, image[gather])
            for slot, dtype, rows, cols, gather in recipe.installs
        }
        values: dict[int, np.ndarray] = {}  # slot -> (1, ...) value

        def fill(ref):
            if ref[0] == "i":
                return ("c", image[ref[1]])
            if ref[0] == "k":
                return ("c", values[ref[1]][0])
            return ref

        def fill_op(op):
            if op[0] == "wconst":
                return ("wconst", op[1], fill(op[2])[1])
            op = _map_refs(op, fill)
            if op[0] == "dot":
                return op[:4] + (weights[op[4][1]],) + op[5:]
            return op

        if recipe.pre:
            self._execute_ops(
                [fill_op(op) for op in recipe.pre], values, None, None, 1
            )
        ops = list(recipe.ops)
        for i in recipe.holes:
            ops[i] = fill_op(ops[i])
        out_words = {
            name: [fill(word) for word in words]
            for name, words in recipe.out_words.items()
        }
        return replace(self, ops=ops, out_words=out_words)

    def charge(self, chip, runs: int) -> None:
        """Land ``runs`` back-to-back executions on ``chip``: everything
        but SRAM that that many real runs would have left there —
        activity, hop bytes, the dispatches when the chip keeps them, a
        charge of its telemetry collector per run, the counters of the
        C2C links it drives (an exact link: no error model, which
        refuses the plan) and ``chip.now``.
        Both replay entry points land here.  The one exception is the
        MXM install record (``weights_installed_bytes``,
        ``weights_installed_cycle``): a replay leaves it untouched, so a
        run that reads it must simulate (``execute(..., replay=False)``)."""
        for name in _COUNTED:
            setattr(chip.activity, name, getattr(chip.activity, name)
                    + getattr(self.activity, name) * runs)
        chip.srf.hop_bytes_total += self.activity.stream_hop_bytes * runs
        chip.activity.stream_hop_bytes = chip.srf.hop_bytes_total
        if chip.keeps_dispatches:
            chip.trace.extend(self.trace * runs)
        if chip.obs is not None:
            for _ in range(runs):
                chip.obs.charge(self.trace, self.drives, self.cycles)
        for (hemisphere, index), counts in self.links.items():
            deskews, sends, receives = (n * runs for n in counts)
            link = chip.c2c_unit(hemisphere).links[index]
            if deskews:
                link.deskewed = True
                link.deskew_epoch += deskews
            link.tx_seq += sends
            link.sent_vectors += sends
            link.received_vectors += receives
        chip.now = self.final_now

    def run_result(self, chip) -> RunResult:
        """One replayed run's :class:`RunResult` on ``chip`` (or on none);
        a replay walks no cycle, so every one of them counts as skipped."""
        traced = chip is not None and chip.keeps_dispatches
        return RunResult(
            cycles=self.cycles,
            instructions=self.activity.instructions,
            activity=self.activity.copy(),
            trace=list(self.trace) if traced else [],
            ecc_corrections=0,
            skipped_cycles=self.cycles,
        )

    # -- write-through single-input replay ---------------------------------

    def replay_into(self, chip) -> RunResult:
        """Apply the plan to ``chip`` exactly as ``chip.run`` would have.

        Memory effects and ECC check storage land here, the rest through
        :meth:`charge`; the caller binds inputs beforehand and fetches
        outputs afterwards exactly as for a real run.  The ops run through
        the batched kernels as a batch of one: a word read is lifted to
        ``(1, lanes)`` and a computed word's row 0 is written through.
        """
        chip.begin_run()
        unit = functools.cache(chip.mem_unit)
        ecc = chip.srf_ecc_enabled
        # a bound plan's MEM words are its pass's: pass k's sit k strides up
        shift = 0

        def mem_read(key):
            return unit(key[0], key[1]).storage[key[2] + shift].copy()[None]

        def mem_write(key, vector, is_const):
            u = unit(key[0], key[1])
            u.storage[key[2] + shift] = vector if is_const else vector[0]
            if ecc:
                u._store_checks(key[2] + shift)

        for k in range(self.passes):
            shift = k * self.stride
            self._execute_ops(
                self.ops, [None] * self.n_slots, mem_read, mem_write, 1
            )
        self.charge(chip, 1)
        return self.run_result(chip)

    # -- pure batched replay -----------------------------------------------

    def run_batched(self, inputs_list: list[dict]) -> list[dict]:
        """Evaluate B input bindings in one pass; the chip is untouched.

        Returns one ``{name: tensor}`` output dict per input binding,
        bit-identical to B sequential executions.
        """
        B = len(inputs_list)
        lanes = self.lanes
        packed: dict[str, np.ndarray] = {}
        for name, spec in self.inputs.items():
            mats = []
            for bound in inputs_list:
                if name not in bound:
                    raise SimulationError(
                        f"batched replay missing input {name!r}"
                    )
                planes = pack_tensor(bound[name], spec.dtype, lanes)
                if planes.shape[1] != spec.n_vectors:
                    raise SimulationError(
                        f"input {name!r}: expected {spec.n_vectors} "
                        f"vectors, got {planes.shape[1]}"
                    )
                mats.append(planes)
            packed[name] = np.stack(mats)  # (B, n_bytes, n_vectors, lanes)

        overlay: dict[tuple, np.ndarray] = {}
        for name, p, j, key in self.in_words:
            overlay[key] = packed[name][:, p, j, :]

        def mem_read(key):
            value = overlay.get(key)
            if value is None:
                raise SimulationError(f"batched replay read of unbound {key}")
            return value

        def mem_write(key, vector, is_const):
            if not is_const:
                overlay[key] = vector

        self._execute_ops(
            self.ops, [None] * self.n_slots, mem_read, mem_write, B
        )

        stacked_out: dict[str, np.ndarray] = {}
        for name, spec in self.outputs.items():
            n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
            arr = np.zeros((B, n_planes, spec.n_vectors, lanes),
                           dtype=np.uint8)
            i = 0
            for p in range(n_planes):
                for j in range(spec.n_vectors):
                    kind, payload = self.out_words[name][i]
                    i += 1
                    if kind == "c":
                        arr[:, p, j, :] = payload
                    else:
                        arr[:, p, j, :] = overlay[payload]
            stacked_out[name] = arr
        return [
            {
                name: unpack_tensor(
                    stacked_out[name][b], spec.dtype, spec.length
                )
                for name, spec in self.outputs.items()
            }
            for b in range(B)
        ]


# ---------------------------------------------------------------------------
# bypass predicate
# ---------------------------------------------------------------------------


def _refusal(plan: ReplayPlan, chip) -> str | None:
    """The state that makes ``chip`` simulate ``plan`` — a set instrument,
    or a set unit fault on a part a run of the plan touches — or None."""
    for part, name, tag in chip.watched:
        if getattr(part, name) and (tag == INSTRUMENT or plan.touches(part)):
            return name
    return None


def replay_allowed(plan: ReplayPlan | None, chip, *, max_cycles: int,
                   warmup_barrier: bool) -> bool:
    """May ``plan`` stand in for a real ``chip.run`` right now?

    ``chip`` is ``None`` for a pure batched evaluation, which touches no
    chip: only the plan's own bounds can refuse it.
    """
    if plan is None or not plan.ok:
        return False
    if plan.cycles > max_cycles:
        return False
    if warmup_barrier != plan.warmup_barrier:
        return False
    if chip is None:
        return True
    if chip.config is not plan.config and chip.config != plan.config:
        return False
    if chip.timing is not plan.timing and chip.timing != plan.timing:
        return False
    return _refusal(plan, chip) is None

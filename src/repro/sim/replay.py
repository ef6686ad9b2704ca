"""Deterministic schedule replay: record a schedule's plan once, re-run data.

The TSP has no dynamic behaviour (paper Sections I, IV-F): the compiler
knows the cycle-exact schedule ahead of time, so a program's execution is a
pure *plan* over which only data varies — and since a
:class:`~repro.compiler.schedule.Schedule` is a function of shape alone,
so is the plan.  This module exploits that literally.  On the first clean
execution of any program of a schedule, a :class:`ScheduleRecorder` hooks
the simulator and folds the resolved operation stream into a linear
:class:`ReplayPlan` of fused numpy kernels whose inputs are the run-time
input tensors *and* the memory image.  :meth:`ReplayPlan.bind` specialises
it to one program's memory image; every later execution of every program
of the schedule runs a bound plan directly — no ICU queues, no event heap,
no per-cycle SRF stepping.  One interpreter runs the kernels, always along
a leading batch axis: the pure entry point evaluates B inputs in one pass,
the write-through one is a batch of one whose words come from and go back
to a chip's SRAM.

Correctness strategy (fail closed):

* **Taint-based dataflow.**  The words holding program inputs and the
  words of the memory image both seed a taint set: they are the plan's
  inputs.  Values derived from tainted words (through streams, the
  VXM/SXM/MXM — a weight install included — or MEM round-trips) are
  recorded as dataflow ops over *slots*; everything else is the same for
  every program of the schedule and folds to the constant observed during
  recording.  A read of a word that is neither tainted nor written with a
  constant earlier in the run marks the plan unsupported, so replay never
  bakes in stale tenant state.
* **Binding is partial evaluation.**  :meth:`ReplayPlan.bind` runs every
  op that depends on no run-time input once, on one program's memory
  image, and folds its value into the ops that remain — the same
  one-lane-vector constants the recorder folds — so a bound plan is the
  plan that recording that very program would have produced.  A constant
  that would have to reach something the plan cannot express (an
  input-derived weight install, an ``LW`` staging load) fails closed.
* **Diagonal provenance.**  A stream value driven at position ``p`` on
  cycle ``c`` flows along the diagonal ``c - p`` (eastward; ``c + p``
  westward).  Producers of tainted values *announce* their drives;
  consumers resolve a captured value to the announced entry with the
  largest drive cycle ``<=`` the capture cycle, or fold it to a constant.
  Constant drives landing on a tainted diagonal register shadow entries so
  later constants correctly occlude earlier tainted values.
* **ISA whitelist.**  Any dispatch outside the supported set (``Gather``,
  ``Scatter``, ``Config``, C2C transfers) marks the plan unsupported; the
  recording run itself is never disturbed.
* **Bypass predicate.**  :func:`replay_allowed` refuses to replay onto a
  chip with checkers, a telemetry collector, armed watchdogs, error
  models, dead slices, injected faults, events armed for the next run,
  disabled superlanes or attached hardware-fault hooks — faulty runs need
  the real machine, and an instrument observes only a run it watched.

What a replay reproduces is what a caller reads back from a run: its
:class:`~repro.sim.chip.RunResult` (outputs, cycles, instructions,
activity, dispatch trace) plus the SRAM words it writes.  The plan carries
the recorded dispatches (formatted into trace events on the first
trace-enabled replay), the exact cycle count and the activity-counter
delta — all of them functions of the schedule — and
:meth:`ReplayPlan.charge` is the one place a replayed run lands on a chip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from collections import deque
from typing import Any, Callable

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..arch.streams import DType, pack_tensor, unpack_tensor
from ..errors import SimulationError
from ..isa.icu import Ifetch, Nop, Notify, Repeat, Sync
from ..isa.mem import Read, Write
from ..isa.mxm import (
    Accumulate,
    ActivationBufferControl,
    InstallWeights,
    LoadWeights,
)
from ..isa.sxm import Distribute, Permute, Rotate, Select, Shift, Transpose
from ..isa.vxm import BinaryOp, Convert, UnaryOp
from . import alu
from .chip import RunResult, TraceEvent

_EAST = Direction.EASTWARD

#: instruction classes whose simulation effects the recorder understands.
#: ``Config`` is deliberately absent (it flips superlane power mid-run,
#: which would invalidate the recorded lane masks), as are Gather/Scatter
#: (data-dependent addressing) and the C2C transfer set.
_SUPPORTED = frozenset((
    Read, Write,
    UnaryOp, BinaryOp, Convert,
    Shift, Select, Permute, Distribute, Rotate, Transpose,
    LoadWeights, InstallWeights, ActivationBufferControl, Accumulate,
    Nop, Sync, Notify, Ifetch, Repeat,
))


def _diag_key(direction: Direction, stream: int, cycle: int,
              position: int) -> tuple:
    """(dir index, stream, diagonal) of a value at ``position`` on ``cycle``
    — an identity test, not an enum hash, picks the direction."""
    if direction is _EAST:
        return 0, stream, cycle - position
    return 1, stream, cycle + position


def probe_gather(
    transform: Callable[[np.ndarray], np.ndarray], lanes: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Derive the (src_lane, zero_mask) of a pure gather-with-zero-fill.

    SXM shifts/permutes/distributes are data-independent lane gathers that
    may zero-fill some outputs.  Probing with the low and high bytes of
    ``lane_index + 1`` recovers the mapping; a third probe verifies the
    transform really is a gather (anything else marks it unusable).
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
        return None
    return src, (zero if bool(zero.any()) else None)


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------


class ScheduleRecorder:
    """Hooks the simulator during one run and folds it into a ReplayPlan.

    Attach via ``chip.recorder`` *before* ``chip.run``; call
    :meth:`finish` with the returned :class:`RunResult` afterwards.  The
    recorder never alters the recorded run — on anything it cannot prove
    a function of the plan's inputs it flips to ``failed`` and keeps
    mirroring cheaply so the run completes untouched.
    """

    def __init__(self, chip, compiled, *, warmup_barrier: bool) -> None:
        self.chip = chip
        self.compiled = compiled
        self.warmup_barrier = warmup_barrier
        self.failed: str | None = None
        self.lanes = chip.config.n_lanes
        self.ops: list[tuple] = []
        self.n_slots = 0
        # word keys holding a plan input (a run-time input or a memory-image
        # word) or a value derived from one right now
        self.tainted: set[tuple] = set()
        # word keys written with a constant during the run: a read of one
        # folds to what the recording observed
        self.known: set[tuple] = set()
        self.in_words: list[tuple] = []
        # (dir_idx, stream, diagonal) -> [(drive_cycle, slot | None)]
        self._diag: dict[tuple, list] = {}
        # (position, cycle, dir_idx, stream) drives already announced
        self._announced: set[tuple] = set()
        # id(plane) -> deque of pending result refs (None == constant)
        self._mxm_results: dict[int, deque] = {}
        # (id(plane), acc slot) -> ref | None for live accumulators
        self._mxm_acc: dict[tuple, Any] = {}
        # id(plane) -> slot ref of its recorded weight install; a plane
        # absent here computes with weights that fold to a constant
        self._mxm_weights: dict[int, tuple] = {}
        #: raw (cycle, queue name, instruction) per dispatch — no text is
        #: formatted unless a trace-enabled replay asks for it
        self.dispatches: list[tuple] = []
        self.pending_emit: Any = None
        self._corr_start = chip.srf.corrections
        for name, spec in compiled.inputs.items():
            n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
            for p in range(n_planes):
                for j in range(spec.n_vectors):
                    hem, s, a = spec.layout.address_of(p, j)
                    key = (hem, s, a)
                    self.tainted.add(key)
                    self.in_words.append((name, p, j, key))
        for word in compiled.memory_image:
            self.tainted.add((word.hemisphere, word.slice_index, word.address))

    # -- plumbing ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.failed is None

    def fail(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def resolve(self, cycle: int, direction: Direction, stream: int,
                position: int, value: np.ndarray) -> tuple:
        """Map a captured stream value to a slot ref or fold a constant."""
        entries = self._diag.get(_diag_key(direction, stream, cycle, position))
        if entries:
            best_c = -1
            best_ref = None
            for c0, ref in entries:
                if c0 <= cycle and c0 > best_c:
                    best_c = c0
                    best_ref = ref
            if best_ref is not None:
                return ("s", best_ref)
        return ("c", np.asarray(value, dtype=np.uint8).copy())

    def announce(self, position: int, cycle: int, direction: Direction,
                 stream: int, slot: int) -> None:
        """Register a tainted drive scheduled for (cycle, direction, stream)."""
        if self.failed is not None:
            return
        key = _diag_key(direction, stream, cycle, position)
        self._diag.setdefault(key, []).append((cycle, slot))
        self._announced.add((position, cycle, key[0], stream))

    # -- chip-level hooks --------------------------------------------------

    def on_dispatch(self, name: str, instruction, cycle: int) -> None:
        self.dispatches.append((cycle, name, instruction))
        if self.failed is None and type(instruction) not in _SUPPORTED:
            self.fail(f"unsupported instruction {instruction.mnemonic}")

    def on_drive(self, direction: Direction, stream: int,
                 position: int) -> None:
        """Every SRF drive; shadows tainted diagonals hit by constants."""
        if self.failed is not None:
            return
        cycle = self.chip.now
        key = _diag_key(direction, stream, cycle, position)
        if (position, cycle, key[0], stream) in self._announced:
            return
        entries = self._diag.get(key)
        if entries is not None:
            entries.append((cycle, None))

    # -- MEM ---------------------------------------------------------------

    def mem_read(self, unit, instruction, drive_cycle: int) -> None:
        key = (unit.address.hemisphere, unit.address.index, instruction.address)
        if key in self.tainted:
            slot = self._new_slot()
            self.ops.append(("read", slot, key))
            self.announce(unit.position, drive_cycle, instruction.direction,
                          instruction.stream, slot)
        elif key not in self.known:
            self.fail(f"read of unplaced word {key}")

    def mem_write(self, unit, instruction, sample_cycle: int,
                  vector: np.ndarray) -> None:
        key = (unit.address.hemisphere, unit.address.index, instruction.address)
        ref = self.resolve(sample_cycle, instruction.direction,
                           instruction.stream, unit.position, vector)
        if ref[0] == "s":
            self.ops.append(("write", key, ref))
            self.tainted.add(key)
        else:
            self.ops.append(("wconst", key, ref[1]))
            self.tainted.discard(key)
            self.known.add(key)

    # -- VXM ---------------------------------------------------------------

    def operand_refs(self, unit, sample: int, direction: Direction,
                     base_stream: int, planes: list) -> list:
        return [
            self.resolve(sample, direction, base_stream + k, unit.position,
                         planes[k])
            for k in range(len(planes))
        ]

    def vxm_op(self, unit, op_tuple: tuple, out_dtype: DType, out_cycle: int,
               out_direction: Direction, out_base_stream: int) -> None:
        slots = [self._new_slot() for _ in range(out_dtype.n_streams)]
        self.ops.append(op_tuple + (out_dtype, slots))
        for k, slot in enumerate(slots):
            self.announce(unit.position, out_cycle, out_direction,
                          out_base_stream + k, slot)

    # -- SXM ---------------------------------------------------------------

    def sxm_route(self, unit, in_refs: list, src_input, src_lane, zero_mask,
                  out_cycle: int, out_direction: Direction,
                  out_stream: int) -> None:
        slot = self._new_slot()
        self.ops.append(("route", slot, list(in_refs), src_input, src_lane,
                         zero_mask))
        self.announce(unit.position, out_cycle, out_direction, out_stream,
                      slot)

    # -- MXM ---------------------------------------------------------------

    def mxm_track(self, plane) -> deque:
        q = self._mxm_results.get(id(plane))
        if q is None:
            q = deque()
            self._mxm_results[id(plane)] = q
        return q

    def mxm_install(self, plane, instruction, refs: list) -> None:
        """One ``IW``: ``refs`` of every weight vector it captured, in
        order (none for an install from the ``LW`` buffer, which only
        constants reach)."""
        if all(r[0] == "c" for r in refs):
            self._mxm_weights.pop(id(plane), None)
            return
        slot = self._new_slot()
        self.ops.append(("install", slot, instruction.dtype, instruction.rows,
                         instruction.cols, list(refs)))
        self._mxm_weights[id(plane)] = ("s", slot)

    def mxm_compute(self, plane, dtype: DType, refs: list) -> None:
        q = self.mxm_track(plane)
        weights = self._mxm_weights.get(id(plane))
        if weights is None:
            if all(r[0] == "c" for r in refs):
                q.append(None)
                return
            if plane.weights is None:
                self.fail("tainted MXM compute with no installed weights")
                return
            weights = ("c", plane.wide)
        slot = self._new_slot()
        # the install's one widened matrix, shared by every row's op
        self.ops.append(
            ("dot", slot, dtype, plane.rows, weights, list(refs))
        )
        q.append(("s", slot))

    def mxm_drain(self, plane, slot_idx: int, psum_value, accumulate: bool,
                  acc_present: bool, acc_value) -> Any:
        """Mirror one ACC drain; returns the ref of the post-drain value."""
        q = self.mxm_track(plane)
        if not q:
            self.fail("MXM result mirror underflow")
            return None
        psum_ref = q.popleft()
        key = (id(plane), slot_idx)
        acc_ref = self._mxm_acc.get(key)
        if accumulate and acc_present:
            if psum_ref is None and acc_ref is None:
                combined = None
            else:
                out = self._new_slot()
                a = psum_ref if psum_ref is not None else \
                    ("c", np.asarray(psum_value).copy())
                b = acc_ref if acc_ref is not None else \
                    ("c", np.asarray(acc_value).copy())
                self.ops.append(("acc", out, a, b))
                combined = ("s", out)
        else:
            combined = psum_ref
        self._mxm_acc[key] = combined
        return combined

    def mxm_clear_acc(self, plane, slot_idx: int) -> None:
        self._mxm_acc.pop((id(plane), slot_idx), None)

    def mxm_emit(self, unit, plane, instruction, ref, cycle: int,
                 out_dtype: DType) -> None:
        if ref is None:
            return
        slots = [self._new_slot() for _ in range(out_dtype.n_streams)]
        self.ops.append(("emit", slots, ref, out_dtype))
        for offset, slot in enumerate(slots):
            self.announce(unit.position, cycle, instruction.direction,
                          instruction.base_stream + offset, slot)

    # -- finish ------------------------------------------------------------

    def finish(self, run: RunResult) -> "ReplayPlan":
        """The plan of the recorded program's schedule: memory-image words
        are among its inputs, so :meth:`ReplayPlan.bind` it to a program
        before running it."""
        chip = self.chip
        if self.failed is None and run.ecc_corrections:
            self.fail("ECC corrections during recording run")
        if self.failed is None and chip.srf.corrections != self._corr_start:
            self.fail("stream ECC corrections during recording run")
        if self.failed is None:
            for q in self._mxm_results.values():
                if q:
                    self.fail("undrained MXM results at end of run")
                    break
        if self.failed is None:
            for ref in self._mxm_acc.values():
                if ref is not None:
                    self.fail("tainted MXM accumulator left at end of run")
                    break
        plan = ReplayPlan(
            ok=self.failed is None,
            reason=self.failed,
            config=chip.config,
            timing=chip.timing,
            ecc_enabled=chip.srf_ecc_enabled,
            warmup_barrier=self.warmup_barrier,
            lanes=self.lanes,
            cycles=run.cycles,
            final_now=chip.now,
            instructions=run.instructions,
            activity=run.activity.copy(),
            dispatches=self.dispatches,
            ops=self.ops,
            n_slots=self.n_slots,
            in_words=self.in_words,
            inputs=dict(self.compiled.inputs),
            outputs=dict(self.compiled.outputs),
        )
        if not plan.ok:
            plan.ops = []
            plan.dispatches = []
            return plan
        for name, spec in self.compiled.outputs.items():
            n_planes = 1 if spec.layout.is_parallel else spec.dtype.n_bytes
            words = []
            for p in range(n_planes):
                for j in range(spec.n_vectors):
                    hem, s, a = spec.layout.address_of(p, j)
                    key = (hem, s, a)
                    if key in self.tainted:
                        words.append(("t", key))
                    else:
                        unit = chip.mem_unit(hem, s)
                        if unit._storage is None:
                            data = np.zeros(self.lanes, dtype=np.uint8)
                        else:
                            data = unit._storage[a].copy()
                        words.append(("c", data))
            plan.out_words[name] = words
        return plan


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


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


def _fold_refs(op: tuple, known: dict) -> tuple[tuple, bool]:
    """``op`` with every slot ``known`` holds turned into its one-lane
    constant, and whether a slot is left (the op depends on an input)."""
    singles, lists = _REF_FIELDS[op[0]]
    folded = list(op)
    live = False

    def fold(ref):
        nonlocal live
        if ref[0] == "s":
            value = known.get(ref[1])
            if value is None:
                live = True
                return ref
            return ("c", value[0])
        return ref

    for i in singles:
        folded[i] = fold(op[i])
    for i in lists:
        folded[i] = [fold(r) for r in op[i]]
    return tuple(folded), live


def _widen(dtype: DType, rows: int, cols: int, refs: list) -> np.ndarray:
    """The weights an ``IW`` of constant vectors installs, at accumulator
    width — what :class:`~repro.sim.mxm.MxmPlane` keeps as ``wide``."""
    raw = np.concatenate([ref[1] for ref in refs])
    raw = raw[: rows * cols * dtype.n_bytes]
    if dtype is DType.FP16:
        return raw.view(np.float16).reshape(rows, cols).astype(np.float32)
    return raw.view(np.int8).reshape(rows, cols).astype(np.int64)


@dataclass
class ReplayPlan:
    """The recorded execution plan of a schedule, or of one program of it.

    :meth:`ScheduleRecorder.finish` returns the schedule's plan, whose
    inputs include the memory image; :meth:`bind` turns it into one
    program's plan, whose only inputs are the run-time input tensors.
    Only a bound plan runs.
    """

    ok: bool
    reason: str | None
    config: object
    timing: object
    ecc_enabled: bool
    warmup_barrier: bool
    lanes: int
    cycles: int
    final_now: int
    instructions: int
    activity: object
    #: raw ``(cycle, queue name, instruction)`` per recorded dispatch
    dispatches: list = field(repr=False, default_factory=list)
    ops: list = field(repr=False, default_factory=list)
    n_slots: int = 0
    in_words: list = field(repr=False, default_factory=list)
    out_words: dict = field(repr=False, default_factory=dict)
    inputs: dict = field(repr=False, default_factory=dict)
    outputs: dict = field(repr=False, default_factory=dict)

    @functools.cached_property
    def trace(self) -> list[TraceEvent]:
        """The recorded dispatches as trace events, formatted on first use
        (only a trace-enabled replay ever asks)."""
        return [
            TraceEvent(cycle, name, instruction.mnemonic, str(instruction))
            for cycle, name, instruction in self.dispatches
        ]

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
            else:  # pragma: no cover - recorder and interpreter move together
                raise SimulationError(f"unknown replay op {tag!r}")

    # -- binding -----------------------------------------------------------

    def bind(self, memory_image) -> "ReplayPlan":
        """This schedule plan for the program holding ``memory_image``.

        A partial evaluation: every op that depends on no run-time input
        runs here, once, through the interpreter, and its value is folded
        into the ops that remain as a one-lane constant — so the bound
        plan is op for op what recording this program would have folded,
        and costs what that plan costs per replay.
        """
        if not self.ok:
            return self
        mem = {
            (word.hemisphere, word.slice_index, word.address): word.data[None]
            for word in memory_image
        }
        known: dict[int, np.ndarray] = {}  # slot -> (1, ...) value
        weights: dict[int, np.ndarray] = {}  # install slot -> wide matrix
        ops = []
        for op in self.ops:
            tag = op[0]
            if tag == "read":
                _, slot, key = op
                if key in mem:
                    known[slot] = mem[key]
                else:
                    ops.append(op)
                continue
            if tag == "wconst":
                mem[op[1]] = op[2][None]
                ops.append(op)
                continue
            if tag == "dot":
                kind, w = op[4]
                op = op[:4] + (weights[w] if kind == "s" else w,) + op[5:]
            folded, live = _fold_refs(op, known)
            if tag == "write":
                key = op[1]
                if live:
                    mem.pop(key, None)
                    ops.append(folded)
                else:
                    mem[key] = known[op[2][1]]
                    ops.append(("wconst", key, folded[2][1]))
            elif tag == "install":
                if live:
                    return replace(self, ok=False, ops=[], dispatches=[],
                                   reason="input-derived IW weight install")
                weights[op[1]] = _widen(*folded[2:])
            elif live:
                ops.append(folded)
            else:
                self._execute_ops((op,), known, None, None, 1)
        out_words = {
            name: [
                ("c", mem[payload][0]) if kind == "t" and payload in mem
                else (kind, payload)
                for kind, payload in words
            ]
            for name, words in self.out_words.items()
        }
        return replace(self, ops=ops, out_words=out_words)

    def charge(self, chip, runs: int) -> None:
        """Land ``runs`` back-to-back executions on ``chip``: everything
        but SRAM that that many real runs would have left there —
        activity, hop bytes, the dispatches when the chip traces, and
        ``chip.now``.  Both replay entry points land here."""
        for f in fields(self.activity):
            if f.name != "stream_hop_bytes":
                setattr(chip.activity, f.name,
                        getattr(chip.activity, f.name)
                        + getattr(self.activity, f.name) * runs)
        chip.srf.hop_bytes_total += self.activity.stream_hop_bytes * runs
        chip.activity.stream_hop_bytes = chip.srf.hop_bytes_total
        if chip.trace_enabled:
            chip.trace.extend(self.trace * runs)
        chip.now = self.final_now

    def run_result(self, chip) -> RunResult:
        """One replayed run's :class:`RunResult` on ``chip`` (or on none);
        a replay walks no cycle, so every one of them counts as skipped."""
        traced = chip is not None and chip.trace_enabled
        return RunResult(
            cycles=self.cycles,
            instructions=self.instructions,
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

        def mem_read(key):
            return unit(key[0], key[1]).storage[key[2]].copy()[None]

        def mem_write(key, vector, is_const):
            u = unit(key[0], key[1])
            u.storage[key[2]] = vector if is_const else vector[0]
            if ecc:
                u._store_checks(key[2])

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
# bypass predicates
# ---------------------------------------------------------------------------


def _chip_is_pristine(chip) -> str | None:
    """Reason the chip needs real simulation, or None if replay is safe."""
    if chip.checkers:
        return "conformance checkers attached"
    if chip.obs is not None:
        return "telemetry collector attached"
    if chip.watchdog is not None:
        return "watchdog armed"
    if chip.recorder is not None:
        return "recording in progress"
    if chip.events.pending:
        # armed before the run, they belong to it: only a run fires them
        return "events armed for the next run"
    if getattr(chip, "faults_injected", 0):
        return "injected faults present"
    if getattr(chip, "external_fault_hooks", False):
        return "hardware fault hooks attached"
    if chip.srf._dirty:
        return "stream register file corrupted"
    if not bool(chip.superlane_enabled.all()):
        return "superlanes disabled"
    for unit in chip.mem_units():
        if unit.dead:
            return "dead MEM slice"
    for hemisphere in Hemisphere:
        for link in chip.c2c_unit(hemisphere).links:
            if link.error_model is not None:
                return "C2C link error model attached"
    return None


def record_allowed(chip) -> bool:
    """May a recording of this chip's next run generalize to clean chips?"""
    return _chip_is_pristine(chip) is None


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
    if chip.srf_ecc_enabled != plan.ecc_enabled:
        return False
    return _chip_is_pristine(chip) is None

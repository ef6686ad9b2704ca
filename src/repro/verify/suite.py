"""The conformance sweep: every instruction class, oracle-checked.

Compiled programs (:data:`PROGRAMS`) go through :func:`check`: one
simulation, held to the graph interpreter and to every invariant check of
its record (stream collisions, bank discipline, the Equation-4/5 timing
contract), and in lockstep with its replays.  Instructions the stream
compiler never emits — ``LW``, ``Scatter``, ``Repeat``, ``Config``,
``Ifetch``, ``Deskew``/``Send``/``Receive`` — are exercised by hand-built
programs (:data:`CASES`) with independently computed expected results.
One :class:`CoverageTracker` counts every run's dispatches, and
:func:`run_conformance` fails if any instruction class drops below the
coverage threshold.

Run standalone with ``python -m repro.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..arch.streams import DType, join_byte_planes
from ..compiler.api import StreamProgramBuilder
from ..config import ArchConfig, small_test_chip
from ..errors import CoverageError, InvariantViolationError, VerificationError
from ..isa import (
    Accumulate,
    ActivationBufferControl,
    Config,
    Deskew,
    Gather,
    IcuId,
    Ifetch,
    InstallWeights,
    LoadWeights,
    Nop,
    Program,
    Read,
    Receive,
    Repeat,
    Scatter,
    Send,
    Write,
)
from ..sim.chip import TspChip
from ..testing import redrawn
from .coverage import CoverageTracker
from .invariants import check_run
from .lockstep import run_lockstep
from .oracle import interpreted

E = Direction.EASTWARD
W = Direction.WESTWARD


@dataclass
class CaseResult:
    """Outcome of one conformance case."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ConformanceSummary:
    """All case outcomes plus the accumulated ISA coverage."""

    results: list[CaseResult] = field(default_factory=list)
    tracker: CoverageTracker = field(default_factory=CoverageTracker)
    threshold: float = 0.9
    coverage_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.coverage_failure is None and all(
            r.ok for r in self.results
        )

    def render(self) -> str:
        lines = ["conformance sweep"]
        for r in self.results:
            mark = "pass" if r.ok else "FAIL"
            lines.append(f"  [{mark}] {r.name}")
            if r.detail:
                lines.extend(f"      {l}" for l in r.detail.splitlines()[:12])
        lines.append("")
        lines.append(self.tracker.render())
        if self.coverage_failure:
            lines.append(f"COVERAGE FAIL: {self.coverage_failure}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# compiled programs (the one check)
# ----------------------------------------------------------------------
def _int8(shape, lo=-50, hi=50, offset=0):
    count = int(np.prod(shape))
    span = hi - lo
    return ((np.arange(count) * 7 + offset) % span + lo).astype(
        np.int8
    ).reshape(shape)


def _fp16(shape, offset=0):
    count = int(np.prod(shape))
    vals = ((np.arange(count) * 13 + offset) % 31 - 15) / 8.0
    return vals.astype(np.float16).reshape(shape)


def check(builder, inputs=None, *, compiled=None, tracker=None,
          warmup=False):
    """The one check of a compiled program: in lockstep with its replays,
    and with those of a :func:`~repro.testing.redrawn` sibling bound to
    its schedule; the lockstep's simulated run held to the graph
    interpreter and to the stream collision, strict bank and (unless
    ``warmup``, which shifts the schedule) timing-contract checks of its
    record.  ``tracker`` counts that run's dispatches.

    Every check runs; :class:`VerificationError` names each that failed,
    a line ``<check>: <what>`` per failure.  Returns the differential
    result, whose ``outputs`` a caller may hold to its own oracle.
    """
    compiled = compiled if compiled is not None else builder.compile()
    lockstep = run_lockstep(
        compiled, inputs=inputs, timing=builder.timing, warmup_barrier=warmup,
        sibling=compiled.schedule.bind(redrawn(builder).graph),
    )
    simulated = lockstep.simulated
    result = interpreted(
        builder, compiled, inputs or {}, simulated.outputs, simulated.run
    )
    if tracker is not None:
        tracker.record_trace(simulated.run.trace)
    failures = [f"oracle: {result.report.render()}"] if result.report else []
    failures += check_run(
        simulated.run.trace, simulated.drives, builder.timing,
        intent=None if warmup else compiled.intent, strict_banks=True,
    )
    failures += [f"lockstep: {m}" for m in lockstep.mismatches]
    if failures:
        raise VerificationError("\n".join(failures))
    return result


# Each builder returns ``(builder, inputs)``: the inputs are the program's
# run-time tensors (``None`` for a constants-only program).
def elementwise_int8(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((4, 50)))
    y = b.constant_tensor("y", _int8((4, 50), offset=3))
    b.write_back(b.add(x, y), "sum")
    b.write_back(b.relu(b.sub(x, y)), "relu")
    b.write_back(b.maximum(x, y), "max")
    b.write_back(b.mul(x, y, saturate=True), "prod")
    return b, None


def fp16_transcendental(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", np.abs(_fp16((2, 20))) + 0.5)
    b.write_back(b.tanh(x), "tanh")
    b.write_back(b.exp(b.negate(x)), "exp")
    b.write_back(b.rsqrt(x), "rsqrt")
    b.write_back(b.convert(x, DType.FP32), "wide")
    return b, None


def temporal_shift(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((6, 30)))
    b.write_back(b.add(x, b.temporal_shift(x, 2)), "windowed")
    return b, None


def gather(config: ArchConfig):
    b = StreamProgramBuilder(config)
    table = _int8((8, 40))
    idx = b.input_tensor("idx", (3, 40), DType.UINT8)
    b.write_back(b.gather(table, idx, name="lut"), "gathered")
    indices = ((np.arange(3 * 40) * 5) % 8).astype(np.uint8).reshape(3, 40)
    return b, {"idx": indices}


def matmul_int8_ktiled(config: ArchConfig):
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    a0 = b.constant_tensor("a0", _int8((3, lanes), lo=-8, hi=8))
    a1 = b.constant_tensor("a1", _int8((3, lanes), lo=-8, hi=8, offset=5))
    w = _int8((2 * lanes, 24), lo=-8, hi=8, offset=11)
    b.write_back(b.matmul(w, [a0, a1], name="w"), "mm")
    return b, None


def matmul_paired(config: ArchConfig):
    """A serving-shaped ``input -> matmul -> write``: its odd row count
    streams as two unequal row blocks through both planes of an MXM."""
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    acts = b.input_tensor("acts", (17, lanes))
    w = _int8((lanes, 24), lo=-8, hi=8, offset=11)
    b.write_back(b.matmul(w, acts, name="w"), "acc")
    planes = b.compile().stats.mxm_planes
    if planes != 2:
        raise VerificationError(f"expected a two-plane schedule, got {planes}")
    return b, {"acts": _int8((17, lanes), lo=-8, hi=8)}


def matmul_four_planes(config: ArchConfig):
    """Light weights, many rows, two K-tiles: the far hemisphere pays for
    its own weight copy and 34 rows stream as blocks of 9 + 9 + 9 + 7, two
    per MXM, behind one ``acts*`` / ``acc`` layout each."""
    b = StreamProgramBuilder(config)
    tiles = [b.input_tensor(f"acts{i}", (34, k)) for i, k in enumerate((9, 5))]
    w = _int8((14, 4), lo=-8, hi=8, offset=11)
    b.write_back(b.matmul(w, tiles, name="w"), "acc")
    blocks = [
        (p.hemisphere, p.n_words)
        for p in b.compile().outputs["acc"].layout.planes[::4]
    ]
    west, east = Hemisphere.WEST, Hemisphere.EAST
    if blocks != [(west, 9), (west, 9), (east, 9), (east, 7)]:
        raise VerificationError(
            f"expected row blocks 9 + 9 | 9 + 7 over both MXMs, got {blocks}"
        )
    return b, {
        "acts0": _int8((34, 9), lo=-8, hi=8),
        "acts1": _int8((34, 5), lo=-8, hi=8, offset=3),
    }


def matmul_fp16(config: ArchConfig):
    b = StreamProgramBuilder(config)
    a = b.constant_tensor("a", _fp16((2, 32)))
    w = _fp16((32, 16), offset=7).astype(np.float16)
    b.write_back(b.matmul(w, a, name="wf"), "mmf")
    return b, None


def sxm_lane_ops(config: ArchConfig):
    lanes = config.n_lanes
    per = config.lanes_per_superlane
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((2, lanes)))
    y = b.constant_tensor("y", _int8((2, lanes), offset=9))
    b.write_back(b.shift(x, 3), "north")
    b.write_back(b.shift(x, 5, south=True), "south")
    b.write_back(b.permute(x, list(reversed(range(lanes)))), "rev")
    mapping = [(i + 1) % per if i != 4 else -1 for i in range(per)]
    b.write_back(b.distribute(x, mapping), "dist")
    mask = [i % 2 for i in range(per)]
    b.write_back(b.select(x, y, mask), "sel")
    return b, None


def rotate(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((1, config.n_lanes)))
    b.write_back(b.rotate(x, 3), "rot")
    return b, None


def transpose16(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((16, config.n_lanes)))
    b.write_back(b.transpose16(x), "tr")
    return b, None


def warmup_barrier(config: ArchConfig):
    """Sync/Notify: the whole schedule shifts uniformly, outputs match."""
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((2, 32)))
    y = b.constant_tensor("y", _int8((2, 32), offset=1))
    b.write_back(b.add(x, y), "sum")
    return b, None


# Input-fed programs: what a replay plan cannot fold to constants.  A
# constants-only program records as ``wconst`` writes and nothing else;
# only a value derived from a run-time input leaves a ``vxm1`` / ``vxm2`` /
# ``vxmc`` / ``route`` / ``dot`` op in the plan.
def fed_vxm_chain(config: ArchConfig):
    """``relu(x) + const + y``: unary, input ⊕ constant, input ⊕ input."""
    b = StreamProgramBuilder(config)
    x = b.input_tensor("x", (4, 50))
    y = b.input_tensor("y", (4, 50))
    c = b.constant_tensor("c", _int8((4, 50), offset=3))
    b.write_back(b.add(b.add(b.relu(x), c), y), "out")
    return b, {"x": _int8((4, 50)), "y": _int8((4, 50), offset=5)}


def fed_convert(config: ArchConfig):
    b = StreamProgramBuilder(config)
    x = b.input_tensor("x", (3, 40))
    b.write_back(b.convert(x, DType.INT32), "wide")
    return b, {"x": _int8((3, 40))}


def fed_sxm_routes(config: ArchConfig):
    """One-source gathers (shift zero-fills) and a two-source select
    whose other side is a constant."""
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    x = b.input_tensor("x", (2, lanes))
    y = b.constant_tensor("y", _int8((2, lanes), offset=9))
    b.write_back(b.shift(x, 3), "north")
    b.write_back(b.permute(x, list(reversed(range(lanes)))), "rev")
    mask = [i % 2 for i in range(config.lanes_per_superlane)]
    b.write_back(b.select(x, y, mask), "sel")
    return b, {"x": _int8((2, lanes))}


def fed_matmul_fp16(config: ArchConfig):
    b = StreamProgramBuilder(config)
    a = b.input_tensor("a", (2, 32), DType.FP16)
    b.write_back(b.matmul(_fp16((32, 16), offset=7), a, name="wf"), "mmf")
    return b, {"a": _fp16((2, 32))}


#: every compiled program of the sweep, ``(name, build(config) -> (builder,
#: inputs))``; the program corpus of the tests reads this list too
PROGRAMS = [
    ("elementwise-int8", elementwise_int8),
    ("fp16-transcendental", fp16_transcendental),
    ("temporal-shift", temporal_shift),
    ("gather", gather),
    ("matmul-int8-ktiled", matmul_int8_ktiled),
    ("matmul-paired", matmul_paired),
    ("matmul-four-planes", matmul_four_planes),
    ("matmul-fp16", matmul_fp16),
    ("sxm-lane-ops", sxm_lane_ops),
    ("rotate", rotate),
    ("transpose16", transpose16),
    ("warmup-barrier", warmup_barrier),
    ("fed-vxm-chain", fed_vxm_chain),
    ("fed-convert", fed_convert),
    ("fed-sxm-routes", fed_sxm_routes),
    ("fed-matmul-fp16", fed_matmul_fp16),
]


# ----------------------------------------------------------------------
# hand-built programs for instructions the compiler never emits
# ----------------------------------------------------------------------
def _hand_run(chip: TspChip, program: Program, tracker: CoverageTracker):
    """Run ``program`` on the traced ``chip``, count its dispatches into
    ``tracker`` and raise :class:`InvariantViolationError` on a stream
    collision or bank conflict in its record."""
    chip.run(program)
    tracker.record_trace(chip.trace)
    violations = check_run(chip.trace, chip.drives, chip.timing)
    if violations:
        raise InvariantViolationError("\n".join(violations))


def _expect_equal(actual, expected, what: str) -> None:
    if not np.array_equal(actual, expected):
        raise VerificationError(
            f"{what}: simulator produced {actual!r}, expected {expected!r}"
        )


def case_scatter_hand(config: ArchConfig, tracker: CoverageTracker):
    """Scatter: per-lane indirect write (Section III-B)."""
    chip = TspChip(config, trace=True)
    fp = chip.floorplan
    lanes = config.n_lanes
    values = (np.arange(lanes) * 3 % 251).astype(np.uint8)
    offsets = (np.arange(lanes) % 4).astype(np.uint8)
    chip.load_memory(Hemisphere.WEST, 0, 0, values[None, :])
    chip.load_memory(Hemisphere.WEST, 1, 2, offsets[None, :])

    w0, w1 = fp.mem_slice(Hemisphere.WEST, 0), fp.mem_slice(Hemisphere.WEST, 1)
    target = fp.mem_slice(Hemisphere.EAST, 3)
    # time both operands to arrive at the target in the same cycle
    arrive = 8 + max(fp.delta(w0, target), fp.delta(w1, target))
    program = Program()
    for slice_addr, address, stream in ((w0, 0, 0), (w1, 2, 1)):
        t_dispatch = arrive - fp.delta(slice_addr, target) - 5
        icu = IcuId(slice_addr)
        if t_dispatch > 0:
            program.add(icu, Nop(t_dispatch))
        program.add(icu, Read(address=address, stream=stream, direction=E))
    program.add(IcuId(target), Nop(arrive - 1))  # Scatter samples at +1
    program.add(
        IcuId(target), Scatter(stream=0, map_stream=1, direction=E, base=16)
    )
    _hand_run(chip, program, tracker)
    stored = chip.read_memory(Hemisphere.EAST, 3, 16, 4)
    expected = np.zeros((4, lanes), dtype=np.uint8)
    expected[offsets, np.arange(lanes)] = values
    _expect_equal(stored, expected, "scatter")


def case_mxm_lw_staging(config: ArchConfig, tracker: CoverageTracker):
    """LW-staged install: Read rows -> LW buffer -> IW -> ABC -> ACC."""
    chip = TspChip(config, trace=True)
    fp = chip.floorplan
    lanes = config.n_lanes
    rows = 4
    w = _int8((rows, lanes), lo=-6, hi=7)
    act = _int8((lanes,), lo=-4, hi=5, offset=2)

    mem = fp.mem_slice(Hemisphere.EAST, 0)
    mxm = fp.mxm(Hemisphere.EAST)
    delta = fp.delta(mem, mxm)
    for r in range(rows):
        chip.load_memory(Hemisphere.EAST, 0, 2 * r, w[r].view(np.uint8)[None, :])
    chip.load_memory(Hemisphere.EAST, 0, 101, act.view(np.uint8)[None, :])

    program = Program()
    t0 = 1
    mem_icu = IcuId(mem)
    program.add(mem_icu, Nop(t0))
    for r in range(rows):  # weight rows drive at t0+r+5
        program.add(mem_icu, Read(address=2 * r, stream=0, direction=E))
    program.add(mem_icu, Nop(1))
    program.add(mem_icu, Read(address=101, stream=0, direction=E))

    # LW row r samples at t0+r+5+delta (dskew 1)
    weights_icu = IcuId(mxm, 0)
    program.add(weights_icu, Nop(t0 + 4 + delta))
    for r in range(rows):
        program.add(
            weights_icu, LoadWeights(plane=0, row=r, stream=0, direction=E)
        )
    program.add(weights_icu, Nop(1))  # after the last LW capture
    program.add(
        weights_icu,
        InstallWeights(plane=0, rows=rows, cols=lanes, from_buffer=True),
    )

    # activation arrives at t0+10+delta; ABC samples at dispatch+1
    compute_icu = IcuId(mxm, 1)
    program.add(compute_icu, Nop(t0 + 9 + delta))
    program.add(
        compute_icu,
        ActivationBufferControl(
            plane=0, base_stream=0, direction=E, n_vectors=1
        ),
    )
    depth = chip.timing.mxm_pipeline_depth(config.mxm_plane_rows)
    program.add(compute_icu, Nop(depth))
    program.add(
        compute_icu,
        Accumulate(plane=0, base_stream=0, direction=W, n_vectors=1),
    )
    # ACC dispatches at t0+10+delta+depth, emits at +dfunc(3) westward
    emit = t0 + 13 + delta + depth
    for j in range(4):  # one byte plane per slice
        out = fp.mem_slice(Hemisphere.EAST, j)
        icu = IcuId(out)
        capture = emit + fp.delta(out, mxm)
        program.add(icu, Nop(capture - 1 - program.dispatch_length(icu)))
        program.add(icu, Write(address=120, stream=j, direction=W))
    _hand_run(chip, program, tracker)

    planes = [
        chip.read_memory(Hemisphere.EAST, j, 120)[0] for j in range(4)
    ]
    result = join_byte_planes(planes, DType.INT32)
    acc = w.astype(np.int64).T @ act[:rows].astype(np.int64)
    expected = np.clip(acc, -(2**31), 2**31 - 1).astype(np.int32)
    _expect_equal(result, expected, "LW-staged matmul")


def case_c2c_loopback(config: ArchConfig, tracker: CoverageTracker):
    """Deskew/Send/Receive over a looped-back East link."""
    from ..sim.c2c import DEFAULT_LINK_LATENCY

    chip = TspChip(config, trace=True)
    fp = chip.floorplan
    chip.c2c_unit(Hemisphere.EAST).loopback(0)
    data = (np.arange(config.n_lanes) * 11 % 256).astype(np.uint8)
    chip.load_memory(Hemisphere.EAST, 0, 4, data[None, :])

    program = Program()
    mem = IcuId(fp.mem_slice(Hemisphere.EAST, 0))
    c2c = IcuId(fp.c2c(Hemisphere.EAST), 0)
    program.add(mem, Read(address=4, stream=0, direction=E))
    hops = fp.delta(fp.mem_slice(Hemisphere.EAST, 0), fp.c2c(Hemisphere.EAST))
    program.add(c2c, Deskew(link=0))
    program.add(c2c, Nop(4 + hops - 1))
    program.add(c2c, Send(link=0, stream=0, direction=E))
    capture = 5 + hops
    program.add(c2c, Nop(DEFAULT_LINK_LATENCY))
    program.add(c2c, Receive(link=0, mem_slice=2, address=8))
    _hand_run(chip, program, tracker)
    landed = chip.read_memory(Hemisphere.EAST, 2, 8)[0]
    _expect_equal(landed, data, "c2c loopback")


def case_icu_repeat_config(config: ArchConfig, tracker: CoverageTracker):
    """Config, Ifetch, and Repeat re-dispatching a Read."""
    chip = TspChip(config, trace=True)
    fp = chip.floorplan
    data = (np.arange(config.n_lanes) * 5 % 256).astype(np.uint8)
    chip.load_memory(Hemisphere.WEST, 0, 0, data[None, :])

    src = fp.mem_slice(Hemisphere.WEST, 0)
    dst = fp.mem_slice(Hemisphere.EAST, 1)
    program = Program()
    icu = IcuId(src)
    program.add(icu, Config(superlane=0, power_on=True))
    program.add(icu, Ifetch())
    program.add(icu, Read(address=0, stream=0, direction=E))
    program.add(icu, Repeat(n=2, d=3))
    # Repeat re-executes the Read at cycles 3 and 6; the last drives at 11
    capture = 11 + fp.delta(src, dst)
    out = IcuId(dst)
    program.add(out, Nop(capture - 1))
    program.add(out, Write(address=30, stream=0, direction=E))
    _hand_run(chip, program, tracker)
    landed = chip.read_memory(Hemisphere.EAST, 1, 30)[0]
    _expect_equal(landed, data, "repeated read")


# ----------------------------------------------------------------------
#: the hand-built cases, ``(name, case(config, tracker))``
CASES = [
    ("scatter-hand", case_scatter_hand),
    ("mxm-lw-staging", case_mxm_lw_staging),
    ("c2c-loopback", case_c2c_loopback),
    ("icu-repeat-config", case_icu_repeat_config),
]


def run_conformance(
    config: ArchConfig | None = None, threshold: float = 0.9
) -> ConformanceSummary:
    """Run every conformance case; never raises, inspect ``summary.ok``."""
    config = config or small_test_chip()
    summary = ConformanceSummary(threshold=threshold)
    tracker = summary.tracker

    def run(name, case) -> None:
        try:
            case()
            summary.results.append(CaseResult(name, True))
        except Exception as exc:  # noqa: BLE001 - each case is a test
            summary.results.append(CaseResult(name, False, str(exc)))

    for name, build in PROGRAMS:
        run(name, lambda: check(*build(config), tracker=tracker,
                                warmup=name == "warmup-barrier"))
    for name, case in CASES:
        run(name, lambda: case(config, tracker))
    try:
        tracker.check(threshold)
    except CoverageError as exc:
        summary.coverage_failure = str(exc)
    return summary

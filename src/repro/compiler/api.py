"""A ``groq.api``-style frontend for building stream programs.

Mirrors the API sketched in the paper's Listings 1 and 2::

    import numpy as np
    from repro.compiler import StreamProgramBuilder
    from repro.config import groq_tsp_v1

    g = StreamProgramBuilder(groq_tsp_v1())
    x = g.constant_tensor("x", x_data)          # int8 [n, 320]
    y = g.constant_tensor("y", y_data)
    z = g.add(x, y)
    g.write_back(z, name="z")
    compiled = g.compile()

Tensors are rank-2 ``(n_vectors, length)`` with ``length <= 320``; the
graph-lowering convention of the paper (higher-rank tensors flattened to
rank-2 over hardware dtypes) is the caller's responsibility, with helpers
in :mod:`repro.nn` doing it for NN layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.streams import DType
from ..arch.timing import TimingModel
from ..config import ArchConfig
from ..errors import CompileError
from ..isa.sxm import ShiftDirection
from ..isa.vxm import AluOp
from .cachekey import graph_fingerprint, shape_fingerprint
from .graph import Graph, Node, OpKind
from .repeat import passes_key
from .scheduler import CompiledProgram, Schedule, Scheduler


@dataclass(frozen=True)
class TensorHandle:
    """Frontend handle to a node of the dataflow graph."""

    node_id: int
    n_vectors: int
    length: int
    dtype: DType

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_vectors, self.length)


class StreamProgramBuilder:
    """Builds a dataflow graph and compiles it to a placed schedule."""

    def __init__(
        self, config: ArchConfig, timing: TimingModel | None = None
    ) -> None:
        config.validate()
        self.config = config
        self.timing = timing
        self.graph = Graph()
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    def _handle(self, node: Node) -> TensorHandle:
        return TensorHandle(node.id, node.n_vectors, node.length, node.dtype)

    def _unique(self, name: str) -> str:
        if name in self._names:
            raise CompileError(f"tensor name {name!r} is already used")
        self._names.add(name)
        return name

    def _check_shape(self, n: int, length: int) -> None:
        if n < 1:
            raise CompileError("tensors need at least one vector")
        if not 1 <= length <= self.config.n_lanes:
            raise CompileError(
                f"vector length {length} outside 1..{self.config.n_lanes} "
                f"(minVL {self.config.min_vector_length}, maxVL "
                f"{self.config.max_vector_length})"
            )

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def constant_tensor(
        self, name: str, data: np.ndarray, dtype: DType | None = None
    ) -> TensorHandle:
        """Host data emplaced into MEM before execution."""
        arr = np.atleast_2d(np.asarray(data))
        if dtype is None:
            dtype = _dtype_from_numpy(arr.dtype)
        arr = arr.astype(dtype.numpy_dtype)
        n, length = arr.shape
        self._check_shape(n, length)
        node = self.graph.add_node(
            OpKind.CONSTANT, [], dtype, n, length,
            name=self._unique(name), data=arr,
        )
        return self._handle(node)

    def input_tensor(
        self, name: str, shape: tuple[int, int], dtype: DType = DType.INT8
    ) -> TensorHandle:
        """A tensor bound by the host at run time."""
        n, length = shape
        self._check_shape(n, length)
        node = self.graph.add_node(
            OpKind.INPUT, [], dtype, n, length, name=self._unique(name)
        )
        return self._handle(node)

    def random_tensor(
        self,
        name: str,
        shape: tuple[int, int],
        dtype: DType = DType.INT8,
        seed: int = 0,
    ) -> TensorHandle:
        """Paper Listing 1's ``g.random_tensor`` — a random constant."""
        rng = np.random.default_rng(seed)
        if dtype in (DType.FP16, DType.FP32):
            data = rng.standard_normal(shape).astype(dtype.numpy_dtype)
        else:
            info = np.iinfo(dtype.numpy_dtype)
            data = rng.integers(
                max(info.min, -100), min(info.max, 100) + 1, shape
            ).astype(dtype.numpy_dtype)
        return self.constant_tensor(name, data, dtype)

    # ------------------------------------------------------------------
    # point-wise (VXM)
    # ------------------------------------------------------------------
    def _binary(self, op: AluOp, a: TensorHandle, b: TensorHandle) -> TensorHandle:
        if a.shape != b.shape or a.dtype is not b.dtype:
            raise CompileError(
                f"binary operands must match: {a.shape}/{a.dtype.label} vs "
                f"{b.shape}/{b.dtype.label}"
            )
        node = self.graph.add_node(
            OpKind.BINARY, [a.node_id, b.node_id], a.dtype, a.n_vectors,
            a.length, params={"op": op},
        )
        return self._handle(node)

    def add(self, a: TensorHandle, b: TensorHandle, saturate: bool = True):
        return self._binary(
            AluOp.ADD_SAT if saturate else AluOp.ADD_MOD, a, b
        )

    def sub(self, a: TensorHandle, b: TensorHandle, saturate: bool = True):
        return self._binary(
            AluOp.SUB_SAT if saturate else AluOp.SUB_MOD, a, b
        )

    def mul(self, a: TensorHandle, b: TensorHandle, saturate: bool = True):
        return self._binary(
            AluOp.MUL_SAT if saturate else AluOp.MUL_MOD, a, b
        )

    def maximum(self, a: TensorHandle, b: TensorHandle) -> TensorHandle:
        return self._binary(AluOp.MAX, a, b)

    def minimum(self, a: TensorHandle, b: TensorHandle) -> TensorHandle:
        return self._binary(AluOp.MIN, a, b)

    def _unary(
        self, op: AluOp, x: TensorHandle, out_dtype: DType | None = None
    ) -> TensorHandle:
        node = self.graph.add_node(
            OpKind.UNARY, [x.node_id], out_dtype or x.dtype, x.n_vectors,
            x.length, params={"op": op},
        )
        return self._handle(node)

    def relu(self, x: TensorHandle) -> TensorHandle:
        """Rectified linear unit, ``max(0, x)`` (Table I)."""
        return self._unary(AluOp.RELU, x)

    def negate(self, x: TensorHandle) -> TensorHandle:
        return self._unary(AluOp.NEGATE, x)

    def abs(self, x: TensorHandle) -> TensorHandle:
        return self._unary(AluOp.ABS, x)

    def mask(self, x: TensorHandle) -> TensorHandle:
        return self._unary(AluOp.MASK, x)

    def copy(self, x: TensorHandle) -> TensorHandle:
        return self._unary(AluOp.COPY, x)

    def _transcendental(self, op: AluOp, x: TensorHandle) -> TensorHandle:
        out = DType.FP16 if x.dtype is DType.FP16 else DType.FP32
        return self._unary(op, x, out_dtype=out)

    def tanh(self, x: TensorHandle) -> TensorHandle:
        return self._transcendental(AluOp.TANH, x)

    def exp(self, x: TensorHandle) -> TensorHandle:
        return self._transcendental(AluOp.EXP, x)

    def rsqrt(self, x: TensorHandle) -> TensorHandle:
        return self._transcendental(AluOp.RSQRT, x)

    def convert(
        self, x: TensorHandle, to_dtype: DType, scale: float = 1.0
    ) -> TensorHandle:
        """Type conversion with an optional requantization scale."""
        node = self.graph.add_node(
            OpKind.CONVERT, [x.node_id], to_dtype, x.n_vectors, x.length,
            params={"scale": float(scale)},
        )
        return self._handle(node)

    def temporal_shift(self, x: TensorHandle, k: int = 1) -> TensorHandle:
        """Delay a streaming tensor by ``k`` rows: ``out[j] = in[j-k]``.

        Physically a chain of ``k`` VXM copies re-driving the stream one
        cycle later each — the streaming-window idiom: a consumer that
        combines ``x`` with ``temporal_shift(x, 1)`` sees each row next to
        its predecessor, which is how sliding windows across the
        vector-index dimension (e.g. the vertical arm of a 2-D pooling
        window) are computed without ever staging rows in memory.  Rows
        ``j < k`` are zero (nothing has flowed yet).
        """
        if k < 1:
            raise CompileError("temporal_shift needs k >= 1")
        if k > 32:
            raise CompileError(
                f"temporal_shift of {k} rows would chain {k} ALUs; stage "
                "through memory instead"
            )
        node = self.graph.add_node(
            OpKind.TEMPORAL_SHIFT, [x.node_id], x.dtype, x.n_vectors,
            x.length, params={"k": int(k)},
        )
        return self._handle(node)

    # ------------------------------------------------------------------
    # matrix (MXM)
    # ------------------------------------------------------------------
    def matmul(
        self,
        weights: np.ndarray,
        activations: TensorHandle | list[TensorHandle],
        name: str = "",
    ) -> TensorHandle:
        """``r = W.T @ a`` per activation vector on an MXM plane.

        ``weights`` is a host (K, M) matrix with M <= 320, either int8
        (int32 results) or fp16 (fp32 results, running two byte-planes in
        tandem and consuming both planes of a hemisphere — Section III-D).
        When K <= 320 pass one activation tensor of shape (n, K).  When
        K > 320 the caller provides the K-tiles explicitly: a list of
        tensors, the p-th of shape (n, K_p) with ``sum(K_p) == K`` and each
        ``K_p <= 320`` — the schedule accumulates across tiles in the MXM
        accumulators and emits results once.

        An int8 matmul whose activations are program inputs and whose
        result is written straight back may stream its rows through both
        planes of a hemisphere (``placement.plane_split``), and through
        the other hemisphere's too where a second weight copy pays
        (``placement.matmul_parts``); bindings and results are the same,
        only the cycle and instruction counts differ.
        """
        w = np.asarray(weights)
        if w.ndim != 2:
            raise CompileError("matmul weights must be 2-D (K, M)")
        if w.dtype == np.float16 or np.issubdtype(w.dtype, np.floating):
            weight_dtype = DType.FP16
            out_dtype = DType.FP32
            w = w.astype(np.float16)
        else:
            weight_dtype = DType.INT8
            out_dtype = DType.INT32
            w = w.astype(np.int8)
        k, m = w.shape
        lanes = self.config.n_lanes
        if m > lanes:
            raise CompileError(f"matmul M={m} exceeds {lanes} plane columns")
        acts = (
            [activations]
            if isinstance(activations, TensorHandle)
            else list(activations)
        )
        tiles: list[np.ndarray] = []
        row = 0
        for a in acts:
            if a.dtype is not weight_dtype and not (
                weight_dtype is DType.INT8 and a.dtype is DType.INT8
            ):
                raise CompileError(
                    f"MXM activations must be {weight_dtype.label} to "
                    f"match {weight_dtype.label} weights, got "
                    f"{a.dtype.label} — int8 activations pair with int8 "
                    "weights, fp16 with fp16"
                )
            tiles.append(w[row : row + a.length])
            row += a.length
        if row != k:
            raise CompileError(
                f"activation tiles cover {row} rows, weights have {k}"
            )
        n = acts[0].n_vectors
        if any(a.n_vectors != n for a in acts):
            raise CompileError("all K-tiles must have the same vector count")
        w_node = self.graph.add_node(
            OpKind.CONSTANT, [], weight_dtype, k, min(m, lanes),
            name=self._unique(name or f"weights_{self.graph._next_id}"),
            data=w,
        )
        node = self.graph.add_node(
            OpKind.MATMUL,
            [w_node.id] + [a.node_id for a in acts],
            out_dtype,
            n,
            m,
            params={
                "k": k,
                "m": m,
                "weight_tiles": tiles,
                "weight_dtype": weight_dtype,
            },
        )
        return self._handle(node)

    def matmul_wide(
        self,
        weights: np.ndarray,
        activations: TensorHandle | list[TensorHandle],
        name: str = "",
    ) -> list[TensorHandle]:
        """M-tiled matmul for output widths beyond one plane (M > 320).

        The weight matrix is split into column tiles of at most one plane
        width; each tile is an independent matmul sharing the same
        activation streams, exactly how the mapper schedules wide layers
        ("the 16 vector ALUs ... four 320x320 planes", Section IV-B).
        Returns one handle per column tile, in order; the host
        concatenates results (``np.hstack``) after write-back.
        """
        w = np.asarray(weights)
        if w.ndim != 2:
            raise CompileError("matmul weights must be 2-D (K, M)")
        lanes = self.config.n_lanes
        handles = []
        base = name or f"wide_{self.graph._next_id}"
        for index, start in enumerate(range(0, w.shape[1], lanes)):
            tile = w[:, start : start + lanes]
            handles.append(
                self.matmul(tile, activations, name=f"{base}_m{index}")
            )
        return handles

    # ------------------------------------------------------------------
    # switch (SXM)
    # ------------------------------------------------------------------
    def transpose16(self, x: TensorHandle) -> TensorHandle:
        """16x16 stream-group transpose (paper Listing 2)."""
        if x.n_vectors != 16:
            raise CompileError(
                f"transpose16 needs exactly 16 vectors, got {x.n_vectors}"
            )
        if x.dtype.n_bytes != 1:
            raise CompileError("transpose16 operates on 1-byte elements")
        node = self.graph.add_node(
            OpKind.TRANSPOSE16, [x.node_id], x.dtype, 16, x.length
        )
        return self._handle(node)

    def shift(
        self, x: TensorHandle, amount: int, south: bool = False
    ) -> TensorHandle:
        """Lane-shift by ``amount`` (North = toward lane 0)."""
        node = self.graph.add_node(
            OpKind.SHIFT, [x.node_id], x.dtype, x.n_vectors, x.length,
            params={
                "amount": int(amount),
                "shift": ShiftDirection.SOUTH if south else ShiftDirection.NORTH,
                "south": south,
            },
        )
        return self._handle(node)

    def permute(self, x: TensorHandle, mapping) -> TensorHandle:
        """Bijective lane permutation."""
        mapping = tuple(int(v) for v in mapping)
        if len(mapping) != self.config.n_lanes:
            raise CompileError(
                f"permute map must cover all {self.config.n_lanes} lanes"
            )
        node = self.graph.add_node(
            OpKind.PERMUTE, [x.node_id], x.dtype, x.n_vectors, x.length,
            params={"mapping": mapping},
        )
        return self._handle(node)

    def distribute(self, x: TensorHandle, mapping) -> TensorHandle:
        """Per-superlane remap/replicate/zero-fill (16-entry map)."""
        mapping = tuple(int(v) for v in mapping)
        if len(mapping) != self.config.lanes_per_superlane:
            raise CompileError(
                "distribute map has one entry per lane of a superlane "
                f"({self.config.lanes_per_superlane})"
            )
        node = self.graph.add_node(
            OpKind.DISTRIBUTE, [x.node_id], x.dtype, x.n_vectors, x.length,
            params={"mapping": mapping},
        )
        return self._handle(node)

    def select(self, a: TensorHandle, b: TensorHandle, mask) -> TensorHandle:
        """Per-lane select: mask 0 takes ``a``, non-zero takes ``b``."""
        if a.shape != b.shape:
            raise CompileError("select operands must have the same shape")
        node = self.graph.add_node(
            OpKind.SELECT, [a.node_id, b.node_id], a.dtype, a.n_vectors,
            a.length, params={"mask": tuple(int(v) for v in mask)},
        )
        return self._handle(node)

    def rotate(self, x: TensorHandle, n: int = 3) -> TensorHandle:
        """All n^2 rotations of each superlane's n x n block (conv stencils)."""
        if x.n_vectors != 1:
            raise CompileError("rotate operates on a single vector")
        if n not in (3, 4):
            raise CompileError("rotate supports n=3 or n=4")
        node = self.graph.add_node(
            OpKind.ROTATE, [x.node_id], x.dtype, n * n, x.length,
            params={"n": n},
        )
        return self._handle(node)

    # ------------------------------------------------------------------
    # memory (stream-indirect addressing, Section III-B)
    # ------------------------------------------------------------------
    def gather(
        self, table: np.ndarray, indices: TensorHandle, name: str = ""
    ) -> TensorHandle:
        """Per-lane indirect read: ``out[j][l] = table[indices[j][l]][l]``.

        ``table`` is a host (rows, lanes-wide) uint8/int8 tensor emplaced
        in one MEM slice; ``indices`` streams per-lane row offsets past
        that slice, which services a ``Gather`` per vector — the paper's
        stream-indirect addressing, where "the physical address comes from
        the stream value".  Rows are limited to 256 (offsets ride a 1-byte
        stream).
        """
        t = np.atleast_2d(np.asarray(table))
        if t.dtype not in (np.dtype(np.int8), np.dtype(np.uint8)):
            raise CompileError("gather tables must be int8/uint8")
        if t.shape[0] > 256:
            raise CompileError(
                "gather offsets ride one byte-stream: tables are limited "
                "to 256 rows"
            )
        if indices.dtype is not DType.UINT8:
            raise CompileError("gather indices must be uint8 offsets")
        self._check_shape(t.shape[0], t.shape[1])
        table_node = self.graph.add_node(
            OpKind.CONSTANT,
            [],
            DType.INT8 if t.dtype == np.int8 else DType.UINT8,
            t.shape[0],
            t.shape[1],
            name=self._unique(name or f"table_{self.graph._next_id}"),
            data=t,
        )
        node = self.graph.add_node(
            OpKind.GATHER,
            [table_node.id, indices.node_id],
            table_node.dtype,
            indices.n_vectors,
            t.shape[1],
        )
        return self._handle(node)

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def write_back(self, x: TensorHandle, name: str = "") -> str:
        """Commit a computed value to MEM; it becomes a program output."""
        out_name = self._unique(name or f"out_{self.graph._next_id}")
        self.graph.add_node(
            OpKind.WRITE, [x.node_id], x.dtype, x.n_vectors, x.length,
            name=out_name,
        )
        return out_name

    # ------------------------------------------------------------------
    def compile(
        self, blacklist=None, cache_key=None, passes: int = 1
    ) -> CompiledProgram:
        """Schedule the graph in time and space, then bind its constants.

        ``blacklist`` — a :class:`repro.resil.degrade.Blacklist` of dead
        resources — recompiles the same graph in degraded mode: placement
        and plane selection route around the dead hardware while the
        program's outputs stay bit-identical to the healthy schedule.

        The result carries its content-addressed ``cache_key`` (see
        :mod:`repro.compiler.cachekey`): scheduling is deterministic, so
        equal keys mean bit-identical binaries and a compiled program can
        be cached and replayed for any later request of the same shape.
        A program cache that just missed on this graph passes the
        ``cache_key`` it looked up instead of having it hashed again.

        ``passes`` > 1 compiles a matmul program that streams that many
        bindings of its inputs through one weight install — or as many as
        MEM holds (:mod:`repro.compiler.repeat`).
        """
        schedule = self.schedule(blacklist, passes)
        return schedule.bind(
            self.graph,
            cache_key or self.fingerprint(blacklist, schedule.passes),
        )

    def schedule(self, blacklist=None, passes: int = 1) -> Schedule:
        """The time × space search: everything about the program that is
        decided by shapes — and so shared by every graph with this one's
        :meth:`shape_key`, whatever its constants hold.  ``passes`` > 1
        repeats :meth:`pass_schedule` rather than searching again."""
        if passes > 1:
            return self.pass_schedule(blacklist).repeated(passes)
        scheduler = Scheduler(self.config, self.timing, blacklist=blacklist)
        schedule = scheduler.schedule(self.graph)
        schedule.shape_key = self.shape_key(blacklist)
        return schedule

    def pass_schedule(self, blacklist=None) -> Schedule:
        """The schedule whose passes :meth:`schedule` repeats: a one-tile
        matmul's pass planned to recur every period behind one weight
        install; any other graph's own schedule, repeated whole."""
        scheduler = Scheduler(
            self.config, self.timing, blacklist=blacklist, periodic=True
        )
        schedule = scheduler.schedule(self.graph)
        schedule.shape_key = self.shape_key(blacklist, passes=None)
        return schedule

    def bind(
        self, schedule: Schedule, blacklist=None, cache_key=None
    ) -> CompiledProgram:
        """Emplace this graph's constants into ``schedule`` — its own, or
        one made for the same :meth:`shape_key` and ``blacklist``; either
        way the program :meth:`compile` returns, byte for byte."""
        if schedule.shape_key != self.shape_key(blacklist, schedule.passes):
            raise CompileError(
                "this schedule was made for a graph of another shape, "
                "configuration or blacklist"
            )
        return schedule.bind(
            self.graph,
            cache_key or self.fingerprint(blacklist, schedule.passes),
        )

    def fingerprint(self, blacklist=None, passes: int = 1) -> str:
        """The cache key :meth:`compile` would attach, without compiling."""
        return passes_key(graph_fingerprint(
            self.graph, self.config, timing=self.timing, blacklist=blacklist
        ), passes)

    def shape_key(self, blacklist=None, passes: int | None = 1) -> str:
        """:meth:`fingerprint` with every constant's bytes left out: what
        a schedule is a function of (``passes=None``: the
        :meth:`pass_schedule`)."""
        return passes_key(shape_fingerprint(
            self.graph, self.config, timing=self.timing, blacklist=blacklist
        ), passes)


def _dtype_from_numpy(np_dtype: np.dtype) -> DType:
    mapping = {
        np.dtype(np.int8): DType.INT8,
        np.dtype(np.uint8): DType.UINT8,
        np.dtype(np.int16): DType.INT16,
        np.dtype(np.float16): DType.FP16,
        np.dtype(np.int32): DType.INT32,
        np.dtype(np.float32): DType.FP32,
        np.dtype(np.int64): DType.INT32,
        np.dtype(np.float64): DType.FP32,
    }
    try:
        return mapping[np.dtype(np_dtype)]
    except KeyError:
        raise CompileError(f"unsupported host dtype {np_dtype}")

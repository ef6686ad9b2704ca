"""Run a trained CNN's inference on the simulated TSP.

This is the end-to-end deployment path of Section IV, at test-chip scale:
each convolution/dense layer is lowered to an im2col matmul, its weights
quantized to int8 (the paper's layer-based symmetric strategy), compiled to
an ``input -> matmul -> write int32`` stream program, and executed on the
cycle-accurate simulator.  Every multiply-accumulate of the network runs
on the chip; the host does the data-layout glue the paper's compiler also
treats as layout (im2col patch extraction, pooling subsampling,
flattening) and — for now — each layer's epilogue: the int32 accumulators
are dequantized, biased and rectified in float64, and the next layer's
int8 input is rounded from that (``TspCnnRunner._matrix_forward``).

A plane streams one vector a cycle however few of its lanes a layer
uses, so a narrow layer runs several activation rows a vector through a
block-diagonal install of its weights (``TspCnnRunner.rows_per_vector``)
— Section IV-E's "same computational cost and latency" for wider
vectors, taken the other way round: the same integers in fewer cycles.

The runner calibrates per-layer activation scales on a calibration batch
(standard post-training quantization) and verifies against the host
reference path in :mod:`repro.nn.quantize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..compiler import StreamProgramBuilder, execute
from ..compiler.repeat import join_passes, pass_name
from ..compiler.scheduler import matmul_program_cost
from ..config import ArchConfig
from ..errors import TspError
from ..obs import rtrace
from .layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, im2col
from .model import Sequential
from .quantize import calibrate


@dataclass
class CompiledLayer:
    """One conv/dense layer lowered to a TSP matmul program shape."""

    name: str
    kind: str  # "conv" or "dense"
    weight_q: np.ndarray  # int8 (K, M)
    weight_scale: float
    in_scale: float  # int8 quantization scale of the input activations
    bias: np.ndarray
    relu: bool
    conv: Conv2D | None = None
    #: activation rows one input contributes (im2col patches, or 1 for
    #: dense) — what the pipeline partitioner prices the layer at
    rows_per_input: int = 1


@dataclass
class TspForwardResult:
    """Outcome of one on-chip inference."""

    logits: np.ndarray
    total_cycles: int
    #: matrix layers that ran on the chip — not program runs: a layer
    #: with more passes than MEM holds runs more than one program
    #: (``ChunkRunStats.programs`` counts those)
    programs_run: int
    layer_cycles: dict[str, int] = field(default_factory=dict)


@dataclass
class ChunkRunStats:
    """Per-forward accounting the serving layer reads back.

    ``compile_s``/``execute_s`` split the host wall time of one forward
    between scheduling and simulation; the cache tallies distinguish
    programs replayed from the compiled-program cache from fresh lowers.
    """

    compile_s: float = 0.0
    execute_s: float = 0.0
    cycles: int = 0
    programs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def build_chunk_builder(
    config: ArchConfig, layer: CompiledLayer, n_rows: int
) -> tuple[StreamProgramBuilder, list[tuple[str, int, int]]]:
    """Lower one (layer, row-count) shape to a reusable stream program.

    The activations enter as *input* tensors (bound per request at execute
    time) rather than baked-in constants, so the compiled program is a
    pure function of (weights, shape, dtype, config) — the cacheable unit
    of the serving layer: compile once per shape, replay for every batch.
    K dimensions beyond the lane count are split into K-tiles accumulated
    in the MXM.  Returns the builder plus the input binding plan as
    ``(input name, start column, end column)`` triples.
    """
    lanes = config.n_lanes
    k = layer.weight_q.shape[0]
    g = StreamProgramBuilder(config)
    if k <= lanes:
        bindings = [("acts", 0, k)]
        handles: object = g.input_tensor("acts", (n_rows, k))
    else:
        bindings = [
            (f"acts{i}", start, min(start + lanes, k))
            for i, start in enumerate(range(0, k, lanes))
        ]
        handles = [
            g.input_tensor(name, (n_rows, end - start))
            for name, start, end in bindings
        ]
    result_handle = g.matmul(layer.weight_q, handles, name="weights")
    g.write_back(result_handle, name="acc")
    return g, bindings


class TspCnnRunner:
    """Deploy a host-trained :class:`Sequential` CNN onto the simulator.

    Supported layer sequence: (Conv2D [ReLU] [MaxPool2D])* Flatten Dense.
    Each matrix layer becomes one compiled stream program; K dimensions
    larger than the lane count are K-tiled (accumulated in the MXM), and
    a layer's rows are cut into equal passes of at most
    ``max_vectors_per_program`` rows (:meth:`pass_shape`) that stream
    through one weight install (:mod:`repro.compiler.repeat`).  A layer
    narrow enough runs ``r`` rows a vector through ``diag(W, ..., W)``,
    ``r`` chosen per (layer, rows, blacklist) by the compiler's closed
    form (:meth:`rows_per_vector`); nothing selects it from outside.

    ``max_vectors_per_program`` is the *pass height*: the rows one pass
    carries, not a program's.  The name predates passes; it stays because
    the repository benchmark's workload table passes it by name.
    """

    def __init__(
        self,
        model: Sequential,
        config: ArchConfig,
        calibration: np.ndarray,
        max_vectors_per_program: int = 64,
    ) -> None:
        self.config = config
        #: the pass height (see the class docstring)
        self.max_vectors = max_vectors_per_program
        self.layers = self._lower(model, calibration)
        #: (layer name, weight shape, rows, blacklist) -> (builder, input
        #: bindings, cache key, shape key); see :meth:`_resolve`
        self._resolved: dict[tuple, tuple] = {}
        #: (layer name, rows, blacklist) -> rows a vector carries; see
        #: :meth:`rows_per_vector`
        self._packings: dict[tuple, int] = {}
        #: (layer name, rows a vector carries) -> the layer as the chip
        #: runs it; see :meth:`packed_layer`
        self._packed: dict[tuple, CompiledLayer] = {}

    # ------------------------------------------------------------------
    def _lower(
        self, model: Sequential, calibration: np.ndarray
    ) -> list:
        """Walk the host model, quantize matrix layers, record structure."""
        lowered: list = []
        x = calibration
        pending: CompiledLayer | None = None
        matrix_index = 0
        for layer in model.layers:
            if isinstance(layer, Conv2D):
                pending = self._lower_matrix(layer, x, "conv", matrix_index)
                matrix_index += 1
                lowered.append(pending)
                x = layer.forward(x)
            elif isinstance(layer, Dense):
                pending = self._lower_matrix(layer, x, "dense", matrix_index)
                matrix_index += 1
                lowered.append(pending)
                x = layer.forward(x)
            elif isinstance(layer, ReLU):
                if pending is None:
                    raise TspError("ReLU without a preceding matrix layer")
                pending.relu = True
                x = layer.forward(x)
            elif isinstance(layer, MaxPool2D):
                lowered.append(layer)
                pending = None
                x = layer.forward(x)
            elif isinstance(layer, Flatten):
                lowered.append(layer)
                pending = None
                x = layer.forward(x)
            else:
                raise TspError(
                    f"{type(layer).__name__} is not supported on the TSP "
                    "runner"
                )
        return lowered

    def _lower_matrix(self, layer, x, kind: str, index: int) -> CompiledLayer:
        w = layer.w  # (K, M)
        w_params = calibrate(w)
        w_q = np.clip(
            np.rint(w / float(w_params.scale)), -127, 127
        ).astype(np.int8)
        if kind == "conv":
            cols, _, _ = im2col(
                x, layer.kernel, layer.kernel, layer.stride, layer.pad
            )
            act_sample = cols
        else:
            act_sample = x.reshape(x.shape[0], -1)
        in_scale = float(calibrate(act_sample).scale)
        return CompiledLayer(
            name=f"{kind}{index}",
            kind=kind,
            weight_q=w_q,
            weight_scale=float(w_params.scale),
            in_scale=in_scale,
            bias=layer.b,
            relu=False,
            conv=layer if kind == "conv" else None,
            rows_per_input=act_sample.shape[0] // x.shape[0],
        )

    @staticmethod
    def quantize_boundary(
        layer: CompiledLayer, acts: np.ndarray
    ) -> np.ndarray:
        """Quantize activations into ``layer``'s int8 input domain.

        This is exactly the rounding :meth:`_matrix_forward` applies, so
        a pipeline boundary may quantize the *compact* activation tensor
        before shipping it over C2C: ``rint``/``clip`` are elementwise
        and the consumer's layout glue (im2col, reshape, flatten) only
        copies elements or pads zeros — and a quantized zero is zero —
        so quantize-then-glue is bit-identical to glue-then-quantize.
        """
        return np.clip(
            np.rint(acts / layer.in_scale), -127, 127
        ).astype(np.int8)

    # ------------------------------------------------------------------
    def _resolve(self, layer: CompiledLayer, n_rows: int, cache, blacklist):
        """``(builder, input bindings, cache key, shape key)`` of one
        program shape.

        A chunk's graph is a pure function of (layer as packed — its
        weight shape says how —, rows, blacklist) and the runner is
        immutable after lowering, so its builder graph, content address
        and shape key are resolved once and shared by every worker;
        neither a warm batch nor a cache miss rebuilds or re-hashes them.
        Racing first resolutions compute equal values.
        """
        memo_key = (layer.name, layer.weight_q.shape, n_rows, blacklist)
        resolved = self._resolved.get(memo_key)
        if resolved is None:
            g, bindings = build_chunk_builder(self.config, layer, n_rows)
            resolved = self._resolved[memo_key] = (
                g, bindings, cache.key_for(g, blacklist=blacklist),
                g.shape_key(blacklist),
            )
        return resolved

    def _simulate_group(
        self, layer: CompiledLayer, compiled, inputs: dict, rows: int,
        batch: int, hit: bool, chip,
    ):
        """The ``execute()`` route: load, bind, simulate, fetch one run of
        a program of ``batch`` passes (``inputs`` names every pass's).

        What a group falls back to when its program has no usable replay
        plan, the chip demands real simulation (so ``execute()`` would not
        replay either) or there is no cache.  One span per run: each
        run's chip events are anchored to its own cycle 0.
        """
        with rtrace.span("execute") as span:
            result = execute(
                compiled, chip=chip, inputs=inputs, max_cycles=2_000_000,
                replay=False,
            )
            if span:
                span.anchor(
                    chip, result.run.cycles, self.config.clock_ghz,
                    result.run.trace, layer=layer.name, batch=batch,
                    rows=rows, hit=hit,
                    replay=False,
                )
        return result

    def _run_matmul_group(
        self,
        layer: CompiledLayer,
        group: list[np.ndarray],
        chip=None,
        cache=None,
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> tuple[list[np.ndarray], int]:
        """Run the leading same-height chunks of one layer as the passes
        of one program (:mod:`repro.compiler.repeat`): one weight install,
        then a pass per chunk.

        Returns the chip's int32 accumulators of the chunks it ran — all
        of ``group``, or as many as MEM holds the passes of; the caller
        runs the rest — (bias and dequantization are applied by the
        caller, matching the reference quantized path) and the simulated
        cycles.  The program is built at exactly the rows a chunk
        carries — only the last of several passes holds zero rows
        (:meth:`pass_shape`) — so a cache holds one entry per (layer,
        rows, passes) and a one-token request simulates one vector.  A
        ``blacklist`` (dead MEM slices / MXM planes) reaches the
        scheduler through the cache key, so degraded and healthy
        binaries for the same shape coexist in one cache.

        The route is one cache lookup by the memoised key and one pure
        batched replay of the program's
        :class:`~repro.sim.replay.ReplayPlan`, a binding per pass, and the
        chip's memory is never touched.  A program with no (or a failed)
        plan and a non-pristine chip is simulated through
        :meth:`_simulate_group`, and so is a cache-less call's — the
        serving oracle, ``ServeModel.run_reference``.
        """
        from ..compiler.runner import execute_batched

        n_rows = group[0].shape[0]
        if cache is not None:
            g, bindings, key, shape_key = self._resolve(
                layer, n_rows, cache, blacklist
            )
            compiled, _key, hit, compile_s = cache.get_or_compile(
                g, blacklist=blacklist, key=key, shape_key=shape_key,
                passes=len(group),
            )
        else:
            g, bindings = build_chunk_builder(self.config, layer, n_rows)
            t0 = time.perf_counter()
            compiled = g.compile(blacklist=blacklist, passes=len(group))
            compile_s = time.perf_counter() - t0
            hit = False
        group = group[: compiled.schedule.passes]
        inputs_list = [
            {name: chunk[:, start:end] for name, start, end in bindings}
            for chunk in group
        ]
        t0 = time.perf_counter()
        with rtrace.span("execute") as span:
            results = None if cache is None else execute_batched(
                compiled, inputs_list, chip=chip, max_cycles=2_000_000
            )
            if results is None:
                span.set(name=None)  # not replayed: its own span below
            elif span:
                run = results[0].run
                span.anchor(
                    chip, run.cycles, self.config.clock_ghz, run.trace,
                    layer=layer.name, batch=len(group),
                    rows=n_rows * len(group), hit=hit, replay=True,
                )
        if results is None:
            result = self._simulate_group(
                layer, compiled, join_passes(inputs_list),
                n_rows * len(group), len(group), hit, chip,
            )
            accs = [result[pass_name("acc", k)] for k in range(len(group))]
            cycles = result.run.cycles
        else:
            accs = [res["acc"] for res in results]
            cycles = results[0].run.cycles
        if stats is not None:
            stats.compile_s += compile_s
            stats.execute_s += time.perf_counter() - t0
            stats.cycles += cycles
            stats.programs += 1
            if cache is not None:  # one lookup per program run
                stats.cache_misses += 0 if hit else 1
                stats.cache_hits += 1 if hit else 0
        return accs, cycles

    def rows_per_vector(
        self, layer: CompiledLayer, n_rows: int, blacklist=None
    ) -> int:
        """How many of ``layer``'s ``n_rows`` activation rows one vector
        carries on the chip.

        A plane streams one vector a cycle however few of its rows and
        columns a layer uses, so ``r`` rows side by side through the
        block-diagonal ``diag(W, ..., W)`` (:meth:`packed_layer`) cost a
        ``r``-th of the stream for a longer weight feed.  Of the ``r``
        whose block fits a plane — ``r * K`` lanes in, ``r * M`` columns
        out — this is the one whose program, ``ceil(n_rows / r)`` rows
        cut into equal passes (:meth:`pass_shape`), the compiler's closed
        form (:func:`~repro.compiler.scheduler.matmul_program_cost`) says
        finish in the fewest cycles; a tie keeps the smaller ``r``.
        Nothing is scheduled to decide it, and it is decided once per
        (layer, rows, blacklist).
        """
        memo_key = (layer.name, n_rows, blacklist)
        r = self._packings.get(memo_key)
        if r is None:
            k, m = layer.weight_q.shape
            lanes = self.config.n_lanes
            cols = min(lanes, self.config.mxm_plane_cols)
            fits = [r for r in range(1, lanes // k + 1) if r * m <= cols]

            def price(r: int) -> tuple[int, int]:
                return self.predicted_cycles(layer, n_rows, blacklist, r), r

            r = min(fits, key=price) if len(fits) > 1 else 1
            self._packings[memo_key] = r
        return r

    def predicted_cycles(
        self, layer: CompiledLayer, n_rows: int, blacklist=None,
        r: int | None = None,
    ) -> int:
        """The cycles :meth:`matrix_accumulators` takes for ``n_rows`` of
        ``layer``'s activation rows, ``r`` a vector (by default
        :meth:`rows_per_vector`'s), by the compiler's closed form: one
        program of :meth:`pass_shape`'s equal passes of ``ceil(n_rows /
        r)`` rows ``r * K`` deep.  :meth:`rows_per_vector` minimises it
        over ``r``; :func:`repro.nn.scaleout.plan_runner_partition`
        prices a layer by it."""
        if r is None:
            r = self.rows_per_vector(layer, n_rows, blacklist)
        height, passes = self.pass_shape(-(-n_rows // r))
        return matmul_program_cost(
            self.config, height, r * layer.weight_q.shape[0],
            passes=passes, blacklist=blacklist,
        )[0]

    def pass_shape(self, n_rows: int) -> tuple[int, int]:
        """``(rows a pass, passes)`` of ``n_rows`` rows: ``ceil(n_rows /
        h)`` passes of one height, no more than the pass height ``h``,
        zero rows padding the last — never a chunk and a shorter tail."""
        passes = -(-n_rows // self.max_vectors)
        return -(-n_rows // passes), passes

    def packed_layer(self, layer: CompiledLayer, r: int) -> CompiledLayer:
        """``layer`` as the chip runs it ``r`` rows a vector: the weights
        are ``diag(W, ..., W)``, ``r * K`` by ``r * M``, so packed row
        ``p`` holds rows ``p * r .. p * r + r - 1`` side by side and its
        result holds theirs, ``M`` columns each."""
        if r == 1:
            return layer
        packed = self._packed.get((layer.name, r))
        if packed is None:
            packed = self._packed[(layer.name, r)] = replace(
                layer,
                weight_q=np.kron(np.eye(r, dtype=np.int8), layer.weight_q),
            )
        return packed

    def matrix_accumulators(
        self,
        layer: CompiledLayer,
        acts_q: np.ndarray,
        chip=None,
        cache=None,
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> tuple[np.ndarray, int]:
        """The chip's int32 ``acts_q @ layer.weight_q`` — one row per
        activation row — and the cycles it took.

        The ``(rows, K)`` activations run as ``(ceil(rows / r), r * K)``
        through :meth:`packed_layer` (``r`` from :meth:`rows_per_vector`)
        and the result is viewed back as ``(rows, M)``, the pad rows
        dropped: the same integers as ``r = 1``.  The packed rows are cut
        into :meth:`pass_shape`'s equal passes of one program — zero rows
        pad the packing and the last pass —, and a program holds as many
        of them as MEM does, the rest running through another.
        """
        n_rows, k = acts_q.shape
        r = self.rows_per_vector(layer, n_rows, blacklist)
        packed = self.packed_layer(layer, r)
        height, passes = self.pass_shape(-(-n_rows // r))
        padded = np.zeros((passes * height * r, k), dtype=np.int8)
        padded[:n_rows] = acts_q
        group = list(padded.reshape(passes, height, r * k))
        chunks = []
        cycles = 0
        while group:
            accs, group_cycles = self._run_matmul_group(
                packed, group, chip=chip, cache=cache, stats=stats,
                blacklist=blacklist,
            )
            chunks.extend(accs)
            cycles += group_cycles
            group = group[len(accs):]
        acc = np.vstack(chunks)
        return acc.reshape(-1, layer.weight_q.shape[1])[:n_rows], cycles

    def _matrix_forward(
        self,
        layer: CompiledLayer,
        acts: np.ndarray,
        chip=None,
        cache=None,
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> tuple[np.ndarray, int]:
        """Quantize, run on chip (:meth:`matrix_accumulators`), dequantize
        + bias (+ReLU).

        int8 activations are already in the layer's input domain (a
        pipeline stage boundary quantized them before shipping over C2C)
        and skip the rounding here.
        """
        acts_q = (
            acts if acts.dtype == np.int8
            else self.quantize_boundary(layer, acts)
        )
        acc, cycles = self.matrix_accumulators(
            layer, acts_q, chip=chip, cache=cache, stats=stats,
            blacklist=blacklist,
        )
        out = acc.astype(np.float64) * (
            layer.in_scale * layer.weight_scale
        ) + layer.bias
        if layer.relu:
            out = np.maximum(out, 0)
        return out, cycles

    # ------------------------------------------------------------------
    def apply_layer(
        self,
        layer,
        current: np.ndarray,
        chip=None,
        cache=None,
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> tuple[np.ndarray, int]:
        """Run one lowered layer; returns ``(activations, chip cycles)``.

        The unit of pipeline-parallel execution: a stage is a contiguous
        run of these calls against one designated chip; the first matrix
        layer after a stage boundary gets the int8 tensor that arrived
        over C2C already quantized.  Host layers (pooling, flatten) cost
        zero chip cycles.
        """
        if not isinstance(layer, CompiledLayer):
            return layer.forward(current), 0
        if layer.kind == "conv":
            conv = layer.conv
            cols, ho, wo = im2col(
                current, conv.kernel, conv.kernel, conv.stride, conv.pad
            )
            out, cycles = self._matrix_forward(
                layer, cols, chip=chip, cache=cache, stats=stats,
                blacklist=blacklist,
            )
            n = current.shape[0]
            return out.reshape(n, ho, wo, -1).transpose(0, 3, 1, 2), cycles
        return self._matrix_forward(
            layer,
            current.reshape(current.shape[0], -1),
            chip=chip,
            cache=cache,
            stats=stats,
            blacklist=blacklist,
        )

    def forward(
        self,
        x: np.ndarray,
        chip=None,
        cache=None,
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> TspForwardResult:
        """Batch inference; every MAC runs on the simulated chip.

        ``chip`` reuses one (possibly pooled) simulator instance for every
        program instead of constructing a fresh chip per run; ``cache``
        is a compiled-program cache honouring ``get_or_compile(builder)``
        (see :class:`repro.serve.ProgramCache`); ``stats`` accumulates the
        compile/execute split the serving layer reports per request.
        Results are bit-identical with or without either: rows are
        processed independently on the MXM, and scheduling is a pure
        function of the lowered graph.
        """
        total_cycles = 0
        programs = 0
        layer_cycles: dict[str, int] = {}
        current = x
        for layer in self.layers:
            current, cycles = self.apply_layer(
                layer, current, chip=chip, cache=cache, stats=stats,
                blacklist=blacklist,
            )
            if isinstance(layer, CompiledLayer):
                total_cycles += cycles
                layer_cycles[layer.name] = cycles
                programs += 1
        return TspForwardResult(
            logits=current,
            total_cycles=total_cycles,
            programs_run=programs,
            layer_cycles=layer_cycles,
        )

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        result = self.forward(x)
        return float((result.logits.argmax(axis=1) == labels).mean())

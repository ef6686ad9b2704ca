"""The program corpus: every compiled program the suites know, by name.

Assembled here and nowhere else: ``tests/test_corpus.py`` sweeps it with
:func:`repro.verify.check` and ``tests/binary_digest.py`` digests it.  An
entry is a name, a builder, the blacklist it compiles under and the inputs
it runs on: the suite's own where it has them, seeded draws
(:func:`draw_inputs`) otherwise.  :data:`REJECTED` records what the
scheduler refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from golden_programs import GOLDEN_PROGRAMS
from repro.arch import DType, Hemisphere
from repro.compiler import StreamProgramBuilder
from repro.compiler.graph import OpKind
from repro.compiler.repeat import join_passes
from repro.config import small_test_chip
from repro.nn.tsp_inference import CompiledLayer, build_chunk_builder
from repro.resil import Blacklist
from repro.testing import draw
from repro.verify.suite import PROGRAMS
from test_compiler_fuzz import build_random_graph
from test_schedule_cycles import CHUNK_CYCLES, NO_SIBLING, PACKED_PROGRAMS
from test_schedule_cycles import chunk_builder
from test_schedule_cycles import fused_ffn_builder, serve_models


def draw_inputs(builder, seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded values (:func:`repro.testing.draw`) for each run-time input
    of ``builder``; a gather's indices stay below its table's rows."""
    rng, nodes = np.random.default_rng(seed), builder.graph.nodes
    rows = {n.inputs[1]: nodes[n.inputs[0]].n_vectors
            for n in nodes.values() if n.kind is OpKind.GATHER}
    return {
        n.name: rng.integers(0, rows[n.id], n.shape).astype(np.uint8)
        if n.id in rows else draw(rng, n.shape, n.dtype.numpy_dtype)
        for n in nodes.values() if n.kind is OpKind.INPUT
    }


@dataclass
class Entry:
    """One corpus program: :meth:`compile` it, run it on ``inputs`` — a
    binding per pass of a program of ``passes``, under its pass names."""

    name: str
    builder: StreamProgramBuilder
    blacklist: Blacklist | None = None
    inputs: dict[str, np.ndarray] | None = None  # None: drawn
    passes: int = 1

    def __post_init__(self) -> None:
        if self.inputs is None:
            self.inputs = join_passes([
                draw_inputs(self.builder, seed) for seed in range(self.passes)
            ])

    def compile(self):
        return self.builder.compile(
            blacklist=self.blacklist, passes=self.passes
        )


def chunk_programs():
    config, models = small_test_chip(), serve_models()
    for key in sorted(CHUNK_CYCLES):
        builder = chunk_builder(config, models, *key)[1]
        name = "chunk/{}.{}x{}".format(*key)
        yield Entry(name, builder)
        yield Entry(name + "/no-sibling", builder, NO_SIBLING)


def pass_programs():
    """Programs of n passes (``repro.compiler.repeat``): the benchmark's,
    one with no sibling plane, and a K-tiled layer's, whose whole
    schedule repeats."""
    config, models = small_test_chip(), serve_models()
    for key, passes in ((("cnn", "conv0", 32), 2), (("cnn", "conv0", 32), 8),
                        (("cnn", "conv1", 32), 2)):
        builder = chunk_builder(config, models, *key)[1]
        yield Entry("passes/{}.{}x{}".format(*key) + f"*{passes}", builder,
                    passes=passes)
    builder = chunk_builder(config, models, "cnn", "conv0", 32)[1]
    yield Entry("passes/cnn.conv0x32*2/no-sibling", builder, NO_SIBLING,
                passes=2)
    rng = np.random.default_rng(9)
    k_tiled = CompiledLayer(
        "dense", "dense", _int8(rng, (config.n_lanes + 36, 24), -8, 8),
        1.0, 1.0, None, np.zeros(24), False,
    )
    builder = build_chunk_builder(config, k_tiled, 8)[0]
    yield Entry("passes/k-tiled.densex8*2", builder, passes=2)


def fused_programs():
    """An MXM -> VXM -> MXM chain: the one-token FFN as one program
    (serving runs it as two), at the row counts of a decode batch."""
    config, models = small_test_chip(), serve_models()
    for rows in (1, 4, 8):
        yield Entry(f"fused/ffn.x{rows}",
                    fused_ffn_builder(config, models, rows))


def packed_programs():
    """``conv0`` run several rows a vector through one block-diagonal
    install, as a batch of one to four images runs it."""
    config, models = small_test_chip(), serve_models()
    for r, rows, passes in sorted(PACKED_PROGRAMS):
        builder = chunk_builder(config, models, "cnn", "conv0", rows, r)[1]
        yield Entry(
            f"packed/cnn.conv0.{r}-high.x{rows}"
            + (f"*{passes}" if passes > 1 else ""),
            builder, passes=passes,
        )


#: a chip that lost slices near both MXMs and the VXM, and an MXM plane
DEGRADED = Blacklist(
    mem_slices=frozenset({
        (Hemisphere.WEST, 0), (Hemisphere.WEST, 3), (Hemisphere.EAST, 1),
    }),
    mxm_planes=frozenset({(Hemisphere.WEST, 0)}),
)


def random_graphs():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n_ops, n_vectors = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        builder, _expected = build_random_graph(
            seed, n_ops, n_vectors, int(rng.integers(1, 65))
        )
        yield Entry(f"dag/{seed}", builder)
        if seed % 10 == 0:
            yield Entry(f"dag/{seed}/degraded", builder, DEGRADED)


def _int8(rng, shape, lo=-50, hi=50):
    return rng.integers(lo, hi, shape).astype(np.int8)


def shape_sxm(rng, g, lanes, per):
    n = int(rng.integers(1, 4))
    x = g.constant_tensor("x", _int8(rng, (n, lanes)))
    y = g.input_tensor("y", (n, lanes))
    g.write_back(g.shift(x, int(rng.integers(1, 21))), "north")
    g.write_back(g.shift(y, int(rng.integers(1, 21)), south=True), "south")
    g.write_back(g.permute(x, [int(m) for m in rng.permutation(lanes)]), "p")
    g.write_back(
        g.distribute(y, [int(m) for m in rng.integers(-1, per, per)]), "d"
    )
    mask = [int(m) for m in rng.integers(0, 2, per)]
    g.write_back(g.select(g.relu(x), y, mask), "sel")
    g.write_back(g.select(x, x, mask), "same")


def shape_rotate_transpose(rng, g, lanes, per):
    x = g.constant_tensor("x", _int8(rng, (1, lanes)))
    g.write_back(g.rotate(x, int(rng.integers(3, 5))), "rot")
    t = g.constant_tensor("t", _int8(rng, (16, lanes)))
    g.write_back(g.transpose16(g.transpose16(t)), "tt")
    u = g.input_tensor("u", (16, lanes))
    g.write_back(g.transpose16(u), "tu")


def shape_gather(rng, g, lanes, per):
    rows, n = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    idx = rng.integers(0, rows, (n, lanes)).astype(np.uint8)
    looked_up = g.gather(
        _int8(rng, (rows, lanes)),
        g.constant_tensor("idx", idx, dtype=DType.UINT8),
    )
    g.write_back(g.relu(looked_up), "o")
    fed = g.input_tensor("fed", (n, lanes), DType.UINT8)
    g.write_back(g.gather(_int8(rng, (rows, lanes)), fed, name="lut"), "f")


def shape_temporal(rng, g, lanes, per):
    h = int(rng.integers(4, 11))
    xh = g.constant_tensor("image", _int8(rng, (h, lanes)))
    vmax = g.maximum(
        g.maximum(g.copy(xh), g.temporal_shift(xh, 1)),
        g.temporal_shift(xh, int(rng.integers(2, 4))),
    )
    s1, s2 = g.shift(vmax, 1), g.shift(vmax, 2)
    g.write_back(
        g.maximum(g.maximum(g.copy(vmax), g.copy(s1)), g.copy(s2)), "w"
    )
    fed = g.input_tensor("fed", (h, lanes))
    g.write_back(g.temporal_shift(g.relu(fed), 1), "late")


def shape_window(rng, g, lanes, per):
    own = g.input_tensor("own", (int(rng.integers(3, 9)), lanes))
    k = int(rng.integers(1, 3))
    g.write_back(g.add(own, g.temporal_shift(own, k)), "win")


def shape_fp16(rng, g, lanes, per):
    n, length = int(rng.integers(1, 4)), int(rng.integers(1, 49))
    data = rng.uniform(0.25, 2.0, (n, length)).astype(np.float16)
    h = g.constant_tensor("x", data)
    for _ in range(int(rng.integers(1, 5))):
        h = getattr(g, ("tanh", "exp", "rsqrt")[int(rng.integers(3))])(h)
    g.write_back(g.convert(h, DType.FP32), "wide")
    g.write_back(g.add(h, h), "twice")
    a = g.input_tensor("a", (n, 32), DType.FP16)
    w = rng.uniform(-1, 1, (32, 16)).astype(np.float16)
    g.write_back(g.matmul(w, a, name="wf"), "mmf")


def shape_matmul(rng, g, lanes, per):
    k, m, n = (int(rng.integers(*r)) for r in ((8, 65), (4, 65), (1, 4)))
    acc = g.matmul(_int8(rng, (k, m), -6, 6),
                   g.constant_tensor("x", _int8(rng, (n, k), -6, 6)))
    q = g.convert(acc, DType.INT8, scale=float(rng.uniform(0.001, 0.05)))
    g.write_back(g.relu(q), "y")
    # K-tiled, and rows free to spread over the planes
    tiles = [g.constant_tensor(f"a{i}", _int8(rng, (3, lanes), -8, 8))
             for i in range(2)]
    g.write_back(
        g.matmul(_int8(rng, (2 * lanes, 24), -8, 8), tiles, name="kt"), "mm"
    )
    rows = int(rng.integers(9, 40))
    acts = g.input_tensor("acts", (rows, int(rng.integers(5, 40))))
    g.write_back(
        g.matmul(_int8(rng, (acts.length, 12), -8, 8), acts, name="w"), "acc"
    )


def shape_live_matmul(rng, g, lanes, per):
    """Activations already in flight meet weights installed ahead of
    them."""
    live = g.relu(g.constant_tensor("live", _int8(rng, (2, 24), -6, 6)))
    g.write_back(g.matmul(_int8(rng, (24, 8), -6, 6), live, name="lw"), "lv")


SHAPES = [
    shape_sxm, shape_rotate_transpose, shape_gather, shape_temporal,
    shape_window, shape_fp16, shape_matmul, shape_live_matmul,
]


def tight_chips():
    """Few streams: most placement attempts are abandoned part-way."""
    for streams in (4, 8):
        config = small_test_chip().with_overrides(
            streams_per_direction=streams
        )
        rng = np.random.default_rng(streams)
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", _int8(rng, (3, config.n_lanes), -9, 9))
        current = x
        for step in range(48):
            current = g.add(current, x) if step % 5 == 4 else g.relu(current)
            if step % 16 == 15:
                g.write_back(g.temporal_shift(current, 1), f"tap{step}")
        g.write_back(current, "out")
        yield Entry(f"tight/{streams}-streams", g)
    yield from contended(
        small_test_chip().with_overrides(streams_per_direction=16)
    )


def contended(config):
    """Half the streams, wide values all wanting them at once:
    grants are refused after operands are delivered, units after chains."""
    rng = np.random.default_rng(8)
    lanes = config.n_lanes

    def wide(g):
        for i in range(6):
            x = g.constant_tensor(f"x{i}", _int8(rng, (4, lanes), -9, 9))
            g.write_back(g.convert(x, DType.INT32), f"wide{i}")
            g.write_back(g.convert(g.relu(x), DType.INT32), f"relu{i}")

    def lookups(g):
        for i in range(4):
            idx = g.input_tensor(f"idx{i}", (3, lanes), DType.UINT8)
            table = _int8(rng, (5, lanes))
            g.write_back(g.convert(g.gather(table, idx), DType.INT32), f"o{i}")

    def routes(g):
        xs = [g.constant_tensor(f"x{i}", _int8(rng, (4, lanes)))
              for i in range(6)]
        for i, x in enumerate(xs):
            g.write_back(g.shift(x, i + 1), f"s{i}")
            g.write_back(g.convert(g.temporal_shift(x, 2), DType.INT32),
                         f"t{i}")

    def matmuls(g):
        for i in range(3):
            acts = g.constant_tensor(f"a{i}", _int8(rng, (6, 40), -8, 8))
            acc = g.matmul(_int8(rng, (40, 16), -8, 8), acts, name=f"w{i}")
            g.write_back(g.convert(acc, DType.INT8, scale=0.02), f"y{i}")

    def narrow(g):
        for i in range(8):
            x = g.input_tensor(f"x{i}", (3, lanes))
            idx = g.input_tensor(f"idx{i}", (3, lanes), DType.UINT8)
            g.write_back(g.gather(_int8(rng, (5, lanes)), idx), f"g{i}")
            g.write_back(g.shift(x, i + 1), f"s{i}")
            g.write_back(g.temporal_shift(x, 2), f"t{i}")

    for fill in (wide, lookups, routes, matmuls):
        g = StreamProgramBuilder(config)
        fill(g)
        yield Entry(f"tight/{fill.__name__}", g)
    g = StreamProgramBuilder(config.with_overrides(streams_per_direction=8))
    matmuls(g)
    yield Entry("tight/matmuls-8", g)
    for streams in (2, 4):
        g = StreamProgramBuilder(
            config.with_overrides(streams_per_direction=streams)
        )
        narrow(g)
        yield Entry(f"tight/narrow-{streams}", g)


def fuzz_shapes():
    config = small_test_chip()
    for shape in SHAPES:
        for seed in range(4):
            g = StreamProgramBuilder(config)
            shape(np.random.default_rng(seed), g, config.n_lanes,
                  config.lanes_per_superlane)
            name = f"{shape.__name__.replace('shape_', 'shape/')}/{seed}"
            yield Entry(name, g)
            if seed == 0:
                yield Entry(name + "/degraded", g, DEGRADED)


def corpus():
    """Every entry, in the digest's order."""
    yield from chunk_programs()
    for name, build in GOLDEN_PROGRAMS.items():
        yield Entry(f"golden/{name}", build())
    for name, build in PROGRAMS:  # on the conformance suite's inputs
        builder, inputs = build(small_test_chip())
        yield Entry(f"suite/{name}", builder, inputs=inputs)
    for source in (random_graphs, fuzz_shapes, tight_chips, pass_programs,
                   fused_programs, packed_programs):
        yield from source()


#: entry -> the node the scheduler cannot place in it
REJECTED = {
    "dag/55": "binary_10", "dag/122": "binary_12", "dag/146": "unary_8",
    "tight/4-streams": "temporal_shift_17", "tight/wide": "convert_22",
    "tight/routes": "convert_19", "tight/matmuls-8": "matmul matmul_7",
}

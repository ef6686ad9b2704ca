"""Binary-identity digests: one sha256 per program of a fixed corpus.

The scheduler is deterministic, so a refactor that claims "emitted binaries
unchanged" is checked exactly: run this helper on the parent commit and on
the change and ``diff`` the two outputs.  Nothing is pinned in the tree —
a PR that *means* to move a schedule moves these digests, and says so.

A digest covers everything ``CompiledProgram`` hands to a chip or a
checker: per-ICU program text (and the compiler's annotations), memory
image words, input/output layouts, ``ScheduleStats``, and the
``ScheduleIntent``: its ``(direction, stream, position, cycle)`` drive
tuples in the order the lowerings noted them, and its non-empty dispatch
cells.

The corpus: the 13 chunk programs of ``test_schedule_cycles.py`` healthy
and under ``NO_SIBLING``; ``GOLDEN_PROGRAMS``; every builder
``repro.verify.suite`` compiles; seeded ``build_random_graph`` DAGs; and
the SXM / gather / temporal-shift / fp16 / matmul shapes the fuzz tests
draw, each over a few seeds and on a degraded chip.

Run (not collected by pytest)::

    PYTHONPATH=src:tests python tests/binary_digest.py

``--rebind`` proves that a schedule never reads a constant: each corpus
program's graph is scheduled, a twin's constants — same shapes, other
values (:func:`repro.testing.redrawn`) — are bound to that schedule, and
the digest must equal the twin compiled from scratch.  Exit 1 on any
difference.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from golden_programs import GOLDEN_PROGRAMS
from repro.arch import DType, Hemisphere
from repro.compiler import StreamProgramBuilder
from repro.config import small_test_chip
from repro.errors import TspError
from repro.isa.encoding import encode_program_text
from repro.nn import make_shapes, make_small_cnn
from repro.resil import Blacklist
from repro.serve import CnnServeModel, TransformerMlpServeModel
from repro.testing import redrawn
from repro.verify import suite
from test_compiler_fuzz import build_random_graph
from test_schedule_cycles import CHUNK_CYCLES, FFN, NO_SIBLING, chunk_builder


def digest(build) -> str:
    """Of the program ``build()`` compiles — or of the error it raises: a
    graph the scheduler rejects must stay rejected, for the same reason."""
    h = hashlib.sha256()
    try:
        compiled = build()
    except TspError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()

    def put(*parts) -> None:
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
            h.update(b"\0")

    program = compiled.program
    for icu in program.icus:
        put(str(icu), encode_program_text(program.queue(icu)))
        put(program.queue(icu))
    put(sorted((str(icu), i, note)
               for (icu, i), note in program.annotations.items()))
    for word in compiled.memory_image:
        put(word.hemisphere, word.slice_index, word.address,
            np.ascontiguousarray(word.data).tobytes())
    for specs in (compiled.inputs, compiled.outputs):
        for name, spec in specs.items():
            put(name, spec.layout, spec.n_vectors, spec.length, spec.dtype)
    put(sorted(asdict(compiled.stats).items()))
    put(compiled.intent.drives)
    put(sorted(
        (icu, sorted(cells.items()))
        for icu, cells in compiled.intent.dispatch_cells.items() if cells
    ))
    return h.hexdigest()


def rebound(build):
    """``build`` is a corpus thunk — ``builder.compile``, perhaps partial
    over a blacklist.  Returns two thunks compiling a :func:`redrawn`
    twin: from scratch, and by binding it to ``builder``'s schedule."""
    kwargs = getattr(build, "keywords", {})
    builder = getattr(build, "func", build).__self__
    twin = redrawn(builder)
    return (
        partial(twin.compile, **kwargs),
        lambda: twin.bind(builder.schedule(**kwargs), **kwargs),
    )


# ----------------------------------------------------------------------
# the corpus: (name, compile thunk) pairs
# ----------------------------------------------------------------------
def chunk_programs():
    config = small_test_chip()
    data = make_shapes(
        n_train=160, n_test=64, image_size=8, n_classes=3, noise=0.08, seed=0
    )
    models = {
        "cnn": CnnServeModel(
            "cnn", make_small_cnn(3, channels=4, image_size=8, seed=0),
            config, calibration=data.x_train[:32], max_vectors_per_program=32,
        ),
        "ffn": TransformerMlpServeModel(
            "ffn", FFN, config, seed=0, max_vectors_per_program=16
        ),
    }
    for model, layer, bucket in sorted(CHUNK_CYCLES):
        _layer, builder, _bind = chunk_builder(
            config, (models, data), model, layer, bucket
        )
        name = f"chunk/{model}.{layer}x{bucket}"
        yield name, builder.compile
        yield name + "/no-sibling", partial(builder.compile, blacklist=NO_SIBLING)


def golden_programs():
    for name, build in GOLDEN_PROGRAMS.items():
        yield f"golden/{name}", build().compile


def suite_programs():
    """Every program a conformance case compiles, caught at ``_oracle``
    (the hand-built cases compile nothing and are skipped unrun)."""
    caught = []

    def catch(builder, tracker, inputs=None, warmup=False, compiled=None):
        caught.append(builder.compile)

    original, suite._oracle = suite._oracle, catch
    try:
        for name, case in suite.CASES:
            if "_oracle" not in case.__code__.co_names:
                continue
            case(small_test_chip(), None)
            for i, build in enumerate(caught):
                yield f"suite/{name}" + (f"#{i}" if i else ""), build
            caught.clear()
    finally:
        suite._oracle = original


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
        yield f"dag/{seed}", builder.compile
        if seed % 10 == 0:
            yield (f"dag/{seed}/degraded",
                   partial(builder.compile, blacklist=DEGRADED))


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
    """Activations already in flight cannot wait for a weight install."""
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
        yield f"tight/{streams}-streams", g.compile
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
        yield f"tight/{fill.__name__}", g.compile
    g = StreamProgramBuilder(config.with_overrides(streams_per_direction=8))
    matmuls(g)
    yield "tight/matmuls-8", g.compile
    for streams in (2, 4):
        g = StreamProgramBuilder(
            config.with_overrides(streams_per_direction=streams)
        )
        narrow(g)
        yield f"tight/narrow-{streams}", g.compile


def fuzz_shapes():
    config = small_test_chip()
    for shape in SHAPES:
        for seed in range(4):
            g = StreamProgramBuilder(config)
            shape(np.random.default_rng(seed), g, config.n_lanes,
                  config.lanes_per_superlane)
            name = f"{shape.__name__.replace('shape_', 'shape/')}/{seed}"
            yield name, g.compile
            if seed == 0:
                yield name + "/degraded", partial(g.compile, blacklist=DEGRADED)


def corpus():
    for source in (chunk_programs, golden_programs, suite_programs,
                   random_graphs, fuzz_shapes, tight_chips):
        yield from source()


def main(rebind: bool = False) -> int:
    total = hashlib.sha256()
    count = differ = 0
    for name, build in corpus():
        if rebind:
            fresh, build = rebound(build)
            if digest(fresh) != digest(build):
                name += "  != compiled from scratch"
                differ += 1
        line = f"{digest(build)}  {name}"
        print(line)
        total.update(line.encode())
        count += 1
    print(f"{total.hexdigest()}  TOTAL over {count} programs")
    if rebind:
        print(f"{count - differ} of {count} bound programs equal a fresh compile")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(rebind="--rebind" in sys.argv[1:]))

"""Pinned schedule lengths: the next scheduling change is a one-line diff.

The chunk programs here have the shapes of the repository benchmark's
models (``benchmarks/e2e/workloads.py``): the 8x8 4-channel CNN lowered
with ``max_vectors_per_program=32`` and the ``d_model=32, d_ff=64`` FFN
with ``=16``.  A compiled program's cycle count is a function of shape
alone, so the models are left untrained and every count below is exact.
A change to a number in this file is a change to the benchmark's
``sim_cycles_per_input`` — say so in the PR that makes it.

Every count is also *explained*: ``ScheduleStats``' critical-path marks
split it into feed + fill + stream + drain (EXPERIMENTS.md E21-E23), and
``test_marks_explain_every_cycle`` holds the table to the cycle.

Dispatches are pinned next to cycles: whether a program engages the far
hemisphere's MXM planes is decided by predicted cycles x predicted
instructions (``placement.matmul_parts``), so ``CHUNK_INSTRUCTIONS``
moves with the same care — and the closed form's prediction of both is
held equal to what the scheduler then emits.

A layer's same-height chunks run as the passes of one program
(``repro.compiler.repeat``): ``PASS_PROGRAMS`` pins each such program the
benchmark runs, with its period, its split and the closed form.
"""

import numpy as np
import pytest

from golden_programs import GOLDEN_PROGRAMS
from repro.arch import DType, Hemisphere
from repro.compiler import StreamProgramBuilder, execute
from repro.compiler import lower_mxm
from repro.compiler.placement import matmul_cost
from repro.compiler.repeat import join_passes
from repro.compiler.scheduler import Scheduler
from repro.config import small_test_chip
from repro.isa.encoding import encode_program_text
from repro.nn import make_shapes, make_small_cnn
from repro.nn.transformer import TransformerConfig
from repro.nn.tsp_inference import ChunkRunStats, build_chunk_builder
from repro.resil import Blacklist
from repro.serve import CnnServeModel, ProgramCache, TransformerMlpServeModel
from repro.isa.vxm import AluOp
from repro.sim import TspChip, alu
from repro.sim.replay import ReplayPlan
from repro.testing import redrawn
from repro.verify import assert_lockstep

FFN = TransformerConfig(
    d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1, vocab=128
)

#: cycles of one run of each (model, layer, rows) chunk program: a program
#: is built at exactly the rows it carries, so what the benchmark serves is
#: rows 1..8 (partial batches; ``cold-churn`` is one token, 31 + 35 cycles)
#: and whole ``max_vectors_per_program`` chunks; 8 and 16 are kept as pins
CHUNK_CYCLES = {
    ("cnn", "conv0", 8): 32,
    ("cnn", "conv0", 16): 32,
    ("cnn", "conv0", 32): 36,
    ("cnn", "conv1", 8): 38,
    ("cnn", "conv1", 16): 42,
    ("cnn", "conv1", 32): 50,
    ("cnn", "dense2", 8): 38,
    ("cnn", "dense2", 16): 42,
    ("cnn", "dense2", 32): 50,
    ("ffn", "dense0", 8): 38,
    ("ffn", "dense0", 16): 42,
    ("ffn", "dense1", 8): 42,
    ("ffn", "dense1", 16): 46,
}

#: instructions (NOPs aside) of the same programs
CHUNK_INSTRUCTIONS = {
    ("cnn", "conv0", 8): 52,
    ("cnn", "conv0", 16): 104,
    ("cnn", "conv0", 32): 190,
    ("cnn", "conv1", 8): 79,
    ("cnn", "conv1", 16): 122,
    ("cnn", "conv1", 32): 202,
    ("cnn", "dense2", 8): 75,
    ("cnn", "dense2", 16): 118,
    ("cnn", "dense2", 32): 198,
    ("ffn", "dense0", 8): 75,
    ("ffn", "dense0", 16): 118,
    ("ffn", "dense1", 8): 107,
    ("ffn", "dense1", 16): 150,
}

#: below 8 rows everything is one plane, where a row is one cycle of stream
#: and five instructions (an activation ``Read``, four result-byte
#: ``Write`` s): pinned at one row, the slope at the other six
for _layer, (_cycles, _instructions) in {
    ("cnn", "conv0"): (25, 17),
    ("cnn", "conv1"): (31, 44),
    ("cnn", "dense2"): (31, 40),
    ("ffn", "dense0"): (31, 40),
    ("ffn", "dense1"): (35, 72),
}.items():
    for _rows in range(1, 8):
        CHUNK_CYCLES[(*_layer, _rows)] = _cycles + _rows - 1
        CHUNK_INSTRUCTIONS[(*_layer, _rows)] = _instructions + 5 * (_rows - 1)

#: MXM planes each program streams its rows through, (West, East): only
#: ``conv0``'s nine weight chunks are cheap enough to copy to the far MXM
#: (cycles x instructions, near hemisphere alone -> both: x16 36 * 95 =
#: 3 420 -> 32 * 104 = 3 328, x32 44 * 175 = 7 700 -> 36 * 190 = 6 840);
#: ``conv1`` x32 (50 * 202 = 10 100 < 42 * 244 = 10 248) and ``dense2``
#: x32 (50 * 198 = 9 900 < 42 * 236 = 9 912) sit just short of break-even
#: — for one pass; a pass program pays the far copy once for two passes'
#: rows, and ``conv1`` x32 then takes all four (``PASS_PROGRAMS``)
CHUNK_PLANES = {
    key: (1, 0) if key[2] <= 8 else (2, 0) for key in CHUNK_CYCLES
} | {("cnn", "conv0", 16): (1, 1), ("cnn", "conv0", 32): (2, 2)}


def serve_models():
    """The benchmark's two models, untrained, and the CNN's dataset."""
    config = small_test_chip()
    data = make_shapes(
        n_train=160, n_test=64, image_size=8, n_classes=3, noise=0.08, seed=0
    )
    cnn = CnnServeModel(
        "cnn", make_small_cnn(3, channels=4, image_size=8, seed=0), config,
        calibration=data.x_train[:32], max_vectors_per_program=32,
    )
    ffn = TransformerMlpServeModel(
        "ffn", FFN, config, seed=0, max_vectors_per_program=16
    )
    return {"cnn": cnn, "ffn": ffn}, data


@pytest.fixture(scope="module")
def models():
    return serve_models()


#: the first matmul lands on MXM_W plane 0; this leaves it no sibling, so
#: the same graph compiles to the one-plane schedule
NO_SIBLING = Blacklist(mxm_planes=frozenset({(Hemisphere.WEST, 1)}))


LAYERS = sorted({key[:2] for key in CHUNK_CYCLES})


def chunk_builder(config, models, model, layer_name, bucket):
    runner = models[0][model].runner
    (layer,) = [
        l for l in runner.layers if getattr(l, "name", None) == layer_name
    ]
    return (layer, *build_chunk_builder(config, layer, bucket))


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_chunk_program_cycles(config, models, model, layer_name, bucket):
    layer, builder, bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    compiled = builder.compile()
    acts = np.zeros((bucket, layer.weight_q.shape[0]), dtype=np.int8)
    result = execute(
        compiled,
        inputs={name: acts[:, lo:hi] for name, lo, hi in bindings},
    )
    assert result.run.cycles == CHUNK_CYCLES[(model, layer_name, bucket)]
    assert result.run.cycles == compiled.stats.makespan + 1
    assert (
        compiled.stats.instructions
        == result.run.instructions - compiled.stats.nops_inserted
        == CHUNK_INSTRUCTIONS[(model, layer_name, bucket)]
    )


def chunk_inputs(bindings, rows, depth, seed):
    acts = np.random.default_rng(seed).integers(-128, 128, (rows, depth))
    return {name: acts[:, lo:hi].astype(np.int8) for name, lo, hi in bindings}


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_a_plan_bound_from_a_siblings_recording_is_its_own(
    config, models, model, layer_name, bucket
):
    """A replay plan belongs to the schedule: emitted with a never-seen
    model of the same shape and bound to this program's weights, it is
    the plan emitted with this program — the same ops, the same constant
    output words, the same activity, the same bits out — so the warm
    routes run the kernels they ran when every program had its own."""
    layer, builder, bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    depth = layer.weight_q.shape[0]
    own, stranger = builder.compile(), redrawn(builder).compile()
    assert own.schedule is not stranger.schedule
    direct = own.replay
    borrowed = stranger.schedule.plan.bind(own.image)
    assert direct.ok and borrowed.ok
    assert borrowed.activity == direct.activity
    assert [op[0] for op in borrowed.ops] == [op[0] for op in direct.ops]
    assert {
        name: [kind for kind, _ in words]
        for name, words in borrowed.out_words.items()
    } == {
        name: [kind for kind, _ in words]
        for name, words in direct.out_words.items()
    }
    batch = [chunk_inputs(bindings, bucket, depth, seed) for seed in (2, 3)]
    for a, b in zip(borrowed.run_batched(batch), direct.run_batched(batch)):
        assert a["acc"].tobytes() == b["acc"].tobytes()


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_chunk_programs_lockstep_with_a_sibling(
    config, models, model, layer_name, bucket
):
    layer, builder, bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    compiled = builder.compile()
    result = assert_lockstep(
        compiled,
        inputs=chunk_inputs(bindings, bucket, layer.weight_q.shape[0], 4),
        sibling=redrawn(builder).bind(compiled.schedule),
    )
    assert result.sibling.replay is not None


def test_rows_too_tall_for_one_slice_land_a_block_per_plane(config, models):
    """256 rows of ``conv0`` in one program: a bank holds 128 result words
    a slice, so the rows compile only because each plane lands just its
    own block — 64 rows on each of all four planes, 94 cycles, the numpy
    product bit for bit, and replay in lockstep with the simulation."""
    layer, builder, bindings = chunk_builder(config, models, "cnn", "conv0", 256)
    compiled = builder.compile()
    assert (compiled.stats.makespan + 1, compiled.stats.mxm_planes) == (94, 4)
    depth = layer.weight_q.shape[0]
    inputs = chunk_inputs(bindings, 256, depth, 5)
    result = assert_lockstep(
        compiled, inputs=inputs,
        sibling=redrawn(builder).bind(compiled.schedule),
    )
    acts = np.zeros((256, depth), dtype=np.int64)
    for name, lo, hi in bindings:
        acts[:, lo:hi] = inputs[name]
    expected = acts @ layer.weight_q.astype(np.int64)
    assert np.array_equal(result.simulated.outputs["acc"], expected)
    assert result.sibling.replay is not None


#: the n-pass programs the benchmark runs, (model, layer, rows, passes) ->
#: (period, cycles, instructions): ``closed-cnn``'s four images are
#: ``conv0`` x8 and ``conv1`` x2; one to three images run x2, x4, x6.
#: Planes are scored at two passes, the fewest a pass program serves:
#: ``conv1`` x2 on the near hemisphere's two planes would run P 16, 68
#: cycles and 366 instructions (24 888); on all four, P 8, 52 and 412
#: (21 424)
PASS_PROGRAMS = {
    ("cnn", "conv0", 32, 2): (8, 46, 358),
    ("cnn", "conv0", 32, 4): (8, 62, 694),
    ("cnn", "conv0", 32, 6): (8, 78, 1030),
    ("cnn", "conv0", 32, 8): (8, 94, 1366),
    ("cnn", "conv1", 32, 2): (8, 52, 412),
}


@pytest.fixture()
def costed(monkeypatch):
    """The ``matmul_cost`` arguments ``(parts, chunks, widths, clock)`` of
    every matmul scheduled during the test, in order."""
    calls = []

    def watching(rows, offers, chunks, widths, clock, passes=1):
        parts = matmul_parts(rows, offers, chunks, widths, clock, passes)
        calls.append((parts, chunks, widths, clock))
        return parts

    matmul_parts = lower_mxm.matmul_parts
    monkeypatch.setattr(lower_mxm, "matmul_parts", watching)
    return calls


def same_planes_one_pass(builder, parts, monkeypatch):
    """Cycles of the one-pass program of ``builder`` streaming through the
    planes of ``parts``, whatever a one-pass program would choose."""
    monkeypatch.setattr(
        lower_mxm, "matmul_parts", lambda *_args, **_kwargs: parts
    )
    return builder.compile().stats.makespan + 1


@pytest.mark.parametrize("model, layer_name, bucket, passes",
                         sorted(PASS_PROGRAMS))
def test_pass_programs_are_pinned_and_explained(
    config, models, costed, monkeypatch, model, layer_name, bucket, passes
):
    """An n-pass program runs ``cycles(1) + (n - 1) * period`` cycles,
    the closed form to the cycle and the instruction, where ``cycles(1)``
    is the one-pass program on the same planes.  Its split: that
    program's feed and fill, once; a row a cycle for every pass; and a
    drain two cycles longer than its, once — a pass recurs on every queue
    it touches, and its activations read on every cycle of the period
    from the two nearest free slices, so its results land clear of
    them."""
    layer, builder, bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    compiled = builder.compile(passes=passes)
    stats, source = compiled.stats, compiled.schedule.source
    period, cycles, instructions = PASS_PROGRAMS[
        (model, layer_name, bucket, passes)
    ]
    assert compiled.schedule.passes == passes
    assert source.pass_shape.period == period
    assert (stats.makespan + 1, stats.instructions) == (cycles, instructions)
    (args,) = costed
    assert matmul_cost(*args, passes=passes) == (cycles, instructions)
    one = same_planes_one_pass(builder, args[0], monkeypatch)
    assert matmul_cost(*args)[0] == one
    assert cycles == one + 2 + (passes - 1) * period
    feed = stats.first_operand
    fill = stats.first_result - stats.first_operand
    stream = passes * period
    drain = stats.last_write + 2 - stats.first_result - stream
    assert (feed, fill, drain) == (one - (fill + period + 9), 7, 11)
    assert feed + fill + stream + drain == cycles
    run = execute(
        compiled, inputs=chunk_pass_inputs(bindings, bucket, layer, passes),
        replay=False,
    ).run
    assert run.cycles == cycles


def chunk_pass_inputs(bindings, rows, layer, passes):
    """One seeded binding per pass, under the program's pass names."""
    depth = layer.weight_q.shape[0]
    return join_passes([
        chunk_inputs(bindings, rows, depth, seed) for seed in range(passes)
    ])


@pytest.mark.parametrize("model, layer_name", LAYERS)
def test_closed_form_is_exact_for_passes_at_every_row_count(
    config, models, costed, model, layer_name
):
    """Three passes of every row count from 1 to the cap, healthy and with
    no sibling plane: the closed form's n term holds wherever the benchmark
    could group chunks — a period bumped past a row count that divides
    the ``ABC`` to ``ACC`` lag included."""
    for rows in range(1, 33):
        _layer, builder, _bindings = chunk_builder(
            config, models, model, layer_name, rows
        )
        for blacklist in (None, NO_SIBLING):
            costed.clear()
            stats = builder.compile(blacklist=blacklist, passes=3).stats
            (args,) = costed
            assert matmul_cost(*args, passes=3) == (
                stats.makespan + 1, stats.instructions
            ), (rows, blacklist)


@pytest.fixture()
def predicted(monkeypatch):
    """``matmul_cost``'s (cycles, instructions) for the parts of every
    matmul scheduled during the test, in order."""
    predictions = []

    def watching(rows, offers, chunks, widths, clock, passes=1):
        parts = matmul_parts(rows, offers, chunks, widths, clock, passes)
        predictions.append(matmul_cost(parts, chunks, widths, clock, passes))
        return parts

    matmul_parts = lower_mxm.matmul_parts
    monkeypatch.setattr(lower_mxm, "matmul_parts", watching)
    return predictions


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_closed_form_predicts_cycles_and_instructions(
    config, models, predicted, model, layer_name, bucket
):
    """What ``matmul_parts`` weighs is what the scheduler then emits: the
    predicted (cycles, instructions) of the parts it chose are the pinned
    counts, split or not."""
    _layer, builder, _bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    stats = builder.compile().stats
    assert predicted == [(stats.makespan + 1, stats.instructions)]
    key = (model, layer_name, bucket)
    assert predicted == [(CHUNK_CYCLES[key], CHUNK_INSTRUCTIONS[key])]


@pytest.mark.parametrize("model, layer_name", LAYERS)
def test_closed_form_is_exact_at_every_row_count(
    config, models, predicted, model, layer_name
):
    """Not only at the pinned rows: with programs built at the rows they
    carry, any count from 1 to the cap is served, and ``matmul_cost``
    predicts the cycles *and* the instructions of each."""
    scheduled = []
    for rows in range(1, 33):
        _layer, builder, _bindings = chunk_builder(
            config, models, model, layer_name, rows
        )
        stats = builder.compile().stats
        scheduled.append((stats.makespan + 1, stats.instructions))
    assert predicted == scheduled


def test_more_rows_can_take_fewer_cycles(config, models):
    """The one place exact rows are not monotone: ``conv0`` at 12 rows
    runs 30 cycles where 8 rows run 32.  Planes are chosen by cycles x
    instructions, not cycles: copying ``conv0``'s nine weight chunks to
    the far MXM costs a dozen instructions, which the halved stream
    repays from 12 rows on (30 * 84 = 2 520 < 34 * 75 = 2 550 on the
    near hemisphere's two planes) and not at 8 (28 * 64 > 32 * 52) —
    and from 12 to 19 rows the two splits trade the lead row by row,
    each product within 2 % of the other."""
    def scheduled(rows):
        _layer, builder, _bindings = chunk_builder(
            config, models, "cnn", "conv0", rows
        )
        stats = builder.compile().stats
        return stats.makespan + 1, stats.instructions, stats.mxm_planes

    assert [scheduled(rows) for rows in range(8, 17)] == [
        (32, 52, 1), (33, 57, 1), (33, 65, 2), (33, 70, 2), (30, 84, 2),
        (34, 80, 2), (31, 94, 2), (35, 90, 2), (32, 104, 2),
    ]


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_marks_explain_every_cycle(config, models, model, layer_name, bucket):
    """cycles = feed + fill + stream + drain, each read off the marks:
    cycle 0 to the first activation at the MXM; on through the systolic
    array and ``ACC``; one cycle per row of the longest row block — the
    rows over every plane of both MXMs; the last result byte's transit to
    its slice (and the retiring cycle) — one plane's results reach the
    four nearest slices, two planes' the eight nearest, of their own
    hemisphere."""
    _layer, builder, _bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    compiled = builder.compile()
    stats = compiled.stats
    planes = CHUNK_PLANES[(model, layer_name, bucket)]
    assert planes == tuple(
        sum(
            str(icu).startswith(f"MXM_{side}") and str(icu).endswith("weights")
            for icu in compiled.program.icus
        )
        for side in "WE"
    )
    feed = stats.first_operand
    fill = stats.first_result - stats.first_operand
    stream = -(-bucket // sum(planes))
    drain = stats.last_write + 2 - stats.first_result - stream
    assert stats.mxm_planes == sum(planes)
    assert fill == 7
    assert drain == (5 if max(planes) == 1 else 9)
    assert feed == CHUNK_CYCLES[(model, layer_name, bucket)] - (
        fill + stream + drain
    )
    # the feed (weight reads, transit, install) is the layer's alone:
    # neither the row count nor a second plane moves it
    assert feed == CHUNK_CYCLES[(model, layer_name, 8)] - (7 + 8 + 5)


@pytest.mark.parametrize(
    "model, layer_name, bucket",
    [key for key in sorted(CHUNK_CYCLES) if key[2] == 8],
)
def test_eight_row_programs_keep_one_plane(
    config, models, model, layer_name, bucket
):
    """At 8 rows the halved stream (-4) ties with the deeper drain (+4) and
    a tie keeps one plane: the binary is byte-for-byte the one compiled
    with the sibling plane blacklisted."""
    _layer, builder, _bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )

    def encoded(compiled):
        program = compiled.program
        return {
            str(icu): encode_program_text(program.queue(icu))
            for icu in program.icus
        }

    healthy = builder.compile()
    assert healthy.stats.mxm_planes == 1
    assert encoded(healthy) == encoded(builder.compile(blacklist=NO_SIBLING))


def test_every_benchmark_layer_is_pinned(models):
    """The table covers each matrix layer at 1..8 rows and at each power
    of two up to its ``max_vectors_per_program``."""
    expected = set()
    for name, model in models[0].items():
        for layer in model.runner.layers:
            if hasattr(layer, "weight_q"):
                cap = model.runner.max_vectors
                expected |= {
                    (name, layer.name, rows)
                    for rows in (*range(1, 8), 8, 16, 32) if rows <= cap
                }
    assert expected == set(CHUNK_CYCLES)


def test_cnn_batch_of_four_images(config, models):
    """closed-cnn's unit of work: 8 conv0 and 2 conv1 chunks of 32 rows as
    the passes of two programs on all four MXM planes, and one dense chunk
    of the batch's 4 rows on one — 180 cycles, 45 per image (196 with
    conv1's passes on two planes, 422 as eleven programs).  Each term is
    feed + fill + stream + drain."""
    by_name, data = models
    stats = ChunkRunStats()
    by_name["cnn"].run_batch(
        TspChip(config), ProgramCache(), list(data.x_test[:4]), stats=stats
    )
    assert stats.programs == 3
    assert stats.cycles == (
        (12 + 7 + 8 * 8 + 11) + (18 + 7 + 2 * 8 + 11) + (18 + 7 + 4 + 5)
    ) == 180


def test_a_batch_interprets_what_chunk_programs_did(config, models,
                                                    monkeypatch):
    """Host work is unchanged: a batch of four images is three batched
    replays of 8, 2 and 1 bindings, each plan as many ops of each kind as
    the one-pass program's plan of its chunk — only the order of the
    writes and the cycles charged differ."""
    by_name, data = models
    runner = by_name["cnn"].runner
    replays = []
    run_batched = ReplayPlan.run_batched

    def counting(plan, inputs_list):
        replays.append((len(inputs_list), sorted(op[0] for op in plan.ops)))
        return run_batched(plan, inputs_list)

    monkeypatch.setattr(ReplayPlan, "run_batched", counting)
    by_name["cnn"].run_batch(
        TspChip(config), ProgramCache(), list(data.x_test[:4])
    )
    monkeypatch.setattr(ReplayPlan, "run_batched", run_batched)
    expected = []
    for layer, rows, batch in (("conv0", 32, 8), ("conv1", 32, 2),
                               ("dense2", 4, 1)):
        (compiled_layer,) = [l for l in runner.layers
                             if getattr(l, "name", None) == layer]
        builder, _bindings = build_chunk_builder(config, compiled_layer, rows)
        expected.append(
            (batch, sorted(op[0] for op in builder.compile().replay.ops))
        )
    assert replays == expected


def test_scheduler_runs_per_shape_not_per_pass_count(config, models,
                                                     monkeypatch):
    """Batches of one to four images group ``conv0`` chunks two, four, six
    and eight at a time, yet the scheduler runs once per (layer, rows)
    program and once more per pass schedule — eight runs in all."""
    by_name, data = models
    runs = []
    schedule = Scheduler.schedule

    def counting(scheduler, graph):
        runs.append(scheduler.periodic)
        return schedule(scheduler, graph)

    monkeypatch.setattr(Scheduler, "schedule", counting)
    cache, stats = ProgramCache(), ChunkRunStats()
    for images in (1, 2, 3, 4):
        by_name["cnn"].run_batch(
            TspChip(config), cache, list(data.x_test[:images]), stats=stats
        )
    # one-pass: conv1 x16 and x32, dense2 x1..x4; passes: conv0, conv1 x32
    assert (runs.count(False), runs.count(True)) == (6, 2)
    assert cache.stats.scheduled == len(runs)
    assert stats.cache_hits + stats.cache_misses == cache.stats.lookups


def test_ffn_single_token(config, models):
    """One decode token: both projections as one-row programs."""
    stats = ChunkRunStats()
    models[0]["ffn"].run_batch(
        TspChip(config), ProgramCache(), [np.ones(FFN.d_model)], stats=stats
    )
    assert stats.programs == 2
    assert stats.cycles == 31 + 35 == 66


def ffn_epilogue(models):
    """The FFN's two dense layers and the integer epilogue between them:
    ``(dense0, dense1, bias, scale)`` — dense0's bias in its int32
    accumulator's units, and the scale that converts that accumulator
    into dense1's int8 input domain."""
    d0, d1 = [layer for layer in models[0]["ffn"].runner.layers
              if getattr(layer, "name", "").startswith("dense")]
    bias = np.rint(d0.bias / (d0.in_scale * d0.weight_scale))
    return d0, d1, bias, d0.in_scale * d0.weight_scale / d1.in_scale


def fused_ffn_builder(config, models, rows):
    """The FFN as one program of ``rows`` rows: ``dense0``, int32 bias
    add, ``convert``, ReLU, ``dense1``."""
    d0, d1, bias, scale = ffn_epilogue(models)
    biases = np.tile(bias, (rows, 1)).astype(np.int32)
    g = StreamProgramBuilder(config)
    x = g.input_tensor("acts", (rows, d0.weight_q.shape[0]))
    hidden = g.add(g.matmul(d0.weight_q, x, name="w0"),
                   g.constant_tensor("bias", biases, DType.INT32))
    hidden = g.relu(g.convert(hidden, DType.INT8, scale=scale))
    g.write_back(g.matmul(d1.weight_q, hidden, name="w1"), "acc")
    return g


def test_fused_ffn_equals_its_two_programs(config, models):
    """The fused FFN (:func:`fused_ffn_builder`, checked with the rest of
    ``tests/corpus.py``) equals the two layer programs joined by the same
    integer epilogue on the host.  (Serving keeps two programs:
    EXPERIMENTS.md E40 measures what the fused one costs.)"""
    d0, d1, bias, scale = ffn_epilogue(models)
    width = d1.weight_q.shape[1]

    def layer(compiled_layer, rows, acts):
        builder, _bindings = build_chunk_builder(config, compiled_layer, rows)
        acc = execute(builder.compile(), inputs={"acts": acts}).outputs["acc"]
        return acc[:, : compiled_layer.weight_q.shape[1]].astype(np.int32)

    for rows in (1, 4, 8):
        biases = np.tile(bias, (rows, 1)).astype(np.int32)
        acts = np.random.default_rng(rows).integers(
            -127, 128, (rows, d0.weight_q.shape[0])
        ).astype(np.int8)
        hidden = alu.apply_convert(
            DType.INT32, DType.INT8, scale, alu.apply_binary(
                AluOp.ADD_SAT, DType.INT32, layer(d0, rows, acts), biases
            ),
        )
        two = layer(d1, rows, np.maximum(hidden, 0))
        fused = execute(
            fused_ffn_builder(config, models, rows).compile(),
            inputs={"acts": acts},
        ).outputs["acc"]
        assert np.array_equal(fused[:, :width], two)


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_run_length_is_the_scheduled_makespan(name):
    """The simulator retires the program one cycle after the last
    scheduled dispatch."""
    compiled = GOLDEN_PROGRAMS[name]().compile()
    result = execute(compiled)
    assert result.run.cycles == compiled.stats.makespan + 1

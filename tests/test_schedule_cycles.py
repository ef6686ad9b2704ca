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
instructions (``placement.matmul_parts``), and ``cold-churn`` simulates
every instruction it compiles, so ``CHUNK_INSTRUCTIONS`` moves with the
same care — and the closed form's prediction of both is held equal to
what the scheduler then emits.
"""

import numpy as np
import pytest

from golden_programs import GOLDEN_PROGRAMS
from repro.arch import Hemisphere
from repro.compiler import execute
from repro.compiler import lower_mxm
from repro.compiler.placement import matmul_cost
from repro.config import small_test_chip
from repro.isa.encoding import encode_program_text
from repro.nn import make_shapes, make_small_cnn
from repro.nn.transformer import TransformerConfig
from repro.nn.tsp_inference import ChunkRunStats, build_chunk_builder
from repro.resil import Blacklist
from repro.serve import CnnServeModel, ProgramCache, TransformerMlpServeModel
from repro.sim import TspChip

FFN = TransformerConfig(
    d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1, vocab=128
)

#: cycles of one run of each (model, layer, row bucket) chunk program
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

#: MXM planes each program streams its rows through, (West, East): only
#: ``conv0``'s nine weight chunks are cheap enough to copy to the far MXM
#: (cycles x instructions, near hemisphere alone -> both: x16 36 * 95 =
#: 3 420 -> 32 * 104 = 3 328, x32 44 * 175 = 7 700 -> 36 * 190 = 6 840);
#: ``conv1`` x32 (50 * 202 = 10 100 < 42 * 244 = 10 248) and ``dense2``
#: x32 (50 * 198 = 9 900 < 42 * 236 = 9 912) sit just short of break-even
CHUNK_PLANES = {
    key: (1, 0) if key[2] == 8 else (2, 0) for key in CHUNK_CYCLES
} | {("cnn", "conv0", 16): (1, 1), ("cnn", "conv0", 32): (2, 2)}


@pytest.fixture(scope="module")
def models():
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


#: the first matmul lands on MXM_W plane 0; this leaves it no sibling, so
#: the same graph compiles to the one-plane schedule
NO_SIBLING = Blacklist(mxm_planes=frozenset({(Hemisphere.WEST, 1)}))


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


@pytest.mark.parametrize("model, layer_name, bucket", sorted(CHUNK_CYCLES))
def test_closed_form_predicts_cycles_and_instructions(
    config, models, monkeypatch, model, layer_name, bucket
):
    """What ``matmul_parts`` weighs is what the scheduler then emits: the
    predicted (cycles, instructions) of the parts it chose are the pinned
    counts, split or not."""
    predicted = []

    def watching(rows, offers, chunks, widths, clock):
        parts = matmul_parts(rows, offers, chunks, widths, clock)
        predicted.append(matmul_cost(parts, chunks, widths, clock))
        return parts

    matmul_parts = lower_mxm.matmul_parts
    monkeypatch.setattr(lower_mxm, "matmul_parts", watching)
    _layer, builder, _bindings = chunk_builder(
        config, models, model, layer_name, bucket
    )
    stats = builder.compile().stats
    assert predicted == [(stats.makespan + 1, stats.instructions)]
    key = (model, layer_name, bucket)
    assert predicted == [(CHUNK_CYCLES[key], CHUNK_INSTRUCTIONS[key])]


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


def test_every_benchmark_bucket_is_pinned(models):
    """The table covers each matrix layer at each power-of-two bucket."""
    expected = set()
    for name, model in models[0].items():
        for layer in model.runner.layers:
            bucket = 8
            cap = model.runner.max_vectors
            while hasattr(layer, "weight_q") and bucket <= cap:
                expected.add((name, layer.name, bucket))
                bucket *= 2
    assert expected == set(CHUNK_CYCLES)


def test_cnn_batch_of_four_images(config, models):
    """closed-cnn's unit of work: 8 conv0 + 2 conv1 chunks of 32 rows and
    one 8-row dense chunk — 426 cycles, 106.5 per image."""
    by_name, data = models
    stats = ChunkRunStats()
    by_name["cnn"].run_batch(
        TspChip(config), ProgramCache(), list(data.x_test[:4]), stats=stats
    )
    assert stats.programs == 11
    assert stats.cycles == 8 * 36 + 2 * 50 + 38 == 426


def test_ffn_single_token(config, models):
    """One decode token: both projections in their 8-row bucket."""
    stats = ChunkRunStats()
    models[0]["ffn"].run_batch(
        TspChip(config), ProgramCache(), [np.ones(FFN.d_model)], stats=stats
    )
    assert stats.programs == 2
    assert stats.cycles == 38 + 42 == 80


@pytest.mark.parametrize("fast_forward", [False, True])
@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_run_length_is_the_scheduled_makespan(name, fast_forward):
    """The simulator retires the program one cycle after the last
    scheduled dispatch, in both execution engines."""
    compiled = GOLDEN_PROGRAMS[name]().compile()
    result = execute(compiled, fast_forward=fast_forward)
    assert result.run.cycles == compiled.stats.makespan + 1

"""One matmul on several MXM planes: both of its hemisphere, or all four.

A paired program differs from the one-plane program of the same graph
only in its schedule — two ``IW``s on one weight feed, the activation and
result rows laid out as two row blocks — and a program split across both
hemispheres only in a second weight copy and feed besides, so everything
a host can observe except the cycle count must be identical.  The
narrower schedules stay reachable without any switch: blacklist the far
hemisphere's planes and the same graph compiles to the near hemisphere
alone, blacklist the sibling plane too and it compiles to one plane.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DType, Hemisphere
from repro.compiler import Scheduler, StreamProgramBuilder, execute
from repro.compiler.runner import execute_batched
from repro.config import small_test_chip
from repro.resil import Blacklist
from repro.verify import assert_lockstep

CONFIG = small_test_chip()
LANES = CONFIG.n_lanes

#: the first matmul of a program lands on MXM_W plane 0: with MXM_E dark
#: it has the near hemisphere alone, with the sibling gone too one plane
FAR_PLANES = frozenset({(Hemisphere.EAST, 0), (Hemisphere.EAST, 1)})
NEAR_ONLY = Blacklist(mxm_planes=FAR_PLANES)
ONE_PLANE = Blacklist(mxm_planes=FAR_PLANES | {(Hemisphere.WEST, 1)})


def chunk_program(weights: np.ndarray, rows: int):
    """``input -> matmul -> write_back``, K-tiled like a serving chunk."""
    k = weights.shape[0]
    g = StreamProgramBuilder(CONFIG)
    bindings = [
        (f"acts{i}", start, min(start + LANES, k))
        for i, start in enumerate(range(0, k, LANES))
    ]
    handles = [
        g.input_tensor(name, (rows, end - start))
        for name, start, end in bindings
    ]
    g.write_back(g.matmul(weights, handles, name="weights"), name="acc")

    def bind(acts: np.ndarray) -> dict:
        return {name: acts[:, lo:hi] for name, lo, hi in bindings}

    return g, bind


def operands(k: int, m: int, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-127, 128, (k, m)).astype(np.int8)
    acts = rng.integers(-127, 128, (rows, k)).astype(np.int8)
    return weights, acts


def mnemonics(compiled) -> Counter:
    program = compiled.program
    return Counter(
        instruction.mnemonic
        for icu in program.icus
        for instruction in program.queue(icu)
        if instruction.mnemonic != "NOP"
    )


class TestPairingIsInvisibleExceptInCycles:
    @settings(max_examples=16, deadline=None)
    @given(
        k=st.integers(1, 2 * LANES),
        m=st.integers(1, LANES),
        rows=st.integers(8, 96),
        seed=st.integers(0, 2**16),
    )
    def test_same_answers_as_numpy_and_as_one_plane(self, k, m, rows, seed):
        weights, acts = operands(k, m, rows, seed)
        expected = acts.astype(np.int64) @ weights.astype(np.int64)
        builder, bind = chunk_program(weights, rows)
        healthy = builder.compile()
        near = builder.compile(blacklist=NEAR_ONLY)
        single = builder.compile(blacklist=ONE_PLANE)
        assert single.stats.mxm_planes == 1
        assert near.stats.mxm_planes == (2 if rows > 9 else 1)
        assert healthy.stats.mxm_planes >= near.stats.mxm_planes
        # the far hemisphere is engaged only where it shortens the program
        # by a larger share than it lengthens the instruction stream
        cost = lambda c: (c.stats.makespan + 1) * c.stats.instructions
        split = any(
            str(icu).startswith("MXM_E") for icu in healthy.program.icus
        )
        assert split == (cost(healthy) < cost(near))
        if not split:
            assert healthy.stats == near.stats
        assert (
            healthy.stats.makespan
            <= near.stats.makespan
            <= single.stats.makespan
        )

        inputs = bind(acts)
        for compiled in (healthy, near, single):
            assert np.array_equal(
                execute(compiled, inputs=inputs)["acc"], expected
            )
        # more planes, the same plan: not one op more to replay
        assert (
            len(healthy.replay.ops)
            == len(near.replay.ops)
            == len(single.replay.ops)
        )
        # simulation and recorded-plan replay agree on everything
        result = assert_lockstep(healthy, inputs=inputs)
        assert result.replay is not None, result.plan.reason
        # ... and so does the pure batched plan the warm path serves from
        other = operands(k, m, rows, seed + 1)[1]
        batch = execute_batched(healthy, [inputs, bind(other)])
        assert np.array_equal(batch[0]["acc"], expected)
        assert np.array_equal(
            batch[1]["acc"], other.astype(np.int64) @ weights.astype(np.int64)
        )

    def test_host_contract_is_one_tensor_per_name(self):
        """Row blocks live behind ``address_of``: the host still binds one
        ``acts`` and fetches one ``acc``, under the same cache key."""
        weights, _acts = operands(36, 4, 32, 0)
        builder, _bind = chunk_program(weights, 32)
        paired = builder.compile()
        single = builder.compile(blacklist=ONE_PLANE)
        assert paired.stats.mxm_planes == 2
        assert paired.cache_key == builder.fingerprint()
        assert paired.cache_key != single.cache_key
        for compiled in (paired, single):
            assert set(compiled.inputs) == {"acts0"}
            assert set(compiled.outputs) == {"acc"}
            assert compiled.outputs["acc"].n_vectors == 32
        layout = paired.outputs["acc"].layout
        assert layout.row_blocks == 2 and len(layout.planes) == 8
        assert paired.inputs["acts0"].layout.row_blocks == 2
        # all 32 rows of every byte-plane have distinct homes
        homes = {layout.address_of(p, j) for p in range(4) for j in range(32)}
        assert len(homes) == 4 * 32

    def test_host_contract_survives_a_split_across_hemispheres(self):
        """34 rows of light weights, K-tiled: blocks of 9 + 9 | 9 + 7 in
        West | East slices, behind one ``acts*`` / ``acc`` spec each and
        the graph's own cache key."""
        rows = 34
        weights, acts = operands(14, 4, rows, 4)
        g = StreamProgramBuilder(CONFIG)
        tiles = [
            g.input_tensor("acts0", (rows, 9)),
            g.input_tensor("acts1", (rows, 5)),
        ]
        g.write_back(g.matmul(weights, tiles, name="weights"), name="acc")
        split = g.compile()
        near = g.compile(blacklist=NEAR_ONLY)
        assert (split.stats.mxm_planes, near.stats.mxm_planes) == (4, 2)
        assert split.cache_key == g.fingerprint() != near.cache_key
        assert set(split.inputs) == {"acts0", "acts1"}
        assert set(split.outputs) == {"acc"}
        west, east = Hemisphere.WEST, Hemisphere.EAST
        for spec in (*split.inputs.values(), *split.outputs.values()):
            layout, n_bytes = spec.layout, spec.dtype.n_bytes
            assert spec.n_vectors == rows and layout.row_blocks == 4
            assert [
                (p.hemisphere, p.n_words) for p in layout.planes[::n_bytes]
            ] == [(west, 9), (west, 9), (east, 9), (east, 7)]
            homes = {
                layout.address_of(p, j)
                for p in range(n_bytes) for j in range(rows)
            }
            assert len(homes) == n_bytes * rows
        inputs = {"acts0": acts[:, :9], "acts1": acts[:, 9:]}
        expected = acts.astype(np.int64) @ weights.astype(np.int64)
        for compiled in (split, near):
            assert np.array_equal(
                execute(compiled, inputs=inputs)["acc"], expected
            )
        assert len(split.replay.ops) == len(near.replay.ops)


class TestWhatDoesNotPair:
    def test_fp16_tandem_keeps_its_two_planes(self):
        g = StreamProgramBuilder(CONFIG)
        acts = g.input_tensor("acts", (16, 32), DType.FP16)
        w = np.linspace(-1, 1, 32 * 16).astype(np.float16).reshape(32, 16)
        g.write_back(g.matmul(w, acts, name="w"), name="acc")
        compiled = g.compile()
        assert compiled.stats.mxm_planes == 1
        assert mnemonics(compiled)["IW"] == 1
        x = np.linspace(-2, 2, 16 * 32).astype(np.float16).reshape(16, 32)
        got = execute(compiled, inputs={"acts": x})["acc"]
        assert np.allclose(
            got, x.astype(np.float32) @ w.astype(np.float32), atol=1e-2
        )

    def test_a_result_chained_into_the_vxm_stays_one_stream(self):
        weights, acts = operands(36, 4, 32, 1)
        g = StreamProgramBuilder(CONFIG)
        handle = g.input_tensor("acts", (32, 36))
        q = g.convert(g.matmul(weights, handle, name="w"), DType.INT8, 0.01)
        g.write_back(q, name="y")
        compiled = g.compile()
        assert compiled.stats.mxm_planes == 1
        assert mnemonics(compiled)["IW"] == 1
        assert compiled.inputs["acts"].layout.row_blocks == 1
        acc = acts.astype(np.int64) @ weights.astype(np.int64)
        assert np.array_equal(
            execute(compiled, inputs={"acts": acts})["y"],
            np.clip(np.rint(acc * 0.01), -128, 127).astype(np.int8),
        )


class TestWorkCounts:
    """The second plane costs three MXM instructions per K-tile and nothing
    else: not one extra Read or Write, not one extra replay-plan op.  The
    far hemisphere's planes cost that and a second set of weight reads —
    still not one extra activation Read, Write or replay-plan op."""

    @pytest.mark.parametrize("k", [36, LANES + 9])
    def test_paired_is_single_plus_three_mxm_instructions(self, k):
        k_tiles = -(-k // LANES)
        weights, acts = operands(k, 8, 32, 2)
        builder, bind = chunk_program(weights, 32)
        paired = builder.compile()
        single = builder.compile(blacklist=ONE_PLANE)
        assert paired.stats.mxm_planes == 2
        assert (
            paired.stats.instructions
            == single.stats.instructions + 3 * k_tiles
        )
        extra = mnemonics(paired) - mnemonics(single)
        assert extra == Counter(IW=k_tiles, ABC=k_tiles, ACC=k_tiles)
        assert not mnemonics(single) - mnemonics(paired)

        for compiled in (paired, single):
            execute(compiled, inputs=bind(acts))
            assert compiled.replay is not None and compiled.replay.ok
        assert len(paired.replay.ops) == len(single.replay.ops)
        assert Counter(op[0] for op in paired.replay.ops) == Counter(
            op[0] for op in single.replay.ops
        )

    def test_split_is_near_only_plus_a_weight_copy_and_its_planes(self):
        """conv0's shape at 32 rows: 44 cycles * 175 instructions on the
        near hemisphere's two planes, 36 * 190 on all four — the nine
        weight reads again and an IW/ABC/ACC for each far plane."""
        weights, acts = operands(9, 4, 32, 5)
        builder, bind = chunk_program(weights, 32)
        split = builder.compile()
        near = builder.compile(blacklist=NEAR_ONLY)
        assert (split.stats.mxm_planes, near.stats.mxm_planes) == (4, 2)
        assert (near.stats.makespan + 1, near.stats.instructions) == (44, 175)
        assert (split.stats.makespan + 1, split.stats.instructions) == (36, 190)
        extra = mnemonics(split) - mnemonics(near)
        assert extra == Counter(Read=9, IW=2, ABC=2, ACC=2)
        assert not mnemonics(near) - mnemonics(split)

        for compiled in (split, near):
            execute(compiled, inputs=bind(acts))
            assert compiled.replay is not None and compiled.replay.ok
        assert len(split.replay.ops) == len(near.replay.ops) == 224
        assert Counter(op[0] for op in split.replay.ops) == Counter(
            op[0] for op in near.replay.ops
        )

    def test_the_winner_is_planned_once(self, monkeypatch):
        """Pairing and splitting are scored in closed form, never by
        scheduling both: one attempt per part of the schedule chosen."""
        entered = []
        original = Scheduler._try_matmul_at

        def counting(self, node, *args, **kwargs):
            entered.append(node.name)
            return original(self, node, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "_try_matmul_at", counting)
        for k, rows, attempts in ((36, 8, 1), (36, 32, 1), (9, 32, 2)):
            weights, _acts = operands(k, 4, rows, 3)
            entered.clear()
            chunk_program(weights, rows)[0].compile()
            assert len(entered) == attempts

"""Plane pairing: one matmul on both MXM planes of its hemisphere.

A paired program differs from the one-plane program of the same graph
only in its schedule — two ``IW``s on one weight feed, the activation and
result rows laid out as two row blocks — so everything a host can observe
except the cycle count must be identical.  The one-plane schedule stays
reachable without any switch: blacklist the sibling plane and the same
graph compiles to it.
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

#: the first matmul of a program lands on MXM_W plane 0
NO_SIBLING = Blacklist(mxm_planes=frozenset({(Hemisphere.WEST, 1)}))


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
    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(1, 2 * LANES),
        m=st.integers(1, LANES),
        rows=st.integers(8, 64),
        seed=st.integers(0, 2**16),
    )
    def test_same_answers_as_numpy_and_as_one_plane(self, k, m, rows, seed):
        weights, acts = operands(k, m, rows, seed)
        expected = acts.astype(np.int64) @ weights.astype(np.int64)
        builder, bind = chunk_program(weights, rows)
        paired = builder.compile()
        single = builder.compile(blacklist=NO_SIBLING)
        assert single.stats.mxm_planes == 1
        assert paired.stats.mxm_planes == (2 if rows > 9 else 1)
        assert paired.stats.makespan <= single.stats.makespan

        inputs = bind(acts)
        for compiled in (paired, single):
            assert np.array_equal(
                execute(compiled, inputs=inputs)["acc"], expected
            )
        # dense / fast-forward / recorded-plan replay agree on everything
        result = assert_lockstep(paired, inputs=inputs)
        assert result.replay is not None, result.plan.reason
        # ... and so does the pure batched plan the warm path serves from
        other = operands(k, m, rows, seed + 1)[1]
        batch = execute_batched(paired, [inputs, bind(other)])
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
        single = builder.compile(blacklist=NO_SIBLING)
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
    else: not one extra Read or Write, not one extra replay-plan op."""

    @pytest.mark.parametrize("k", [36, LANES + 9])
    def test_paired_is_single_plus_three_mxm_instructions(self, k):
        k_tiles = -(-k // LANES)
        weights, acts = operands(k, 8, 32, 2)
        builder, bind = chunk_program(weights, 32)
        paired = builder.compile()
        single = builder.compile(blacklist=NO_SIBLING)
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

    def test_the_winner_is_planned_once(self, monkeypatch):
        """Pairing is scored in closed form, never by scheduling both."""
        entered = []
        original = Scheduler._try_matmul_at

        def counting(self, node, *args, **kwargs):
            entered.append(node.name)
            return original(self, node, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "_try_matmul_at", counting)
        weights, _acts = operands(36, 4, 32, 3)
        for rows in (8, 32):
            entered.clear()
            chunk_program(weights, rows)[0].compile()
            assert len(entered) == 1

"""Degraded-mode serving equivalence: blacklisted hardware, same bits.

Property: a pool worker carrying a :class:`Blacklist` — one dead MEM
slice or one dead MXM plane, the post-quarantine "degraded spare" state —
serves any request mix bit-identical to the healthy sequential oracle.
The blacklist rides the graph fingerprint, so degraded recompiles flow
through the ordinary :class:`ProgramCache` next to healthy binaries, and
the allocator simply never places on the dead resource; the arithmetic
(and therefore the answer) is untouched.

The deterministic half pins the scale-out story: a 3-chip pipeline with
a dead ring cable re-routes stage hand-offs the long way around the ring
(store-and-forward through the intermediate chip) and still matches the
single-chip oracle even with the blacklisted MEM slice physically marked
dead on every chip.

Spreading a matmul over MXM planes degrades by itself: a worker that lost
the far hemisphere's planes, or the MEM slices next to them, serves the
near-hemisphere program of the same graph; one that also lost the
sibling plane, or the slices a second result would land in, the
one-plane program — same bits, its own cache key each.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import Hemisphere
from repro.compiler import execute
from repro.config import small_test_chip
from repro.errors import CompileError
from repro.isa.encoding import encode_program_text
from repro.nn import Dense, ReLU, Sequential
from repro.nn.scaleout import execute_pipeline, plan_runner_partition
from repro.nn.tsp_inference import TspCnnRunner, build_chunk_builder
from repro.resil import Blacklist, assert_avoids, compile_degraded
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ProgramCache,
    TransformerMlpServeModel,
)
from repro.nn.transformer import TransformerConfig
from repro.sim import MultiChipSystem
from repro.sim.chip import TspChip

CONFIG = small_test_chip()


def make_mlp(name="mlp", seed=0):
    return TransformerMlpServeModel(
        name,
        TransformerConfig(d_model=16, n_heads=2, d_ff=32,
                          seq_len=8, n_layers=1, vocab=64),
        CONFIG,
        seed=seed,
        max_vectors_per_program=8,
    )


@pytest.fixture(scope="module")
def mlp():
    return make_mlp()


def one_resource_blacklists():
    """Every single-resource blacklist the small chip can lose."""
    hemis = st.sampled_from([Hemisphere.WEST, Hemisphere.EAST])
    mem = st.tuples(
        hemis, st.integers(0, CONFIG.mem_slices_per_hemisphere - 1)
    ).map(lambda p: Blacklist(mem_slices=frozenset({p})))
    mxm = st.tuples(
        hemis, st.integers(0, CONFIG.mxm_planes - 1)
    ).map(lambda p: Blacklist(mxm_planes=frozenset({p})))
    return st.one_of(mem, mxm)


class TestDegradedWorkerBitIdentical:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        blacklist=one_resource_blacklists(),
        seed=st.integers(0, 2**16),
        n_requests=st.integers(1, 6),
    )
    def test_served_mix_matches_sequential_oracle(
        self, mlp, blacklist, seed, n_requests
    ):
        rng = np.random.default_rng(seed)
        payloads = [rng.standard_normal(16) for _ in range(n_requests)]
        with InferenceServer(
            CONFIG, [mlp], n_workers=1,
            default_policy=BatchPolicy(max_batch=3, max_delay_s=0.001),
        ) as server:
            worker = server.pool.workers[0]
            # the post-repair "degraded spare" state, installed directly
            # (state is derived from the blacklist, no longer assigned)
            worker.blacklist = blacklist
            futures = [
                server.submit("mlp", p, deadline_s=60.0)
                for p in payloads
            ]
            for payload, future in zip(payloads, futures):
                result = future.result(timeout=120.0)
                reference = server.sequential_reference("mlp", payload)
                assert np.array_equal(result.output, reference), (
                    f"degraded serve diverged under {blacklist.describe()}"
                )
            assert worker.state == "degraded"
            assert not server.pool.quarantined

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        blacklist=one_resource_blacklists(),
        seed=st.integers(0, 2**16),
    )
    def test_runner_matches_reference(self, mlp, blacklist, seed):
        """Below the pool: the degraded compile itself is bit-exact."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 16))
        oracle = mlp.runner.forward(x)
        chip = TspChip(CONFIG, chip_id="degraded")
        degraded = mlp.runner.forward(
            x, chip=chip, cache=ProgramCache(), blacklist=blacklist,
        )
        assert np.array_equal(degraded.logits, oracle.logits)


FAR_PLANES = frozenset({(Hemisphere.EAST, 0), (Hemisphere.EAST, 1)})


@pytest.fixture(scope="module")
def dense_runner():
    rng = np.random.default_rng(5)
    model = Sequential([
        Dense(16, 32, rng=np.random.default_rng(6)),
        ReLU(),
        Dense(32, 8, rng=np.random.default_rng(7)),
    ])
    return TspCnnRunner(
        model, CONFIG, rng.standard_normal((24, 16)),
        max_vectors_per_program=32,
    )


def encoded(compiled):
    program = compiled.program
    return {
        str(icu): encode_program_text(program.queue(icu))
        for icu in program.icus
    }


class TestSplitDegradesByItself:
    """The first layer's 32-row chunks (16 weight chunks: cheap to copy)
    stream through all four planes on a healthy chip; no switch turns
    that off — a blacklist that takes away what the far hemisphere's part
    needs does, and what is left is the two-plane binary compiled before
    the far planes were ever engaged.  This is the recipe for comparing
    split against unsplit."""

    DEGRADED = {
        "far planes": Blacklist(mxm_planes=FAR_PLANES),
        # MEM_E4..E15 dead: the healthy slices nearest MXM_E are 14 hops
        # away, too far for a weight copy or a result to pay
        "far near slices": Blacklist(
            mem_slices=frozenset((Hemisphere.EAST, i) for i in range(4, 16))
        ),
    }

    @pytest.mark.parametrize("lost", sorted(DEGRADED))
    def test_near_hemisphere_program_same_bits_own_key(
        self, dense_runner, lost
    ):
        blacklist = self.DEGRADED[lost]
        layer = dense_runner.layers[0]
        builder, bindings = build_chunk_builder(CONFIG, layer, 32)
        healthy = builder.compile()
        degraded = compile_degraded(builder, blacklist)
        with pytest.raises(CompileError, match="degraded-mode violation"):
            assert_avoids(healthy, blacklist)
        assert healthy.stats.mxm_planes == 4
        assert degraded.stats.mxm_planes == 2
        assert healthy.stats.makespan + 8 == degraded.stats.makespan
        assert healthy.cache_key != degraded.cache_key
        # whichever way the far hemisphere was lost, the same binary: the
        # near hemisphere's, which never touched anything East
        others = [
            builder.compile(blacklist=other)
            for name, other in self.DEGRADED.items() if name != lost
        ]
        for other in others:
            assert encoded(other) == encoded(degraded)
            assert other.cache_key != degraded.cache_key
        acts = np.random.default_rng(8).integers(
            -127, 128, (32, layer.weight_q.shape[0])
        ).astype(np.int8)
        inputs = {name: acts[:, lo:hi] for name, lo, hi in bindings}
        assert np.array_equal(
            execute(healthy, inputs=inputs)["acc"],
            execute(degraded, inputs=inputs)["acc"],
        )

    @pytest.mark.parametrize("lost", sorted(DEGRADED))
    def test_served_batch_matches_the_healthy_oracle(self, dense_runner, lost):
        """A batch is a program of exactly its rows.  The first layer's far
        copy pays from 24 rows on — four planes stream 6 rows each where
        the near two would stream 12 — but losing the far hemisphere
        gives back 4 cycles, not 6 (nor 8 of 16 at 32 rows): the degraded
        runner packs two rows a vector instead (12 and 16 rows of depth
        32, ``TspCnnRunner.rows_per_vector``) — and a 20-row batch packs
        two a vector on either chip: same cycles, own cache keys.  The
        second layer is unmoved throughout."""
        for rows, back in ((20, 0), (24, 4), (32, 4)):
            x = np.random.default_rng(9).standard_normal((rows, 16))
            cache = ProgramCache()
            oracle = dense_runner.forward(x, cache=cache)
            resident = len(cache)
            degraded = dense_runner.forward(
                x, chip=TspChip(CONFIG, chip_id="degraded"), cache=cache,
                blacklist=self.DEGRADED[lost],
            )
            assert np.array_equal(degraded.logits, oracle.logits)
            assert len(cache) == 2 * resident
            assert degraded.total_cycles == oracle.total_cycles + back


class TestPairingDegradesByItself:
    """With the far hemisphere dark, 32-row chunks stream through both
    planes of MXM_W; no switch turns that off either — a blacklist that
    takes away what the second plane needs does."""

    DEGRADED = {
        "sibling plane": Blacklist(
            mxm_planes=FAR_PLANES | {(Hemisphere.WEST, 1)}
        ),
        # MEM_W11..W0 dead: past the four slices nearest MXM_W the next
        # healthy ones are across the chip, too far for a second result
        "far result slices": Blacklist(
            mxm_planes=FAR_PLANES,
            mem_slices=frozenset((Hemisphere.WEST, i) for i in range(12)),
        ),
    }

    @pytest.mark.parametrize("lost", sorted(DEGRADED))
    def test_one_plane_program_same_bits_own_key(self, dense_runner, lost):
        blacklist = self.DEGRADED[lost]
        layer = dense_runner.layers[0]
        builder, bindings = build_chunk_builder(CONFIG, layer, 32)
        healthy = builder.compile(blacklist=Blacklist(mxm_planes=FAR_PLANES))
        degraded = compile_degraded(builder, blacklist)
        assert healthy.stats.mxm_planes == 2
        assert degraded.stats.mxm_planes == 1
        assert healthy.cache_key != degraded.cache_key
        acts = np.random.default_rng(8).integers(
            -127, 128, (32, layer.weight_q.shape[0])
        ).astype(np.int8)
        inputs = {name: acts[:, lo:hi] for name, lo, hi in bindings}
        assert np.array_equal(
            execute(healthy, inputs=inputs)["acc"],
            execute(degraded, inputs=inputs)["acc"],
        )

    @pytest.mark.parametrize("lost", sorted(DEGRADED))
    def test_served_batch_matches_the_healthy_oracle(self, dense_runner, lost):
        """A 20-row batch is a 20-row program per layer: healthy and
        degraded binaries of every layer sit side by side in one cache."""
        x = np.random.default_rng(9).standard_normal((20, 16))
        cache = ProgramCache()
        oracle = dense_runner.forward(x, cache=cache)
        resident = len(cache)
        degraded = dense_runner.forward(
            x, chip=TspChip(CONFIG, chip_id="degraded"), cache=cache,
            blacklist=self.DEGRADED[lost],
        )
        assert np.array_equal(degraded.logits, oracle.logits)
        assert len(cache) == 2 * resident
        assert degraded.total_cycles > oracle.total_cycles


class TestRingRerouteBitIdentical:
    def pipeline_runner(self, seed=3):
        rng = np.random.default_rng(seed)
        model = Sequential([
            Dense(16, 32, rng=np.random.default_rng(seed + 1)),
            ReLU(),
            Dense(32, 16, rng=np.random.default_rng(seed + 2)),
            ReLU(),
            Dense(16, 8, rng=np.random.default_rng(seed + 3)),
        ])
        runner = TspCnnRunner(
            model, CONFIG, rng.standard_normal((24, 16)),
            max_vectors_per_program=32,
        )
        return runner, rng.standard_normal((3, 16))

    def test_dead_cable_reroutes_around_ring(self):
        runner, x = self.pipeline_runner()
        oracle = runner.forward(x)
        # cable 0 (East(0) <-> West(1)) dark: the stage-0 -> stage-1
        # hand-off must go 0 -> 2 -> 1 the long way around
        blacklist = Blacklist(ring_cables=frozenset({0}))
        result = execute_pipeline(
            runner, x, plan_runner_partition(runner, 3), blacklist=blacklist
        )
        assert np.array_equal(result.logits, oracle.logits)

    def test_reroute_with_physically_dead_slice(self):
        """Combined fault: cable 0 dark AND MEM slice (WEST, 0) dead on
        every chip.  If any degraded program still touched the dead
        slice, the simulator would raise MemoryFaultError — bit-equality
        therefore proves the blacklist was honoured end to end,
        including the re-picked C2C staging slice."""
        runner, x = self.pipeline_runner()
        oracle = runner.forward(x)
        system = MultiChipSystem.ring(CONFIG, 3)
        for chip in system.chips:
            chip.mem_unit(Hemisphere.WEST, 0).mark_dead()
        blacklist = Blacklist(
            mem_slices=frozenset({(Hemisphere.WEST, 0)}),
            ring_cables=frozenset({0}),
        )
        result = execute_pipeline(
            runner, x, plan_runner_partition(runner, 3), system=system,
            blacklist=blacklist,
        )
        assert np.array_equal(result.logits, oracle.logits)

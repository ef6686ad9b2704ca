"""The content-addressed compiled-program cache.

The safety property: the cache must never serve a program compiled for a
different (graph, shape, dtype, config) — a stale hit would silently
execute the wrong binary on a deterministic chip, which no downstream
check could catch.  So the fingerprint must move when anything the
scheduler can see moves, and stay fixed when nothing does.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DType
from repro.compiler import (
    StreamProgramBuilder,
    config_fingerprint,
    execute,
    graph_fingerprint,
)
from repro.config import ArchConfig, small_test_chip
from repro.serve import ProgramCache


def build_matmul(config, w, n_rows=2, name="x", dtype=DType.INT8):
    g = StreamProgramBuilder(config)
    x = g.input_tensor(name, (n_rows, w.shape[0]), dtype)
    g.write_back(g.matmul(w, x), name="r")
    return g


@pytest.fixture
def weights(rng):
    return rng.integers(-8, 8, (16, 16)).astype(np.int8)


class TestFingerprint:
    def test_deterministic(self, config, weights):
        a = build_matmul(config, weights).fingerprint()
        b = build_matmul(config, weights).fingerprint()
        assert a == b

    def test_shape_changes_key(self, config, weights):
        a = build_matmul(config, weights, n_rows=2).fingerprint()
        b = build_matmul(config, weights, n_rows=3).fingerprint()
        assert a != b

    def test_dtype_changes_key(self, config):
        # fingerprints hash the lowered graph, so dtype sensitivity is
        # checkable without a full matmul pipeline around the input
        def graph_with(dtype):
            g = StreamProgramBuilder(config)
            x = g.input_tensor("x", (2, 16), dtype)
            g.write_back(x, name="r")
            return graph_fingerprint(g.graph, g.config)

        assert graph_with(DType.INT8) != graph_with(DType.UINT8)

    def test_weights_change_key(self, config, weights):
        other = weights.copy()
        other[0, 0] += 1
        a = build_matmul(config, weights).fingerprint()
        b = build_matmul(config, other).fingerprint()
        assert a != b

    def test_input_name_changes_key(self, config, weights):
        a = build_matmul(config, weights, name="x").fingerprint()
        b = build_matmul(config, weights, name="y").fingerprint()
        assert a != b

    def test_config_changes_key(self, weights):
        small = small_test_chip()
        wider = ArchConfig(
            n_superlanes=small.n_superlanes * 2,
            mem_slices_per_hemisphere=small.mem_slices_per_hemisphere,
            mem_addr_bits=small.mem_addr_bits,
            mxm_plane_rows=small.mxm_plane_rows * 2,
            mxm_plane_cols=small.mxm_plane_cols,
            n_icus=small.n_icus,
        )
        wider.validate()
        assert config_fingerprint(small) != config_fingerprint(wider)
        a = build_matmul(small, weights).fingerprint()
        b = build_matmul(wider, weights).fingerprint()
        assert a != b

    def test_attached_to_compiled_program(self, config, weights):
        g = build_matmul(config, weights)
        compiled = g.compile()
        assert compiled.cache_key == g.fingerprint()


    def test_golden_key_is_pinned(self):
        """Keys outlive processes (and, one day, live on disk): the byte
        stream behind a digest may be assembled differently, never change."""
        config = small_test_chip()
        w = (np.arange(128).reshape(16, 8) % 7 - 3).astype(np.int8)
        g = StreamProgramBuilder(config)
        x = g.input_tensor("x", (4, 16))
        g.write_back(g.matmul(w, x, name="w"), name="y")
        assert g.fingerprint() == (
            "000259e0b2734aa15385b6cd9d9c0803"
            "b35042837878bd3fc46287b0485a95c8"
        )
        assert g.compile().cache_key == g.fingerprint()
        assert config_fingerprint(config) == (
            "122dc044c1bd3aab81c49a8632d3ce62"
            "d39883cf4a464ee7017828f0cfece643"
        )

    def test_cache_miss_hashes_the_graph_once(
        self, config, weights, monkeypatch
    ):
        from repro.compiler import api, cachekey
        from repro.serve import cache as cache_module

        hashed = []

        def counting(*args, **kwargs):
            hashed.append(1)
            return cachekey.graph_fingerprint(*args, **kwargs)

        monkeypatch.setattr(api, "graph_fingerprint", counting)
        monkeypatch.setattr(cache_module, "graph_fingerprint", counting)
        g = build_matmul(config, weights)
        program, key, hit, _ = ProgramCache().get_or_compile(g)
        assert not hit and program.cache_key == key
        assert len(hashed) == 1
        assert key == cachekey.graph_fingerprint(g.graph, g.config)


class TestLru:
    def test_hit_after_put(self, config, weights):
        cache = ProgramCache(capacity=4)
        g = build_matmul(config, weights)
        program, key, hit, _ = cache.get_or_compile(g)
        assert not hit
        again, key2, hit2, compile_s = cache.get_or_compile(
            build_matmul(config, weights)
        )
        assert hit2 and key2 == key and compile_s == 0.0
        assert again is program
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_order(self, config, rng):
        cache = ProgramCache(capacity=2)
        keys = []
        for i in range(3):
            w = rng.integers(-8, 8, (16, 16)).astype(np.int8)
            _, key, _, _ = cache.get_or_compile(build_matmul(config, w))
            keys.append(key)
        assert cache.stats.evictions == 1
        assert keys[0] not in cache  # least recently used got dropped
        assert keys[1] in cache and keys[2] in cache

    def test_refresh_on_hit_protects_from_eviction(self, config, rng):
        cache = ProgramCache(capacity=2)
        ws = [
            rng.integers(-8, 8, (16, 16)).astype(np.int8)
            for _ in range(3)
        ]
        _, k0, _, _ = cache.get_or_compile(build_matmul(config, ws[0]))
        cache.get_or_compile(build_matmul(config, ws[1]))
        cache.get_or_compile(build_matmul(config, ws[0]))  # refresh 0
        cache.get_or_compile(build_matmul(config, ws[2]))  # evicts 1
        assert k0 in cache

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)


class TestSingleFlight:
    def test_concurrent_misses_compile_once(self, config, weights):
        cache = ProgramCache(capacity=4)
        compiles = []
        compile_lock = threading.Lock()
        barrier = threading.Barrier(4)

        class CountingBuilder:
            def __init__(self):
                self.inner = build_matmul(config, weights)
                self.graph = self.inner.graph
                self.config = self.inner.config
                self.timing = self.inner.timing

            def compile(self, blacklist=None, cache_key=None):
                with compile_lock:
                    compiles.append(threading.current_thread().name)
                return self.inner.compile(
                    blacklist=blacklist, cache_key=cache_key
                )

        results = []
        def worker():
            barrier.wait()
            results.append(cache.get_or_compile(CountingBuilder()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(compiles) == 1  # one leader, three coalesced waiters
        assert len(results) == 4
        programs = {id(r[0]) for r in results}
        assert len(programs) == 1
        assert sum(1 for r in results if not r[2]) == 1  # one true miss

    def test_leader_failure_propagates_to_waiters(self, config, weights):
        cache = ProgramCache(capacity=4)
        boom = RuntimeError("scheduler exploded")

        class FailingBuilder:
            def __init__(self):
                inner = build_matmul(config, weights)
                self.graph = inner.graph
                self.config = inner.config
                self.timing = inner.timing

            def compile(self, blacklist=None, cache_key=None):
                raise boom

        with pytest.raises(RuntimeError):
            cache.get_or_compile(FailingBuilder())
        # the failed flight is cleared: a later attempt retries the compile
        program, _, hit, _ = cache.get_or_compile(
            build_matmul(config, weights)
        )
        assert not hit and program is not None


class TestNeverWrongProgram:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(1, 4),
        k=st.sampled_from([8, 16, 24]),
    )
    def test_cached_program_matches_key_semantics(self, seed, n_rows, k):
        """Property: whatever mix of shapes hits one shared cache, every
        returned program executes with the semantics of *its* graph."""
        config = small_test_chip()
        cache = self.shared_cache
        rng = np.random.default_rng(seed)
        w = rng.integers(-8, 8, (k, 16)).astype(np.int8)
        x = rng.integers(-8, 8, (n_rows, k)).astype(np.int8)
        g = build_matmul(config, w, n_rows=n_rows)
        program, key, _, _ = cache.get_or_compile(g)
        assert program.cache_key == key  # identity, not just presence
        result = execute(program, inputs={"x": x})
        expected = (
            x.astype(np.int64) @ w.astype(np.int64)
        ).astype(np.int32)
        assert np.array_equal(result["r"], expected)

    shared_cache = ProgramCache(capacity=8)  # small: forces evictions

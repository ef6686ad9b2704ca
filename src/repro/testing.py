"""Shared fixture helpers for the test and benchmark suites.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need the same
chip configurations and deterministic RNG seeding; the factories live here
so the two conftests stay thin wrappers instead of drifting copies.  Kept
inside the package (rather than under ``tests/``) so the benchmark suite
can import it without path games.
"""

from __future__ import annotations

import copy

import numpy as np

from .compiler.graph import OpKind
from .config import ArchConfig, groq_tsp_v1, small_test_chip

#: every suite derives its random data from this seed unless a test
#: deliberately varies it — keeps failures reproducible across suites
DEFAULT_TEST_SEED = 1234


def make_full_config() -> ArchConfig:
    """The paper's first-generation TSP."""
    return groq_tsp_v1()


def make_small_config() -> ArchConfig:
    """The fast 64-lane test chip used by most tests."""
    return small_test_chip()


def make_rng(seed: int = DEFAULT_TEST_SEED) -> np.random.Generator:
    """The suites' deterministic random source."""
    return np.random.default_rng(seed)


def draw(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Values at ``shape`` and numpy ``dtype``: integers over the dtype's
    range, floats from [0.25, 2) — finite and positive, inside the domain
    of every float op the suites build (``rsqrt``, ``exp``, ``tanh``)."""
    if np.issubdtype(dtype, np.floating):
        data = rng.uniform(0.25, 2.0, shape)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, shape, endpoint=True)
    return data.astype(dtype)


def redrawn(builder, seed: int = 1):
    """A never-seen model of ``builder``'s shape: a twin holding the same
    graph with every constant redrawn (:func:`draw`) at its shape and
    dtype (a matmul's weight tiles are cut from its new weights), so
    ``redrawn(b).bind(b.schedule())`` is another program of ``b``'s
    schedule.
    """
    rng = np.random.default_rng(seed)
    twin = copy.copy(builder)
    graph = twin.graph = copy.deepcopy(builder.graph)
    for node in graph.nodes.values():
        if node.kind is OpKind.CONSTANT:
            node.data = draw(rng, node.data.shape, node.data.dtype)
    for node in graph.nodes.values():
        if node.kind is OpKind.MATMUL:
            weights = graph.node(node.inputs[0]).data
            cuts = np.cumsum([t.shape[0] for t in node.params["weight_tiles"]])
            node.params["weight_tiles"] = np.split(weights, cuts[:-1])
    return twin

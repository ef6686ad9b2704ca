"""Servable model adapters.

A :class:`ServeModel` turns a list of request payloads into a list of
outputs, with every multiply running on a (pooled) simulated chip through
the compiled-program cache.  Two adapters cover the initial workloads:

* :class:`CnnServeModel` — the :mod:`repro.nn.tsp_inference` CNN path;
  requests are single images, batched along the vector dimension.
* :class:`TransformerMlpServeModel` — the static-weight matmuls of an
  :mod:`repro.nn.transformer` decode step (the FFN up/down projections,
  per-token), the batch-1 token stream "Answer Fast" serves on real TSPs;
  requests are single ``d_model`` token vectors.

The serving contract both honour: batching happens along the MXM's
vector-index dimension, where per-row results are independent, so a
batched forward restricted to one request's rows is bit-identical to
running that request alone (:meth:`ServeModel.run_reference` — the
differential oracle of the serve test suite).
"""

from __future__ import annotations

import numpy as np

from ..config import ArchConfig
from ..errors import ServeError
from ..nn.layers import Dense, ReLU
from ..nn.model import Sequential
from ..nn.scaleout import execute_pipeline, plan_runner_partition
from ..nn.transformer import TransformerConfig
from ..nn.tsp_inference import ChunkRunStats, TspCnnRunner


class ServeModel:
    """One named, servable workload."""

    name: str
    #: expected payload shape, for submission-time validation
    payload_shape: tuple[int, ...]
    #: chips this model needs per batch; a pool worker hands models with
    #: ``n_chips > 1`` its whole :class:`~repro.sim.MultiChipSystem`
    #: instead of a single chip
    n_chips: int = 1

    def validate(self, payload: np.ndarray) -> None:
        if tuple(payload.shape) != self.payload_shape:
            raise ServeError(
                f"model {self.name!r} expects payload shape "
                f"{self.payload_shape}, got {tuple(payload.shape)}"
            )

    def run_batch(
        self, chip, cache, payloads: list[np.ndarray],
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> list[np.ndarray]:
        """Execute one batch; returns one output per payload, in order.

        ``blacklist`` (a :class:`repro.resil.Blacklist`, or None) is the
        degraded-serving contract: the adapter must compile every program
        through the cache with it, so a worker with dead hardware serves
        bit-identical results on what remains.  The pool only passes it
        when non-empty, so adapters that never degrade may ignore it.
        """
        raise NotImplementedError

    def run_reference(self, payload: np.ndarray) -> np.ndarray:
        """Sequential unbatched oracle: one request, fresh chip, no cache."""
        raise NotImplementedError


class _RunnerServeModel(ServeModel):
    """Shared plumbing: any model expressible as a TspCnnRunner pipeline.

    ``max_vectors_per_program`` is the runner's *pass height*: a batch's
    rows of a layer are cut into equal passes of at most that many, which
    stream through one weight install (:mod:`repro.compiler.repeat`).
    The name predates passes and stays because the repository
    benchmark's workload table passes it.
    """

    def __init__(
        self,
        name: str,
        model: Sequential,
        config: ArchConfig,
        calibration: np.ndarray,
        payload_shape: tuple[int, ...],
        max_vectors_per_program: int = 64,
    ) -> None:
        self.name = name
        self.payload_shape = payload_shape
        self.config = config
        # the runner is immutable after lowering (quantized weights and
        # scales only), so one instance is shared by every pool worker
        self.runner = TspCnnRunner(
            model, config, calibration,
            max_vectors_per_program=max_vectors_per_program,
        )

    def run_batch(
        self, chip, cache, payloads: list[np.ndarray],
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> list[np.ndarray]:
        x = np.stack(payloads)
        result = self.runner.forward(
            x, chip=chip, cache=cache, stats=stats, blacklist=blacklist
        )
        return [result.logits[i] for i in range(len(payloads))]

    def run_reference(self, payload: np.ndarray) -> np.ndarray:
        return self.runner.forward(payload[None]).logits[0]


class CnnServeModel(_RunnerServeModel):
    """Serve a host-trained CNN through the Section IV deployment path."""

    def __init__(
        self,
        name: str,
        model: Sequential,
        config: ArchConfig,
        calibration: np.ndarray,
        max_vectors_per_program: int = 64,
    ) -> None:
        super().__init__(
            name, model, config, calibration,
            payload_shape=tuple(calibration.shape[1:]),
            max_vectors_per_program=max_vectors_per_program,
        )


class ShardedCnnServeModel(CnnServeModel):
    """A CNN pipeline-partitioned across a ring of chips.

    The executed scale-out path of :mod:`repro.nn.scaleout` behind the
    standard serving contract: ``run_batch`` receives a whole
    :class:`~repro.sim.MultiChipSystem` (the pool worker checks out and
    scrubs every chip of it), runs each partition stage on its own chip,
    and forwards activations between stages over compiler-scheduled C2C
    transfers.  The partition is planned once at registration; its
    fingerprint keys every partition-dependent cache entry, and
    ``run_reference`` stays the *single-chip* oracle — the differential
    property the serve tests check is exactly the tentpole bit-exactness
    claim.
    """

    def __init__(
        self,
        name: str,
        model: Sequential,
        config: ArchConfig,
        calibration: np.ndarray,
        n_chips: int,
        max_vectors_per_program: int = 64,
    ) -> None:
        if n_chips < 2:
            raise ServeError(
                "a sharded model needs n_chips >= 2; use CnnServeModel "
                "for single-chip serving"
            )
        super().__init__(
            name, model, config, calibration,
            max_vectors_per_program=max_vectors_per_program,
        )
        self.n_chips = n_chips
        # plan eagerly: registering a model too shallow for the ring is
        # a ConfigError at construction, not at the first request
        self.plan = plan_runner_partition(self.runner, n_chips)

    def run_batch(
        self, system, cache, payloads: list[np.ndarray],
        stats: ChunkRunStats | None = None,
        blacklist=None,
    ) -> list[np.ndarray]:
        x = np.stack(payloads)
        result = execute_pipeline(
            self.runner, x, self.plan,
            system=system, cache=cache, stats=stats, blacklist=blacklist,
        )
        return [result.logits[i] for i in range(len(payloads))]


class TransformerMlpServeModel(_RunnerServeModel):
    """The decode-step FFN of a transformer layer, one token per request.

    ``d_model -> d_ff -> ReLU -> d_model`` with layer-symmetric int8
    quantization — the static-weight portion of
    :func:`repro.nn.transformer.decode_layers`' per-layer work, which
    dominates decode FLOPs.  Weights are seeded deterministically from
    the transformer configuration.
    """

    def __init__(
        self,
        name: str,
        transformer: TransformerConfig,
        config: ArchConfig,
        seed: int = 0,
        calibration: np.ndarray | None = None,
        max_vectors_per_program: int = 64,
    ) -> None:
        transformer.validate()
        d, d_ff = transformer.d_model, transformer.d_ff
        lanes = config.n_lanes
        # K dimensions tile across activations, but each matmul's output
        # width M must fit one plane (the runner does not M-tile)
        if d > lanes or d_ff > lanes:
            raise ServeError(
                f"transformer dims ({d}, {d_ff}) exceed the {lanes}-lane "
                "plane width of the serving chip; shrink the config"
            )
        rng = np.random.default_rng(seed)
        model = Sequential([
            Dense(d, d_ff, rng=np.random.default_rng(seed + 1)),
            ReLU(),
            Dense(d_ff, d, rng=np.random.default_rng(seed + 2)),
        ])
        if calibration is None:
            calibration = rng.standard_normal((32, d)).astype(np.float64)
        self.transformer = transformer
        super().__init__(
            name, model, config, calibration,
            payload_shape=(d,),
            max_vectors_per_program=max_vectors_per_program,
        )

"""Inference serving on simulated TSP chips.

The deployment loop of the paper's Section IV workloads: a deadline-aware
dynamic batcher, a content-addressed cache of compiled stream programs
(compile once per shape, replay forever — the TSP's determinism makes the
binary a pure function of graph + config), and a pool of simulated chips
drained by worker threads, with per-request queue/compile/execute latency
accounting exported through :mod:`repro.obs`.

Quickstart::

    from repro.serve import InferenceServer, CnnServeModel, BatchPolicy

    server = InferenceServer(config, [model], n_workers=2)
    future = server.submit("cnn", image)
    result = future.result()          # InferenceResult: output + timing
    server.close()

or ``python -m repro.serve`` for a self-contained demo.
"""

from ..errors import RequestError
from ..obs.metrics import LatencyEstimator
from .batcher import DynamicBatcher
from .cache import CacheStats, ProgramCache
from .models import (
    CnnServeModel,
    ServeModel,
    ShardedCnnServeModel,
    TransformerMlpServeModel,
)
from .pool import ChipPool, PoolWorker
from .request import (
    Batch,
    BatchOutcome,
    BatchPolicy,
    InferenceRequest,
    InferenceResult,
    RequestTiming,
    ServeFuture,
)
from .resilient import (
    Diagnosis,
    HealthPolicy,
    QuarantineRecord,
    RetryPolicy,
    diagnose,
)
from .server import InferenceServer

__all__ = [
    "Batch",
    "BatchOutcome",
    "BatchPolicy",
    "CacheStats",
    "ChipPool",
    "CnnServeModel",
    "Diagnosis",
    "DynamicBatcher",
    "HealthPolicy",
    "InferenceRequest",
    "InferenceResult",
    "InferenceServer",
    "LatencyEstimator",
    "PoolWorker",
    "ProgramCache",
    "QuarantineRecord",
    "RequestError",
    "RequestTiming",
    "RetryPolicy",
    "ServeFuture",
    "ServeModel",
    "ShardedCnnServeModel",
    "TransformerMlpServeModel",
    "diagnose",
]

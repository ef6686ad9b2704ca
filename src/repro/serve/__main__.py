"""Demo driver: ``python -m repro.serve``.

Trains a small ShapeSet CNN on the host, stands up an
:class:`~repro.serve.InferenceServer` with the CNN and a transformer FFN
registered, fires a burst of interleaved requests at it, and prints the
serving rollup: per-model latency percentiles, cache hit rate, batch
triggers, and the differential check against the sequential unbatched
oracle.  ``--trace serve.json`` additionally writes the unified Perfetto
trace (request / batch / phase spans with the on-chip events anchored to
them); ``--prom`` / ``--json`` write the metrics snapshot in Prometheus
text and JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from ..config import small_test_chip
from ..nn import make_shapes, make_small_cnn, train
from ..nn.transformer import TransformerConfig
from .models import (
    CnnServeModel,
    ShardedCnnServeModel,
    TransformerMlpServeModel,
)
from .request import BatchPolicy
from .server import InferenceServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="serve two workloads on a pool of simulated TSPs",
    )
    parser.add_argument("--requests", type=int, default=24,
                        help="requests per model (default 24)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size (default 2)")
    parser.add_argument("--chips", type=int, default=1,
                        help="chips per worker (default 1); >1 serves the "
                             "CNN pipeline-sharded over a C2C ring")
    parser.add_argument("--max-batch", type=int, default=4,
                        help="dynamic batch ceiling (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Perfetto trace of the serve run")
    parser.add_argument("--prom", metavar="PATH",
                        help="write the Prometheus text metrics snapshot")
    parser.add_argument("--json", metavar="PATH",
                        help="write the JSON metrics snapshot")
    parser.add_argument("--check", action="store_true",
                        help="verify every output against the sequential "
                             "unbatched oracle (slower)")
    args = parser.parse_args(argv)

    config = small_test_chip()
    rng = np.random.default_rng(args.seed)

    print("training a small CNN on the host ...", flush=True)
    data = make_shapes(n_train=200, n_test=64, image_size=12, n_classes=3,
                       noise=0.08, seed=args.seed)
    cnn = make_small_cnn(3, channels=4, image_size=12, seed=args.seed)
    train(cnn, data, epochs=4, lr=0.1, seed=args.seed)

    if args.chips > 1:
        cnn_model = ShardedCnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32],
            n_chips=args.chips,
        )
    else:
        cnn_model = CnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32]
        )
    models = [
        cnn_model,
        TransformerMlpServeModel(
            "mlp",
            TransformerConfig(d_model=32, n_heads=4, d_ff=64,
                              seq_len=16, n_layers=1, vocab=128),
            config,
            seed=args.seed,
        ),
    ]

    policy = BatchPolicy(max_batch=args.max_batch, max_delay_s=0.002)
    server = InferenceServer(
        config, models,
        n_workers=args.workers,
        n_chips=args.chips,
        default_policy=policy,
        tracing=args.trace is not None,
        trace_chip_events=args.trace is not None,
    )

    images = data.x_test[:args.requests]
    tokens = rng.standard_normal((args.requests, 32))
    print(f"serving {2 * args.requests} requests "
          f"({args.requests} per model) on {args.workers} chips ...",
          flush=True)
    t0 = time.monotonic()
    futures = []
    for i in range(args.requests):
        futures.append(("cnn", images[i % len(images)],
                        server.submit("cnn", images[i % len(images)])))
        futures.append(("mlp", tokens[i],
                        server.submit("mlp", tokens[i])))
    results = [(m, p, f.result(timeout=120.0)) for m, p, f in futures]
    wall_s = time.monotonic() - t0
    server.close()

    mismatches = 0
    if args.check:
        print("checking against the sequential unbatched oracle ...",
              flush=True)
        for model, payload, result in results:
            ref = server.sequential_reference(model, payload)
            if not np.array_equal(result.output, ref):
                mismatches += 1

    stats = server.stats()
    print()
    print(f"  wall time          {wall_s * 1e3:8.1f} ms "
          f"({len(results) / wall_s:.1f} req/s)")
    for model, lat in sorted(stats["latency"].items()):
        print(f"  {model:<8} n={lat['n']:<4} p50={lat['p50_ms']:7.2f} ms  "
              f"p99={lat['p99_ms']:7.2f} ms")
    cache = stats["cache"]
    print(f"  cache              {cache['hits']} hits / "
          f"{cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.0%}, "
          f"{cache['resident']} resident)")
    print(f"  batches            {stats['batcher']['released']}")
    if args.check:
        verdict = "all exact" if mismatches == 0 else f"{mismatches} WRONG"
        print(f"  oracle             {verdict}")

    if args.trace:
        from ..obs.trace import PerfettoTraceBuilder, write_trace
        builder = PerfettoTraceBuilder(clock_ghz=config.clock_ghz)
        # one unified trace: request/batch/phase spans + anchored
        # on-chip events
        builder.add_request_trace(server.tracer)
        write_trace(builder.build(), args.trace)
        print(f"  trace              {args.trace} "
              f"({stats['spans']['recorded']} spans, "
              f"{stats['spans']['dropped']} dropped)")
    if args.prom or args.json:
        from ..obs.metrics import MetricsExporter
        MetricsExporter(server).write(args.prom, args.json)
        for path in filter(None, (args.prom, args.json)):
            print(f"  metrics            {path}")

    print()
    print(json.dumps(stats, indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

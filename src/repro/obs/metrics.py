"""Bounded-memory serving metrics: histograms, SLO tracking, export.

The serving layer used to keep one Python float per completed request —
O(requests) memory that cannot survive the "millions of users" target.
This module replaces that with the datacenter-standard kit:

* :class:`LatencyHistogram` — an HDR-style log-bucketed histogram:
  power-of-two octaves split into ``sub_buckets`` linear sub-buckets, so
  any recorded value lands in a bucket whose upper bound overstates it by
  at most ``1/sub_buckets`` (6.25% at the default 16).  Memory is
  O(buckets) regardless of traffic; two histograms with the same scheme
  **merge** by adding counts (associative and commutative, which the
  property tests assert), so per-worker or per-window histograms roll up
  exactly.
* :class:`SloTracker` — per-model latency deadline targets with
  hit / violation / shed counters, mirrored into the serving
  :class:`~repro.obs.counters.TelemetryCollector` registry so SLO
  attainment shows up next to every other serve counter.
* :class:`MetricsExporter` — one-pass Prometheus-text + JSON snapshots
  of an :class:`~repro.serve.InferenceServer`: request counters, latency
  histograms (cumulative ``le`` buckets), SLO attainment, cache, pool,
  batcher, span-buffer accounting, the whole serve counter registry, and
  any chip telemetry collectors handed to it.

``python -m repro.obs.metrics`` stands up a small serve session (with
request tracing on, optionally pipeline-sharded over ``--chips`` chips),
fires a burst of requests, and writes the metrics snapshot in both
formats plus the unified Perfetto trace; ``--overhead-gate`` instead
measures the wall-clock cost of tracing on the serve workload and folds
the ratio into ``BENCH_obs.json``, failing if it exceeds the gate.
"""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np


def percentile(values, q: float) -> float:
    """Exact percentile of a raw value list (0 for an empty list).

    The single shared helper the serving layer used to duplicate; kept
    for code that still has raw samples (tests, benchmarks).  The hot
    path uses :class:`LatencyHistogram` quantile *bounds* instead.
    """
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class LatencyHistogram:
    """Log-bucketed latency histogram with mergeable buckets.

    Values are recorded in seconds and bucketed in microseconds.  The
    bucket index of a value ``v`` (µs) is ``octave * sub_buckets + j``
    where ``octave = floor(log2(v / min_us))`` and ``j`` linearly splits
    the octave ``[min_us * 2^o, min_us * 2^(o+1))`` into ``sub_buckets``
    equal slices.  Quantiles return the containing bucket's **upper
    bound**, so the reported pXX is always >= the true pXX and
    overstates it by at most a factor of ``1 + 1/sub_buckets``; exact
    ``count`` / ``sum`` / ``min`` / ``max`` are tracked alongside.

    Not internally locked: the server records under its own lock and
    hands copies out via :meth:`copy`.
    """

    __slots__ = (
        "min_us", "max_us", "sub_buckets", "n_buckets",
        "counts", "count", "sum_us", "min_us_seen", "max_us_seen",
    )

    def __init__(
        self,
        min_us: float = 1.0,
        max_us: float = 64e6,
        sub_buckets: int = 16,
    ) -> None:
        if min_us <= 0 or max_us <= min_us:
            raise ValueError("need 0 < min_us < max_us")
        if sub_buckets < 1:
            raise ValueError("sub_buckets must be >= 1")
        self.min_us = float(min_us)
        self.max_us = float(max_us)
        self.sub_buckets = int(sub_buckets)
        octaves = max(1, math.ceil(math.log2(max_us / min_us)))
        self.n_buckets = octaves * self.sub_buckets
        self.counts = [0] * self.n_buckets
        self.count = 0
        self.sum_us = 0.0
        self.min_us_seen = math.inf
        self.max_us_seen = 0.0

    # ------------------------------------------------------------------
    def _index(self, v_us: float) -> int:
        x = v_us / self.min_us
        if x < 1.0:
            return 0
        _, exp = math.frexp(x)  # x = m * 2**exp, m in [0.5, 1)
        octave = exp - 1
        scaled = x / (1 << octave)  # in [1, 2)
        j = min(int((scaled - 1.0) * self.sub_buckets), self.sub_buckets - 1)
        return min(octave * self.sub_buckets + j, self.n_buckets - 1)

    def bucket_upper_us(self, index: int) -> float:
        """Exclusive upper bound of one bucket, in microseconds."""
        octave, j = divmod(index, self.sub_buckets)
        return self.min_us * (1 << octave) * (1.0 + (j + 1) / self.sub_buckets)

    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        v_us = max(seconds, 0.0) * 1e6
        self.counts[self._index(v_us)] += 1
        self.count += 1
        self.sum_us += v_us
        if v_us < self.min_us_seen:
            self.min_us_seen = v_us
        if v_us > self.max_us_seen:
            self.max_us_seen = v_us

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into self (in place).  Associative: merging
        per-worker histograms in any grouping yields identical state."""
        if (
            other.min_us != self.min_us
            or other.max_us != self.max_us
            or other.sub_buckets != self.sub_buckets
        ):
            raise ValueError("cannot merge histograms with different schemes")
        for i, n in enumerate(other.counts):
            if n:
                self.counts[i] += n
        self.count += other.count
        self.sum_us += other.sum_us
        self.min_us_seen = min(self.min_us_seen, other.min_us_seen)
        self.max_us_seen = max(self.max_us_seen, other.max_us_seen)
        return self

    def copy(self) -> "LatencyHistogram":
        fresh = LatencyHistogram(self.min_us, self.max_us, self.sub_buckets)
        fresh.merge(self)
        return fresh

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Upper bound (seconds) of the q-quantile, 0 when empty.

        ``quantile(0.5) >= true_p50`` and
        ``quantile(0.5) <= true_p50 * (1 + 1/sub_buckets)`` — the exact
        bound the bucket scheme guarantees (clamped to the exact max).
        """
        if self.count == 0:
            return 0.0
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, n in enumerate(self.counts):
            if not n:
                continue
            seen += n
            if seen >= rank:
                bound = self.bucket_upper_us(index)
                return min(bound, self.max_us_seen) / 1e6
        return self.max_us_seen / 1e6

    @property
    def mean_s(self) -> float:
        return (self.sum_us / self.count) / 1e6 if self.count else 0.0

    @property
    def max_s(self) -> float:
        return self.max_us_seen / 1e6

    @property
    def min_s(self) -> float:
        return 0.0 if self.count == 0 else self.min_us_seen / 1e6

    # ------------------------------------------------------------------
    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le_seconds, cumulative_count)`` pairs.

        Empty buckets are elided except where the cumulative count
        changes; always ends with ``(inf, count)``.
        """
        out: list[tuple[float, int]] = []
        running = 0
        for index, n in enumerate(self.counts):
            if n:
                running += n
                out.append((self.bucket_upper_us(index) / 1e6, running))
        out.append((math.inf, self.count))
        return out

    def stats_ms(self) -> dict:
        """The rollup the server's ``stats()`` publishes per model."""
        return {
            "n": self.count,
            "p50_ms": round(self.quantile(0.5) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
            "p999_ms": round(self.quantile(0.999) * 1e3, 3),
            "mean_ms": round(self.mean_s * 1e3, 3),
            "max_ms": round(self.max_s * 1e3, 3),
        }

    def snapshot(self) -> dict:
        """JSON-able image: scheme, exact aggregates, sparse buckets."""
        return {
            "scheme": {
                "min_us": self.min_us,
                "max_us": self.max_us,
                "sub_buckets": self.sub_buckets,
            },
            "count": self.count,
            "sum_ms": round(self.sum_us / 1e3, 3),
            "buckets": {
                str(i): n for i, n in enumerate(self.counts) if n
            },
            **self.stats_ms(),
        }


# ----------------------------------------------------------------------
class SloTracker:
    """Per-model latency SLOs: deadline targets and attainment counters.

    ``observe`` classifies one completed request against its model's
    target; ``shed`` counts a request the server refused (rejected at
    submit).  Counters mirror into the serving telemetry registry under
    ``slo:<model>``, next to every other serve counter.  Models without
    a target are untracked.
    """

    def __init__(
        self,
        targets: dict[str, float] | None = None,
        default_target_s: float | None = None,
        registry=None,
    ) -> None:
        self.targets = dict(targets or {})
        self.default_target_s = default_target_s
        self.registry = registry
        self._lock = threading.Lock()
        #: model -> {"hits": n, "violations": n, "shed": n}
        self.counts: dict[str, dict[str, int]] = {}

    def target_for(self, model: str) -> float | None:
        return self.targets.get(model, self.default_target_s)

    def _bump(self, model: str, kind: str, us: int) -> None:
        with self._lock:
            counter = self.counts.setdefault(
                model, {"hits": 0, "violations": 0, "shed": 0}
            )
            counter[kind] += 1
        if self.registry is not None:
            self.registry.count(f"slo:{model}", kind, us)

    def observe(
        self, model: str, total_s: float, us: int = 0, ok: bool = True
    ) -> bool | None:
        """Classify one finished request; None when the model is untracked.

        A failed request can never hit its SLO, whatever its latency.
        """
        target = self.target_for(model)
        if target is None:
            return None
        hit = ok and total_s <= target
        self._bump(model, "hits" if hit else "violations", us)
        return hit

    def shed(self, model: str, us: int = 0) -> None:
        """One request rejected before entering the queue."""
        if self.target_for(model) is None:
            return
        self._bump(model, "shed", us)

    def snapshot(self) -> dict:
        """Per-model targets, counters, and attainment ratio."""
        with self._lock:
            counts = {m: dict(c) for m, c in self.counts.items()}
        out = {}
        for model, c in sorted(counts.items()):
            finished = c["hits"] + c["violations"]
            out[model] = {
                "target_ms": round(self.target_for(model) * 1e3, 3),
                **c,
                "attainment": round(c["hits"] / finished, 4)
                if finished else 1.0,
            }
        return out


# ----------------------------------------------------------------------
def _prom_escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(**labels) -> str:
    body = ",".join(
        f'{k}="{_prom_escape(v)}"' for k, v in labels.items() if v is not None
    )
    return "{" + body + "}" if body else ""


class MetricsExporter:
    """One-pass Prometheus-text + JSON snapshots of a serving stack.

    ``snapshot()`` reads the server rollup, the latency histograms, the
    SLO tracker, the span accounting, the whole serve counter registry,
    and any extra chip :class:`~repro.obs.TelemetryCollector` s — each
    surface once, under its own lock — and both renderers work off that
    one image, so the two formats can never disagree.
    """

    def __init__(self, server, collectors: list | None = None) -> None:
        self.server = server
        self.collectors = list(collectors or [])

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        server = self.server
        payload = {
            "schema": "tsp-serve-metrics/1",
            "stats": server.stats(),
            "histograms": {
                model: {
                    phase: hist.snapshot()
                    for phase, hist in phases.items()
                }
                for model, phases in server.histogram_snapshot().items()
            },
            "slo": server.slo.snapshot(),
            "registry": {
                "totals": server.registry.totals(),
                "scalars": server.registry.snapshot()["scalars"],
            },
            "tracing": (
                server.tracer.snapshot()
                if server.tracer is not None else None
            ),
            "chips": [
                {
                    "name": collector.name or f"chip{i}",
                    "cycles": collector.cycles,
                    "totals": collector.totals(),
                }
                for i, collector in enumerate(self.collectors)
            ],
        }
        return payload

    # ------------------------------------------------------------------
    def prometheus_text(self, snapshot: dict | None = None) -> str:
        """Render one snapshot in the Prometheus text exposition format."""
        snap = snapshot or self.snapshot()
        stats = snap["stats"]
        lines: list[str] = []

        def metric(name, mtype, help_text, samples):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")
            for labels, value in samples:
                if isinstance(value, float):
                    value = format(value, ".9g")
                lines.append(f"{name}{labels} {value}")

        requests = stats["requests"]
        metric(
            "tsp_serve_requests_total", "counter",
            "Requests by terminal state.",
            [
                (_labels(state=state), requests[state])
                for state in (
                    "submitted", "completed", "failed", "retried", "shed"
                )
                if state in requests  # retried/shed: newer servers only
            ],
        )
        hist_samples: list[tuple[str, object]] = []
        sum_samples: list[tuple[str, object]] = []
        count_samples: list[tuple[str, object]] = []
        for model, phases in sorted(snap["histograms"].items()):
            hist = phases["total"]
            for le, cum in _cumulative_from_snapshot(hist):
                le_text = "+Inf" if math.isinf(le) else format(le, ".9g")
                hist_samples.append(
                    (_labels(model=model, le=le_text), cum)
                )
            sum_samples.append(
                (_labels(model=model), hist["sum_ms"] / 1e3)
            )
            count_samples.append((_labels(model=model), hist["count"]))
        lines.append(
            "# HELP tsp_serve_latency_seconds "
            "End-to-end request latency (log-bucketed upper bounds)."
        )
        lines.append("# TYPE tsp_serve_latency_seconds histogram")
        for labels, value in hist_samples:
            lines.append(f"tsp_serve_latency_seconds_bucket{labels} {value}")
        for labels, value in sum_samples:
            lines.append(
                f"tsp_serve_latency_seconds_sum{labels} "
                f"{format(value, '.9g')}"
            )
        for labels, value in count_samples:
            lines.append(f"tsp_serve_latency_seconds_count{labels} {value}")

        slo_samples = []
        for model, slo in sorted(snap["slo"].items()):
            for kind in ("hits", "violations", "shed"):
                slo_samples.append(
                    (_labels(model=model, result=kind), slo[kind])
                )
        if slo_samples:
            metric(
                "tsp_serve_slo_requests_total", "counter",
                "Requests by SLO outcome.", slo_samples,
            )
            metric(
                "tsp_serve_slo_target_seconds", "gauge",
                "Per-model SLO deadline target.",
                [
                    (_labels(model=model), slo["target_ms"] / 1e3)
                    for model, slo in sorted(snap["slo"].items())
                ],
            )
        cache = stats["cache"]
        metric(
            "tsp_serve_cache_events_total", "counter",
            "Program cache hits/misses/evictions.",
            [
                (_labels(kind=k), cache[k])
                for k in ("hits", "misses", "evictions")
            ],
        )
        metric(
            "tsp_serve_cache_resident", "gauge",
            "Programs resident in the cache.",
            [(_labels(), cache["resident"])],
        )
        pool = stats["pool"]
        metric(
            "tsp_serve_pool_workers", "gauge",
            "Pool workers by health accounting.",
            [
                (_labels(state=state), pool[key])
                for state, key in (
                    ("configured", "workers"),
                    ("alive", "alive"),
                    ("capacity", "capacity"),
                    ("quarantined", "quarantined"),
                    ("spares", "spares"),
                )
                if key in pool  # health fields: newer servers only
            ],
        )
        if "repaired" in pool:
            metric(
                "tsp_serve_pool_repairs_total", "counter",
                "Quarantined hardware returned to service.",
                [(_labels(), pool["repaired"])],
            )
        metric(
            "tsp_serve_batches_total", "counter",
            "Batches released, by trigger.",
            [
                (_labels(trigger=t), n)
                for t, n in sorted(stats["batcher"]["released"].items())
            ],
        )
        spans = stats["spans"]
        metric(
            "tsp_serve_spans", "gauge",
            "Span ring-buffer accounting (recorded/dropped/capacity).",
            [
                (_labels(kind="recorded"), spans["recorded"]),
                (_labels(kind="dropped"), spans["dropped"]),
                (_labels(kind="capacity"), spans["max_spans"]),
            ],
        )
        registry_samples = [
            (_labels(unit=unit, counter=counter), total)
            for unit, counters in sorted(snap["registry"]["totals"].items())
            for counter, total in sorted(counters.items())
        ]
        if registry_samples:
            metric(
                "tsp_serve_registry_total", "counter",
                "Serving telemetry registry totals (unit x counter).",
                registry_samples,
            )
        scalar_samples = [
            (_labels(unit=unit, counter=counter), value)
            for unit, counters in sorted(snap["registry"]["scalars"].items())
            for counter, value in sorted(counters.items())
        ]
        if scalar_samples:
            metric(
                "tsp_serve_registry_scalar", "gauge",
                "Serving registry high/low-water scalars.",
                scalar_samples,
            )
        chip_samples = [
            (
                _labels(chip=chip["name"], unit=unit, counter=counter),
                total,
            )
            for chip in snap["chips"]
            for unit, counters in sorted(chip["totals"].items())
            for counter, total in sorted(counters.items())
        ]
        if chip_samples:
            metric(
                "tsp_chip_counter_total", "counter",
                "Chip telemetry counter totals.", chip_samples,
            )
        return "\n".join(lines) + "\n"

    def write(self, prom_path: str | None, json_path: str | None) -> dict:
        snap = self.snapshot()
        if json_path:
            with open(json_path, "w") as handle:
                json.dump(snap, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if prom_path:
            with open(prom_path, "w") as handle:
                handle.write(self.prometheus_text(snap))
        return snap


def _cumulative_from_snapshot(hist: dict) -> list[tuple[float, int]]:
    """Rebuild cumulative ``le`` pairs from a histogram snapshot dict."""
    scheme = hist["scheme"]
    sub = scheme["sub_buckets"]
    min_us = scheme["min_us"]
    running = 0
    out = []
    for index in sorted(hist["buckets"], key=int):
        running += hist["buckets"][index]
        octave, j = divmod(int(index), sub)
        upper = min_us * (1 << octave) * (1.0 + (j + 1) / sub)
        out.append((upper / 1e6, running))
    out.append((math.inf, hist["count"]))
    return out


# ----------------------------------------------------------------------
# `python -m repro.obs.metrics` — demo exporter + tracing-overhead gate
# ----------------------------------------------------------------------
def _build_demo_models(config, seed: int, n_chips: int):
    """A small served model mix (trained CNN + transformer FFN)."""
    from ..nn import make_shapes, make_small_cnn, train
    from ..nn.transformer import TransformerConfig
    from ..serve.models import (
        CnnServeModel,
        ShardedCnnServeModel,
        TransformerMlpServeModel,
    )

    data = make_shapes(
        n_train=128, n_test=32, image_size=8, n_classes=3, noise=0.08,
        seed=seed,
    )
    cnn = make_small_cnn(3, channels=4, image_size=8, seed=seed)
    train(cnn, data, epochs=2, lr=0.1, seed=seed)
    if n_chips > 1:
        cnn_model = ShardedCnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32],
            n_chips=n_chips, max_vectors_per_program=32,
        )
    else:
        cnn_model = CnnServeModel(
            "cnn", cnn, config, calibration=data.x_train[:32],
            max_vectors_per_program=32,
        )
    mlp = TransformerMlpServeModel(
        "mlp",
        TransformerConfig(
            d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1,
            vocab=128,
        ),
        config,
        seed=seed,
        max_vectors_per_program=16,
    )
    return [cnn_model, mlp], data


def _run_session(
    config, models, data, *, n_requests, workers, n_chips, seed,
    tracing, chip_events=False, slos=None, max_spans=4096,
):
    """Fire a burst of requests at a server; returns (server, wall_s).

    The server is closed but not discarded: the exporter and trace
    writer read it afterwards.
    """
    from ..serve import BatchPolicy, InferenceServer

    rng = np.random.default_rng(seed)
    server = InferenceServer(
        config, models,
        n_workers=workers,
        n_chips=n_chips,
        default_policy=BatchPolicy(max_batch=4, max_delay_s=0.002),
        record_spans=True,
        tracing=tracing,
        trace_chip_events=chip_events,
        slos=slos,
        max_spans=max_spans,
    )
    images = data.x_test
    t0 = time.monotonic()
    futures = []
    for i in range(n_requests):
        futures.append(server.submit("cnn", images[i % len(images)]))
        futures.append(server.submit("mlp", rng.standard_normal(32)))
    for future in futures:
        future.result(timeout=300.0)
    wall_s = time.monotonic() - t0
    server.close()
    return server, wall_s


def _overhead_gate(args) -> int:
    """Paired traced/untraced serve trials -> BENCH_obs.json gate."""
    import gc

    from ..config import small_test_chip

    config = small_test_chip()
    models, data = _build_demo_models(config, args.seed, n_chips=1)
    ratios = []
    pairs = []
    gc_was_enabled = gc.isenabled()
    try:
        for trial in range(args.trials):
            gc.collect()
            gc.disable()
            _, plain_s = _run_session(
                config, models, data,
                n_requests=args.requests, workers=args.workers,
                n_chips=1, seed=args.seed + trial, tracing=False,
            )
            _, traced_s = _run_session(
                config, models, data,
                n_requests=args.requests, workers=args.workers,
                n_chips=1, seed=args.seed + trial, tracing=True,
            )
            if gc_was_enabled:
                gc.enable()
            ratios.append(traced_s / plain_s)
            pairs.append(
                {"plain_s": round(plain_s, 4), "traced_s": round(traced_s, 4)}
            )
            print(
                f"  trial {trial + 1}/{args.trials}: plain {plain_s:.3f}s "
                f"traced {traced_s:.3f}s ratio {ratios[-1]:.3f}",
                flush=True,
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    median_ratio = float(np.median(ratios))
    block = {
        "workload": {
            "requests": 2 * args.requests,
            "workers": args.workers,
            "trials": args.trials,
            "seed": args.seed,
        },
        "pairs": pairs,
        "ratios": [round(r, 4) for r in ratios],
        "median_ratio": round(median_ratio, 4),
        "gate": args.gate,
    }
    try:
        with open(args.bench_json) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {"schema": "tsp-obs/1"}
    payload["tracing_overhead"] = block
    with open(args.bench_json, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"  tracing overhead: median ratio {median_ratio:.3f} "
        f"(gate <= {args.gate}) -> {args.bench_json}"
    )
    if median_ratio > args.gate:
        print(
            f"  GATE FAILED: tracing overhead {median_ratio:.3f}x exceeds "
            f"{args.gate}x"
        )
        return 1
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="Serve a demo workload with request tracing on and "
        "export the metrics snapshot (Prometheus text + JSON) and the "
        "unified Perfetto trace; or gate the tracing overhead.",
    )
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per model (default 8)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--chips", type=int, default=1,
                        help="chips per worker; >1 serves the CNN "
                        "pipeline-sharded over a C2C ring")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slo-ms", type=float, default=2000.0,
                        help="per-model latency SLO target (default "
                        "2000 ms; generous — these are simulated chips)")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="write the Prometheus text snapshot here")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON snapshot here")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the unified Perfetto trace here")
    parser.add_argument("--max-spans", type=int, default=4096)
    parser.add_argument("--overhead-gate", action="store_true",
                        help="measure tracing overhead on the serve "
                        "workload and gate it instead of exporting")
    parser.add_argument("--bench-json", default="BENCH_obs.json",
                        help="artifact the overhead block merges into "
                        "(default: %(default)s)")
    parser.add_argument("--gate", type=float, default=1.10,
                        help="max traced/untraced ratio (default 1.10)")
    parser.add_argument("--trials", type=int, default=3)
    args = parser.parse_args(argv)

    if args.overhead_gate:
        print(
            f"tracing-overhead gate: {2 * args.requests} requests x "
            f"{args.trials} paired trials ...", flush=True,
        )
        return _overhead_gate(args)

    from ..config import small_test_chip

    config = small_test_chip()
    print("training demo models ...", flush=True)
    models, data = _build_demo_models(config, args.seed, args.chips)
    print(
        f"serving {2 * args.requests} requests on {args.workers} workers "
        f"x {args.chips} chip(s), tracing on ...", flush=True,
    )
    server, wall_s = _run_session(
        config, models, data,
        n_requests=args.requests, workers=args.workers,
        n_chips=args.chips, seed=args.seed,
        tracing=True, chip_events=args.trace is not None,
        slos={m.name: args.slo_ms / 1e3 for m in models},
        max_spans=args.max_spans,
    )
    exporter = MetricsExporter(server)
    snap = exporter.write(args.prom, args.json)
    print(f"  wall time   {wall_s * 1e3:8.1f} ms")
    for model, lat in sorted(snap["stats"]["latency"].items()):
        print(
            f"  {model:<8} n={lat['n']:<4} p50={lat['p50_ms']:8.2f} ms  "
            f"p99={lat['p99_ms']:8.2f} ms"
        )
    for model, slo in sorted(snap["slo"].items()):
        print(
            f"  slo:{model:<8} target {slo['target_ms']:.0f} ms  "
            f"attainment {slo['attainment']:.0%} "
            f"({slo['hits']} hit / {slo['violations']} missed / "
            f"{slo['shed']} shed)"
        )
    tracing = snap["tracing"] or {}
    print(
        f"  spans       {tracing.get('recorded', 0)} recorded, "
        f"{tracing.get('dropped', 0)} dropped "
        f"(cap {tracing.get('max_spans', 0)})"
    )
    if args.trace:
        from .trace import PerfettoTraceBuilder, write_trace

        builder = PerfettoTraceBuilder(clock_ghz=config.clock_ghz)
        builder.add_request_trace(server.tracer)
        write_trace(builder.build(), args.trace)
        print(f"  trace       {args.trace}")
    for label, path in (("prometheus", args.prom), ("json", args.json)):
        if path:
            print(f"  {label:<11} {path}")
    if not args.prom and not args.json:
        print()
        print(exporter.prometheus_text(snap))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

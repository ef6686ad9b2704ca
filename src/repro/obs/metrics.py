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
* :class:`SloTracker` — per-model latency deadline targets; its hit /
  violation / shed counters *are* the ``slo:<model>`` units of the
  serving :class:`~repro.obs.counters.CounterRegistry` (no second
  tally), so SLO attainment sits next to every other serve counter.
* :class:`MetricsExporter` — one-pass Prometheus-text + JSON snapshots
  of an :class:`~repro.serve.InferenceServer`: request counters, latency
  histograms (cumulative ``le`` buckets), SLO attainment, cache, pool,
  batcher, the tracer's span accounting, the whole serve counter
  registry, and any chip telemetry collectors handed to it.

``python -m repro.serve --prom PATH --json PATH`` serves a demo mix and
writes both formats.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np

from .counters import CounterRegistry


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
class LatencyEstimator:
    """Thread-safe per-model EWMA of observed batch latency.

    The retry path's cost model: "one more attempt takes about this
    long".  Optimistic before the first observation (``initial_s``) so a
    cold server never refuses the retry that would have warmed it up.
    """

    def __init__(self, alpha: float = 0.3, initial_s: float = 0.05) -> None:
        self.alpha = alpha
        self.initial_s = initial_s
        self._lock = threading.Lock()
        self._estimates: dict[str, float] = {}

    def observe(self, model: str, seconds: float) -> None:
        with self._lock:
            previous = self._estimates.get(model)
            if previous is None:
                self._estimates[model] = seconds
            else:
                self._estimates[model] = (
                    self.alpha * seconds + (1 - self.alpha) * previous
                )

    def estimate(self, model: str) -> float:
        with self._lock:
            return self._estimates.get(model, self.initial_s)


class SloTracker:
    """Per-model latency SLOs: deadline targets and attainment counters.

    ``observe`` classifies one completed request against its model's
    target; ``shed`` counts a request the server refused (rejected at
    submit).  The counters live in ``registry`` under ``slo:<model>``
    and nowhere else — :meth:`snapshot` is a view of those units.
    Models without a target are untracked.
    """

    def __init__(
        self,
        targets: dict[str, float] | None = None,
        default_target_s: float | None = None,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.targets = dict(targets or {})
        self.default_target_s = default_target_s
        self.registry = registry if registry is not None else CounterRegistry()

    def target_for(self, model: str) -> float | None:
        return self.targets.get(model, self.default_target_s)

    def observe(
        self, model: str, total_s: float, ok: bool = True
    ) -> bool | None:
        """Classify one finished request; None when the model is untracked.

        A failed request can never hit its SLO, whatever its latency.
        """
        target = self.target_for(model)
        if target is None:
            return None
        hit = ok and total_s <= target
        self.registry.count(f"slo:{model}", "hits" if hit else "violations")
        return hit

    def shed(self, model: str) -> None:
        """One request rejected before entering the queue."""
        if self.target_for(model) is not None:
            self.registry.count(f"slo:{model}", "shed")

    def snapshot(self) -> dict:
        """Per-model targets, counters, and attainment ratio."""
        out = {}
        for unit, counters in sorted(self.registry.totals().items()):
            if not unit.startswith("slo:"):
                continue
            model = unit[len("slo:"):]
            c = {
                kind: counters.get(kind, 0)
                for kind in ("hits", "violations", "shed")
            }
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

    ``snapshot()`` reads the server rollup (requests, SLOs and span
    accounting are views inside it), the latency histograms, the whole
    serve counter registry, and any extra chip
    :class:`~repro.obs.TelemetryCollector` s — each surface once, under
    its own lock — and both renderers work off that one image, so the
    two formats can never disagree.
    """

    def __init__(self, server, collectors: list | None = None) -> None:
        self.server = server
        self.collectors = list(collectors or [])

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        server = self.server
        stats = server.stats()
        payload = {
            "schema": "tsp-serve-metrics/1",
            "stats": stats,
            "histograms": {
                model: {
                    phase: hist.snapshot()
                    for phase, hist in phases.items()
                }
                for model, phases in server.histogram_snapshot().items()
            },
            "slo": stats["slo"],
            "registry": server.registry.snapshot(),
            "tracing": stats["tracing"],
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
            "Requests submitted, retried, and by terminal state.",
            [
                (_labels(state=state), requests[state])
                for state in (
                    "submitted", "completed", "failed", "retried", "shed"
                )
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
            ],
        )
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
            "Request-tracer ring accounting (recorded/dropped/capacity).",
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

"""Turn one run's logs into the named metrics of ``BENCHMARK.json``.

The functions here only compute values, keyed by metric name;
:func:`schema.with_units` attaches the units and refuses a name
``BENCHMARK.json`` does not list.

Timing metrics are the **mean over the quiet share of their samples**
(see :mod:`estimators`): the quietest quarter of one-second windows, or,
for throughput and latency on the closed loops, the fastest fiftieth of
the batch intervals.  Counts and shares are taken over the
whole phase.  A request belongs to the window its reply completed in;
replies that land after the last boundary (the drain tail) and failed
requests belong to no window and are in no sample.
"""

from __future__ import annotations

import resource

import numpy as np

from estimators import (
    FLOOR_SHARE,
    per_window,
    quartile_spread,
    quiet_mean,
    quiet_share,
    window_index,
)
from tracer import LAYERS


def _p90(values) -> float:
    return np.percentile(values, 90)


class Windowed:
    """One phase's successful replies, binned into its windows."""

    def __init__(self, results) -> None:
        self.n = len(results.boundaries_s) - 1
        self.index = window_index(results.boundaries_s, results.completed_s)
        self.index[~results.ok] = -1
        self.inside = self.index >= 0
        self.counts = np.bincount(
            self.index[self.inside], minlength=self.n
        ).astype(float)
        self.widths_s = np.diff(results.boundaries_s)
        self.cpu_s = np.diff(results.boundaries_cpu_s)
        self.latency_ms = results.latency_s * 1e3
        # each batch once, in the order the batches completed
        _ids, first, inverse, replies = np.unique(
            results.batch_id[self.inside], return_index=True,
            return_inverse=True, return_counts=True,
        )
        done_s = results.completed_s[self.inside][first]
        order = np.argsort(done_s, kind="stable")
        self.batch_first = first[order]
        #: per batch but the first: seconds since the batch before it
        #: completed, per correct reply of the batch
        self.interval_s = np.diff(done_s[order]) / replies[order][1:]
        #: per in-window reply: which interval its batch closed (-1: none)
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        self.reply_interval = position[inverse] - 1

    def throughput_per_window(self) -> np.ndarray:
        return self.counts / self.widths_s

    def quiet(self, values: np.ndarray, stat, better: str = "lower") -> float:
        """Quiet-quarter mean of ``stat`` over each window's ``values``."""
        return quiet_mean(
            per_window(self.index, self.n, values, stat), better
        )

    def throughput(self, loop: str) -> float:
        """Correct replies per second.

        Open loop: the schedule fixes the offered load, so goodput is
        simply what came back in the interval over its length; it only
        falls if the server lags.  Closed loop: the one worker serves
        batches back to back, so the time from one batch's completion to
        the next is what that batch cost the server; the reported rate
        is the one over the fastest fiftieth of those intervals (each
        taken per reply) — the saturated server on an undisturbed host.
        """
        if loop == "open":
            return self.inside.sum() / self.widths_s.sum()
        return 1.0 / quiet_mean(self.interval_s, "lower", FLOOR_SHARE)

    def latency(self, loop: str) -> float:
        """Latency in ms a request sees on an undisturbed host.

        Open loop: quiet-quarter mean of the per-window median.  Closed
        loop: median over the replies of the batches that closed the
        fastest fiftieth of the intervals — the ones ``throughput`` is
        taken over.  Choosing by the interval and not by the latency
        itself keeps out the requests that were merely lucky with their
        place in the queue: with eight callers the fastest fiftieth of
        the *latencies* is those that slipped into a batch just leaving,
        and how many do differs from run to run (spread 0.13-0.18).
        """
        if loop == "open":
            return self.quiet(self.latency_ms, np.median)
        chosen = quiet_share(self.interval_s, "lower", FLOOR_SHARE)
        return float(np.median(
            self.latency_ms[self.inside][np.isin(self.reply_interval, chosen)]
        ))


def end_to_end(results, loop: str, limit_s: float, setup_s: float) -> dict:
    """The user-visible metrics of one timed (untraced) phase."""
    w = Windowed(results)
    success_share = results.ok.sum() / len(results.ok)
    return {
        "throughput_rps": w.throughput(loop),
        "latency_ms": w.latency(loop),
        "sim_cycles_per_input": (
            results.batch_cycles[w.inside][w.batch_first].sum()
            / w.inside.sum()
        ),
        "success_share": success_share,
        "slo_share": success_share * w.quiet(
            results.latency_s <= limit_s, np.mean, "higher"
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def server_layers(results, before: dict, after: dict) -> dict:
    """Per-layer metrics read from public result fields and ``stats()``.

    ``before``/``after`` are ``InferenceServer.stats()`` snapshots around
    the timed phase; every ``per_request`` figure divides by the phase's
    successful replies.
    """
    done = max(int(results.ok.sum()), 1)
    ok = results.ok
    released = {
        trigger: _delta(after, before, "batcher", "released", trigger)
        for trigger in after["batcher"]["released"]
    }
    hits = _delta(after, before, "cache", "hits")
    lookups = hits + _delta(after, before, "cache", "misses")
    _ids, first = np.unique(results.batch_id[ok], return_index=True)
    return {
        "serve.batcher.queue_wait_p50_ms":
            np.median(results.queue_s[ok]) * 1e3,
        "serve.batcher.queue_wait_p90_ms": _p90(results.queue_s[ok]) * 1e3,
        "serve.batcher.batch_size_mean":
            results.batch_size[ok][first].mean(),
        "serve.batcher.full_trigger_share":
            released["full"] / max(sum(released.values()), 1),
        "serve.cache.hit_share": hits / max(lookups, 1),
        "serve.cache.lookups_per_request": lookups / done,
        "serve.cache.evictions_per_request":
            _delta(after, before, "cache", "evictions") / done,
        "serve.cache.replay_plans_resident": after["cache"]["replay_plans"],
        "serve.server.compile_ms_per_request":
            results.compile_s[ok].mean() * 1e3,
        "serve.server.execute_ms_per_request":
            results.execute_s[ok].mean() * 1e3,
        "serve.pool.retried_per_request":
            _delta(after, before, "requests", "retried") / done,
        "serve.pool.batches_failed":
            _delta(after, before, "pool", "batches_failed"),
    }


WORKER_THREADS = "tsp-serve-worker"


def traced_layers(tracer, traced, timed, loop: str) -> dict:
    """Per-layer self time and calls from the traced pass.

    ``X.self_ms`` is layer X's self time summed over the pass, divided by
    the requests the pass completed; ``X.calls`` is calls per request.
    """
    done = max(int(traced.ok.sum()), 1)
    totals = tracer.totals()
    out = {}
    for layer in LAYERS:
        entry = totals.get(layer.name)
        per_request = {
            "self_ms": entry.self_ns / 1e6 / done if entry else 0.0,
            "calls": entry.calls / done if entry else 0.0,
        }
        for suffix in layer.metrics:
            out[f"{layer.name}.{suffix}"] = per_request[suffix]

    run = totals.get("sim.chip.run")
    out["sim.chip.run.cycles_per_host_ms"] = (
        tracer.info_sum("sim.chip.run", "cycles") / (run.total_ns / 1e6)
        if run else 0.0
    )
    workers = tracer.totals(WORKER_THREADS)
    extent_ns = max(tracer.extent_ns(WORKER_THREADS), 1)
    wait = workers.get("serve.batcher.next_batch")
    wait_ns = wait.total_ns if wait else 0
    execute = workers.get("serve.pool.execute")
    out["serve.batcher.next_batch.wait_share"] = wait_ns / extent_ns
    out["serve.pool.busy_share"] = (
        execute.total_ns / extent_ns if execute else 0.0
    )
    self_ns = sum(
        entry.self_ns for name, entry in workers.items()
        if name != "serve.batcher.next_batch"
    )
    out["trace.accounted_share"] = self_ns / max(extent_ns - wait_ns, 1)
    out["trace.overhead_share"] = (
        1 - Windowed(traced).throughput(loop)
        / Windowed(timed).throughput(loop)
    )
    return out


def harness_layers(timed, setup: dict) -> dict:
    """What the load generator itself saw, and the set-up breakdown."""
    w = Windowed(timed)
    busy = w.counts > 0
    return {
        "loadgen.samples": w.inside.sum(),
        "loadgen.cpu_ms_per_request": quiet_mean(
            w.cpu_s[busy] * 1e3 / w.counts[busy], "lower"
        ),
        "loadgen.lag_p90_ms": _p90(timed.lag_s) * 1e3,
        "loadgen.latency_p50_ms": w.quiet(w.latency_ms, np.median),
        "loadgen.latency_p90_ms": w.quiet(w.latency_ms, _p90),
        "loadgen.latency_p99_ms": np.percentile(w.latency_ms[timed.ok], 99),
        "loadgen.window_iqr_share":
            quartile_spread(w.throughput_per_window()),
        "setup.import_s": setup["import_s"],
        "setup.models_s": setup["models_s"],
        "setup.oracle_s": setup["oracle_s"],
        "setup.warmup_s": setup["warmup_s"],
    }

"""One workload, in this process: set-up, timed phase, traced pass, report.

Imported by ``run.py`` only after ``src/`` is on the path; the time from
process start to the end of these imports is ``setup.import_s``.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

import numpy as np

from repro.config import small_test_chip
from repro.serve import InferenceServer

import loadgen
import metrics
import schema
from estimators import window_count
from tracer import SpanTracer
from workloads import WORKLOADS

#: share of ``--seconds`` the traced pass takes (all of it comes out of
#: the untraced interval under ``--trace 1``)
TRACED_SHARE = 0.3
#: set-up repetitions; ``setup_s`` reports the median
SETUP_REPEATS = 3
#: an open-loop run whose generator sent later than this (p90) is invalid.
#: A woken generator can queue for the interpreter lock behind a worker
#: for up to one switch interval; later than that, it cannot keep up.
MAX_LAG_P90_S = sys.getswitchinterval()
#: ... or that ends with more than this many seconds of offered load unanswered
BACKLOG_S = 1.0


class InvalidRun(Exception):
    """The load generator, not the server, spoiled the measurement."""


def set_up(spec, seed: int):
    """Models, oracle answers, a warm server; and what each step cost.

    The part a deployment pays — lowering the models, starting the
    server, warming it with two passes over the payload pool — runs
    ``SETUP_REPEATS`` times from scratch (fresh models, empty cache) and
    is reported as the median.  The payload pool and the oracle answers
    are the harness's own cost: made once, timed, and kept out of
    ``setup_s`` (they would be four fifths of it and hide the rest).
    """
    config = small_test_chip()
    t0 = time.perf_counter()
    traffic = spec.traffic(seed)
    oracle_s = time.perf_counter() - t0
    references = None
    models_s, warmup_s = [], []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        t0 = time.perf_counter()
        models = spec.models(config, seed)
        models_s.append(time.perf_counter() - t0)
        if references is None:
            t0 = time.perf_counter()
            by_name = {m.name: m for m in models}
            references = [
                by_name[name].run_reference(payload)
                for name, payload in traffic.pool
            ]
            oracle_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        server = InferenceServer(config, models, **spec.server)
        warm = loadgen.run_warmup(
            loadgen.Generator(server, traffic, references), spec.outstanding
        )
        warmup_s.append(time.perf_counter() - t0)
        if warm.failures:
            server.close()
            raise SystemExit(
                "warm-up answers failed the oracle check:\n  "
                + "\n  ".join(warm.failures[:10])
            )
    return server, traffic, references, {
        "models_s": statistics.median(models_s),
        "oracle_s": oracle_s,
        "warmup_s": statistics.median(warmup_s),
        "repeated_s": statistics.median(
            m + w for m, w in zip(models_s, warmup_s)
        ),
    }


def measure(server, spec, traffic, references, duration_s: float):
    """Drive one measured phase and audit the generator that drove it."""
    gen = loadgen.Generator(server, traffic, references)
    n_windows = window_count(duration_s)
    if spec.loop == "closed":
        return loadgen.results(
            loadgen.run_closed(gen, spec.outstanding, duration_s, n_windows)
        )
    results = loadgen.results(
        loadgen.run_open(gen, spec.rate_rps, duration_s, n_windows)
    )
    lag_p90 = float(np.percentile(results.lag_s, 90))
    if lag_p90 > MAX_LAG_P90_S:
        raise InvalidRun(
            f"open-loop generator sent late: lag p90 {lag_p90 * 1e3:.2f} ms"
            f" > {MAX_LAG_P90_S * 1e3:g} ms"
        )
    # a server keeping up holds rate x latency requests (Little's law: a
    # few); one that ends the interval a whole second of offered load
    # behind was overloaded, and the run too short to see the queue's end.
    # A stall at the last instant leaves tens of requests, not hundreds.
    allowed = spec.rate_rps * BACKLOG_S
    if results.backlog_at_end > allowed:
        raise InvalidRun(
            f"queue still growing at the end: {results.backlog_at_end} "
            f"requests unanswered > {allowed:.0f}"
        )
    return results


def run_workload(name: str, seed: int, seconds: float, trace: int | None,
                 trace_out: str | None, process_start: float) -> int:
    """Run one workload; print its metrics and the JSON result line."""
    contract = schema.load()
    spec = WORKLOADS[name]
    import_s = time.perf_counter() - process_start
    server, traffic, references, setup = set_up(spec, seed)
    setup["import_s"] = import_s
    setup_s = import_s + setup["repeated_s"]

    # move everything set-up allocated out of the collector's reach, so
    # it is not re-scanned during the timed interval; collection stays on
    gc.collect()
    gc.freeze()

    traced_s = 0.0 if trace == 0 else seconds * TRACED_SHARE
    timed_s = seconds - traced_s if trace == 1 else seconds
    tracer = SpanTracer()
    traced = None
    try:
        before = server.stats()
        timed = measure(server, spec, traffic, references, timed_s)
        after = server.stats()
        if traced_s:
            with tracer:
                traced = measure(
                    server, spec, traffic, references, traced_s
                )
    except InvalidRun as invalid:
        print(f"invalid run, no metrics: {invalid}", file=sys.stderr)
        return 3
    finally:
        server.close()

    values: dict = {}
    if trace != 1:
        values.update(schema.with_units(
            metrics.end_to_end(timed, spec.loop, spec.limit_s, setup_s),
            "end_to_end", contract,
        ))
    if traced is not None:
        values.update(schema.with_units(
            {
                **metrics.server_layers(timed, before, after),
                **metrics.traced_layers(tracer, traced, timed, spec.loop),
                **metrics.harness_layers(timed, setup),
            },
            "per_layer", contract,
        ))
        if trace_out:
            with open(trace_out, "w") as handle:
                json.dump(tracer.to_json(), handle)

    phases = [timed] + ([traced] if traced is not None else [])
    failures = [line for phase in phases for line in phase.failures]
    print(f"workload {name}  seed {seed}  {spec.loop} loop  "
          f"timed {timed_s:g} s  traced {traced_s:g} s")
    for metric, entry in values.items():
        print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(phase.ok) for phase in phases),
        "failed": len(failures),
        "metrics": values,
    }))
    return 1 if failures else 0

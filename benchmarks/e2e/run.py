"""The repository benchmark: four serving workloads, end to end and by layer.

    python benchmarks/e2e/run.py                      # every workload
    python benchmarks/e2e/run.py --workload closed-cnn --seed 3
    python benchmarks/e2e/run.py --aa 5               # A/A steadiness check

One workload run is one process: it imports the stack, builds the models,
computes the sequential-oracle answer of every payload in the pool,
starts the server and warms it (set-up, timed), then drives the public
serving API from one generator thread for ``--seconds`` and prints every
metric by name with its unit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the whole interval untraced and reports the
end-to-end metrics.  ``--trace 1`` measures the first 70 % untraced,
then installs the outside-in tracer for the remaining 30 % on the same
warm server, and reports the per-layer metrics.  Without ``--trace`` a
run does the full untraced interval *and* a traced pass after it, and
reports both.  Exit status is non-zero when any answer differs from the
oracle, any request fails, or the load generator fell behind its own
schedule (an invalid run prints no metrics).  ``README.md`` beside this
file defines every workload and metric.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import schema  # noqa: E402
from estimators import quartile_spread, relative_worsening  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def child(name: str, seed: int, seconds: float, trace: int | None,
          echo: bool) -> dict:
    """Run one workload in a fresh process; return its result object."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace is not None:
        command += ["--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{name} seed {seed} exited with status {done.returncode}"
        )
    return json.loads(lines[-1])


def run_all(contract: dict, seed: int, seconds: float,
            trace: int | None) -> int:
    """Every workload, one process each; the last line maps name -> result."""
    print(json.dumps({
        w["name"]: child(w["name"], seed, seconds, trace, echo=True)
        for w in contract["workloads"]
    }))
    return 0


def run_aa(contract: dict, n: int, seconds: float) -> int:
    """Two interleaved sets of ``n`` runs of this tree, compared.

    Both sets use seeds 1..n and run A1 B1 A2 B2 ..., so slow drift of
    the machine lands on both.  Prints, per workload x end-to-end metric,
    both medians, how much worse B is than A, the quartile spread over
    all 2n runs, and the bound; exits non-zero when a gap exceeds its
    bound.
    """
    over = []
    for workload in contract["workloads"]:
        name = workload["name"]
        sets: tuple = ([], [])
        for seed in range(1, n + 1):
            for runs in sets:
                runs.append(
                    child(name, seed, seconds, 0, echo=False)["metrics"]
                )
        print(f"{name}: 2 x {n} runs of {seconds:g} s")
        print(f"  {'metric':<22}{'median A':>12}{'median B':>12}"
              f"{'gap':>9}{'spread':>9}{'bound':>8}")
        for metric in contract["end_to_end"]:
            a, b = (
                [run[metric["name"]]["value"] for run in runs]
                for runs in sets
            )
            gap = relative_worsening(
                statistics.median(a), statistics.median(b), metric["better"]
            )
            flag = ""
            if abs(gap) > metric["bound"]:
                flag = "  OVER BOUND"
                over.append(f"{name}/{metric['name']}")
            print(f"  {metric['name']:<22}{statistics.median(a):>12.5g}"
                  f"{statistics.median(b):>12.5g}{gap:>+9.3f}"
                  f"{quartile_spread(a + b):>9.3f}"
                  f"{metric['bound']:>8.2f}{flag}", flush=True)
    if over:
        print(f"over their bound: {', '.join(over)}")
    return 1 if over else 0


def main(argv=None) -> int:
    contract = schema.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in contract["workloads"]],
                        help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measured interval (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default both")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's spans here as JSON")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="A/A check: two interleaved sets of N runs")
    args = parser.parse_args(argv)
    if args.aa:
        if args.aa < 2:
            parser.error("--aa needs N >= 2 to have quartiles")
        return run_aa(contract, args.aa, args.seconds)
    if args.workload is None:
        return run_all(contract, args.seed, args.seconds, args.trace)
    if not SRC.is_dir():
        print(f"{SRC} is missing: the benchmark needs the repository it "
              "measures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import single  # the heavy imports; timed as setup.import_s

    return single.run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.trace_out,
        _PROCESS_START,
    )


if __name__ == "__main__":
    sys.exit(main())

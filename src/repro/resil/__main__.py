"""Campaign CLI: ``python -m repro.resil [--quick] [-o BENCH_resil.json]``."""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import render_campaign, run_campaign


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resil",
        description="Run the deterministic fault campaign: chip and "
        "serving scenarios; the exit code is its gates.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller payloads and waves for CI smoke runs",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the JSON report here (default: stdout summary only)",
    )
    args = parser.parse_args(argv)

    payload = run_campaign(quick=args.quick)
    print(render_campaign(payload))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if payload["summary"]["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""``BENCHMARK.json`` is the one schema; this module reads it.

Metric names, units, directions, bounds, workload names and the run
length live in the file at the repository root and nowhere else, so the
code and the contract the driver checks cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load() -> dict:
    with open(SCHEMA_PATH) as handle:
        return json.load(handle)


def with_units(values: dict, kind: str, schema: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the schema's ``kind`` list.

    Raises when the computed names and the listed names differ.
    """
    listed = {m["name"]: m["unit"] for m in schema[kind]}
    if set(values) != set(listed):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(listed))}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in listed.items()
    }

"""BENCHMARK.json stays inside the contract's limits and matches the code."""

import re

import pytest

import schema
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_shape_and_limits():
    contract = schema.load()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][1].startswith(contract["paths"][0])
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    # 4 + 22 x workloads runs, set-up included, inside 3420 s
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 12) < 3420
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert schema.SCHEMA_PATH.stat().st_size < 64 * 1024


def test_workloads_match_the_code_and_setup_has_the_largest_bound():
    contract = schema.load()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for workload in contract["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bounds.values())


def test_with_units_refuses_a_name_the_schema_does_not_list():
    contract = schema.load()
    values = {m["name"]: 1.0 for m in contract["end_to_end"]}
    out = schema.with_units(values, "end_to_end", contract)
    assert out["latency_ms"] == {"value": 1.0, "unit": "ms"}
    values["extra"] = 2.0
    with pytest.raises(RuntimeError, match="extra"):
        schema.with_units(values, "end_to_end", contract)

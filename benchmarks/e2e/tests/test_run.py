"""One short real run: both phases, the result line, tracer hygiene."""

import json
import time

import pytest

import schema
import single
from tracer import LAYERS, resolve


def _installed() -> bool:
    wrapped = [
        hasattr(vars(owner)[attr], "__wrapped__")
        for owner, attr in map(resolve, LAYERS)
    ]
    assert all(wrapped) or not any(wrapped)
    return all(wrapped)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """closed-cnn for 1 s + a 0.3 s traced pass, set up once."""
    trace_path = tmp_path_factory.mktemp("trace") / "spans.json"
    wrapper_state = []
    real_measure = single.measure

    def spying_measure(*args):
        wrapper_state.append(_installed())
        return real_measure(*args)

    patch = pytest.MonkeyPatch()
    patch.setattr(single, "measure", spying_measure)
    patch.setattr(single, "SETUP_REPEATS", 1)
    lines = []
    patch.setattr("builtins.print", lambda *a, **k: lines.append(a[0]))
    try:
        status = single.run_workload(
            "closed-cnn", 3, 1.0, None, str(trace_path), time.perf_counter()
        )
    finally:
        patch.undo()
    return status, lines, wrapper_state, trace_path


def test_timed_interval_runs_without_wrappers_and_traced_pass_with(short_run):
    _status, _lines, wrapper_state, _path = short_run
    assert wrapper_state == [False, True]
    assert not _installed()  # restored afterwards


def test_result_line_has_exactly_the_contract_keys(short_run):
    status, lines, _state, _path = short_run
    assert status == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 8
    contract = schema.load()
    listed = {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }
    assert set(result["metrics"]) == set(listed)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == listed[name]
        assert entry["value"] == entry["value"]  # not NaN
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["success_share"] == 1.0
    assert values["sim_cycles_per_input"] > 0
    assert values["serve.cache.hit_share"] == 1.0
    assert values["serve.batcher.full_trigger_share"] == 1.0
    assert values["sim.replay.run_batched.calls"] > 0
    assert values["sim.chip.run.calls"] == 0  # warm cache: replay only
    assert values["trace.accounted_share"] > 0.9
    # every metric is printed by name with its unit
    for name, unit in listed.items():
        assert any(name in line and line.endswith(unit) for line in lines)


def test_trace_file_holds_a_span_tree_per_batch(short_run):
    _status, _lines, _state, trace_path = short_run
    spans = json.loads(trace_path.read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    batches = [s for s in spans if s["name"] == "serve.pool.execute"]
    assert batches and all(len(s["info"]["requests"]) == 4 for s in batches)
    replay = next(s for s in spans if s["name"] == "sim.replay.run_batched")
    chain = []
    while replay["parent"] is not None:
        replay = by_id[replay["parent"]]
        chain.append(replay["name"])
    assert chain == [
        "compiler.runner.execute_batched", "nn.tsp_inference.forward",
        "serve.pool.execute", "serve.pool.execute_batch",
    ]
    for span in spans:
        assert 0 <= span["self_ns"] <= span["end_ns"] - span["start_ns"]

"""The seeded fault campaign — chip and serving scenarios — and its
JSON report."""

import json
import threading

import pytest

from repro.resil import render_campaign, run_campaign
from repro.resil.campaign import (
    MAX_RECOVERY_WAVES,
    MIN_AVAILABILITY,
    SCENARIOS,
    SCHEMA,
)

SERVING = ("serving_watchdog_storm", "serving_link_ber_burst",
           "serving_dead_mem_slice")


def dumped(payload):
    """The bytes ``python -m repro.resil -o`` writes for ``payload``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def payload():
    return run_campaign(quick=True)


class TestCampaign:
    def test_every_scenario_detects_its_fault(self, payload):
        assert payload["schema"] == SCHEMA
        summary = payload["summary"]
        assert summary["detected"] == summary["n_scenarios"]
        missed = [
            s["name"] for s in payload["scenarios"] if not s["detected"]
        ]
        assert not missed

    def test_every_recovery_attempt_succeeds_bit_exact(self, payload):
        for s in payload["scenarios"]:
            if s["bit_exact"] is not None:
                assert s["recovered"], s["name"]
                assert s["bit_exact"], s["name"]
        assert payload["summary"]["recovery_rate"] == 1.0

    def test_degraded_slowdowns_are_reported(self, payload):
        by_name = {s["name"]: s for s in payload["scenarios"]}
        assert by_name["dead_mem_slice"]["slowdown"] >= 1.0
        assert by_name["dead_mxm_plane"]["slowdown"] >= 1.0
        assert by_name["dead_cable_reroute"]["slowdown"] > 1.0
        assert payload["summary"]["max_degraded_slowdown"] >= 1.0

    def test_abort_scenarios_carry_context(self, payload):
        by_name = {s["name"]: s for s in payload["scenarios"]}
        for name in ("uncorrectable_abort", "sram_double_bit",
                     "watchdog_hang"):
            assert "aborted with context" in by_name[name]["notes"]
            assert "MISSING CONTEXT" not in by_name[name]["notes"]

    def test_render_names_every_scenario(self, payload):
        text = render_campaign(payload)
        for s in payload["scenarios"]:
            assert s["name"] in text

    def test_campaign_is_deterministic(self, payload):
        """The whole ``--quick`` campaign — chip and serving — is a
        function of its seeds."""
        again = run_campaign(quick=True)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_every_scenario_gets_one_row(self, payload):
        names = [s["name"] for s in payload["scenarios"]]
        assert len(names) == len(set(names)) == len(SCENARIOS) == 11
        assert names[-3:] == list(SERVING)
        columns = {tuple(s) for s in payload["scenarios"]}
        assert len(columns) == 1  # the same fixed columns for every row
        assert payload["summary"]["ok"]


class TestServingScenarios:
    """A live server through a fault window, on the held serving clock."""

    @pytest.fixture
    def serving(self, payload):
        rows = {s["name"]: s for s in payload["scenarios"]}
        return [rows[name] for name in SERVING]

    def test_zero_wrong_answers(self, payload, serving):
        for s in serving:
            assert "wrong" not in s["outcomes"], s["name"]
            assert s["bit_exact"], s["name"]
        assert payload["summary"]["wrong_answers"] == 0

    def test_every_scenario_recovers_within_the_wave_budget(self, serving):
        for s in serving:
            assert s["recovered"], s["name"]
            assert 1 <= s["recovery_waves"] <= MAX_RECOVERY_WAVES

    def test_availability_and_clean_warm_up(self, serving):
        for s in serving:
            assert s["availability"] >= MIN_AVAILABILITY, s["name"]
            assert s["warmup_ok"], s["name"]

    def test_each_fault_shows_up_as_its_health_transition(self, serving):
        storm, burst, dead = serving
        for s in (storm, burst):
            assert s["health"] == {"quarantine": 1, "repair": 1}
            assert s["notes"].endswith("worker healthy")
        assert dead["health"] == {"degraded_enter": 1}
        assert dead["notes"].endswith("worker degraded")


class TestFullSize:
    """CI's ``--quick`` is not the only size that has to work."""

    def test_full_size_campaign_detects_and_recovers(self, tmp_path, capsys):
        from repro.resil.__main__ import main

        out = tmp_path / "BENCH_resil.json"
        assert main(["-o", str(out)]) == 0
        assert "11/11 detected" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert not payload["quick"]
        summary = payload["summary"]
        assert summary["detected"] == summary["n_scenarios"]
        assert summary["recovered"] == summary["recovery_attempts"]
        noise = payload["scenarios"][0]
        assert noise["name"] == "correctable_link_noise"
        # every one of the 16 vectors corrected in line, and reproducibly
        assert "across 16 vectors" in noise["notes"]
        assert noise["bit_exact"] and noise["deterministic"]

    def test_uncaught_fault_is_a_failed_scenario_not_a_traceback(
        self, monkeypatch, capsys
    ):
        from repro.errors import C2cLinkError
        from repro.resil import campaign
        from repro.resil.__main__ import main

        def on_fire(*_):
            raise C2cLinkError("vector seq 11 failed FEC", chip=1, cycle=117)

        def scenario_cable_on_fire(config, quick):
            on_fire()

        # a serving scenario's fault strikes with its server running
        monkeypatch.setattr(campaign, "_used_mem_slice", on_fire)
        monkeypatch.setattr(campaign, "SCENARIOS", [
            campaign.scenario_watchdog_hang, scenario_cable_on_fire,
            campaign.scenario_serving_dead_mem_slice,
        ])
        running = set(threading.enumerate())
        assert main([]) == 1  # the exit code is the gate
        out = capsys.readouterr().out
        hang, *failed = run_campaign()["scenarios"]
        assert hang["detected"]
        assert [s["name"] for s in failed] == [
            "cable_on_fire", "serving_dead_mem_slice"
        ]
        for s in failed:
            assert not s["detected"] and not s["recovered"]
            assert "C2cLinkError" in s["notes"]
            assert "[chip 1, cycle 117] vector seq 11" in s["notes"]
            assert s["name"] in out
        # a failed serving scenario still closed its server
        assert not [
            t for t in set(threading.enumerate()) - running
            if t.name.startswith("tsp-serve-")
        ]


class TestCli:
    def test_main_writes_the_report(self, payload, tmp_path, capsys):
        """``-o`` writes the bytes the in-process campaign serialises to."""
        from repro.resil.__main__ import main

        out = tmp_path / "BENCH_resil.json"
        assert main(["--quick", "-o", str(out)]) == 0
        assert out.read_text() == dumped(payload)
        assert json.loads(out.read_text())["schema"] == SCHEMA
        assert "resilience campaign" in capsys.readouterr().out

"""The seeded fault-campaign runner and its JSON report."""

import json

import pytest

from repro.resil import render_campaign, run_campaign
from repro.resil.campaign import SCHEMA


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

    def test_campaign_is_deterministic(self, payload):
        again = run_campaign(quick=True)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_render_names_every_scenario(self, payload):
        text = render_campaign(payload)
        for s in payload["scenarios"]:
            assert s["name"] in text


class TestFullSize:
    """CI's ``--quick`` is not the only size that has to work."""

    def test_full_size_campaign_detects_and_recovers(self, tmp_path, capsys):
        from repro.resil.__main__ import main

        out = tmp_path / "BENCH_resil.json"
        assert main(["-o", str(out)]) == 0
        assert "8/8 detected" in capsys.readouterr().out
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

        def scenario_cable_on_fire(config, quick):
            raise C2cLinkError("vector seq 11 failed FEC", chip=1, cycle=117)

        monkeypatch.setattr(
            campaign, "SCENARIOS",
            [campaign.scenario_watchdog_hang, scenario_cable_on_fire],
        )
        assert main([]) == 1  # the exit code is the gate
        failed = run_campaign()["scenarios"][1]
        assert failed["name"] == "cable_on_fire"
        assert not failed["detected"] and not failed["recovered"]
        assert "C2cLinkError" in failed["notes"]
        assert "[chip 1, cycle 117] vector seq 11" in failed["notes"]
        assert "cable_on_fire" in capsys.readouterr().out


class TestCli:
    def test_main_writes_the_report(self, tmp_path, capsys):
        from repro.resil.__main__ import main

        out = tmp_path / "BENCH_resil.json"
        assert main(["--quick", "-o", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["schema"] == SCHEMA
        assert "resilience campaign" in capsys.readouterr().out

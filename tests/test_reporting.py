"""Bench reporting helpers."""

import pytest

from repro.bench import ExperimentReport, PaperComparison, ascii_series
from repro.bench.reporting import merge_rendered


class TestExperimentReport:
    def test_render_contains_rows(self):
        report = ExperimentReport("E06", "ResNet50 throughput")
        report.add("IPS", 20400, 20254, "images/s")
        report.add("latency", 49.0, 49.4, "us", note="batch 1")
        text = report.render()
        assert "E06" in text
        assert "IPS" in text and "20400" in text
        assert "batch 1" in text

    def test_ratio_computed(self):
        row = PaperComparison("x", 100.0, 95.0)
        assert row.ratio() == pytest.approx(0.95)

    def test_ratio_none_for_strings(self):
        row = PaperComparison("x", "n/a", 95.0)
        assert row.ratio() is None

    def test_ratio_none_for_zero_paper(self):
        assert PaperComparison("x", 0.0, 1.0).ratio() is None


class TestAsciiSeries:
    def test_plot_contains_points(self):
        art = ascii_series([(1, 1), (2, 4), (3, 9)], title="squares")
        assert "squares" in art
        assert "·" in art

    def test_log_axis(self):
        art = ascii_series([(1, 1), (1000, 3)], logx=True)
        assert "log10" in art

    def test_marks_rendered(self):
        art = ascii_series(
            [(0, 0), (10, 10)], marks=[(5.0, 5.0, "X")]
        )
        assert "X" in art

    def test_empty(self):
        assert "no data" in ascii_series([])


class TestMergeRendered:
    """``benchmarks/bench_reports.txt`` keeps every section a run did not
    render: a run replaces only its own, by title, in title order."""

    @staticmethod
    def section(experiment, title, value, figure=""):
        report = ExperimentReport(experiment, title, figure=figure)
        report.add("metric", 1.0, value)
        return report.render()

    def test_a_subset_replaces_only_its_sections(self):
        a = self.section("E03", "roofline", 1.0, figure="x\n\ny")
        b = self.section("E11", "bandwidth", 2.0)
        h = self.section("housekeeping", "host", 3.0)
        full = merge_rendered("", [h, b, a])
        assert full == "\n\n".join([a, b, h]) + "\n"
        b2 = self.section("E11", "bandwidth", 5.0)
        assert merge_rendered(full, [b2]) == "\n\n".join([a, b2, h]) + "\n"
        # a run of every section rewrites the file it would write afresh
        assert merge_rendered(full, [a, b, h]) == full

    def test_a_new_section_takes_its_place_in_title_order(self):
        a = self.section("E03", "roofline", 1.0)
        h = self.section("housekeeping", "host", 3.0)
        e = self.section("E05", "maxpool", 4.0)
        assert merge_rendered(merge_rendered("", [a, h]), [e]) == (
            "\n\n".join([a, e, h]) + "\n"
        )

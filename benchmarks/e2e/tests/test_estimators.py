"""The quiet-share estimator and the spread/gap arithmetic."""

import statistics

import numpy as np
import pytest

from estimators import (
    per_window,
    quartile_spread,
    quiet_mean,
    quiet_share,
    relative_worsening,
    window_count,
    window_index,
)


def test_window_index_bins_half_open_and_drops_the_tail():
    boundaries = np.array([10.0, 12.0, 14.0])
    times = np.array([9.9, 10.0, 11.99, 12.0, 13.5, 14.0, 15.0, np.nan])
    assert window_index(boundaries, times).tolist() == [
        -1, 0, 0, 1, 1, -1, -1, -1
    ]


def test_quiet_mean_ignores_disturbed_windows_that_median_and_pool_keep():
    # twenty windows at ~9 ms; a slow spell sits on twelve of them
    rng = np.random.default_rng(0)
    index = np.repeat(np.arange(20), 100)
    values = rng.normal(9.0, 0.2, 2000)
    values[index >= 8] *= 1.35
    per = per_window(index, 20, values, np.median)
    assert quiet_mean(per, "lower") == pytest.approx(9.0, abs=0.05)
    assert np.median(per) > 11.5 and np.median(values) > 11.5


def test_quiet_mean_takes_the_best_quarter_in_the_metric_direction():
    stats = [5.0, 1.0, 3.0, 2.0, 4.0, 8.0, 7.0, 6.0]
    assert quiet_mean(stats, "lower") == pytest.approx((1 + 2) / 2)
    assert quiet_mean(stats, "higher") == pytest.approx((7 + 8) / 2)
    assert quiet_mean([4.0, 2.0, 9.0], "lower") == 2.0  # at least one sample
    assert quiet_mean(range(100), "lower", share=0.02) == pytest.approx(0.5)
    assert quiet_share(stats, "lower").tolist() == [1, 3]
    with pytest.raises(ValueError):
        quiet_mean([], "lower")


def test_per_window_skips_empty_windows_and_unbinned_samples():
    index = np.array([0, 0, 2, -1])
    values = np.array([1.0, 3.0, 7.0, 100.0])
    assert per_window(index, 3, values, np.mean) == [2.0, 7.0]


def test_window_count_is_one_second_windows():
    assert [window_count(s) for s in (0.3, 6, 14, 20)] == [1, 6, 14, 20]


def test_quartile_spread_is_the_contract_formula():
    values = [9.1, 8.8, 9.0, 10.3, 8.9, 9.2, 9.0, 8.7, 9.4, 9.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([0.0] * 10) == 0.0


def test_relative_worsening_follows_the_metric_direction():
    assert relative_worsening(100, 110, "lower") == pytest.approx(0.10)
    assert relative_worsening(100, 110, "higher") == pytest.approx(-0.10)
    assert relative_worsening(1.0, 0.99, "higher") == pytest.approx(0.01)
    assert relative_worsening(0, 0, "lower") == 0.0

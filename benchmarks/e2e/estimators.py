"""Noise-robust estimators: the quiet share of a run's samples, and spreads.

On a small shared sandbox the machine itself changes speed — a fixed
single-thread kernel measured here took 4.6 ms in one 2.5-s window and
8.7 ms in another a few seconds later — and the change is one-sided: a
neighbour only ever makes a run slower.  A statistic pooled over a whole
run, or the median over its windows, inherits however much of the run
was disturbed (run-to-run spread 0.18-0.27 on a saturated workload).
So every timing metric is the **mean over the quiet share of its
samples** — the ones that read best:

* where the latency distribution is shaped by the arrival process (the
  open loop), a sample is a statistic of a one-second window and the
  share is the quietest quarter of the windows;
* where every request is the same work on a saturated server (the closed
  loops), a sample is one batch interval — the time the one worker took
  from the batch before to this one — and the share is the fastest
  fiftieth: the machine flips between a fast and a slow state every few
  tenths of a second, a slow spell can fill every window for a minute,
  but a handful of batches nearly always get through undisturbed (spread
  over 20-s stretches 0.04-0.08, against 0.15-0.26 for the quiet quarter
  of windows on the same data).

A change to the code moves every sample, the quiet ones included.
Everything here is a pure function of arrays so the tests can pin the
arithmetic.
"""

from __future__ import annotations

import statistics

import numpy as np

#: target window length; a phase is cut into round(duration / this) windows
WINDOW_S = 1.0
#: share of a phase's windows the quiet mean is taken over
QUIET_SHARE = 0.25
#: share of a closed loop's batch intervals its timing metrics are taken over
FLOOR_SHARE = 0.02


def window_count(duration_s: float) -> int:
    """Windows a phase of ``duration_s`` is cut into (at least one)."""
    return max(1, round(duration_s / WINDOW_S))


def window_index(boundaries: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Window of each time: ``k`` when ``boundaries[k] <= t < boundaries[k+1]``.

    Times before the first or at/after the last boundary get ``-1`` —
    the warm tail of a phase belongs to no window.
    """
    index = np.searchsorted(boundaries, times, side="right") - 1
    index[(index < 0) | (index >= len(boundaries) - 1)] = -1
    return index


def per_window(index: np.ndarray, n_windows: int, values: np.ndarray, stat):
    """``stat(values in window k)`` for every non-empty window, in order."""
    out = []
    for k in range(n_windows):
        chosen = values[index == k]
        if len(chosen):
            out.append(float(stat(chosen)))
    return out


def quiet_share(samples, better: str, share: float = QUIET_SHARE) -> np.ndarray:
    """Indices of the best ``share`` of the samples.

    ``better`` is the metric's direction (``"lower"`` or ``"higher"``);
    the share is rounded down and is at least one sample.
    """
    if not len(samples):
        raise ValueError("no sample to take the quiet share of")
    order = np.argsort(samples, kind="stable")
    keep = max(1, int(len(order) * share))
    return order[-keep:] if better == "higher" else order[:keep]


def quiet_mean(samples, better: str, share: float = QUIET_SHARE) -> float:
    """Mean of the best ``share`` of the samples."""
    samples = np.asarray(samples, dtype=float)
    return float(samples[quiet_share(samples, better, share)].mean())


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``.

    The run-to-run spread the benchmark contract compares with a metric's
    bound; 0.0 when the values are all equal (even all zero).
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(statistics.median(values))


def relative_worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``); negative means it improved.
    """
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change

"""Quantitative cross-group collapse metrics and survival-curve plot data.

A scaling method works when the scaled survival curves of all groups land on
top of each other.  Instead of judging that by eye, two numbers quantify it,
both computed straight from the per-group score vectors:

    * ``max_pairwise_ks``: the largest two-sample Kolmogorov-Smirnov statistic
      over all pairs of groups (0 = the empirical distributions coincide),
      read off the envelope of all groups' CDFs on one shared grid;
    * ``quantile_dispersion``: at a handful of upper quantiles, the spread
      (max - min over groups) of log10 of the quantile value.  Groups whose
      quantile is 0 cannot be placed on a log axis; they are excluded and
      counted.

Curve data for external plotting is emitted on a shared grid of 25
log-spaced thresholds; no figure rendering happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import GroupKey
from .errors import EmptyGroupError
from .scaling import ScalingMethod

DEFAULT_QUANTILES = (0.5, 0.75, 0.9, 0.95, 0.99)
N_PLOT_BINS = 25


@dataclass(frozen=True)
class QuantileDispersion:
    """Spread of one quantile's log10 value across groups."""

    q: float
    spread: float | None
    n_groups: int
    n_excluded_zero: int


@dataclass(frozen=True)
class CollapseReport:
    """How far a family of curves is from coinciding; method None means raw."""

    method: ScalingMethod | None
    n_curves: int
    max_pairwise_ks: float
    quantile_dispersion: tuple[QuantileDispersion, ...]


def _cdf(sorted_values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Empirical CDF of a sorted sample at each threshold.

    Written as one minus the survival fraction Pr(X > t): the algebraically
    equal ``#(X <= t) / n`` rounds differently, and the report bytes are
    pinned to this form.
    """
    n = sorted_values.size
    return 1.0 - (n - np.searchsorted(sorted_values, thresholds, side="right")) / n


def collapse_metrics(
    vectors: Mapping[GroupKey, np.ndarray],
    method: ScalingMethod | None = None,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> CollapseReport:
    """Quantify how well the groups' score distributions superimpose.

    ``vectors`` maps each group to its scores (any order).  Requires at least
    two groups, each non-empty; identical samples in every group give a
    report of exact zeros.
    """
    if len(vectors) < 2:
        raise ValueError(f"need at least 2 groups, got {len(vectors)}")
    samples = []
    for key, values in vectors.items():
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size == 0:
            raise EmptyGroupError(f"group {key}: empty score vector")
        samples.append(v)
    grid = np.unique(np.concatenate(samples))

    hi = np.zeros_like(grid)
    lo = np.ones_like(grid)
    qvals = np.empty((len(quantiles), len(samples)))
    for g, v in enumerate(samples):
        cdf = _cdf(v, grid)
        np.maximum(hi, cdf, out=hi)
        np.minimum(lo, cdf, out=lo)
        # order-statistic quantile: smallest distinct value with CDF >= q
        distinct = v[np.concatenate(([True], v[1:] != v[:-1]))]
        idx = np.searchsorted(_cdf(v, distinct), quantiles, side="left")
        qvals[:, g] = distinct[np.minimum(idx, distinct.size - 1)]
    # sup over pairs of sup_t |F_i - F_j| = sup_t (max_i F_i(t) - min_i F_i(t))
    max_ks = float((hi - lo).max())

    dispersions = []
    for q, row in zip(quantiles, qvals):
        positive = row[row > 0]
        n_excluded = int(row.size - positive.size)
        if positive.size == 0:
            spread = None
        else:
            logs = np.log10(positive)
            spread = float(logs.max() - logs.min())
        dispersions.append(
            QuantileDispersion(
                q=q,
                spread=spread,
                n_groups=int(positive.size),
                n_excluded_zero=n_excluded,
            )
        )
    return CollapseReport(
        method=method,
        n_curves=len(samples),
        max_pairwise_ks=max_ks,
        quantile_dispersion=tuple(dispersions),
    )


def log_binned_thresholds(samples: Iterable[Sequence[float] | np.ndarray]) -> np.ndarray:
    """Shared plotting grid: ``N_PLOT_BINS`` log-spaced values between the
    global smallest positive value and the global maximum.  Empty when no
    positive value exists."""
    lo = np.inf
    hi = -np.inf
    for sample in samples:
        v = np.asarray(sample, dtype=np.float64)
        pos = v[v > 0]
        if pos.size:
            lo = min(lo, float(pos.min()))
            hi = max(hi, float(v.max()))
    if not np.isfinite(lo):
        return np.array([])
    if lo == hi:
        return np.array([lo])
    return np.geomspace(lo, hi, N_PLOT_BINS)


def binned_survival(values, thresholds: np.ndarray) -> np.ndarray:
    """Pr(X >= t) for each threshold t, for plotting on the shared grid."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    idx = np.searchsorted(v, thresholds, side="left")
    return (v.size - idx) / v.size

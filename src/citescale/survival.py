"""Quantitative cross-group collapse metrics and survival-curve plot data.

A scaling method works when the scaled survival curves of all groups land on
top of each other.  Instead of judging that by eye, two numbers quantify it,
both computed straight from the per-group score vectors:

    * ``max_pairwise_ks``: the largest two-sample Kolmogorov-Smirnov statistic
      over all pairs of groups (0 = the empirical distributions coincide),
      read off the envelope of all groups' CDFs on one shared grid;
    * ``quantile_dispersion``: at each of the ``QUANTILES``, the spread
      (max - min over groups) of log10 of the quantile value.  Groups whose
      quantile is 0 cannot be placed on a log axis; they are excluded and
      counted.

Curve data for external plotting is emitted on a shared grid of 25
log-spaced thresholds; no figure rendering happens here.

Every group is handled at once, with no loop over the groups.  Both read
the sorted layout of the scores' family (:class:`citescale.stats._Family`),
made once per family, so the curves and the metrics of one method share it:
all groups end to end, each segment sorted, with each group's ``first``
element and ``size``.  A mapping that is not a family is laid out first,
and a NaN or infinite score there is a ``ValueError`` naming its group.  A
group's CDF on the shared grid of every distinct value only steps at its
runs of equal values, and the envelope of all groups' CDFs is a running
minimum and a running maximum over those runs in value order
(:func:`_max_ks`), so its memory grows with the number of scores, not with
groups times grid.  Every CDF value is ``1 - (n - k) / n`` of an integer
count ``k``: the report bytes are pinned to this form, and the algebraically
equal ``k / n`` rounds differently.  The quantiles and the curve counts come
from the same layout; the curves search each run of equal values once
(:meth:`citescale.stats._Segments.runs`) and count it by its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import GroupKey
from .errors import EmptyGroupError
from .stats import _Family, _Segments

QUANTILES = (0.5, 0.75, 0.9, 0.95, 0.99)
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
    """How far a family of curves is from coinciding."""

    n_curves: int
    max_pairwise_ks: float | None
    quantile_dispersion: tuple[QuantileDispersion, ...]


def _max_ks(seg: _Segments) -> float:
    """The largest gap between any two groups' CDFs on the grid of every
    distinct value, ``max_t (max_g F_g(t) - min_g F_g(t))``.

    ``F_g(t) = 1 - a_g(t)`` with ``a_g(t) = #(x > t) / n``, and ``1 - a`` is
    monotone in ``a``, so ``max_g F_g = 1 - min_g a_g`` and ``min_g F_g =
    1 - max_g a_g``, float for float.  Each ``a_g`` only falls, at the runs
    of equal values in its sorted segment: ``min_g a_g(t)`` is the running
    minimum, in value order, of the ``a`` after each run at or below t, and
    ``max_g a_g(t)`` the running maximum from the top of the ``a`` before
    each run above t.  One sort of the runs gives both for every t.  A run
    of -0.0 and one of 0.0 share a grid value, so splitting them moves
    neither envelope.
    """
    start, length = seg.runs()
    group = np.searchsorted(seg.first, start, side="right") - 1
    n, end = seg.size[group], (seg.first + seg.size)[group]
    after = (end - start - length) / n  # a_g(t) from the run on
    before = (end - start) / n  # a_g(t) just below the run
    x = seg.values[start]
    order = np.argsort(x, kind="stable")
    x, after, before = x[order], after[order], before[order]
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))  # of each grid value
    low = np.minimum.accumulate(after)[last]
    np.maximum.accumulate(before[::-1], out=before[::-1])
    high = np.append(before[last[:-1] + 1], 0.0)
    return float(((1.0 - low) - (1.0 - high)).max())


def _quantile_values(seg: _Segments) -> np.ndarray:
    """Each group's order-statistic quantile at each of ``QUANTILES``: its
    smallest value whose CDF is at least q, one row per q.

    At a group's i-th smallest value, ``1 - (n - i) / n`` is monotone in i,
    so the number of i whose CDF is below q is the index of the quantile (a
    tied value's CDF counts all its ties, but the first of them is still the
    first to reach q).  That CDF lies within 3 * 2**-53 of ``i / n``, so
    every i below ``q * n - 1`` counts and none above ``q * n + 1`` does:
    only the few i in between are evaluated.
    """
    n = seg.size
    rows = []
    for q in QUANTILES:
        near = np.ceil(q * n).astype(np.intp)  # ceil(q n), off by at most 1
        below = np.clip(near - 3, 0, n)
        for i in (near - 2, near - 1, near, near + 1):
            below += (i >= 1) & (1.0 - (n - i) / n < q)
        rows.append(seg.values[seg.first + below])
    return np.array(rows)


def _sorted(vectors: Mapping[GroupKey, np.ndarray]) -> _Segments:
    """The sorted layout of :meth:`citescale.stats._Family.of` ``vectors``;
    an empty group is an :class:`EmptyGroupError` naming it."""
    family = _Family.of(vectors)
    if not family.seg.size.all():
        key = list(family)[int(np.argmin(family.seg.size))]
        raise EmptyGroupError(f"group {key}: empty score vector")
    return family.sorted


def collapse_metrics(vectors: Mapping[GroupKey, np.ndarray]) -> CollapseReport:
    """Quantify how well the groups' score distributions superimpose.

    ``vectors`` maps each group to its scores (any order); every group must
    be non-empty and finite.  Identical samples in every group give a report
    of exact zeros.  Fewer than two groups leave nothing to compare: the
    report then has no KS statistic and no quantile dispersion.
    """
    seg = _sorted(vectors)
    if seg.size.size < 2:
        return CollapseReport(seg.size.size, None, ())
    # sup over pairs of sup_t |F_i - F_j| = sup_t (max_i F_i(t) - min_i F_i(t))
    max_ks = _max_ks(seg)

    dispersions = []
    for q, row in zip(QUANTILES, _quantile_values(seg)):
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
        n_curves=seg.size.size,
        max_pairwise_ks=max_ks,
        quantile_dispersion=tuple(dispersions),
    )


def log_binned_thresholds(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Shared plotting grid: ``N_PLOT_BINS`` log-spaced values between the
    smallest positive value and the maximum of ``values``, the pooled scores
    of every group.  Empty when no positive value exists."""
    v = np.asarray(values, dtype=np.float64)
    pos = v[v > 0]
    if not pos.size:
        return np.array([])
    lo, hi = float(pos.min()), float(v.max())
    if lo == hi:
        return np.array([lo])
    return np.geomspace(lo, hi, N_PLOT_BINS)


def survival_curves(
    vectors: Mapping[GroupKey, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The shared plotting thresholds of :func:`log_binned_thresholds`, and
    Pr(X >= t) at each of them: one row per group, in the order of
    ``vectors``, whose groups must be non-empty and finite.

    One ``searchsorted`` of each run of equal values into the thresholds and
    one ``bincount`` weighted by the runs' lengths count, for every group at
    once, how many thresholds each value reaches.
    """
    seg = _sorted(vectors)
    thresholds = log_binned_thresholds(seg.values)
    # np.geomspace is not monotone when its ends lie a few ulps apart
    ranked = np.sort(thresholds)
    cells = ranked.size + 1
    start, length = seg.runs()
    reached = np.searchsorted(ranked, seg.values[start], side="right")
    reached += seg.spread(np.arange(seg.size.size) * cells)[start]
    # float64 counts, exact below 2**53
    counts = np.bincount(reached, weights=length, minlength=seg.size.size * cells)
    counts = counts.reshape(seg.size.size, cells)
    at_least = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # [:, j]: #(x >= ranked[j - 1])
    at_least = at_least[:, 1 + np.searchsorted(ranked, thresholds)]
    return thresholds, at_least / seg.size[:, None]

"""The six scaling variants that turn raw citation counts into impact scores.

Each variant divides a record's citation count by one statistic of its
(category, year) reference distribution:

    ==============  =============================================
    max             range of the distribution (max - min)
    mean            arithmetic mean, zeros included
    mean0           arithmetic mean over cited records only
    boxcox          mean of the power-transformed counts T(c)
    median          median, zeros included
    median0         median over cited records only
    ==============  =============================================

with ``T(c) = ((c+1)**lam - 1) / lam`` for ``lam != 0`` and ``log(c+1)`` at
``lam == 0``; ``lam`` is fitted per group by maximum likelihood within
[-3, +3].  All six map zero citations to a score of zero.

A statistic can be undefined on real data (a zero median when more than half
the group is uncited, a zero range, an all-zero group).  Undefinedness is
data, not failure: ``fit_factors`` returns a factor set with a reason, and
``scale_corpus`` skips those groups while accounting for them.

Every variant is one rescaling ``c / c0`` (Radicchi, Fortunato & Castellano,
PNAS 2008), scored as ``(T(c) * denom_den) / denom_num`` with ``T`` the
identity for the five ratio variants.  Their divisor is kept as an exact
integer ratio ``denom_num / denom_den``, so each score takes one rounding and
a group whose counts are an integer multiple of another's produces
bit-identical score multisets, which the collapse diagnostics rely on.  The
power transform keeps ``denom_den = 1.0``, and ``t * 1.0 == t`` exactly.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import GroupKey
from .errors import DegenerateLikelihoodError, EmptyGroupError
from .stats import _median

LAMBDA_BOUNDS = (-3.0, 3.0)
_GRID_STEP = 0.01
_GOLDEN_TOL = 1e-8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Grid screen in fit_lambda: elements per row block (bounds its memory), the
# smallest certified variance relative to mean**2, and the log-likelihood
# margin per value within which a grid point stays a candidate.
_SCREEN_CELLS = 1 << 16
_SCREEN_REL_VAR = 1e-6
_SCREEN_MARGIN = 1e-6


class ScalingMethod(enum.Enum):
    """Closed set of scaling variants; values are the CLI / report names."""

    MAX_RANGE = "max"
    MEAN = "mean"
    MEAN_NO_ZERO = "mean0"
    BOX_COX_MEAN = "boxcox"
    MEDIAN = "median"
    MEDIAN_NO_ZERO = "median0"


@dataclass(frozen=True)
class ScalingFactorSet:
    """Fitted divisor ``denom_num / denom_den`` for one (group, method) pair,
    both sides exactly representable; ``lam`` is the power transform's
    parameter, None for the ratio methods.

    ``reason`` says why the method's statistic does not exist for this
    group's data, and is None exactly when it does.
    """

    denom_num: float | None = None
    denom_den: float | None = None
    lam: float | None = None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class SkippedGroup:
    """One group left out: its scaling divisor or lognormal test is undefined."""

    group: GroupKey
    n_records: int
    reason: str


def boxcox_transform(citations, lam: float):
    """Power transform of count + 1; maps 0 to 0 and is strictly increasing.

    ``T(c) = ((c+1)**lam - 1) / lam`` for ``lam != 0``, ``log(c+1)`` at 0;
    evaluated as ``expm1(lam * log1p(c)) / lam`` for stability.
    """
    c = np.asarray(citations, dtype=np.float64)
    if lam == 0.0:
        return np.log1p(c)
    return np.expm1(lam * np.log1p(c)) / lam


def _profile_loglik(log1p_c: np.ndarray, sum_log1p: float, lam: float) -> float:
    """Profile log-likelihood of the shifted power transform, over precomputed
    ``log1p(c)`` and its sum.

    ``LL(lam) = -(n/2) * ln(var(T(c))) + (lam - 1) * sum(ln(c + 1))`` where
    the variance is the maximum-likelihood (n-denominator) variance of the
    transformed values.
    """
    t = log1p_c if lam == 0.0 else np.expm1(lam * log1p_c) / lam
    var = float(t.var())
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return -0.5 * log1p_c.size * math.log(var) + (lam - 1.0) * sum_log1p


def _golden_max(f, a: float, b: float) -> float:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _grid_candidates(
    log1p_v: np.ndarray, sum_log1p: float, grid: np.ndarray
) -> np.ndarray:
    """Grid indices that can hold the first maximum of :func:`_profile_loglik`.

    Screens the whole grid over the D distinct values of ``log1p(v)`` with
    their multiplicities, in row blocks of at most ``_SCREEN_CELLS`` elements.
    The screen is trusted only where every grid variance is finite and above
    ``_SCREEN_REL_VAR * mean**2``.  Its two-pass variance and the exact one
    then agree to within a few ulps times ``mean / sqrt(var) <= 1e3`` plus the
    summation error, and a relative variance error ``e`` moves the
    log-likelihood by about ``n * e / 2``: far inside the margin of
    ``_SCREEN_MARGIN * n``, so the indices within that margin of the screened
    maximum include the exact first maximum.  Otherwise (cancellation or
    overflow) every index is returned.
    """
    u, counts = np.unique(log1p_v, return_counts=True)
    w = counts.astype(np.float64)
    n = log1p_v.size
    approx = np.empty(grid.size)
    rows = max(1, _SCREEN_CELLS // u.size)
    with np.errstate(all="ignore"):
        for start in range(0, grid.size, rows):
            lam = grid[start:start + rows]
            t = np.expm1(lam[:, None] * u) / lam[:, None]
            t[lam == 0.0] = u
            m = t @ w / n
            var = np.square(t - m[:, None]) @ w / n
            certified = np.isfinite(var) & (var > _SCREEN_REL_VAR * m * m)
            if not certified.all():
                return np.arange(grid.size)
            approx[start:start + rows] = (
                -0.5 * n * np.log(var) + (lam - 1.0) * sum_log1p
            )
    return np.flatnonzero(approx >= approx.max() - _SCREEN_MARGIN * n)


def fit_lambda(values) -> float:
    """Maximum-likelihood transform parameter, clamped to [-3, +3].

    Finds the best point of a 0.01-step grid over the full interval, then
    refines its bracket by golden-section search; the two-stage search avoids
    local traps on flat likelihoods and is deterministic.

    The grid maximum is found by screen, certification and exact step.  The
    screen approximates the likelihood at all 601 grid points in array passes
    over the distinct values and their multiplicities.  It is certified only
    when no grid variance overflows or loses its digits to cancellation.  The
    exact likelihood is then evaluated at each grid point the screen cannot
    rule out (every point if it is not certified), so the chosen grid point,
    its likelihood and hence the result equal those of an exact scan of the
    full grid bit for bit.

    Requires at least three values with at least two distinct; otherwise the
    likelihood carries no information and
    :class:`~citescale.errors.DegenerateLikelihoodError` is raised.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        raise DegenerateLikelihoodError(
            f"need at least 3 values to fit the transform, got {v.size}"
        )
    if np.all(v == v[0]):
        raise DegenerateLikelihoodError(
            "all values equal: transform likelihood is degenerate"
        )
    lo, hi = LAMBDA_BOUNDS
    n_steps = int(round((hi - lo) / _GRID_STEP))
    grid = np.linspace(lo, hi, n_steps + 1)

    log1p_v = np.log1p(v)
    sum_log1p = float(log1p_v.sum())
    loglik = functools.partial(_profile_loglik, log1p_v, sum_log1p)
    ll = np.full(grid.size, -math.inf)
    for i in _grid_candidates(log1p_v, sum_log1p, grid):
        ll[i] = loglik(grid[i])
    best = int(np.argmax(ll))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    refined = _golden_max(loglik, float(a), float(b))
    if loglik(refined) < ll[best]:
        refined = float(grid[best])
    return float(min(max(refined, lo), hi))


def fit_factors(group: GroupKey, values, method: ScalingMethod) -> ScalingFactorSet:
    """Fit one method's scaling statistic on a group's citation vector.

    Never raises on degenerate data; the result's ``reason`` reports
    undefinedness instead.
    """
    v = np.asarray(values)
    if v.size == 0:
        raise EmptyGroupError(f"group {group}: empty citation vector")
    den, lam = 1.0, None
    if method is ScalingMethod.MAX_RANGE:
        num, zero = float(v.max() - v.min()), "zero-range"
    elif method is ScalingMethod.MEAN:
        num, den, zero = float(v.sum()), float(v.size), "all-zero"
    elif method is ScalingMethod.MEDIAN:
        num, zero = _median(np.sort(v)), "zero-median"
    elif method in (ScalingMethod.MEAN_NO_ZERO, ScalingMethod.MEDIAN_NO_ZERO):
        nz, zero = v[v > 0], "no-nonzero"
        if method is ScalingMethod.MEAN_NO_ZERO:
            num, den = float(nz.sum()), float(nz.size)
        else:
            num = _median(np.sort(nz)) if nz.size else 0.0
    elif method is ScalingMethod.BOX_COX_MEAN:
        try:
            lam = fit_lambda(v)
        except DegenerateLikelihoodError:
            return ScalingFactorSet(reason="degenerate-boxcox")
        num, zero = float(boxcox_transform(v, lam).mean()), "zero-boxcox-mean"
    else:
        raise ValueError(f"unknown scaling method {method!r}")
    if num <= 0.0:  # counts are >= 0, so this is num == 0.0
        return ScalingFactorSet(reason=zero)
    return ScalingFactorSet(denom_num=num, denom_den=den, lam=lam)


def scale_corpus(
    citations: Mapping[GroupKey, np.ndarray], method: ScalingMethod
) -> tuple[dict[GroupKey, np.ndarray], list[SkippedGroup]]:
    """Score every group whose statistic is defined.

    ``citations`` maps each (category, year) group to its citation counts
    (see :func:`~citescale.corpus.group_records`).  The result holds one
    float64 score vector per defined group, in key order, each in the order
    of its input counts.  Groups with an undefined statistic are reported,
    never imputed.
    """
    scores: dict[GroupKey, np.ndarray] = {}
    skipped: list[SkippedGroup] = []
    for key in sorted(citations):
        c = np.asarray(citations[key], dtype=np.float64)
        f = fit_factors(key, c, method)
        if not f.defined:
            skipped.append(SkippedGroup(key, c.size, f.reason))
            continue
        t = c if f.lam is None else boxcox_transform(c, f.lam)
        scores[key] = (t * f.denom_den) / f.denom_num
    return scores, skipped

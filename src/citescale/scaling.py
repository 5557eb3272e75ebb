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

``scale_corpus`` fits ``lam`` for all of its groups together.  Their
``log1p`` values sit in one packed buffer, and every step of the search (the
exact grid candidates, each golden-section iteration, the final check) is one
set of array operations over all groups still searching.  Each group's
result equals, bit for bit, that of fitting it alone: the arithmetic is
elementwise, each group's sums come from ``np.add.reduceat`` over a segment
led by a 0.0 slot (which then equals ``np.add.reduce``, as ``ndarray.var``
uses), and each variance's logarithm is ``math.log``.

A statistic can be undefined on real data (a zero median when more than half
the group is uncited, a zero range, an all-zero group).  Undefinedness is
data, not failure: ``fit_factors`` returns a factor set with a reason, and
``scale_corpus`` skips those groups while accounting for them; counts below
2**63 keep every defined score finite.

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
from .errors import EmptyGroupError
from .stats import _median

LAMBDA_BOUNDS = (-3.0, 3.0)
_GRID_STEP = 0.01
_GOLDEN_TOL = 1e-8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Elements per block of the grid screen and of the exact likelihood (bounds
# their memory), the smallest certified screen variance relative to mean**2,
# and the log-likelihood margin per value within which a grid point stays a
# candidate.
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
    """One group left out: its divisor, scores or lognormal test are undefined."""

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


@dataclass(frozen=True)
class _Packed:
    """The ``log1p`` values of many groups in one buffer, each group's segment
    led by one 0.0 slot: group ``g`` holds
    ``log1p[start[g] + 1 : start[g] + 1 + size[g]]``, and ``sum_log1p[g]``
    is their sum."""

    log1p: np.ndarray
    start: np.ndarray
    size: np.ndarray
    sum_log1p: np.ndarray

    @classmethod
    def of(cls, vectors: list[np.ndarray]) -> "_Packed":
        size = np.array([v.size for v in vectors])
        start = np.cumsum(size + 1) - (size + 1)
        zero = np.zeros(1)
        log1p = np.log1p(np.concatenate([p for v in vectors for p in (zero, v)]))
        return cls(log1p, start, size, np.add.reduceat(log1p, start))

    def segment(self, g: int) -> np.ndarray:
        return self.log1p[self.start[g] + 1:self.start[g] + 1 + self.size[g]]


def _batch_var(packed: _Packed, groups: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Maximum-likelihood (n-denominator) variance of the transformed values
    of group ``groups[k]`` at ``lams[k]``, for every k.

    Each variance is bit for bit ``T.var()`` of the group alone.  ``expm1``,
    ``*`` and ``/`` are elementwise, so a per-element ``lam`` changes no
    bits.  ``np.add.reduceat`` adds a segment's first element to the pairwise
    sum of the rest, so each segment starts with its 0.0 slot, zeroed again
    after the mean is subtracted: the sums then equal ``np.add.reduce``.
    Pairs are taken in blocks of about ``_SCREEN_CELLS`` elements, at least
    one pair each, so memory does not grow with the number of pairs.
    """
    var = np.empty(groups.size)
    lens = packed.size[groups] + 1
    ends = np.cumsum(lens)
    lo = 0
    with np.errstate(all="ignore"):
        while lo < groups.size:
            limit = ends[lo] - lens[lo] + _SCREEN_CELLS
            hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
            g, lam, ln = groups[lo:hi], lams[lo:hi], lens[lo:hi]
            first = np.cumsum(ln) - ln
            x = packed.log1p[np.arange(ln.sum()) + np.repeat(packed.start[g] - first, ln)]
            lam_x = np.repeat(lam, ln)
            t = np.expm1(lam_x * x) / lam_x
            at_zero = lam == 0.0
            if at_zero.any():
                at_zero = np.repeat(at_zero, ln)
                t[at_zero] = x[at_zero]
            t[first] = 0.0
            size = packed.size[g]
            d = np.square(t - np.repeat(np.add.reduceat(t, first) / size, ln))
            d[first] = 0.0
            var[lo:hi] = np.add.reduceat(d, first) / size
            lo = hi
    return var


def _batch_loglik(packed: _Packed, groups: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Profile log-likelihood of the shifted power transform of group
    ``groups[k]`` at ``lams[k]``, for every k.

    ``LL(lam) = -(n/2) * ln(var(T(c))) + (lam - 1) * sum(ln(c + 1))`` with
    the variance of :func:`_batch_var`, and ``-inf`` where that is zero or
    not finite.  The logarithm is ``math.log``, which ``np.log`` does not
    match in the last bit, so each value is that of the group alone.
    """
    var = _batch_var(packed, groups, lams)
    ok = (var > 0.0) & np.isfinite(var)
    g = groups[ok]
    log_var = np.array([math.log(v) for v in var[ok].tolist()])
    ll = np.full(groups.size, -math.inf)
    ll[ok] = -0.5 * packed.size[g] * log_var + (lams[ok] - 1.0) * packed.sum_log1p[g]
    return ll


def _golden_lockstep(loglik, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section maximum of ``loglik`` on each bracket ``[a[g], b[g]]``.

    Every bracket takes exactly the steps of a scalar search on its own; a
    bracket narrower than ``_GOLDEN_TOL`` stops while the others go on, and
    each iteration makes one ``loglik`` call for all brackets still open.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    every = np.arange(a.size)
    fc, fd = np.split(loglik(np.concatenate([every, every]), np.concatenate([c, d])), 2)
    while (live := np.flatnonzero((b - a) > _GOLDEN_TOL)).size:
        left = fc[live] >= fd[live]
        l, r = live[left], live[~left]
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = b[l] - _INV_PHI * (b[l] - a[l])
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = a[r] + _INV_PHI * (b[r] - a[r])
        fc[l], fd[r] = np.split(
            loglik(np.concatenate([l, r]), np.concatenate([c[l], d[r]])), [l.size]
        )
    return 0.5 * (a + b)


def _grid_candidates(
    log1p_v: np.ndarray, sum_log1p: float, grid: np.ndarray
) -> np.ndarray:
    """Mask of the grid points that can hold the first maximum of the profile
    log-likelihood (see :func:`_batch_loglik`).

    Screens the whole grid over the D distinct values of ``log1p(v)`` with
    their multiplicities, in row blocks of at most ``_SCREEN_CELLS`` elements.
    The screen is trusted only where every grid variance is finite and above
    ``_SCREEN_REL_VAR * mean**2``.  Its two-pass variance and the exact one
    then agree to within a few ulps times ``mean / sqrt(var) <= 1e3`` plus the
    summation error, and a relative variance error ``e`` moves the
    log-likelihood by about ``n * e / 2``: far inside the margin of
    ``_SCREEN_MARGIN * n``, so the points within that margin of the screened
    maximum include the exact first maximum.  Otherwise (cancellation or
    overflow) the mask is all True.
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
                return np.ones(grid.size, dtype=bool)
            approx[start:start + rows] = (
                -0.5 * n * np.log(var) + (lam - 1.0) * sum_log1p
            )
    return approx >= approx.max() - _SCREEN_MARGIN * n


def _fit_lambdas(vectors) -> list[float | None]:
    """Maximum-likelihood transform parameter of every vector, clamped to
    [-3, +3]; None where the likelihood carries no information (fewer than
    three values, or all equal).

    Each vector's best point of a 0.01-step grid is refined by golden-section
    search on its bracket; the two stages avoid local traps on flat
    likelihoods.  The exact likelihood is evaluated only at the grid points
    that the screen of :func:`_grid_candidates` cannot rule out (all of them
    if it is not certified), so the grid maximum is that of an exact full
    scan, bit for bit.  All vectors share each exact evaluation; each result
    is bit for bit its vector's alone (see the module docstring).
    """
    vs = [np.asarray(v, dtype=np.float64) for v in vectors]
    fit = [i for i, v in enumerate(vs) if v.size >= 3 and np.any(v != v[0])]
    lams: list[float | None] = [None] * len(vs)
    if not fit:
        return lams
    packed = _Packed.of([vs[i] for i in fit])
    loglik = functools.partial(_batch_loglik, packed)
    lo, hi = LAMBDA_BOUNDS
    grid = np.linspace(lo, hi, int(round((hi - lo) / _GRID_STEP)) + 1)

    every = np.arange(len(fit))
    mask = np.array([
        _grid_candidates(packed.segment(g), float(packed.sum_log1p[g]), grid)
        for g in every
    ])
    rows, cols = np.nonzero(mask)
    ll = loglik(rows, grid[cols])
    # made after the exact evaluation and freed before the golden steps, so
    # the table never adds to the memory of their blocks
    table = np.full(mask.shape, -math.inf)
    table[rows, cols] = ll
    best = table.argmax(axis=1)
    top = table[every, best]
    del table
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid.size - 1)]
    refined = _golden_lockstep(loglik, a, b)
    refined = np.where(loglik(every, refined) < top, grid[best], refined)
    for i, lam in zip(fit, np.clip(refined, lo, hi).tolist()):
        lams[i] = lam
    return lams


def fit_factors(
    group: GroupKey, values, method: ScalingMethod, lam: float | None = None
) -> ScalingFactorSet:
    """Fit one method's scaling statistic on a group's citation vector.

    For ``boxcox``, ``lam`` is the group's transform parameter if the caller
    has already fitted it (:func:`scale_corpus` fits all of its groups in one
    batch); otherwise it is fitted here, as one vector alone.  The ratio
    methods ignore ``lam``.

    Never raises on degenerate data; the result's ``reason`` reports
    undefinedness instead.
    """
    v = np.asarray(values)
    if v.size == 0:
        raise EmptyGroupError(f"group {group}: empty citation vector")
    den, fitted = 1.0, None
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
        fitted = _fit_lambdas([v])[0] if lam is None else lam
        if fitted is None:
            return ScalingFactorSet(reason="degenerate-boxcox")
        num, zero = float(boxcox_transform(v, fitted).mean()), "zero-boxcox-mean"
    else:
        raise ValueError(f"unknown scaling method {method!r}")
    if num <= 0.0:  # counts are >= 0, so this is num == 0.0
        return ScalingFactorSet(reason=zero)
    return ScalingFactorSet(denom_num=num, denom_den=den, lam=fitted)


def scale_corpus(
    citations: Mapping[GroupKey, np.ndarray], method: ScalingMethod
) -> tuple[dict[GroupKey, np.ndarray], list[SkippedGroup]]:
    """Score every group whose statistic is defined.

    ``citations`` maps each (category, year) group to its citation counts,
    non-negative and below 2**63 as :func:`~citescale.corpus.group_records`
    gives them.  The result holds one float64 score vector per defined
    group, in key order, each in the order of its input counts.  Groups with
    an undefined statistic are reported, never imputed.  For ``boxcox``
    every group's parameter is fitted in one batch.
    """
    keys = sorted(citations)
    vectors = [np.asarray(citations[key], dtype=np.float64) for key in keys]
    if method is ScalingMethod.BOX_COX_MEAN:
        lams = _fit_lambdas(vectors)
    else:
        lams = [None] * len(keys)
    scores: dict[GroupKey, np.ndarray] = {}
    skipped: list[SkippedGroup] = []
    for key, c, lam in zip(keys, vectors, lams):
        f = fit_factors(key, c, method, lam)
        if f.defined:
            t = c if f.lam is None else boxcox_transform(c, f.lam)
            scores[key] = (t * f.denom_den) / f.denom_num
        else:
            skipped.append(SkippedGroup(key, c.size, f.reason))
    return scores, skipped

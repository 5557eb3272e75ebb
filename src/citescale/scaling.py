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

``scale_corpus`` takes its groups as one family,
:class:`citescale.stats._Family`: the counts laid out once, in key order, as
:class:`citescale.stats._Segments`, on which every group's divisor is
computed at once; ``group_records`` returns that family, and any other
mapping is laid out and checked here.  The five ratio divisors are
statistics of each group's sorted counts, read from the family's one sorted
layout, so they do not depend on record order.  It returns each method's
scores as another family, in record order, which every diagnostic reads.
For ``boxcox`` the sorted layout also tells which groups the likelihood
informs; their ``log1p`` is taken once, and the fit (:class:`_Fit`) finds
each group's distinct values once.  Every group's ``lam`` is fitted
together: each step of the search (the exact grid candidates, each
golden-section iteration, the final check) is one set of array operations
over all groups.  The grid screen reads the distinct values; every exact
evaluation, and the scores, transform each distinct value once and gather
the results into record order.  Each group's result equals, bit for bit,
that of fitting and transforming it alone: the arithmetic is elementwise,
each group's sums are those of ``ndarray.var`` over the same values in the
same order (see :meth:`citescale.stats._Segments.sums`), and each
variance's logarithm is ``math.log``.

A statistic can be undefined on real data (a zero median when more than half
the group is uncited, a zero range, an all-zero group).  Undefinedness is
data, not failure: ``scale_corpus`` skips those groups and lists each with
the reason its statistic is missing; counts below 2**63 keep every defined
score finite.

Every variant is one rescaling ``c / c0`` (Radicchi, Fortunato & Castellano,
PNAS 2008), scored as ``(T(c) * den) / num`` with ``T`` the identity for the
five ratio variants.  Their divisor is kept as an exact integer ratio
``num / den``, so each score takes one rounding and a group whose counts are
an integer multiple of another's produces bit-identical score multisets,
which the collapse diagnostics rely on.  The power transform keeps
``den = 1.0``, and ``t * 1.0 == t`` exactly.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import GroupKey
from .stats import _Family, _Segments

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
class SkippedGroup:
    """One group left out: its divisor, scores or lognormal test are undefined."""

    group: GroupKey
    n_records: int
    reason: str


def _power(x, lam, out=None) -> np.ndarray:
    """The transform ``T`` at ``x = log1p(c)``: ``expm1(lam * x) / lam``, and
    ``x`` itself where ``lam == 0``, as an array, in ``out`` if given.
    ``lam`` holds one value per element of ``x``, or is a column of one value
    per row of ``out`` over the row ``x``, whose rows at ``lam == 0`` are then
    assigned by index."""
    with np.errstate(invalid="ignore"):  # 0 / 0 where lam == 0, replaced below
        t = np.asarray(np.multiply(lam, x, out=out))
        np.divide(np.expm1(t, out=t), lam, out=t)
    zero = lam == 0.0
    if np.shape(lam) == np.shape(x):
        np.copyto(t, x, where=zero)
    else:
        t[zero[:, 0]] = x
    return t


class _Fit:
    """The groups of one fit, one or more, laid out for the exact likelihood.

    ``size`` holds each group's number of records and ``sum_log1p`` the sum
    of their ``log1p``.  ``levels`` holds each group's distinct ``log1p``
    values, ascending, and ``counts`` the multiplicity of each: one
    ``np.unique`` per group, of the values' bits, so -0.0 and 0.0 differ.
    ``inv`` holds each record's index in ``levels.values``, in record order,
    so a gather through it of the transformed levels is every record's
    transform, bit for bit.  :meth:`select` lays out groups for
    :func:`_batch_var`.
    """

    __slots__ = ("size", "sum_log1p", "levels", "counts", "inv", "scratch")

    def __init__(self, logs: _Segments) -> None:
        self.size, self.sum_log1p = logs.size, logs.sums(logs.values)
        distinct = [
            np.unique(part.view(np.int64), return_inverse=True, return_counts=True)
            for part in np.split(logs.values, logs.first[1:])
        ]
        u, inv, self.counts = (np.concatenate(column) for column in zip(*distinct))
        self.levels = _Segments(u.view(np.float64), np.array([c.size for _, _, c in distinct]))
        self.inv = _Segments(inv + logs.spread(self.levels.first), logs.size)

    def select(self, groups: np.ndarray) -> "_Fit":
        """Groups ``groups[k]``, repeats allowed, each of ``levels`` and
        ``inv`` led by a spare slot (see :meth:`citescale.stats._Segments.take`),
        ``inv`` indexing the new ``levels``, and ``scratch`` a buffer as long
        as ``inv.values`` for the gather; it holds no ``counts``."""
        out = _Fit.__new__(_Fit)
        out.size, out.sum_log1p = self.size[groups], self.sum_log1p[groups]
        out.levels, out.inv = self.levels.take(groups), self.inv.take(groups)
        out.inv.values += out.inv.spread(out.levels.first - self.levels.first[groups])
        out.scratch = np.empty(out.inv.values.size)
        return out


def _batch_var(fit: _Fit, lams: np.ndarray) -> np.ndarray:
    """Maximum-likelihood (n-denominator) variance of the transformed values
    of group ``k`` of the selection ``fit`` (see :meth:`_Fit.select`) at
    ``lams[k]``, for every k.

    Each distinct value is transformed (and its deviation from the mean
    squared) once and gathered through ``fit.inv`` into ``fit.scratch``, in
    record order, for each sum.  Each variance is bit for bit ``T.var()``
    of the group alone: ``expm1``, ``*``, ``/``, ``-`` and squaring are
    elementwise, so a per-element ``lam`` and the gather change no bits, and
    both sums are those of :meth:`citescale.stats._Segments.sums`, over the
    same values in the same order.
    """
    levels, inv = fit.levels, fit.inv
    # every index is in range; "clip" lets ``take`` write to ``out`` unbuffered
    gather = functools.partial(np.take, indices=inv.values, out=fit.scratch, mode="clip")
    with np.errstate(all="ignore"):
        tu = _power(levels.values, levels.spread(lams))
        mean = inv.sums(gather(tu)) / inv.size
        return inv.sums(gather(np.square(tu - levels.spread(mean)))) / inv.size


def _batch_loglik(fit: _Fit, lams: np.ndarray) -> np.ndarray:
    """Profile log-likelihood of the shifted power transform of group ``k``
    of the selection ``fit`` at ``lams[k]``, for every k.

    ``LL(lam) = -(n/2) * ln(var(T(c))) + (lam - 1) * sum(ln(c + 1))`` with
    the variance of :func:`_batch_var`, and ``-inf`` where that is zero or
    not finite.  The logarithm is ``math.log``, which ``np.log`` does not
    match in the last bit, so each value is that of the group alone.
    """
    var = _batch_var(fit, lams)
    ok = (var > 0.0) & np.isfinite(var)
    log_var = np.array([math.log(v) for v in var[ok].tolist()])
    ll = np.full(lams.size, -math.inf)
    ll[ok] = -0.5 * fit.size[ok] * log_var + (lams[ok] - 1.0) * fit.sum_log1p[ok]
    return ll


def _golden_lockstep(loglik, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section maximum of ``loglik`` on each bracket ``[a[g], b[g]]``.

    Every bracket takes exactly the steps of a scalar search on its own; a
    bracket narrower than ``_GOLDEN_TOL`` stops while the others go on.
    Each iteration makes one ``loglik`` call over every bracket, in order,
    at its new point (``c`` where it kept its left part, else ``d``), and
    drops the values of the brackets already closed.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = loglik(c), loglik(d)
    while (live := (b - a) > _GOLDEN_TOL).any():
        left = fc >= fd
        l, r = live & left, live & ~left
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = b[l] - _INV_PHI * (b[l] - a[l])
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = a[r] + _INV_PHI * (b[r] - a[r])
        f = loglik(np.where(left, c, d))
        fc[l], fd[r] = f[l], f[r]
    return 0.5 * (a + b)


def _grid_candidates(
    u: np.ndarray, counts: np.ndarray, sum_log1p: float, grid: np.ndarray
) -> np.ndarray:
    """Mask of the grid points that can hold the first maximum of the profile
    log-likelihood (see :func:`_batch_loglik`) of one group, whose ``log1p``
    takes the distinct values ``u`` with multiplicities ``counts``.

    Screens the whole grid over those D values, in row blocks of at most
    ``_SCREEN_CELLS`` elements built in one buffer.
    The screen is trusted only where every grid variance is finite and above
    ``_SCREEN_REL_VAR * mean**2``.  Its two-pass variance and the exact one
    then agree to within a few ulps times ``mean / sqrt(var) <= 1e3`` plus the
    summation error, and a relative variance error ``e`` moves the
    log-likelihood by about ``n * e / 2``: far inside the margin of
    ``_SCREEN_MARGIN * n``, so the points within that margin of the screened
    maximum include the exact first maximum.  Otherwise (cancellation or
    overflow) the mask is all True.
    """
    w = counts.astype(np.float64)
    n = int(counts.sum())
    approx = np.empty(grid.size)
    rows = max(1, _SCREEN_CELLS // u.size)
    buffer = np.empty((min(rows, grid.size), u.size))
    with np.errstate(all="ignore"):
        for start in range(0, grid.size, rows):
            lam = grid[start:start + rows]
            t = _power(u, lam[:, None], buffer[:lam.size])
            m = t @ w / n
            var = np.square(np.subtract(t, m[:, None], out=t), out=t) @ w / n
            certified = np.isfinite(var) & (var > _SCREEN_REL_VAR * m * m)
            if not certified.all():
                return np.ones(grid.size, dtype=bool)
            approx[start:start + rows] = (
                -0.5 * n * np.log(var) + (lam - 1.0) * sum_log1p
            )
    return approx >= approx.max() - _SCREEN_MARGIN * n


def _fit_lambdas(fit: _Fit) -> np.ndarray:
    """Maximum-likelihood transform parameter of each group of ``fit``,
    clamped to [-3, +3].  Each group holds at least three values, not all
    equal: with fewer, the likelihood carries no information.

    Each group's best point of a 0.01-step grid is refined by golden-section
    search on its bracket; the two stages avoid local traps on flat
    likelihoods.  The exact likelihood is evaluated only at the grid points
    that the screen of :func:`_grid_candidates` cannot rule out (all of them
    if it is not certified), so the grid maximum is that of an exact full
    scan, bit for bit.  The screen reads each group's distinct values, and
    so does every exact evaluation (:func:`_batch_var`): the grid
    candidates in blocks of about ``_SCREEN_CELLS`` records, one
    :meth:`_Fit.select` each, so memory does not grow with their number,
    and the opening pair, each golden step and the final check through one
    selection of every group.  Each result is bit for bit its group's alone
    (see the module docstring).
    """
    lo, hi = LAMBDA_BOUNDS
    grid = np.linspace(lo, hi, int(round((hi - lo) / _GRID_STEP)) + 1)

    split = fit.levels.first[1:]
    mask = np.array([
        _grid_candidates(u, counts, total, grid)
        for u, counts, total in zip(
            np.split(fit.levels.values, split), np.split(fit.counts, split),
            fit.sum_log1p.tolist(),
        )
    ], dtype=bool)
    rows, cols = np.nonzero(mask)
    ll = np.empty(rows.size)
    ends = np.cumsum(fit.size[rows])
    start = 0
    while start < rows.size:
        limit = ends[start] - fit.size[rows[start]] + _SCREEN_CELLS
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        block = slice(start, stop)
        ll[block] = _batch_loglik(fit.select(rows[block]), grid[cols[block]])
        start = stop
    # made after the exact evaluation, so the table never adds to the memory
    # of its blocks
    table = np.full(mask.shape, -math.inf)
    table[rows, cols] = ll
    best = table.argmax(axis=1)
    every = np.arange(fit.size.size)
    top = table[every, best]
    del table
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid.size - 1)]
    loglik = functools.partial(_batch_loglik, fit.select(every))
    refined = _golden_lockstep(loglik, a, b)
    refined = np.where(loglik(refined) < top, grid[best], refined)
    return np.clip(refined, lo, hi)


_ZERO_REASON = {
    ScalingMethod.MAX_RANGE: "zero-range",
    ScalingMethod.MEAN: "all-zero",
    ScalingMethod.MEAN_NO_ZERO: "no-nonzero",
    ScalingMethod.BOX_COX_MEAN: "zero-boxcox-mean",
    ScalingMethod.MEDIAN: "zero-median",
    ScalingMethod.MEDIAN_NO_ZERO: "no-nonzero",
}


def scale_corpus(
    citations: Mapping[GroupKey, np.ndarray], method: ScalingMethod
) -> tuple[Mapping[GroupKey, np.ndarray], list[SkippedGroup]]:
    """Score every group whose statistic is defined.

    ``citations`` maps each (category, year) group to its citation counts,
    non-empty, non-negative and below 2**63 as
    :func:`~citescale.corpus.group_records` gives them; an empty vector is an
    :class:`~citescale.errors.EmptyGroupError` and a negative or non-finite
    count a :class:`~citescale.errors.CorpusValueError`, naming the group,
    and a ``method`` that is not a :class:`ScalingMethod` a ``ValueError``.
    The result maps each defined group, in key order, to its read-only
    float64 scores, in the order of its input counts.  Groups with an
    undefined statistic are reported, never imputed.  The five ratio
    divisors are statistics of each group's sorted counts, free of record order.
    """
    if not isinstance(method, ScalingMethod):
        raise ValueError(f"unknown scaling method {method!r}")
    raw = _Family.of_counts(citations)
    keys, seg, srt = list(raw), raw.seg, raw.sorted
    lowest, highest = srt.values[srt.first], srt.values[srt.first + srt.size - 1]
    n_records = seg.size
    reason = np.full(len(keys), _ZERO_REASON[method], dtype=object)
    t, den = seg.values, np.ones(len(keys))
    if method is ScalingMethod.BOX_COX_MEAN:
        # a group's likelihood informs its fit if it holds three counts or
        # more, not all equal: its smallest and largest differ
        fitted = (seg.size >= 3) & (lowest != highest)
        reason[~fitted] = "degenerate-boxcox"
        seg = seg.keep(seg.spread(fitted))
        t = seg.values  # the fitted groups' counts, until transformed
        if fitted.any():
            fit = _Fit(_Segments(np.log1p(t), seg.size[fitted]))
            levels = fit.levels
            t = _power(levels.values, levels.spread(_fit_lambdas(fit))).take(fit.inv.values)
        num = seg.sums(t) / np.maximum(seg.size, 1)  # 0.0 where not fitted
    elif method is ScalingMethod.MAX_RANGE:
        num = highest - lowest
    elif method is ScalingMethod.MEAN:
        num, den = srt.sums(srt.values), srt.size.astype(np.float64)
    elif method is ScalingMethod.MEDIAN:
        num = srt.medians()
    elif method is ScalingMethod.MEAN_NO_ZERO:
        nz = srt.keep(srt.values > 0.0)
        num, den = nz.sums(nz.values), nz.size.astype(np.float64)
    else:
        num = srt.keep(srt.values > 0.0).medians()  # NaN where no count is above 0
    ok = num > 0.0  # counts are >= 0, so only 0.0 or NaN fail
    aii = (t * seg.spread(den)) / seg.spread(np.where(ok, num, 1.0))
    kept = [key for key, defined in zip(keys, ok.tolist()) if defined]
    scores = _Family(kept, _Segments(aii[seg.spread(ok)], seg.size[ok]))
    skipped = [
        SkippedGroup(key, n, why)
        for key, n, why, defined in zip(keys, n_records.tolist(), reason, ok.tolist())
        if not defined
    ]
    return scores, skipped

"""Anderson-Darling test of scaled scores against the lognormal.

Scores below the threshold (default 0.1) are dropped first; the lognormal
parameters are then fitted on the surviving values (sample mean and n-1
standard deviation of the logs) and the A-squared statistic is computed
against the fitted curve.  Because the parameters are estimated from the
same sample, significance uses the estimated-parameters critical values of
the small-sample adjusted statistic

    ``A*2 = A2 * (1 + 0.75/n + 2.25/n**2)``

and p-values are reported as brackets, not as continuous numbers: bracket
boundaries for this case are tabulated, while closed-form p-values would be
approximation-dependent.

The threshold filter is applied before fitting, with no truncated-likelihood
correction; the fit therefore describes the surviving values only.

:func:`ad_lognormal` tests every group of one method at once, with no loop
over the groups.  It reads the sorted layout of the scores' family
(:class:`citescale.stats._Family`), which the survival diagnostics share:
each group's values sorted and all groups end to end, so a group's
surviving values stay one sorted run.  The
mean, the n-1 standard deviation and the A-squared sum of every group are
each one :meth:`~citescale.stats._Segments.sums` call over the logs of the
tested groups, bit for bit those of ``mean``, ``std`` and ``sum`` on the
group alone.  A group whose values are all equal stays in the arrays,
divided by 1.0 in place of its zero deviation, and is left out only of the
reports.  The logs, the standardized values and the normal log-CDF,
:func:`log_ndtr`, run once per run of equal values
(:meth:`~citescale.stats._Segments.runs`) and are repeated over each run
before the sums; the reversed order statistics that A-squared pairs are
read through one mirrored index.
``log_ndtr`` is plain numpy, from the rational approximations of erf and
erfc in Cephes ``ndtr.c`` (S. L. Moshier, after W. J. Cody, Math. Comp. 23,
1969).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import GroupKey
from .scaling import SkippedGroup
from .stats import _Family

DEFAULT_THRESHOLD = 0.1
MIN_SAMPLE = 8

# Upper-tail critical values of A*2 for the normal family with both
# parameters estimated (Stephens' adjustment); pairs of (critical value,
# bracket label for statistics at or below it).
_BRACKETS: tuple[tuple[float, str], ...] = (
    (0.470, ">0.25"),
    (0.631, "0.10-0.25"),
    (0.752, "0.05-0.10"),
    (0.873, "0.025-0.05"),
    (1.035, "0.01-0.025"),
    (1.159, "0.005-0.01"),
)
_SMALLEST_BRACKET = "<0.005"

P_BRACKETS = tuple(label for _, label in _BRACKETS) + (_SMALLEST_BRACKET,)

# Cephes ndtr.c coefficients, highest power first: erf(t) = t T(t^2) / U(t^2)
# for |t| < 1; erfc(u) e^(u^2) = P(u) / Q(u) for 1 <= u < 8, R(u) / S(u) beyond.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_U_CAP = 1e20  # past it, u^2 swamps log(R/S); the cap keeps R and S finite


@dataclass(frozen=True)
class GofReport:
    """Lognormal fit verdict for one group's scores above the threshold."""

    n_used: int
    threshold: float
    mu_hat: float
    sigma_hat: float
    a_squared: float
    a_squared_star: float
    p_bracket: str


def p_bracket(a_squared_star: float) -> str:
    """Bracket the p-value of an adjusted A-squared statistic."""
    for critical, label in _BRACKETS:
        if a_squared_star <= critical:
            return label
    return _SMALLEST_BRACKET


def _horner(coef: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    y = np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def log_ndtr(x) -> np.ndarray:
    """log Phi(x) of the standard normal, elementwise, with ``t = x / sqrt(2)``:
    ``log(erfc(u) e^(u^2) / 2) - u^2`` with ``u = -t`` below x = -1, so
    nothing underflows, and ``log1p(-erfc(t) / 2)`` elsewhere.  This is the
    split of ``scipy.special.log_ndtr``; the two agree to a few units in the
    last place of ``max(1, |log Phi(x)|)``, not bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x * np.sqrt(0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # |t| >= 1 is redone below
        s = t * t
        erf = t * _horner(_T, s) / _horner(_U, s)
        out = np.log1p(-0.5 * (1.0 - erf))
    part = (x < -1.0) & (t > -1.0)
    out[part] = np.log(0.5 * (1.0 + erf[part]))
    tail = np.abs(t) >= 1.0
    tf, s = t[tail], s[tail]
    v = np.minimum(np.abs(tf), _U_CAP)
    ratio = np.where(
        v < 8.0, _horner(_P, v) / _horner(_Q, v), _horner(_R, v) / _horner(_S, v)
    )
    out[tail] = np.where(
        tf < 0.0, np.log(0.5 * ratio) - s, np.log1p(-0.5 * ratio * np.exp(-s))
    )
    return out


def ad_lognormal(
    scores: Mapping[GroupKey, np.ndarray], threshold: float = DEFAULT_THRESHOLD
) -> tuple[dict[GroupKey, GofReport], list[SkippedGroup]]:
    """Anderson-Darling lognormal test of each group's values at or above
    ``threshold``, in the order of ``scores``.

    A group with fewer than 8 surviving values, or only equal ones, has no
    test and comes back as skipped, with a reason.  Surviving values must be
    positive (they are logged) and every value finite: one at or below 0, or
    NaN or infinite, raises ``ValueError`` naming the group.  A NaN or
    +inf ``threshold``, which no finite value is at or above, is a
    ``ValueError`` too; -inf drops nothing.
    A group's report depends on its values alone, not on their order or on
    the other groups.
    """
    if math.isnan(threshold) or threshold == math.inf:
        raise ValueError(f"threshold must be a number, got {threshold}")
    keys, seg = list(scores), _Family.of(scores).sorted
    used = seg.keep(seg.values >= threshold)
    tested = used.size >= MIN_SAMPLE
    fit = used.take(np.flatnonzero(tested))  # each tested group's surviving values
    n = fit.size
    low = fit.values[fit.first] <= 0.0
    if low.any():
        key = keys[np.flatnonzero(tested)[np.argmax(low)]]
        raise ValueError(f"group {key}: values must be positive after thresholding")
    start, length = fit.runs()  # logs, z and log_ndtr once per run of equal values
    logs = np.log(fit.values[start])
    mu = fit.sums(np.repeat(logs, length)) / n
    dev = logs - fit.spread(mu)[start]
    sigma = np.sqrt(fit.sums(np.repeat(np.square(dev), length)) / (n - 1))  # std(ddof=1)
    z = dev / fit.spread(np.where(sigma == 0.0, 1.0, sigma))[start]
    terms = np.repeat(log_ndtr(-z), length)  # log(1 - Phi(z))
    rank = np.arange(terms.size) - fit.spread(fit.first - 1)  # 1 at a group's first value
    mirror = fit.spread(fit.first + n) - rank  # i-th value <-> (n + 1 - i)-th
    terms = terms.take(mirror, mode="clip")  # the last spare slot's is past the end
    del mirror
    terms += np.repeat(log_ndtr(z), length)  # log Phi(z)
    terms *= 2.0 * rank - 1.0
    a2 = -n - fit.sums(terms) / n
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)

    fitted = zip(n.tolist(), mu.tolist(), sigma.tolist(), a2.tolist(), a2_star.tolist())
    reports: dict[GroupKey, GofReport] = {}
    skipped: list[SkippedGroup] = []
    for key, size, ok in zip(keys, seg.size.tolist(), tested.tolist()):
        if not ok:
            skipped.append(SkippedGroup(key, size, "too-few-values"))
            continue
        n_k, mu_k, sigma_k, a2_k, star = next(fitted)
        if sigma_k == 0.0:
            skipped.append(SkippedGroup(key, size, "all-values-equal"))
        else:
            reports[key] = GofReport(n_k, threshold, mu_k, sigma_k, a2_k, star, p_bracket(star))
    return reports, skipped

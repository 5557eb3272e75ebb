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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import InsufficientSampleError

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


def ad_lognormal(values, threshold: float = DEFAULT_THRESHOLD) -> GofReport:
    """Anderson-Darling lognormal test on the values at or above ``threshold``.

    Needs at least 8 surviving values, all positive (they are logged).
    Order of the input does not matter.
    """
    v = np.asarray(values, dtype=np.float64)
    used = np.sort(v[v >= threshold])
    n = int(used.size)
    if n < MIN_SAMPLE:
        raise InsufficientSampleError(
            f"only {n} values >= {threshold!r}; need at least {MIN_SAMPLE}"
        )
    if used[0] <= 0.0:
        raise ValueError(
            "values must be positive after thresholding to fit a lognormal"
        )
    logs = np.log(used)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=1))
    if sigma == 0.0:
        raise InsufficientSampleError(
            "all values equal after thresholding; lognormal fit is degenerate"
        )
    z = (logs - mu) / sigma
    log_cdf = log_ndtr(z)  # log Phi(z), as scipy.stats.norm.logcdf computes it
    log_sf = log_ndtr(-z)  # log(1 - Phi(z)), as norm.logsf computes it
    i = np.arange(1, n + 1, dtype=np.float64)
    a2 = -n - float(((2.0 * i - 1.0) * (log_cdf + log_sf[::-1])).sum()) / n
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    return GofReport(
        n_used=n,
        threshold=threshold,
        mu_hat=mu,
        sigma_hat=sigma,
        a_squared=a2,
        a_squared_star=a2_star,
        p_bracket=p_bracket(a2_star),
    )

"""Descriptive statistics of a group's citation vector.

Every statistic is reported twice where it makes sense: over all records and
over the records that received at least one citation.  Fields that are not
mathematically defined (spread measures of a constant vector, nonzero
statistics of an all-zero vector) are ``None``, never a silent zero.

Conventions:
    * median of an even-length vector = midpoint of the two central order
      statistics (fractional medians are expected output);
    * stddev = sample standard deviation (n-1 denominator);
    * skewness = adjusted standardized third moment,
      ``G1 = g1 * sqrt(n*(n-1)) / (n-2)`` with ``g1 = m3 / m2**1.5``;
    * kurtosis = adjusted *excess* kurtosis
      ``G2 = (n-1)/((n-2)*(n-3)) * ((n+1)*g2 + 6)`` with ``g2 = m4/m2**2 - 3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyGroupError


@dataclass(frozen=True)
class GroupStats:
    """Summary of one citation distribution, with nonzero-restricted variants."""

    n: int
    n_nonzero: int
    min: int
    max: int
    mean: float
    median: float
    stddev: float | None
    skewness: float | None
    kurtosis: float | None
    mean_nonzero: float | None
    median_nonzero: float | None


def _median(sorted_values: np.ndarray) -> float:
    n = sorted_values.size
    mid = n // 2
    if n % 2:
        return float(sorted_values[mid])
    return float((sorted_values[mid - 1] + sorted_values[mid]) / 2.0)


def describe(values: Sequence[int] | np.ndarray) -> GroupStats:
    """Descriptive statistics of a non-empty, non-negative citation vector."""
    v = np.asarray(values, dtype=np.float64)
    n = int(v.size)
    if n == 0:
        raise EmptyGroupError("cannot describe an empty citation vector")
    # everything is computed on the sorted vector so that permutations of the
    # input produce bit-identical results
    srt = np.sort(v)
    mean = float(srt.mean())
    m2 = float(((srt - mean) ** 2).mean())

    stddev: float | None = None
    if n >= 2:
        stddev = float(np.sqrt(m2 * n / (n - 1)))

    skewness: float | None = None
    kurtosis: float | None = None
    if m2 > 0.0:
        if n >= 3:
            m3 = float(((srt - mean) ** 3).mean())
            g1 = m3 / m2**1.5
            skewness = float(g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0))
        if n >= 4:
            m4 = float(((srt - mean) ** 4).mean())
            g2 = m4 / m2**2 - 3.0
            kurtosis = float((n - 1.0) / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * g2 + 6.0))

    nz = srt[srt > 0]
    mean_nonzero: float | None = None
    median_nonzero: float | None = None
    if nz.size:
        mean_nonzero = float(nz.mean())
        median_nonzero = _median(nz)

    return GroupStats(
        n=n,
        n_nonzero=int(nz.size),
        min=int(srt[0]),
        max=int(srt[-1]),
        mean=mean,
        median=_median(srt),
        stddev=stddev,
        skewness=skewness,
        kurtosis=kurtosis,
        mean_nonzero=mean_nonzero,
        median_nonzero=median_nonzero,
    )

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

It also holds :class:`_Segments`, the one layout of every per-group statistic
in the package, on which :func:`_describe` describes all groups at once.
Counts take few distinct values per group, so per-value work runs once per
run of equal values in a sorted segment (:meth:`_Segments.runs`) and is
repeated over the run before each sum: every sum still adds the same values
in the same order.

A :class:`_Family` is one set of groups' vectors, the raw counts or one
method's scores, laid out once in record order and sorted at most once:
``group_records`` returns the raw counts as one, and ``scale_corpus``,
:func:`_describe` and every diagnostic read that one layout or its sorted
copy, so no diagnostic lays out or sorts its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorpusValueError, EmptyGroupError


@dataclass(frozen=True)
class GroupStats:
    """Summary of one citation distribution, with nonzero-restricted variants."""

    n: int
    n_nonzero: int
    min: float
    max: float
    mean: float
    median: float
    stddev: float | None
    skewness: float | None
    kurtosis: float | None
    mean_nonzero: float | None
    median_nonzero: float | None


class _Segments:
    """Many groups' values laid end to end: group ``g`` holds
    ``values[first[g] : first[g] + size[g]]``.

    A statistic of all groups is a few whole-array operations on it, with no
    loop over the groups.  :meth:`of` and :meth:`keep` pack the segments;
    :meth:`take` leads each with a spare slot, so :meth:`sums` copies nothing.
    """

    __slots__ = ("values", "first", "size", "_lead")

    def __init__(self, values: np.ndarray, size: np.ndarray, led: bool = False) -> None:
        self.values, self.size = values, size
        self.first = np.cumsum(size + 1 if led else size) - size
        self._lead = self.first - 1 if led else None

    @classmethod
    def of(cls, vectors: Iterable) -> "_Segments":
        """The vectors, as float64, end to end."""
        parts = [np.asarray(v, dtype=np.float64) for v in vectors]
        size = np.array([p.size for p in parts], dtype=np.intp)
        return cls(np.concatenate(parts) if parts else np.empty(0), size)

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        """``per_group[g]`` at each element of segment ``g`` and its spare slot."""
        return np.repeat(per_group, self.size if self._lead is None else self.size + 1)

    def sort(self) -> "_Segments":
        """Sorts each segment in place, and returns the layout."""
        for start, stop in zip(self.first.tolist(), (self.first + self.size).tolist()):
            self.values[start:stop].sort()
        return self

    def keep(self, mask: np.ndarray) -> "_Segments":
        """The values where ``mask``, packed, in the same groups and order."""
        kept = np.concatenate(([0], np.cumsum(mask)))
        return _Segments(self.values[mask], kept[self.first + self.size] - kept[self.first])

    def take(self, groups: np.ndarray) -> "_Segments":
        """Segments ``groups[k]``, none empty, end to end, each led by a
        spare slot that holds a copy of its first value."""
        size = self.size[groups]
        out = _Segments(None, size, led=True)
        index = out.spread(self.first[groups] - out.first) + np.arange(size.sum() + size.size)
        index[out._lead] += 1
        out.values = self.values[index]
        return out

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Each segment's sum of ``x``, laid out as ``values`` (its spare
        slots are overwritten): bit for bit the ``np.add.reduce`` of the
        segment alone, which ``sum``, ``mean``, ``var`` and ``std`` use and the
        report bytes are pinned to.  ``np.add.reduce`` adds 0.0 to the pairwise
        sum of all values, ``np.add.reduceat`` a segment's first element to the
        pairwise sum of the rest: so a 0.0 is inserted before each segment, or
        put in its spare slot."""
        if self._lead is None:
            lead = self.first + np.arange(self.size.size)
            x = np.insert(x, self.first, 0.0)
        else:
            lead = self._lead
            x[lead] = 0.0
        return np.add.reduceat(x, lead)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first index and the length of each run of bit-identical values
        within a segment.  A segment's first value and each spare slot open a
        run, and -0.0 never shares one with 0.0: an elementwise result at a
        run's first value is that of every value in the run, bit for bit, so
        ``np.repeat(result, length)`` is the result over ``values``."""
        bits = self.values.view(np.int64)
        new = np.ones(bits.size + 1, dtype=bool)  # the last: one past the end
        np.not_equal(bits[1:], bits[:-1], out=new[1:-1])
        new[self.first] = True
        if self._lead is not None:
            new[self._lead] = True
        start = np.flatnonzero(new)
        return start[:-1], np.diff(start)

    def medians(self) -> np.ndarray:
        """Each sorted segment's median: at even size the midpoint of its
        two central values, and NaN for an empty segment."""
        out = np.full(self.size.size, np.nan)
        some = self.size > 0
        first, size = self.first[some], self.size[some]
        upper = self.values[first + size // 2]
        lower = self.values[first + (size - 1) // 2]
        out[some] = np.where(size % 2, upper, (lower + upper) / 2.0)
        return out


def _counts(vectors: Sequence, keys: Sequence = ()) -> _Segments:
    """The layout of citation vectors, checked all at once: an empty one is an
    :class:`EmptyGroupError`, a negative or non-finite count a
    :class:`CorpusValueError`, naming the group ``keys[g]`` if keys are given."""
    seg = _Segments.of(vectors)
    v = seg.values
    if not seg.size.all():
        g, error, what = int(np.argmin(seg.size)), EmptyGroupError, "empty citation vector"
    elif v.size and not (v.min() >= 0.0 and v.max() < math.inf):  # NaN fails both
        at = int(np.argmax(~((v >= 0.0) & (v < math.inf))))
        g = int(np.searchsorted(seg.first, at, side="right")) - 1
        error, what = CorpusValueError, f"citation count {float(v[at])} is negative or not finite"
    else:
        return seg
    raise error(f"group {keys[g]}: {what}" if keys else what)


class _Family(Mapping):
    """Groups' vectors laid out once: a read-only mapping of each key to a
    read-only view of its segment of ``seg``, in the order of the keys, shown
    as the dict of those views.
    ``sorted`` is the same layout with each segment sorted, made on first
    use and shared by every later reader."""

    def __init__(self, keys: Sequence, seg: _Segments) -> None:
        seg.values.flags.writeable = False
        self.seg = seg
        self._views = dict(zip(keys, np.split(seg.values, seg.first[1:])))

    @classmethod
    def of(cls, vectors: Mapping) -> "_Family":
        """``vectors`` if a family, else its layout in the same order; a NaN
        or infinite value is a ``ValueError`` naming its group."""
        if isinstance(vectors, _Family):
            return vectors
        keys, seg = list(vectors), _Segments.of(vectors.values())
        bad = np.flatnonzero(~np.isfinite(seg.values))[:1]
        if bad.size:
            key = keys[int(np.searchsorted(seg.first, bad[0], side="right")) - 1]
            raise ValueError(f"group {key}: score {seg.values[bad[0]]} is not finite")
        return cls(keys, seg)

    @classmethod
    def of_counts(cls, citations: Mapping) -> "_Family":
        """``citations`` if a family, else its layout in key order, checked by
        :func:`_counts`."""
        if isinstance(citations, _Family):
            return citations
        keys = sorted(citations)
        return cls(keys, _counts([citations[key] for key in keys], keys))

    @functools.cached_property
    def sorted(self) -> _Segments:
        srt = _Segments(self.seg.values.copy(), self.seg.size).sort()
        srt.values.flags.writeable = False
        return srt

    def __getitem__(self, key) -> np.ndarray:
        return self._views[key]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __repr__(self) -> str:
        return repr(self._views)


def _moments(seg: _Segments) -> tuple[np.ndarray, ...]:
    """Each segment's mean and central moments ``m2``, ``m3`` and ``m4`` over
    n: bit for bit ``np.add.reduce((v - mean)**p) / n`` of the segment alone.
    The deviations and their powers are evaluated once per run of equal
    values and repeated before each sum.  numpy's ``**`` stays: the report
    bytes are pinned to it, and ``dev*dev*dev`` rounds differently."""
    n = seg.size
    mean = seg.sums(seg.values) / n
    start, length = seg.runs()
    dev = seg.values[start] - seg.spread(mean)[start]
    return (mean, *(seg.sums(np.repeat(dev**p, length)) / n for p in (2, 3, 4)))


def _describe(seg: _Segments) -> list[GroupStats]:
    """:func:`describe` of each segment of a sorted layout of checked counts,
    all at once; ``min`` and ``max`` are the layout's float64 values."""
    values, n = seg.values, seg.size
    mean, m2, m3, m4 = _moments(seg)
    nz = seg.keep(values > 0.0)
    columns = (n, mean, m2, m3, m4, values[seg.first], values[seg.first + n - 1],
               seg.medians(), nz.size, nz.sums(nz.values), nz.medians())
    out = []
    # the closing arithmetic stays scalar: numpy's array power rounds
    # differently from the scalar ``**`` that the report bytes are pinned to
    for n, mean, m2, m3, m4, lo, hi, median, n_nz, sum_nz, median_nz in zip(
        *(c.tolist() for c in columns)
    ):
        stddev = float(np.sqrt(m2 * n / (n - 1))) if n >= 2 else None
        skewness = kurtosis = None
        if m2 > 0.0 and n >= 3:
            skewness = float(m3 / m2**1.5 * np.sqrt(n * (n - 1.0)) / (n - 2.0))
        if m2 > 0.0 and n >= 4:
            g2 = m4 / m2**2 - 3.0
            kurtosis = float((n - 1.0) / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * g2 + 6.0))
        out.append(GroupStats(
            n, n_nz, lo, hi, mean, median, stddev, skewness, kurtosis,
            sum_nz / n_nz if n_nz else None, median_nz if n_nz else None,
        ))
    return out


def describe(values: Sequence[int] | np.ndarray) -> GroupStats:
    """Descriptive statistics of a non-empty vector of finite, non-negative
    counts; ``min`` and ``max`` are the input's own extremes, exactly."""
    # every sum runs over the sorted values, so that permutations of the
    # input produce bit-identical results
    stats = _describe(_counts([values]).sort())[0]
    given = np.asarray(values).ravel()
    lo, hi = given[[given.argmin(), given.argmax()]].tolist()
    return replace(stats, min=lo, max=hi)

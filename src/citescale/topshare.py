"""Global top-decile ranking and per-category share admissibility bands.

The scores of all groups are pooled into one ranking; the globally top
``top_fraction`` of them is extracted (ties at the cutoff included), and each
category's share of top records is compared against the band

    ``top_fraction +- sqrt(f * (1 - f) / n)``

i.e. one binomial standard deviation for a category of size n.  A perfectly
fair scoring would leave every category's share inside its band; categories
drifting outside reveal that the scoring favors or penalizes their field.

The global cutoff is the ``ceil(f * N)``-th largest pooled score, so at least
a fraction f of records is marked top and the overshoot beyond f comes only
from integer rounding and cutoff ties.  Groups whose scaling statistic is
undefined are not ranked; each category counts its skipped records, and a
method that scored no group at all gives an empty ranking with no cutoff.

The pooled scores are the family's layout in record order
(:class:`citescale.stats._Family`), as ``scale_corpus`` returns it: ranking
needs no sorted copy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import GroupKey
from .errors import EmptyCorpusError
from .scaling import SkippedGroup
from .stats import _Family

DEFAULT_TOP_FRACTION = 0.10


@dataclass(frozen=True)
class CategoryShare:
    """One category's slice of the global top set."""

    category: str
    n: int
    top_count: int
    share: float
    band_low: float
    band_high: float
    within_band: bool
    n_skipped_records: int = 0


@dataclass(frozen=True)
class TopShareReport:
    """Per-category shares of the global top set for one scoring method."""

    top_fraction: float
    cutoff: float | None
    n_records: int
    n_top: int
    per_category: tuple[CategoryShare, ...]
    unevaluated_categories: tuple[str, ...] = ()

    @property
    def n_categories_evaluated(self) -> int:
        return len(self.per_category)

    @property
    def n_within_band(self) -> int:
        return sum(1 for c in self.per_category if c.within_band)


def _top_rank(top_fraction: float, n: int) -> int:
    """Number of records in the nominal top set: ceil(f * n), guarding the
    float artifacts of products like 0.1 * 1000."""
    target = top_fraction * n
    nearest = round(target)
    if abs(target - nearest) < 1e-9 and nearest >= 1:
        return int(nearest)
    return int(math.ceil(target))


def top_share(
    scores: Mapping[GroupKey, np.ndarray],
    top_fraction: float = DEFAULT_TOP_FRACTION,
    skipped: Iterable[SkippedGroup] = (),
) -> TopShareReport:
    """Rank the pooled scores of all groups and report each category's top share.

    ``scores`` holds one score vector per (category, year) group and
    ``skipped`` the groups left unscored because their scaling statistic was
    undefined, as :func:`~citescale.scaling.scale_corpus` returns them.  Each
    category counts its skipped records; a category with only skipped
    records is reported as unevaluated.  When every group was skipped the
    ranking is empty and its cutoff is None.  A NaN or infinite score is a
    ``ValueError`` naming its group.
    """
    if not 0.0 < top_fraction < 1.0:
        raise ValueError(f"top_fraction must be in (0, 1), got {top_fraction}")
    n_skipped: Counter[str] = Counter()
    for sk in skipped:
        n_skipped[sk.group.category] += sk.n_records
    seg = _Family.of(scores).seg
    n = seg.values.size
    if not n:
        if not n_skipped:
            raise EmptyCorpusError("cannot rank an empty score collection")
        return TopShareReport(top_fraction, None, 0, 0, (), tuple(sorted(n_skipped)))
    k = _top_rank(top_fraction, n)
    cutoff = float(np.partition(seg.values, n - k)[n - k])
    # each value's category, as an index into the sorted categories
    cats = sorted({key.category for key in scores})
    index = {cat: i for i, cat in enumerate(cats)}
    code = seg.spread(np.array([index[key.category] for key in scores]))
    n_by_cat = np.bincount(code, minlength=len(cats)).tolist()
    top_by_cat = np.bincount(code[seg.values >= cutoff], minlength=len(cats)).tolist()

    per_category = []
    for cat, n_cat, top_count in zip(cats, n_by_cat, top_by_cat):
        if not n_cat:
            continue
        share = top_count / n_cat
        sd = math.sqrt(top_fraction * (1.0 - top_fraction) / n_cat)
        band_low = top_fraction - sd
        band_high = top_fraction + sd
        per_category.append(
            CategoryShare(
                category=cat,
                n=n_cat,
                top_count=top_count,
                share=share,
                band_low=band_low,
                band_high=band_high,
                within_band=band_low <= share <= band_high,
                n_skipped_records=n_skipped[cat],
            )
        )
    unevaluated = tuple(sorted(n_skipped.keys() - {c.category for c in per_category}))
    return TopShareReport(
        top_fraction=top_fraction,
        cutoff=cutoff,
        n_records=n,
        n_top=sum(top_by_cat),
        per_category=tuple(per_category),
        unevaluated_categories=unevaluated,
    )

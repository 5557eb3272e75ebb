import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citescale.corpus import GroupKey
from citescale.errors import EmptyCorpusError
from citescale.scaling import ScalingMethod, SkippedGroup, scale_corpus
from citescale.topshare import CategoryShare, TopShareReport, _top_rank, top_share


def scores_from(spec, year=2003):
    """spec: dict category -> list of scores; one group per category."""
    return {
        GroupKey(cat, year): np.asarray(values, dtype=np.float64)
        for cat, values in spec.items()
    }


def brute_force_shares(spec, top_fraction):
    """Sort-and-count oracle over explicit (category, score) pairs."""
    pairs = [(cat, c) for cat, values in spec.items() for c in values]
    n = len(pairs)
    k = math.ceil(round(top_fraction * n, 9))
    cutoff = sorted((s for _, s in pairs), reverse=True)[k - 1]
    shares = {}
    for cat, values in spec.items():
        top = sum(1 for s in values if s >= cutoff)
        shares[cat] = (len(values), top, top / len(values))
    return cutoff, shares


class TestTopShare:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_its_group(self, bad):
        # a NaN cutoff would mark no record top and every category in band
        with pytest.raises(ValueError, match="group A/2003: score .* is not finite"):
            top_share(scores_from({"A": [bad, 1], "B": [1, 2]}))

    def test_total_tie_puts_everyone_on_top(self):
        report = top_share(scores_from({"A": [5] * 30, "B": [5] * 10}))
        assert report.n_top == 40
        for c in report.per_category:
            assert c.share == 1.0
            assert not c.within_band

    def test_pinned_forty_record_corpus_matches_oracle(self):
        spec = {
            "A": [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 7, 8, 9, 10, 12, 15, 20, 40],
            "B": [0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 9, 11, 13, 14, 18, 25, 60],
        }
        report = top_share(scores_from(spec), 0.10)
        cutoff, shares = brute_force_shares(spec, 0.10)
        assert report.cutoff == cutoff
        for c in report.per_category:
            n, top, share = shares[c.category]
            assert (c.n, c.top_count, c.share) == (n, top, share)
            sd = math.sqrt(0.1 * 0.9 / n)
            assert c.band_low == pytest.approx(0.1 - sd)
            assert c.band_high == pytest.approx(0.1 + sd)
            assert c.within_band == (c.band_low <= share <= c.band_high)

    def test_conservation(self, rng):
        spec = {
            f"C{j}": rng.integers(0, 100, size=int(rng.integers(5, 80))).tolist()
            for j in range(6)
        }
        report = top_share(scores_from(spec), 0.15)
        assert sum(c.top_count for c in report.per_category) == report.n_top

    def test_weighted_share_mean_at_least_fraction(self, rng):
        for f in (0.05, 0.10, 0.25):
            spec = {
                f"C{j}": rng.integers(0, 40, size=int(rng.integers(10, 60))).tolist()
                for j in range(5)
            }
            report = top_share(scores_from(spec), f)
            weighted = sum(c.share * c.n for c in report.per_category) / report.n_records
            assert weighted >= f - 1e-12

    def test_band_narrows_with_size(self):
        report = top_share(scores_from({"A": list(range(10)), "B": list(range(100))}))
        bands = {c.category: c.band_high - c.band_low for c in report.per_category}
        assert bands["B"] < bands["A"]

    def test_cutoff_ties_included(self):
        # 10 records; nominal top-1 but three records tie at the cutoff
        report = top_share(
            scores_from({"A": [9, 9, 9, 1, 1, 1, 1, 0, 0, 0]}), 0.10
        )
        assert report.cutoff == 9
        assert report.n_top == 3

    def test_single_category_share_matches_fraction(self):
        values = list(range(200))
        report = top_share(scores_from({"A": values}), 0.10)
        (c,) = report.per_category
        assert c.share == pytest.approx(0.10)
        assert c.within_band

    def test_fraction_validation(self):
        records = scores_from({"A": [1, 2, 3]})
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                top_share(records, bad)

    def test_empty_collection(self):
        with pytest.raises(EmptyCorpusError):
            top_share({}, 0.10)

    def test_rank_count_float_guard(self):
        assert _top_rank(0.1, 1000) == 100
        assert _top_rank(0.1, 40) == 4
        assert _top_rank(0.1, 41) == 5
        assert _top_rank(0.25, 7) == 2

    def test_unevaluated_categories_reported(self):
        report = top_share(
            scores_from({"A": [1, 2, 3, 4]}),
            0.25,
            skipped=[
                SkippedGroup(GroupKey("B", 2003), 4, "zero-median"),
                SkippedGroup(GroupKey("A", 2007), 1, "zero-median"),
                SkippedGroup(GroupKey("B", 2007), 3, "zero-median"),
            ],
        )
        assert report.unevaluated_categories == ("B",)
        (c,) = report.per_category
        assert c.n_skipped_records == 1

    def test_every_group_skipped_gives_an_empty_ranking(self):
        report = top_share(
            {},
            0.10,
            skipped=[
                SkippedGroup(GroupKey("B", 2003), 5, "zero-median"),
                SkippedGroup(GroupKey("A", 2003), 2, "zero-median"),
            ],
        )
        assert report.cutoff is None
        assert report.unevaluated_categories == ("A", "B")
        assert (report.n_records, report.n_top, report.per_category) == (0, 0, ())


    def test_undefined_groups_excluded_and_flagged(self):
        raw = scores_from({"A": [0, 0, 0, 1], "B": [1, 2, 3, 4, 5, 6]})
        scores, skipped = scale_corpus(raw, ScalingMethod.MEDIAN)
        median = top_share(scores, 0.10, skipped)
        assert top_share(raw, 0.10).n_records == 10
        assert median.n_records == 6  # category A dropped entirely
        assert median.unevaluated_categories == ("A",)
        assert median.n_categories_evaluated == 1


# Small (category, year) groups, some all-zero and many zero-heavy, so that
# every method leaves some groups undefined on some draws.
_groups = st.dictionaries(
    st.builds(GroupKey, st.sampled_from("ABCD"), st.integers(2000, 2002)),
    st.one_of(
        st.lists(st.just(0), min_size=1, max_size=6),
        st.lists(st.sampled_from([0, 0, 0, 1, 2, 7, 40]), min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=8,
)


class TestAccounting:
    @settings(max_examples=150, deadline=None)
    @given(_groups)
    def test_every_record_is_ranked_or_counted_as_skipped(self, groups):
        raw = {key: np.asarray(v, dtype=np.float64) for key, v in groups.items()}
        records = Counter()
        for key, values in groups.items():
            records[key.category] += len(values)
        for method in (None, *ScalingMethod):
            if method is None:
                scores, skipped = raw, []
            else:
                scores, skipped = scale_corpus(raw, method)
            report = top_share(scores, 0.10, skipped)
            per_category = {c.category: c for c in report.per_category}
            for cat, c in per_category.items():
                assert c.n + c.n_skipped_records == records[cat], (method, cat)
            scored_categories = {key.category for key in scores}
            assert set(per_category) == scored_categories, method
            assert report.unevaluated_categories == tuple(
                sorted(set(records) - scored_categories)
            ), method
            unranked = sum(sk.n_records for sk in skipped)
            assert report.n_records + unranked == sum(records.values()), method


def per_group_top_share(scores, top_fraction, skipped):
    """top_share as one loop over the groups, with per-category dicts: the
    reference that the pooled counting must equal field for field."""
    n_skipped = {}
    for sk in skipped:
        n_skipped[sk.group.category] = n_skipped.get(sk.group.category, 0) + sk.n_records
    vectors = [
        (key.category, np.asarray(v, dtype=np.float64)) for key, v in scores.items()
    ]
    n = sum(v.size for _, v in vectors)
    cutoff = None
    if n:
        pooled = np.concatenate([v for _, v in vectors])
        k = _top_rank(top_fraction, n)
        cutoff = float(np.partition(pooled, n - k)[n - k])
    elif not n_skipped:
        raise EmptyCorpusError("cannot rank an empty score collection")
    n_by_cat = {}
    top_by_cat = {}
    for cat, v in vectors:
        if v.size:
            n_by_cat[cat] = n_by_cat.get(cat, 0) + v.size
            top_by_cat[cat] = top_by_cat.get(cat, 0) + int(np.count_nonzero(v >= cutoff))
    per_category = []
    for cat in sorted(n_by_cat):
        n_cat, top_count = n_by_cat[cat], top_by_cat[cat]
        share = top_count / n_cat
        sd = math.sqrt(top_fraction * (1.0 - top_fraction) / n_cat)
        band_low, band_high = top_fraction - sd, top_fraction + sd
        per_category.append(CategoryShare(
            cat, n_cat, top_count, share, band_low, band_high,
            band_low <= share <= band_high, n_skipped.get(cat, 0),
        ))
    return TopShareReport(
        top_fraction, cutoff, n, sum(top_by_cat.values()), tuple(per_category),
        tuple(sorted(cat for cat in n_skipped if cat not in n_by_cat)),
    )


# Several groups per category, some of them empty, with tied scores; the
# skipped groups include categories that have no scored group at all.
_scored = st.dictionaries(
    st.builds(GroupKey, st.sampled_from("ABCD"), st.integers(2000, 2003)),
    st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]), st.floats(0.0, 1e6)),
        max_size=12,
    ),
    max_size=10,
)
_skipped = st.lists(
    st.builds(
        SkippedGroup,
        st.builds(GroupKey, st.sampled_from("CDEF"), st.integers(2000, 2003)),
        st.integers(1, 20),
        st.just("zero-median"),
    ),
    max_size=5,
)


class TestPerGroupOracle:
    @settings(max_examples=300, deadline=None)
    @given(_scored, _skipped, st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.9]))
    def test_report_equals_per_group_counting(self, scores, skipped, top_fraction):
        scores = {key: np.asarray(v, dtype=np.float64) for key, v in scores.items()}
        try:
            want = per_group_top_share(scores, top_fraction, skipped)
        except EmptyCorpusError:
            with pytest.raises(EmptyCorpusError):
                top_share(scores, top_fraction, skipped)
            return
        got = top_share(scores, top_fraction, skipped)
        assert got.top_fraction == want.top_fraction
        assert got.cutoff == want.cutoff
        assert got.n_records == want.n_records
        assert got.n_top == want.n_top
        assert got.per_category == want.per_category
        assert got.unevaluated_categories == want.unevaluated_categories

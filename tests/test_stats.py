import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale.corpus import GroupKey
from citescale.errors import CorpusValueError, EmptyGroupError
from citescale.gof import ad_lognormal
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.stats import _counts, _describe, _Family, _moments, _Segments, describe
from citescale.survival import collapse_metrics, survival_curves
from citescale.topshare import top_share


def naive_stats(values):
    """Plain-loop oracle: raw sums only, no vectorized shortcuts."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    m2 = m3 = m4 = 0.0
    for v in values:
        d = v - mean
        m2 += d * d
        m3 += d * d * d
        m4 += d * d * d * d
    m2, m3, m4 = m2 / n, m3 / n, m4 / n
    srt = sorted(values)
    mid = n // 2
    median = float(srt[mid]) if n % 2 else (srt[mid - 1] + srt[mid]) / 2.0
    stddev = math.sqrt(m2 * n / (n - 1)) if n >= 2 else None
    skew = kurt = None
    if m2 > 0:
        if n >= 3:
            skew = (m3 / m2**1.5) * math.sqrt(n * (n - 1.0)) / (n - 2.0)
        if n >= 4:
            g2 = m4 / m2**2 - 3.0
            kurt = (n - 1.0) / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * g2 + 6.0)
    return {
        "n": n, "min": srt[0], "max": srt[-1], "mean": mean, "median": median,
        "stddev": stddev, "skewness": skew, "kurtosis": kurt,
    }


def assert_close(actual, expected, rel=1e-12):
    if expected is None:
        assert actual is None
    else:
        assert actual == pytest.approx(expected, rel=rel, abs=1e-12)


class TestDescribe:
    def test_constant_vector(self):
        st_ = describe([5, 5, 5, 5])
        assert st_.mean == 5 and st_.median == 5
        assert st_.stddev == 0
        assert st_.skewness is None and st_.kurtosis is None

    def test_aggregate_mean_two_decimal_rounding(self):
        # 6,970 values summing 100,209
        values = [15] * 2629 + [14] * (6970 - 2629)
        st_ = describe(values)
        assert sum(values) == 100209
        assert round(st_.mean, 2) == 14.38

    def test_against_naive_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 300))
            values = rng.integers(0, 500, size=n).tolist()
            got = describe(values)
            want = naive_stats(values)
            assert got.n == want["n"]
            assert got.min == want["min"] and got.max == want["max"]
            assert_close(got.mean, want["mean"])
            assert_close(got.median, want["median"])
            assert_close(got.stddev, want["stddev"])
            assert_close(got.skewness, want["skewness"], rel=1e-9)
            assert_close(got.kurtosis, want["kurtosis"], rel=1e-9)

    @pytest.mark.parametrize("values, lo, hi", [
        ([2**63 - 1, 3], 3, 2**63 - 1),  # 2**63 in float64, beyond int64
        ([2**53 + 1, 0], 0, 2**53 + 1),  # 2**53 in float64
        (np.array([2**53 + 1, 2**62 + 1]), 2**53 + 1, 2**62 + 1),
        ([0.5, 2.5], 0.5, 2.5),  # not truncated to 0 and 2
        ([2**70, 1], 1, 2**70),
    ])
    def test_min_and_max_are_the_input_extremes(self, values, lo, hi):
        got = describe(values)
        assert (got.min, got.max) == (lo, hi)
        assert type(got.min) is type(lo) and type(got.max) is type(hi)

    def test_single_value(self):
        st_ = describe([7])
        assert st_.stddev is None and st_.skewness is None and st_.kurtosis is None
        assert st_.mean == 7 and st_.median == 7

    def test_small_n_moment_cutoffs(self):
        assert describe([1, 2]).skewness is None
        assert describe([1, 2, 4]).skewness is not None
        assert describe([1, 2, 4]).kurtosis is None
        assert describe([1, 2, 4, 9]).kurtosis is not None

    def test_empty_vector(self):
        with pytest.raises(EmptyGroupError):
            describe([])

    @pytest.mark.parametrize("bad", [-5, math.nan, math.inf])
    def test_negative_or_non_finite_count(self, bad):
        # not described as n_nonzero=2 or NaN moments: rejected
        with pytest.raises(CorpusValueError, match="citation count"):
            describe([bad, 1, 2])

    def test_all_groups_at_once_is_each_alone(self, rng):
        vectors = [rng.integers(0, 500, size=int(n)) for n in rng.integers(1, 300, 40)]
        vectors += [[0, 0, 0], [7]]  # no nonzero value; one value
        assert _describe(_counts(vectors).sort()) == [describe(v) for v in vectors]

    def test_moments_are_each_sorted_group_alone(self, rng):
        # the per-element oracle of the per-run moments: (v - mean)**p over
        # every value of the sorted group, summed by np.add.reduce
        big = rng.integers(2**53, 2**63 - 1024, 60)
        vectors = [
            rng.integers(0, 5, 400),  # heavy ties
            rng.permutation(250),  # all distinct
            [0.0, -0.0, 3.0, -0.0, 0.0, 3.0, 1.0],  # -0.0 beside 0.0
            [-0.0, 0.0, -0.0],
            big, np.repeat(big[:5], 7),  # above 2**53, distinct and tied
            [2**62, 2**62 + 1, 2**62 + 2],  # equal once in float64
            [7], [4, 4, 4, 4],
        ]
        vectors += [rng.integers(0, 30, int(n)) for n in rng.integers(1, 200, 30)]
        got = np.array(_moments(_counts(vectors).sort()))
        want = []
        for v in vectors:
            v = np.sort(np.asarray(v, dtype=np.float64))
            mean = np.add.reduce(v) / v.size
            want.append([mean] + [np.add.reduce((v - mean) ** p) / v.size for p in (2, 3, 4)])
        assert got.T.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    def test_fractional_median_even_n(self):
        assert describe([4, 9, 6, 5]).median == 5.5

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=80))
    def test_permutation_invariance(self, values):
        base = describe(values)
        shuffled = describe(list(reversed(sorted(values))))
        assert base == shuffled

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=50),
        st.integers(2, 7),
    )
    def test_scale_relation(self, values, k):
        base = describe(values)
        scaled = describe([k * v for v in values])
        assert scaled.mean == pytest.approx(k * base.mean, rel=1e-12)
        assert scaled.median == pytest.approx(k * base.median, rel=1e-12)
        assert scaled.max == k * base.max
        if base.stddev is not None:
            assert scaled.stddev == pytest.approx(k * base.stddev, rel=1e-12)
        if base.skewness is not None:
            assert scaled.skewness == pytest.approx(base.skewness, rel=1e-9, abs=1e-9)
        if base.kurtosis is not None:
            assert scaled.kurtosis == pytest.approx(base.kurtosis, rel=1e-9, abs=1e-9)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=61))
    def test_median_between_central_order_statistics(self, values):
        st_ = describe(values)
        srt = sorted(values)
        n = len(srt)
        lo = srt[(n - 1) // 2]
        hi = srt[-(-(n - 1) // 2)]  # ceil((n-1)/2)
        assert lo <= st_.median <= hi

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=60))
    def test_nonzero_mean_dominates(self, values):
        st_ = describe(values)
        if 0 < st_.n_nonzero < st_.n:
            assert st_.mean_nonzero >= st_.mean


class TestDescribeNonzero:
    def test_uncited_contrast_fixture(self):
        # 23,050 records, 6,900 of them cited, citations summing 95,427:
        # the plain mean is 4.14 and the cited-only mean 13.83
        values = [0] * 16150 + [14] * 5727 + [13] * (6900 - 5727)
        full = describe(values)
        assert full.mean == 4.14
        assert full.mean_nonzero == 13.83

    def test_all_zero_flagged(self):
        assert describe([0, 0, 0]).mean_nonzero is None

    def test_small_vector_values(self):
        st_ = describe([0, 1, 2, 5, 12])
        assert st_.mean == 4.0
        assert st_.mean_nonzero == 5.0
        assert st_.median == 2
        assert st_.median_nonzero == 3.5
        assert st_.n_nonzero == 4


class TestSegments:
    """The layout's statistics against numpy on each group alone."""

    def test_sums_and_medians_match_each_group_alone(self):
        rng = np.random.default_rng(12)
        sizes = rng.permutation(301)  # 0-300: empty, odd and even groups
        noise = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7) for n in sizes]
        seg = _Segments.of(noise)
        assert seg.sums(seg.values).tolist() == [np.add.reduce(x) for x in noise]
        ties = [rng.integers(0, 20, n) / 4.0 for n in sizes]  # many equal values
        medians = _Segments.of(ties).sort().medians()
        for x, median in zip(ties, medians.tolist()):
            if x.size:
                assert median == np.median(x)
            else:
                assert math.isnan(median)

    @staticmethod
    def assert_runs(seg):
        """Runs of bit-identical values, each inside one segment or one spare
        slot, opened by every segment start and spare slot."""
        start, length = seg.runs()
        bits = seg.values.view(np.int64)
        assert length.sum() == seg.values.size and (length > 0).all()
        assert start.tolist() == (np.cumsum(length) - length).tolist()
        led = seg._lead is not None
        where = np.repeat(np.arange(seg.size.size), seg.size + led)  # segment g,
        if led:
            where[seg.first - 1] = -1 - np.arange(seg.size.size)  # or its spare slot
        assert (np.repeat(where[start], length) == where).all()
        assert (np.repeat(bits[start], length) == bits).all()
        opened = seg.first[seg.size > 0]
        if led:
            opened = np.concatenate((opened, seg.first - 1))
        assert np.isin(opened, start).all()
        inner = where[start[1:]] == where[start[:-1]]  # neighbours in one segment
        assert (bits[start[1:]] != bits[start[:-1]])[inner].all()

    def test_runs_of_every_layout(self):
        rng = np.random.default_rng(5)
        sizes = rng.permutation(120) % 40  # empty segments, one of them last
        sizes[-1] = 0
        ties = [rng.integers(0, 4, n) / 2.0 * rng.choice([-1.0, 1.0], n) for n in sizes]
        packed = _Segments.of(ties)
        self.assert_runs(packed)
        self.assert_runs(packed.sort())
        kept = packed.keep(packed.values != 0.5)
        self.assert_runs(kept)
        self.assert_runs(kept.take(np.flatnonzero(kept.size)))
        self.assert_runs(_Segments.of([]))

    def test_runs_split_signed_zeros_and_segments(self):
        seg = _Segments.of([[1.0, 1.0], [], [1.0, 2.0, 2.0], [-0.0, 0.0, 0.0, -0.0]])
        start, length = seg.runs()
        assert start.tolist() == [0, 2, 3, 5, 6, 8]
        assert length.tolist() == [2, 1, 2, 1, 2, 1]
        led = seg.take(np.array([0, 2]))  # 1.0 | 1.0 1.0 | 1.0 | 1.0 2.0 2.0
        start, length = led.runs()
        assert start.tolist() == [0, 1, 3, 4, 5]
        assert length.tolist() == [1, 2, 1, 1, 2]


# a few groups of counts, in three categories
count_groups = st.lists(
    st.lists(st.integers(0, 40), min_size=1, max_size=30), min_size=1, max_size=8
).map(lambda vectors: {
    GroupKey(f"C{i % 3}", 2000 + i): np.array(v, dtype=np.float64)
    for i, v in enumerate(vectors)
})


class TestFamily:
    """A family reads as a plain dict of the same vectors."""

    @given(count_groups, st.sampled_from([None, *ScalingMethod]), st.randoms())
    def test_diagnostics_read_a_family_as_a_permuted_dict(self, citations, method, rnd):
        family, skipped = _Family.of_counts(citations), []
        if method is not None:
            family, skipped = scale_corpus(family, method)
        permuted = {key: np.array(rnd.sample(list(v), v.size)) for key, v in family.items()}
        for diagnostic in (collapse_metrics, ad_lognormal):
            assert diagnostic(family) == diagnostic(permuted)
        assert top_share(family, skipped=skipped) == top_share(permuted, skipped=skipped)
        for got, want in zip(survival_curves(family), survival_curves(permuted)):
            assert np.array_equal(got, want)

    @given(count_groups, st.sampled_from([None, *ScalingMethod]))
    def test_repr_is_that_of_the_dict(self, citations, method):
        family = _Family.of_counts(citations)
        if method is not None:
            family, _ = scale_corpus(family, method)
        assert repr(family) == str(family) == repr(dict(family))

    @given(count_groups, st.sampled_from(ScalingMethod))
    def test_scores_are_read_only_and_in_record_order(self, citations, method):
        scored, _ = scale_corpus(citations, method)
        for key, aii in scored.items():
            with pytest.raises(ValueError, match="read-only"):
                aii[0] = 1.0
            alone, _ = scale_corpus({key: citations[key]}, method)
            assert aii.tobytes() == alone[key].tobytes()
            # each score is an increasing function of its own record's count
            ranks = [np.unique(v, return_inverse=True)[1] for v in (citations[key], aii)]
            assert np.array_equal(*ranks)

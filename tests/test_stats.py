import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale.errors import EmptyGroupError
from citescale.stats import describe


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

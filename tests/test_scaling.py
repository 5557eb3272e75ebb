import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from citescale import scaling
from citescale.corpus import GroupKey
from citescale.errors import DegenerateLikelihoodError, EmptyGroupError
from citescale.scaling import (
    LAMBDA_BOUNDS,
    ScalingMethod,
    _golden_max,
    _profile_loglik,
    boxcox_transform,
    fit_factors,
    fit_lambda,
    scale_corpus,
)

A03 = GroupKey("A", 2003)

RATIO_METHODS = (
    ScalingMethod.MAX_RANGE,
    ScalingMethod.MEAN,
    ScalingMethod.MEAN_NO_ZERO,
    ScalingMethod.MEDIAN,
    ScalingMethod.MEDIAN_NO_ZERO,
)


def naive_loglik(values, lam):
    """Direct-formula oracle for the profile log-likelihood."""
    n = len(values)
    t = []
    for c in values:
        if lam == 0.0:
            t.append(math.log(c + 1.0))
        else:
            t.append(((c + 1.0) ** lam - 1.0) / lam)
    mean_t = sum(t) / n
    var = sum((x - mean_t) ** 2 for x in t) / n
    if var <= 0:
        return -math.inf
    return -0.5 * n * math.log(var) + (lam - 1.0) * sum(
        math.log(c + 1.0) for c in values
    )


def reference_fit_lambda(values):
    """Exact 601-point grid scan plus golden refinement: the oracle that
    fit_lambda must reproduce bit for bit."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = LAMBDA_BOUNDS
    grid = np.linspace(lo, hi, 601)
    log1p_v = np.log1p(v)
    loglik = functools.partial(_profile_loglik, log1p_v, float(log1p_v.sum()))
    ll = np.array([loglik(lam) for lam in grid])
    best = int(np.argmax(ll))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    refined = _golden_max(loglik, float(a), float(b))
    if loglik(refined) < ll[best]:
        refined = float(grid[best])
    return float(min(max(refined, lo), hi))


def assert_fit_equals_reference(values):
    assume(len(set(values)) > 1)
    with np.errstate(all="ignore"):
        assert fit_lambda(values) == reference_fit_lambda(values)


def divisor(factors):
    return factors.denom_num / factors.denom_den


def scores(values, method):
    """One group's score vector, or None where the statistic is undefined."""
    scored, _ = scale_corpus({A03: values}, method)
    return scored.get(A03)


def exact_divisor(values, method):
    """Fraction-arithmetic oracle for the five ratio divisors."""
    vals = [Fraction(v) for v in values]
    nz = [v for v in vals if v > 0]

    def median(xs):
        xs = sorted(xs)
        m = len(xs) // 2
        if len(xs) % 2:
            return xs[m]
        return (xs[m - 1] + xs[m]) / 2

    if method is ScalingMethod.MAX_RANGE:
        d = max(vals) - min(vals)
    elif method is ScalingMethod.MEAN:
        d = sum(vals, Fraction(0)) / len(vals)
    elif method is ScalingMethod.MEAN_NO_ZERO:
        d = sum(nz, Fraction(0)) / len(nz) if nz else Fraction(0)
    elif method is ScalingMethod.MEDIAN:
        d = median(vals)
    else:
        d = median(nz) if nz else Fraction(0)
    return d


class TestFitFactors:
    def test_median_undefined_with_majority_zeros(self):
        factors = fit_factors(A03, [0, 0, 0, 4], ScalingMethod.MEDIAN)
        assert not factors.defined
        assert factors.reason == "zero-median"

    def test_median_defined_at_exactly_half_zeros(self):
        factors = fit_factors(A03, [0, 0, 4, 4], ScalingMethod.MEDIAN)
        assert factors.defined and divisor(factors) == 2.0

    def test_constant_mean(self):
        factors = fit_factors(A03, [9, 9, 9], ScalingMethod.MEAN)
        assert factors.defined and divisor(factors) == 9.0

    def test_mean_no_zero_small_vector(self):
        factors = fit_factors(A03, [0, 1, 2, 5, 12], ScalingMethod.MEAN_NO_ZERO)
        assert factors.defined and divisor(factors) == 5.0

    def test_max_range_constant_undefined(self):
        factors = fit_factors(A03, [9, 9, 9], ScalingMethod.MAX_RANGE)
        assert not factors.defined and factors.reason == "zero-range"

    def test_max_range_positive_minimum(self):
        factors = fit_factors(A03, [2, 6, 10], ScalingMethod.MAX_RANGE)
        assert factors.defined and divisor(factors) == 8.0

    def test_all_zero_group(self):
        for method in RATIO_METHODS:
            assert not fit_factors(A03, [0, 0, 0], method).defined
        assert not fit_factors(A03, [0, 0, 0], ScalingMethod.BOX_COX_MEAN).defined

    def test_boxcox_degenerate_is_data_not_failure(self):
        factors = fit_factors(A03, [9, 9, 9], ScalingMethod.BOX_COX_MEAN)
        assert not factors.defined and factors.reason == "degenerate-boxcox"

    def test_boxcox_defined(self):
        factors = fit_factors(A03, [0, 1, 2, 5, 12, 40], ScalingMethod.BOX_COX_MEAN)
        assert factors.defined
        assert -3.0 <= factors.lam <= 3.0
        assert factors.boxcox_mean > 0

    def test_empty_vector(self):
        with pytest.raises(EmptyGroupError):
            fit_factors(A03, [], ScalingMethod.MEAN)


class TestScale:
    def test_median_scaled_record_at_the_median_scores_one(self):
        assert scores([2, 9, 30], ScalingMethod.MEDIAN)[1] == 1.0

    def test_zero_citations_score_zero_under_every_method(self):
        values = [0, 1, 2, 5, 12, 40]
        for method in ScalingMethod:
            assert scores(values, method)[0] == 0.0, method

    def test_mean_scaling_small_vector(self):
        values = [0, 1, 2, 5, 12]
        assert divisor(fit_factors(A03, values, ScalingMethod.MEAN)) == 4.0
        assert scores(values, ScalingMethod.MEAN)[4] == 3.0

    def test_pinned_six_record_corpus_all_methods(self):
        groups = {
            GroupKey("A", 2003): [0, 3, 9],
            GroupKey("B", 2007): [2, 2, 10],
        }
        for method in RATIO_METHODS:
            scored, skipped = scale_corpus(groups, method)
            for key, values in groups.items():
                oracle_d = exact_divisor(values, method)
                if oracle_d == 0:
                    assert key not in scored
                    assert key in {sk.group for sk in skipped}
                    continue
                # one rounding: each score is the correctly rounded exact ratio
                want = [float(Fraction(c) / oracle_d) for c in values]
                assert scored[key].tolist() == want, (method, key)

    def test_boxcox_matches_transform_ratio(self):
        values = [0, 1, 2, 5, 12, 40]
        factors = fit_factors(A03, values, ScalingMethod.BOX_COX_MEAN)
        t = boxcox_transform(values, factors.lam)
        expected = float(boxcox_transform(5, factors.lam)) / float(t.mean())
        got = scores(values, ScalingMethod.BOX_COX_MEAN)[3]
        assert got == pytest.approx(expected, rel=1e-15)


class TestNormalizationIdentities:
    @given(st.lists(st.integers(0, 60), min_size=2, max_size=200))
    def test_mean_of_scaled_is_one(self, values):
        if sum(values) == 0:
            return
        aii = scores(values, ScalingMethod.MEAN)
        assert abs(np.mean(aii) - 1.0) <= 1e-12

    @given(st.lists(st.integers(0, 60), min_size=2, max_size=200))
    def test_nonzero_mean_of_mean0_scaled_is_one(self, values):
        if sum(values) == 0:
            return
        aii = scores(values, ScalingMethod.MEAN_NO_ZERO)
        assert abs(np.mean(aii[np.asarray(values) > 0]) - 1.0) <= 1e-12

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=151))
    def test_median_of_scaled_is_one_where_defined(self, values):
        aii = scores(values, ScalingMethod.MEDIAN)
        if aii is None:
            return
        med = float(np.median(aii))
        if len(values) % 2:
            assert med == 1.0
        else:
            assert abs(med - 1.0) <= 1e-12

    @given(st.lists(st.integers(0, 60), min_size=2, max_size=100))
    def test_max_of_scaled_is_one_when_min_is_zero(self, values):
        aii = scores([0] + values, ScalingMethod.MAX_RANGE)
        if aii is None:
            return
        assert aii.max() == 1.0


class TestExactRescaling:
    @given(
        st.lists(st.integers(0, 40), min_size=3, max_size=120),
        st.sampled_from([1, 2, 3, 5, 7]),
    )
    def test_integer_rescaled_group_scores_identically(self, values, k):
        scaled_values = [k * v for v in values]
        for method in RATIO_METHODS:
            aii_a = scores(values, method)
            aii_b = scores(scaled_values, method)
            assert (aii_a is None) == (aii_b is None)
            if aii_a is None:
                continue
            assert np.sort(aii_a).tolist() == np.sort(aii_b).tolist(), method


class TestMonotonicity:
    @given(st.lists(st.integers(0, 2000), min_size=3, max_size=80, unique=True))
    def test_strictly_increasing_in_citations(self, values):
        for method in ScalingMethod:
            aii = scores(sorted(values), method)
            if aii is None:
                continue
            assert np.all(aii[:-1] < aii[1:]), method


class TestTransform:
    def test_zero_maps_to_zero_exactly(self):
        for lam in (-3.0, -0.5, 0.0, 0.7, 3.0):
            assert float(boxcox_transform(0, lam)) == 0.0

    @given(
        st.floats(0.0, 1e6, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_non_negative_on_counts(self, c, lam):
        assert float(boxcox_transform(c, lam)) >= 0.0

    def test_log_limit_at_zero_lambda(self):
        c = np.array([0, 1, 5, 100])
        assert np.allclose(boxcox_transform(c, 0.0), np.log1p(c))
        assert np.allclose(boxcox_transform(c, 1e-9), np.log1p(c), rtol=1e-6)


class TestFitLambda:
    def test_too_short(self):
        with pytest.raises(DegenerateLikelihoodError):
            fit_lambda([1, 2])

    def test_all_equal(self):
        with pytest.raises(DegenerateLikelihoodError):
            fit_lambda([4, 4, 4, 4])

    def test_result_is_clamped(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            values = rng.integers(0, 500, size=n)
            if np.all(values == values[0]):
                continue
            lam = fit_lambda(values)
            assert -3.0 <= lam <= 3.0

    def test_extreme_shape_pins_lower_bound(self):
        # data generated by inverting the transform at a parameter below -3:
        # the in-range likelihood is maximal at the boundary, so the fit must
        # clamp at exactly -3 (boundary values are reported as such)
        rng = np.random.default_rng(3)
        z = np.clip(rng.normal(0.2, 0.012, 400), None, 0.2499)
        c = (1.0 - 4.0 * z) ** (-0.25) - 1.0
        assert fit_lambda(c) == -3.0

    def test_recovers_half_from_inverted_transform(self):
        rng = np.random.default_rng(7)
        z = np.clip(rng.normal(6.0, 1.4, size=5000), 0.0, None)
        c = (1.0 + 0.5 * z) ** 2 - 1.0
        lam = fit_lambda(c)
        assert 0.45 <= lam <= 0.55

    def test_lognormal_discretized_near_zero(self):
        rng = np.random.default_rng(11)
        c = np.floor(np.exp(rng.normal(2.0, 0.5, size=5000))) - 0.0
        lam = fit_lambda(c)
        assert -0.1 <= lam <= 0.1

    def test_beats_dense_grid_oracle(self, rng):
        grid = np.round(np.arange(-3000, 3001) * 1e-3, 3)
        for _ in range(10):
            n = int(rng.integers(20, 120))
            values = rng.integers(0, 200, size=n)
            if np.all(values == values[0]):
                continue
            lam = fit_lambda(values)
            ll_hat = naive_loglik(values.tolist(), lam)
            ll_grid = max(naive_loglik(values.tolist(), g) for g in grid)
            assert ll_hat >= ll_grid - 1e-6

    @given(st.one_of(
        st.lists(st.integers(0, 60), min_size=3, max_size=200),
        st.lists(st.integers(0, 10**6), min_size=3, max_size=200),
        st.lists(
            st.builds(lambda e, m: m * 10**e, st.integers(0, 12), st.integers(0, 9)),
            min_size=3,
            max_size=200,
        ),
    ))
    def test_equals_full_grid_scan_on_integer_shapes(self, values):
        assert_fit_equals_reference(values)

    @given(
        st.integers(2, 15),
        st.integers(1, 9),
        st.integers(0, 50).flatmap(
            lambda spread: st.lists(st.integers(0, spread), min_size=3, max_size=200)
        ),
    )
    def test_equals_full_grid_scan_on_near_constant_large_counts(
        self, exponent, leading, offsets
    ):
        # the grid variance of base + small offsets cancels to a few ulps
        assert_fit_equals_reference([float(leading * 10**exponent + k) for k in offsets])

    @given(st.lists(st.floats(1e110, 1e300), min_size=3, max_size=200))
    def test_equals_full_grid_scan_when_transform_overflows(self, values):
        assert_fit_equals_reference(values)

    def test_exact_likelihood_budget(self, monkeypatch):
        rng = np.random.default_rng(2)
        values = np.floor(np.exp(rng.normal(2.0, 1.0, size=700)))
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return _profile_loglik(*args)

        monkeypatch.setattr(scaling, "_profile_loglik", counting)
        assert fit_lambda(values) == reference_fit_lambda(values)
        assert len(calls) <= 40

    def test_screen_memory_is_bounded_by_row_blocks(self):
        values = np.random.default_rng(4).permutation(30_000).astype(np.float64)
        tracemalloc.start()
        try:
            fit_lambda(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_reproducible(self, rng):
        values = rng.integers(0, 300, size=200)
        assert fit_lambda(values) == fit_lambda(values)

    def test_loglik_matches_naive(self, rng):
        values = rng.integers(0, 100, size=50)
        log1p_v = np.log1p(values.astype(np.float64))
        for lam in (-2.5, -1.0, 0.0, 0.5, 2.0):
            assert _profile_loglik(log1p_v, float(log1p_v.sum()), lam) == pytest.approx(
                naive_loglik(values.tolist(), lam), rel=1e-9
            )


class TestScaleCorpus:
    def test_median_skips_zero_heavy_groups_corpus_wide(self):
        scored, skipped = scale_corpus({
            GroupKey("A", 2003): [0, 0, 0, 4],
            GroupKey("B", 2007): [0, 0, 5],
        }, ScalingMethod.MEDIAN)
        assert scored == {}
        assert {(s.group.category, s.group.year) for s in skipped} == {
            ("A", 2003), ("B", 2007)
        }
        assert all(s.reason == "zero-median" for s in skipped)
        assert sum(s.n_records for s in skipped) == 7

    def test_rescaled_category_collapses_exactly(self):
        base = [0, 1, 1, 2, 3, 5, 8, 13, 40]
        a, b = GroupKey("A", 2003), GroupKey("B", 2003)
        scored, skipped = scale_corpus(
            {a: base, b: [3 * v for v in base]}, ScalingMethod.MEAN
        )
        assert not skipped
        assert scored[a].tolist() == scored[b].tolist()

    def test_deterministic_order(self):
        scored, _ = scale_corpus({
            GroupKey("B", 2003): [5, 1],
            GroupKey("A", 2007): [2, 9],
            GroupKey("A", 2003): [7],
        }, ScalingMethod.MEAN_NO_ZERO)
        assert list(scored) == sorted(scored)
        # each vector keeps the order of its group's counts
        assert scored[GroupKey("B", 2003)].tolist() == [5 / 3, 1 / 3]

    def test_every_record_in_defined_groups_scaled_once(self):
        scored, skipped = scale_corpus({
            GroupKey("A", 2003): [0, 2, 4],
            GroupKey("B", 2003): [0, 0, 0],
        }, ScalingMethod.MEAN)
        assert sum(v.size for v in scored.values()) == 3
        assert len(skipped) == 1 and skipped[0].reason == "all-zero"

    def test_counts_beyond_int64_score(self):
        aii = scores([0, 10**20, 3 * 10**20], ScalingMethod.MEAN)
        assert aii.tolist() == [0.0, 0.75, 2.25]

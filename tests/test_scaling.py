import functools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from citescale import scaling
from citescale.corpus import GroupKey
from citescale.errors import EmptyGroupError
from citescale.scaling import (
    _GOLDEN_TOL,
    _INV_PHI,
    LAMBDA_BOUNDS,
    ScalingMethod,
    _batch_loglik,
    _batch_var,
    _fit_lambdas,
    _grid_candidates,
    _Packed,
    boxcox_transform,
    fit_factors,
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


def _profile_loglik(log1p_c: np.ndarray, sum_log1p: float, lam: float) -> float:
    """Profile log-likelihood of the shifted power transform, over precomputed
    ``log1p(c)`` and its sum.

    ``LL(lam) = -(n/2) * ln(var(T(c))) + (lam - 1) * sum(ln(c + 1))`` where
    the variance is the maximum-likelihood (n-denominator) variance of the
    transformed values.
    """
    t = log1p_c if lam == 0.0 else np.expm1(lam * log1p_c) / lam
    var = float(t.var())
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return -0.5 * log1p_c.size * math.log(var) + (lam - 1.0) * sum_log1p


def _golden_max(f, a: float, b: float) -> float:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_fit_lambda(values):
    """Exact 601-point grid scan plus scalar golden refinement, one group at
    a time with ``ndarray.var``: the oracle that _fit_lambdas must reproduce
    bit for bit."""
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
        assert _fit_lambdas([values])[0] == reference_fit_lambda(values)


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
        t = boxcox_transform([0, 1, 2, 5, 12, 40], factors.lam)
        assert factors.denom_num == float(t.mean()) > 0 and factors.denom_den == 1.0

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

    @given(
        st.sampled_from(ScalingMethod),
        st.one_of(
            st.lists(st.integers(0, 60), min_size=1, max_size=80),
            st.lists(st.integers(0, 10**20), min_size=1, max_size=80),
            st.lists(st.floats(1e110, 1e300), min_size=3, max_size=40),
        ),
    )
    def test_one_formula_equals_the_two_it_replaced(self, method, values):
        # (T(c) * den) / num with T the identity, or with den == 1.0 for the
        # power transform, gives the bytes of the two per-method formulas
        c = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):
            scored, _ = scale_corpus({A03: c}, method)
            f = fit_factors(A03, c, method)
            if not f.defined:
                assert A03 not in scored
                return
            if method is ScalingMethod.BOX_COX_MEAN:
                want = boxcox_transform(c, f.lam) / f.denom_num
            else:
                want = (c * f.denom_den) / f.denom_num
        assert scored[A03].tobytes() == want.tobytes()


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
        assert _fit_lambdas([[1, 2]])[0] is None

    def test_all_equal(self):
        assert _fit_lambdas([[4, 4, 4, 4]])[0] is None

    def test_result_is_clamped(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            values = rng.integers(0, 500, size=n)
            if np.all(values == values[0]):
                continue
            lam = _fit_lambdas([values])[0]
            assert -3.0 <= lam <= 3.0

    def test_extreme_shape_pins_lower_bound(self):
        # data generated by inverting the transform at a parameter below -3:
        # the in-range likelihood is maximal at the boundary, so the fit must
        # clamp at exactly -3 (boundary values are reported as such)
        rng = np.random.default_rng(3)
        z = np.clip(rng.normal(0.2, 0.012, 400), None, 0.2499)
        c = (1.0 - 4.0 * z) ** (-0.25) - 1.0
        assert _fit_lambdas([c])[0] == -3.0

    def test_recovers_half_from_inverted_transform(self):
        rng = np.random.default_rng(7)
        z = np.clip(rng.normal(6.0, 1.4, size=5000), 0.0, None)
        c = (1.0 + 0.5 * z) ** 2 - 1.0
        lam = _fit_lambdas([c])[0]
        assert 0.45 <= lam <= 0.55

    def test_lognormal_discretized_near_zero(self):
        rng = np.random.default_rng(11)
        c = np.floor(np.exp(rng.normal(2.0, 0.5, size=5000))) - 0.0
        lam = _fit_lambdas([c])[0]
        assert -0.1 <= lam <= 0.1

    def test_beats_dense_grid_oracle(self, rng):
        grid = np.round(np.arange(-3000, 3001) * 1e-3, 3)
        for _ in range(10):
            n = int(rng.integers(20, 120))
            values = rng.integers(0, 200, size=n)
            if np.all(values == values[0]):
                continue
            lam = _fit_lambdas([values])[0]
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
        # the screen leaves few exact grid evaluations, and the batch makes
        # one exact-likelihood call per search step, however many groups
        rng = np.random.default_rng(2)
        values = np.floor(np.exp(rng.normal(2.0, 1.0, size=700)))
        groups = [
            np.floor(np.exp(rng.normal(2.0, 1.0, size=int(rng.integers(40, 100)))))
            for _ in range(120)
        ]
        calls = []

        def counting(*args):
            calls.append(args[1].size)
            return _batch_loglik(*args)

        monkeypatch.setattr(scaling, "_batch_loglik", counting)
        assert _fit_lambdas([values])[0] == reference_fit_lambda(values)
        # grid candidates + 2 + one per golden step + 1 exact evaluations
        assert sum(calls) <= 40
        one = len(calls)
        calls.clear()
        _fit_lambdas(groups)
        assert len(calls) <= min(one + 2, 40)
        assert sum(calls) <= 40 * len(groups)

    def test_screen_memory_is_bounded_by_row_blocks(self):
        rng = np.random.default_rng(4)
        spread = rng.permutation(30_000).astype(np.float64)
        # grid variances cancel to a few ulps, so all 601 points are exact
        # candidates: 601 x 30,000 values must be taken in blocks
        near_constant = 9e12 + rng.integers(0, 50, size=30_000).astype(np.float64)
        log1p_v = np.log1p(near_constant)
        grid = np.linspace(*LAMBDA_BOUNDS, 601)
        assert _grid_candidates(log1p_v, float(log1p_v.sum()), grid).all()
        for values in (spread, near_constant):
            tracemalloc.start()
            try:
                _fit_lambdas([values])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20

    def test_reproducible(self, rng):
        values = rng.integers(0, 300, size=200)
        assert _fit_lambdas([values]) == _fit_lambdas([values])

    def test_loglik_matches_naive(self, rng):
        values = rng.integers(0, 100, size=50)
        lams = np.array([-2.5, -1.0, 0.0, 0.5, 2.0])
        ll = _batch_loglik(_Packed.of([values.astype(np.float64)]), np.zeros(5, int), lams)
        for lam, got in zip(lams, ll):
            assert got == pytest.approx(naive_loglik(values.tolist(), lam), rel=1e-9)

    @given(
        st.lists(
            st.one_of(
                st.lists(st.integers(0, 60), min_size=3, max_size=60),
                st.lists(st.integers(0, 10**6), min_size=3, max_size=60),
                st.lists(st.floats(1e110, 1e300), min_size=3, max_size=20),
                # fits at a bound of the interval, whose bracket is half-width
                st.lists(st.integers(0, 1), min_size=3, max_size=9),
                st.lists(st.integers(0, 60), min_size=1, max_size=2),
                st.builds(lambda c, n: [c] * n, st.integers(0, 100), st.integers(3, 9)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    # the first fit lies inside the half-width bracket at the lower bound,
    # whose search ends two steps before the others'
    @example([[0.291, 0.206, 0.495, 0.209, 1.166, 0.563], [0, 1, 2, 5, 12, 40]], Random(0))
    def test_batch_equals_each_vector_alone(self, vectors, random):
        order = list(range(len(vectors)))
        random.shuffle(order)
        with np.errstate(all="ignore"):
            want = [_fit_lambdas([v])[0] for v in vectors]
            batched = _fit_lambdas([vectors[i] for i in order])
            assert [batched[order.index(i)] for i in range(len(vectors))] == want
            keys = [GroupKey("A", 2000 + i) for i in range(len(vectors))]
            _, skipped = scale_corpus(dict(zip(keys, vectors)), ScalingMethod.BOX_COX_MEAN)
        degenerate = {s.group for s in skipped if s.reason == "degenerate-boxcox"}
        assert degenerate == {k for k, lam in zip(keys, want) if lam is None}


class TestPackedArithmetic:
    """The numpy facts that make the batched fit equal the per-group one."""

    LENGTHS = [*range(1, 301), 1000, 5000]

    def test_reduceat_over_a_zero_led_segment_is_reduce(self):
        rng = np.random.default_rng(8)
        parts = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7) for n in self.LENGTHS]
        lens = np.array(self.LENGTHS) + 1
        buf = np.concatenate([p for x in parts for p in (np.zeros(1), x)])
        sums = np.add.reduceat(buf, np.cumsum(lens) - lens)
        assert sums.tolist() == [np.add.reduce(x) for x in parts]

    def test_batch_variance_is_ndarray_var(self):
        rng = np.random.default_rng(9)
        vectors = [np.floor(np.exp(rng.normal(2.0, 1.5, n))) for n in self.LENGTHS]
        lams = rng.uniform(*LAMBDA_BOUNDS, len(vectors))
        lams[::7] = 0.0
        var = _batch_var(_Packed.of(vectors), np.arange(len(vectors)), lams)
        want = [
            float(boxcox_transform(v, lam).var()) for v, lam in zip(vectors, lams)
        ]
        assert var.tolist() == want


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

    def test_counts_near_int64_max_score(self):
        aii = scores([0, 2**61, 3 * 2**61], ScalingMethod.MEAN)
        assert aii.tolist() == [0.0, 0.75, 2.25]

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
from citescale.errors import CorpusValueError, EmptyGroupError
from citescale.scaling import (
    _GOLDEN_TOL,
    _INV_PHI,
    LAMBDA_BOUNDS,
    ScalingMethod,
    _batch_loglik,
    _batch_var,
    _Fit,
    _fit_lambdas,
    _power,
    scale_corpus,
)
from citescale.stats import _Segments

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


def reference_power(log1p_c, lam: float):
    """The shifted power transform ``T`` at ``log1p_c = log1p(c)``, for one
    ``lam``: ``expm1(lam * log1p_c) / lam``, and ``log1p_c`` itself at
    ``lam == 0``.  Written apart from ``scaling._power``, as its oracle."""
    return log1p_c if lam == 0.0 else np.expm1(lam * log1p_c) / lam


def _profile_loglik(log1p_c: np.ndarray, sum_log1p: float, lam: float) -> float:
    """Profile log-likelihood of the shifted power transform, over precomputed
    ``log1p(c)`` and its sum.

    ``LL(lam) = -(n/2) * ln(var(T(c))) + (lam - 1) * sum(ln(c + 1))`` where
    the variance is the maximum-likelihood (n-denominator) variance of the
    transformed values.
    """
    var = float(reference_power(log1p_c, lam).var())
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


def fit_of(vectors):
    """The fit of the vectors, over the layout of their ``log1p``, as
    ``scale_corpus`` builds it."""
    return _Fit(_Segments.of(np.log1p(np.asarray(v, dtype=np.float64)) for v in vectors))


def fit_lambdas(vectors):
    """``_fit_lambdas`` of each vector whose likelihood informs the fit (three
    values or more, not all equal), over the layout of their ``log1p``, and
    None for any other vector."""
    vs = [np.asarray(v, dtype=np.float64) for v in vectors]
    fit = [i for i, v in enumerate(vs) if v.size >= 3 and (v != v[0]).any()]
    lams = [None] * len(vs)
    fitted = _fit_lambdas(fit_of(vs[i] for i in fit)).tolist() if fit else []
    for i, lam in zip(fit, fitted):
        lams[i] = lam
    return lams


def assert_fit_equals_reference(values):
    assume(len(set(values)) > 1)
    with np.errstate(all="ignore"):
        assert fit_lambdas([values])[0] == reference_fit_lambda(values)


def scores(values, method):
    """One group's score vector, or None where the statistic is undefined."""
    scored, _ = scale_corpus({A03: values}, method)
    return scored.get(A03)


def scored_or_skipped(values, method):
    """One group's score list and skip reason; exactly one of them is None."""
    scored, skipped = scale_corpus({A03: values}, method)
    if not skipped:
        return scored[A03].tolist(), None
    (skip,) = skipped
    assert A03 not in scored and skip.group == A03 and skip.n_records == len(values)
    return None, skip.reason


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
    """Each method's divisor d of one group, pinned through its scores, or
    the reason the group is skipped where d is undefined."""

    def test_median_undefined_with_majority_zeros(self):
        got = scored_or_skipped([0, 0, 0, 4], ScalingMethod.MEDIAN)
        assert got == (None, "zero-median")

    def test_median_defined_at_exactly_half_zeros(self):
        got = scored_or_skipped([0, 0, 4, 4], ScalingMethod.MEDIAN)
        assert got == ([0.0, 0.0, 2.0, 2.0], None)  # d = 2

    def test_constant_mean(self):
        got = scored_or_skipped([9, 9, 9], ScalingMethod.MEAN)
        assert got == ([1.0, 1.0, 1.0], None)  # d = 9

    def test_mean_no_zero_small_vector(self):
        got = scored_or_skipped([0, 1, 2, 5, 12], ScalingMethod.MEAN_NO_ZERO)
        assert got == ([0.0, 0.2, 0.4, 1.0, 2.4], None)  # d = 5

    def test_max_range_constant_undefined(self):
        got = scored_or_skipped([9, 9, 9], ScalingMethod.MAX_RANGE)
        assert got == (None, "zero-range")

    def test_max_range_positive_minimum(self):
        got = scored_or_skipped([2, 6, 10], ScalingMethod.MAX_RANGE)
        assert got == ([0.25, 0.75, 1.25], None)  # d = 8

    def test_all_zero_group(self):
        reasons = {m: scored_or_skipped([0, 0, 0], m)[1] for m in ScalingMethod}
        assert reasons == {
            ScalingMethod.MAX_RANGE: "zero-range",
            ScalingMethod.MEAN: "all-zero",
            ScalingMethod.MEAN_NO_ZERO: "no-nonzero",
            ScalingMethod.BOX_COX_MEAN: "degenerate-boxcox",
            ScalingMethod.MEDIAN: "zero-median",
            ScalingMethod.MEDIAN_NO_ZERO: "no-nonzero",
        }

    def test_boxcox_degenerate_is_data_not_failure(self):
        got = scored_or_skipped([9, 9, 9], ScalingMethod.BOX_COX_MEAN)
        assert got == (None, "degenerate-boxcox")

    def test_boxcox_defined(self):
        values = [0, 1, 2, 5, 12, 40]
        lam = fit_lambdas([values])[0]
        assert -3.0 <= lam <= 3.0
        t = reference_power(np.log1p(values), lam)
        d = float(t.mean())
        assert d > 0
        got = scored_or_skipped(values, ScalingMethod.BOX_COX_MEAN)
        assert got == ((t / d).tolist(), None)

    def test_empty_vector(self, monkeypatch):
        # raised before any fit, naming the group, under every method
        monkeypatch.setattr(scaling, "_fit_lambdas", None)
        for method in ScalingMethod:
            with pytest.raises(EmptyGroupError, match="group A/2003: empty"):
                scale_corpus({A03: [], GroupKey("B", 2003): [1, 2, 3]}, method)

    @pytest.mark.parametrize("bad", [-5, -0.5, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_count(self, monkeypatch, bad):
        # neither skipped as a zero divisor nor scored: rejected before any
        # fit, naming the group, under every method
        monkeypatch.setattr(scaling, "_fit_lambdas", None)
        for method in ScalingMethod:
            with pytest.raises(CorpusValueError, match="group B/2003: citation count"):
                scale_corpus({A03: [0, 1, 2], GroupKey("B", 2003): [1, 2, bad]}, method)


class TestScale:
    def test_median_scaled_record_at_the_median_scores_one(self):
        assert scores([2, 9, 30], ScalingMethod.MEDIAN)[1] == 1.0

    def test_zero_citations_score_zero_under_every_method(self):
        values = [0, 1, 2, 5, 12, 40]
        for method in ScalingMethod:
            assert scores(values, method)[0] == 0.0, method

    def test_mean_scaling_small_vector(self):
        values = [0, 1, 2, 5, 12]
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
        lam = fit_lambdas([values])[0]
        t = reference_power(np.log1p(values), lam)
        expected = float(reference_power(np.log1p(5.0), lam)) / float(t.mean())
        got = scores(values, ScalingMethod.BOX_COX_MEAN)[3]
        assert got == pytest.approx(expected, rel=1e-15)

    @given(
        st.sampled_from(ScalingMethod),
        st.one_of(
            st.lists(st.integers(0, 60), min_size=1, max_size=80),
            st.lists(st.integers(0, 10**20), min_size=1, max_size=80),
            st.lists(st.floats(1e110, 1e300), min_size=3, max_size=40),
            # the boxcox scores gather distinct values: -0.0 keeps its sign
            st.lists(st.sampled_from([-0.0, 0.0, 1.0, 4.0]), min_size=1, max_size=40),
        ),
    )
    @example(ScalingMethod.BOX_COX_MEAN, [-0.0, 0.0, 1.0, 4.0, 0.0, -0.0, 2.0])
    def test_one_formula_equals_the_two_it_replaced(self, method, values):
        # (T(c) * den) / num with T the identity, or with den == 1.0 for the
        # power transform, gives the bytes of the two per-method formulas
        c = np.array(values, dtype=np.float64)
        # the ratio divisors are statistics of the sorted counts
        srt = np.sort(c)
        nz = srt[srt > 0]
        den = 1.0
        with np.errstate(all="ignore"):
            scored, _ = scale_corpus({A03: c}, method)
            if method is ScalingMethod.BOX_COX_MEAN:
                lam = fit_lambdas([c])[0]
                if lam is None:
                    assert A03 not in scored
                    return
                t = np.log1p(c) if lam == 0.0 else np.expm1(lam * np.log1p(c)) / lam
                num = float(t.mean())
            elif method is ScalingMethod.MAX_RANGE:
                num = float(c.max() - c.min())
            elif method is ScalingMethod.MEAN:
                num, den = float(srt.sum()), float(c.size)
            elif method is ScalingMethod.MEAN_NO_ZERO:
                num, den = float(nz.sum()), float(nz.size)
            elif method is ScalingMethod.MEDIAN:
                num = float(np.median(c))
            else:
                num = float(np.median(nz)) if nz.size else 0.0
            if num <= 0.0:
                assert A03 not in scored
                return
            if method is ScalingMethod.BOX_COX_MEAN:
                want = t / num
            else:
                want = (c * den) / num
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

    @given(
        st.lists(st.integers(0, 60) | st.integers(0, 2**62), min_size=1, max_size=200),
        st.randoms(use_true_random=False),
    )
    # shuffled to [1, 1, 2**53]: summed in record order, only that sum is exact
    @example([2**53, 1, 1], Random(0))
    def test_permuting_a_group_keeps_its_sorted_ratio_scores(self, values, random):
        # the boxcox fit sums in record order, so its scores can move (see README)
        shuffled = random.sample(values, len(values))
        for method in RATIO_METHODS:
            got, want = scores(shuffled, method), scores(values, method)
            assert (got is None) == (want is None), method
            if want is not None:
                assert np.sort(got).tobytes() == np.sort(want).tobytes(), method


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
        lams = np.array([-3.0, -0.5, 0.0, 0.7, 3.0])
        assert _power(np.zeros(lams.size), lams).tolist() == [0.0] * lams.size

    @given(
        st.floats(0.0, 1e6, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_non_negative_on_counts(self, c, lam):
        assert float(_power(np.log1p([c]), np.array([lam]))[0]) >= 0.0

    def test_log_limit_at_zero_lambda(self):
        x = np.log1p(np.array([0, 1, 5, 100]))
        assert np.allclose(_power(x, np.full(x.size, 0.0)), x)
        assert np.allclose(_power(x, np.full(x.size, 1e-9)), x, rtol=1e-6)

    def test_column_form_is_the_per_element_form_bit_for_bit(self):
        # the grid screen transforms one row per grid lam, its lam == 0 row
        # assigned by index; the fit and the scores, one lam per element
        counts = np.concatenate([np.arange(250.0), np.floor(2.0 ** np.linspace(8, 62, 251))])
        x = np.log1p(counts)
        grid = np.linspace(*LAMBDA_BOUNDS, 601)
        assert counts.max() == 2.0**62 and (grid == 0.0).sum() == 1
        column = _power(x, grid[:, None], np.empty((grid.size, x.size)))
        each = _power(np.tile(x, grid.size), np.repeat(grid, x.size))
        assert np.array_equal(column.view(np.int64).ravel(), each.view(np.int64))


class TestFitLambda:
    def test_too_short(self):
        got = scored_or_skipped([1, 2], ScalingMethod.BOX_COX_MEAN)
        assert got == (None, "degenerate-boxcox")

    def test_all_equal(self):
        got = scored_or_skipped([4, 4, 4, 4], ScalingMethod.BOX_COX_MEAN)
        assert got == (None, "degenerate-boxcox")

    def test_result_is_clamped(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            values = rng.integers(0, 500, size=n)
            if np.all(values == values[0]):
                continue
            lam = fit_lambdas([values])[0]
            assert -3.0 <= lam <= 3.0

    def test_extreme_shape_pins_lower_bound(self):
        # data generated by inverting the transform at a parameter below -3:
        # the in-range likelihood is maximal at the boundary, so the fit must
        # clamp at exactly -3 (boundary values are reported as such)
        rng = np.random.default_rng(3)
        z = np.clip(rng.normal(0.2, 0.012, 400), None, 0.2499)
        c = (1.0 - 4.0 * z) ** (-0.25) - 1.0
        assert fit_lambdas([c])[0] == -3.0

    def test_recovers_half_from_inverted_transform(self):
        rng = np.random.default_rng(7)
        z = np.clip(rng.normal(6.0, 1.4, size=5000), 0.0, None)
        c = (1.0 + 0.5 * z) ** 2 - 1.0
        lam = fit_lambdas([c])[0]
        assert 0.45 <= lam <= 0.55

    def test_lognormal_discretized_near_zero(self):
        rng = np.random.default_rng(11)
        c = np.floor(np.exp(rng.normal(2.0, 0.5, size=5000))) - 0.0
        lam = fit_lambdas([c])[0]
        assert -0.1 <= lam <= 0.1

    def test_beats_dense_grid_oracle(self, rng):
        grid = np.round(np.arange(-3000, 3001) * 1e-3, 3)
        for _ in range(10):
            n = int(rng.integers(20, 120))
            values = rng.integers(0, 200, size=n)
            if np.all(values == values[0]):
                continue
            lam = fit_lambdas([values])[0]
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
        assert fit_lambdas([values])[0] == reference_fit_lambda(values)
        # grid candidates + 2 + one per golden step + 1 exact evaluations
        assert sum(calls) <= 40
        one = len(calls)
        calls.clear()
        fit_lambdas(groups)
        assert len(calls) <= min(one + 2, 40)
        assert sum(calls) <= 40 * len(groups)

    def test_screen_memory_is_bounded_by_row_blocks(self, monkeypatch):
        rng = np.random.default_rng(4)
        spread = rng.permutation(30_000).astype(np.float64)
        # grid variances cancel to a few ulps, so all 601 points are exact
        # candidates: 601 x 30,000 values must be taken in blocks
        near_constant = 9e12 + rng.integers(0, 50, size=30_000).astype(np.float64)
        masks, screen = [], scaling._grid_candidates
        monkeypatch.setattr(
            scaling, "_grid_candidates", lambda *args: masks.append(screen(*args)) or masks[-1]
        )
        fit_lambdas([near_constant])
        assert len(masks) == 1 and masks[0].all()
        for values in (spread, near_constant):
            tracemalloc.start()
            try:
                fit_lambdas([values])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20

    def test_reproducible(self, rng):
        values = rng.integers(0, 300, size=200)
        assert fit_lambdas([values]) == fit_lambdas([values])

    def test_loglik_matches_naive(self, rng):
        values = rng.integers(0, 100, size=50)
        lams = np.array([-2.5, -1.0, 0.0, 0.5, 2.0])
        ll = _batch_loglik(fit_of([values]).select(np.zeros(5, int)), lams)
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
                # heavy ties, and -0.0 beside 0.0
                st.lists(st.integers(0, 3), min_size=3, max_size=200),
                st.lists(st.sampled_from([-0.0, 0.0, 1.0, 4.0]), min_size=3, max_size=60),
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
            want = [fit_lambdas([v])[0] for v in vectors]
            batched = fit_lambdas([vectors[i] for i in order])
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
        seg = _Segments.of(parts)
        want = [np.add.reduce(x) for x in parts]
        assert seg.sums(seg.values).tolist() == want
        # the spare-slot layout that the fit's blocks gather
        led = seg.take(np.arange(len(parts)))
        assert led.sums(led.values).tolist() == want

    def test_batch_variance_is_ndarray_var(self):
        rng = np.random.default_rng(9)
        vectors = [np.floor(np.exp(rng.normal(2.0, 1.5, n))) for n in self.LENGTHS]
        lams = rng.uniform(*LAMBDA_BOUNDS, len(vectors))
        lams[::7] = 0.0
        var = _batch_var(fit_of(vectors).select(np.arange(len(vectors))), lams)
        want = [
            float(reference_power(np.log1p(v), lam).var()) for v, lam in zip(vectors, lams)
        ]
        assert var.tolist() == want

    @given(
        st.lists(
            st.one_of(
                st.lists(st.integers(0, 3), min_size=1, max_size=200),
                st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=1, max_size=40),
                st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
                # counts whose transform overflows at lam > 1
                st.lists(st.floats(1e250, 1e300), min_size=1, max_size=20),
            ),
            min_size=1,
            max_size=8,
        ),
        st.data(),
    )
    def test_batch_variance_is_each_ndarray_var_bit_for_bit(self, vectors, data):
        # every group in order, as the golden steps select them, and any
        # groups in any order, repeats included, as the grid candidates'
        # blocks do
        n = len(vectors)
        lams = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(*LAMBDA_BOUNDS)), min_size=n, max_size=n
        )))
        subset = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        fit = fit_of(vectors)
        with np.errstate(all="ignore"):
            want = np.array([
                reference_power(np.log1p(v), lam).var() for v, lam in zip(vectors, lams)
            ])
            every = _batch_var(fit.select(np.arange(n)), lams)
            some = _batch_var(fit.select(np.array(subset, dtype=np.intp)), lams[subset])
        assert every.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert some.view(np.int64).tolist() == want[subset].view(np.int64).tolist()


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

    @pytest.mark.parametrize(
        "citations", [{}, {A03: [1, 2, 3]}], ids=["no-groups", "one-group"]
    )
    @pytest.mark.parametrize("method", ["bogus", "mean", None])
    def test_unknown_method_is_value_error(self, citations, method):
        with pytest.raises(ValueError, match="unknown scaling method"):
            scale_corpus(citations, method)

    def test_boxcox_scoring_transforms_each_scored_group_once(self, monkeypatch):
        logs, transformed = [], []
        log1p, power = np.log1p, scaling._power
        monkeypatch.setattr(np, "log1p", lambda c: logs.append(log1p(c)) or logs[-1])
        monkeypatch.setattr(
            scaling, "_power", lambda x, lam, *out: transformed.append(x.copy()) or power(x, lam, *out)
        )
        fitted = [[0, 1, 2, 5, 12, 40], [0, 3, 3, 7]]
        scored, skipped = scale_corpus({
            GroupKey("A", 2003): fitted[0],
            GroupKey("B", 2003): [9, 9, 9],
            GroupKey("C", 2003): fitted[1],
        }, ScalingMethod.BOX_COX_MEAN)
        assert [s.reason for s in skipped] == ["degenerate-boxcox"]
        assert sorted(v.size for v in scored.values()) == [4, 6]
        # one log1p of the 10 records of the two fitted groups, none of the
        # degenerate one; the scores transform the fitted groups' 9 distinct
        # values once, last, and no call transforms the records
        assert [x.size for x in logs] == [sum(v.size for v in scored.values())] == [10]
        distinct = np.concatenate([np.unique(log1p(np.array(v, float))) for v in fitted])
        assert distinct.size == 9
        assert sum(x.tolist() == distinct.tolist() for x in transformed) == 1
        assert transformed[-1].tolist() == distinct.tolist()
        assert all(x.tolist() != logs[0].tolist() for x in transformed)

    def test_each_golden_step_transforms_each_distinct_value_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        citations = {
            GroupKey("A", 2000 + g): rng.integers(0, 5 + g, size=300).astype(np.float64)
            for g in range(4)
        }
        distinct = [np.unique(np.log1p(v)) for _, v in sorted(citations.items())]
        records = sum(v.size for v in citations.values())
        shapes, selections = [], []
        expm1, select = np.expm1, _Fit.select
        monkeypatch.setattr(
            np, "expm1", lambda x, *args, **kw: shapes.append(np.shape(x)) or expm1(x, *args, **kw)
        )
        monkeypatch.setattr(
            _Fit, "select", lambda fit, groups: selections.append(groups.tolist()) or select(fit, groups)
        )
        scale_corpus(citations, ScalingMethod.BOX_COX_MEAN)
        # two selections: the exact grid candidates' block, then every group
        # (the screen's calls are 2-D); then the opening pair, 31 golden steps
        # from a 0.02-wide bracket down to 1e-8 and the final check each
        # transform the 26 distinct (group, value) pairs once, each group
        # led by its spare slot, and the scores the 26 pairs, not the 1,200
        # records
        sizes = [shape[0] for shape in shapes if len(shape) == 1]
        n_distinct = sum(d.size for d in distinct)
        assert len(selections) == 2 and selections[-1] == [0, 1, 2, 3]
        assert (n_distinct, records) == (26, 1200)
        assert sizes[1:] == [n_distinct + len(distinct)] * 34 + [n_distinct]

    def test_power_reads_only_distinct_values(self, monkeypatch):
        # the grid screen transforms one group's distinct values at a time;
        # every exact evaluation, the grid candidates' blocks included,
        # transforms selected groups' distinct values, each segment led by
        # its spare slot, and the scores every group's distinct values: no
        # call sees a group's records, and one log1p reads the fitted ones
        rng = np.random.default_rng(5)
        citations = {
            GroupKey("A", 2000 + g): rng.integers(0, 5 + g, size=300) + 100.0 * g
            for g in range(4)
        }
        # counts of 1,000 or more: the screen cannot certify the group, so
        # all 601 grid points are exact candidates, in several blocks
        citations[GroupKey("B", 2000)] = rng.integers(0, 40, size=2000) + 1000.0
        fitted = sorted(citations.items())
        citations[GroupKey("C", 2000)] = np.full(3, 9.0)
        # the groups' values do not overlap, so a level names its group
        distinct = [np.unique(np.log1p(v)) for _, v in fitted]
        owner = {u: g for g, d in enumerate(distinct) for u in d.tolist()}
        logs, screened, evaluated = [], [], []
        log1p, power = np.log1p, scaling._power

        def recording(x, lam, *out):
            (screened if np.ndim(lam) == 2 else evaluated).append(x.copy())
            return power(x, lam, *out)

        monkeypatch.setattr(np, "log1p", lambda c: logs.append(c.size) or log1p(c))
        monkeypatch.setattr(scaling, "_power", recording)
        scored, skipped = scale_corpus(citations, ScalingMethod.BOX_COX_MEAN)
        assert [skip.reason for skip in skipped] == ["degenerate-boxcox"]
        assert list(scored) == [key for key, _ in fitted]
        assert logs == [sum(v.size for _, v in fitted)]
        assert [x.tolist() for x in screened] == [d.tolist() for d in distinct]
        assert evaluated[-1].tolist() == np.concatenate(distinct).tolist()
        selections = []
        for x in evaluated[:-1]:
            groups, at = [], 0
            while at < x.size:
                g = owner[x[at]]
                segment = np.concatenate(([distinct[g][0]], distinct[g]))
                assert x[at:at + segment.size].tolist() == segment.tolist()
                groups.append(g)
                at += segment.size
            selections.append(groups)
        every = list(range(len(distinct)))
        blocks = [groups for groups in selections if groups != every]
        # the opening pair, a golden step or more, and the final check
        assert selections[-1] == every and len(selections) - len(blocks) > 3
        assert sum(groups.count(4) for groups in blocks) == 601
        assert len(blocks) > 1 and all(len(groups) > 1 for groups in blocks)

    @pytest.mark.parametrize("method", list(ScalingMethod))
    @given(st.dictionaries(
        st.builds(GroupKey, st.sampled_from("ABC"), st.integers(2000, 2003)),
        st.one_of(
            st.lists(st.integers(0, 3), min_size=1, max_size=30),
            st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
            st.builds(lambda c, n: [c] * n, st.integers(0, 5), st.integers(1, 5)),
        ),
        max_size=8,
    ))
    def test_every_group_is_scored_or_skipped_once(self, method, citations):
        scored, skipped = scale_corpus(citations, method)
        skipped_keys = [skip.group for skip in skipped]
        assert sorted([*scored, *skipped_keys]) == sorted(citations)
        for skip in skipped:
            assert skip.n_records == len(citations[skip.group])
        for key, aii in scored.items():
            assert aii.size == len(citations[key])

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import log_ndtr as scipy_log_ndtr

from citescale.corpus import GroupKey
from citescale.gof import (
    MIN_SAMPLE,
    P_BRACKETS,
    GofReport,
    ad_lognormal,
    log_ndtr,
    p_bracket,
)
from citescale.scaling import SkippedGroup


def a2_naive(values, threshold):
    """Direct-formula oracle: plain loops and the error function."""
    used = sorted(v for v in values if v >= threshold)
    n = len(used)
    logs = [math.log(v) for v in used]
    mu = sum(logs) / n
    sd = math.sqrt(sum((x - mu) ** 2 for x in logs) / (n - 1))
    z = [(x - mu) / sd for x in logs]

    def phi(t):
        return 0.5 * math.erfc(-t / math.sqrt(2.0))

    s = 0.0
    for i in range(1, n + 1):
        s += (2 * i - 1) * (math.log(phi(z[i - 1])) + math.log(1.0 - phi(z[n - i])))
    return -n - s / n


def ad_oracle(scores, threshold):
    """ad_lognormal as one loop over the groups: the reference that the
    whole-array version must equal bit for bit."""
    skipped, reports = [], {}
    for key, values in scores.items():
        v = np.asarray(values, dtype=np.float64)
        used = np.sort(v[v >= threshold])
        if used.size < MIN_SAMPLE:
            skipped.append(SkippedGroup(key, v.size, "too-few-values"))
            continue
        logs = np.log(used)
        mu = float(logs.mean())
        sigma = float(logs.std(ddof=1))
        if sigma == 0.0:
            skipped.append(SkippedGroup(key, v.size, "all-values-equal"))
            continue
        z = (logs - mu) / sigma
        n = z.size
        i = np.arange(1, n + 1, dtype=np.float64)
        terms = (2.0 * i - 1.0) * (log_ndtr(z) + log_ndtr(-z)[::-1])
        a2 = -n - float(terms.sum()) / n
        a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
        reports[key] = GofReport(n, threshold, mu, sigma, a2, a2_star, p_bracket(a2_star))
    return reports, skipped


# many groups of scores c / d: ties, values below the threshold, all-equal
# groups, and surviving sizes around MIN_SAMPLE
scored_groups = st.lists(
    st.tuples(
        st.lists(st.integers(0, 12), min_size=0, max_size=14)
        | st.tuples(st.integers(1, 9), st.integers(6, 12)).map(lambda cn: [cn[0]] * cn[1]),
        st.sampled_from([1.0, 3.0, 7.5, 0.37, 11.0 / 3.0, 1e-3]),
    ),
    min_size=0, max_size=40,
).map(lambda groups: {
    GroupKey("G", j): np.array(c, dtype=np.float64) / d for j, (c, d) in enumerate(groups)
})


PINNED = [0.31, 0.5, 0.77, 1.02, 1.3, 1.3, 2.4, 3.8, 5.9, 14.2]
KEY = GroupKey("A", 2003)


def ad_one(values, threshold):
    """The report of one group tested on its own."""
    reports, skipped = ad_lognormal({KEY: values}, threshold)
    assert skipped == []
    return reports[KEY]


class TestStatistic:
    def test_pinned_sample_matches_direct_formula(self):
        report = ad_one(PINNED, threshold=0.1)
        assert report.a_squared == pytest.approx(
            a2_naive(PINNED, 0.1), abs=1e-9
        )
        assert report.n_used == 10
        assert report.a_squared > 0
        factor = 1 + 0.75 / 10 + 2.25 / 100
        assert report.a_squared_star == pytest.approx(report.a_squared * factor)

    def test_threshold_filters_before_fitting(self):
        values = [0.01, 0.05] + PINNED
        report = ad_one(values, threshold=0.1)
        assert report.n_used == 10
        assert report.a_squared == pytest.approx(a2_naive(PINNED, 0.1), abs=1e-9)

    def test_sorting_invariance_exact(self):
        shuffled = [PINNED[i] for i in (7, 2, 9, 0, 4, 1, 8, 3, 6, 5)]
        a = ad_one(PINNED, 0.1)
        b = ad_one(shuffled, 0.1)
        assert a.a_squared == b.a_squared
        assert a.mu_hat == b.mu_hat and a.sigma_hat == b.sigma_hat

    def test_scale_invariance(self):
        a = ad_one(PINNED, 0.1)
        scaled = [17.0 * v for v in PINNED]
        b = ad_one(scaled, 17.0 * 0.1)
        assert b.a_squared == pytest.approx(a.a_squared, abs=1e-9)
        assert b.p_bracket == a.p_bracket
        assert b.sigma_hat == pytest.approx(a.sigma_hat, abs=1e-12)
        assert b.mu_hat == pytest.approx(a.mu_hat + math.log(17.0), abs=1e-12)

    def test_insufficient_sample(self):
        reports, skipped = ad_lognormal({KEY: [1.0] * 7 + [0.01]}, threshold=0.1)
        assert reports == {}
        assert skipped == [SkippedGroup(KEY, 8, "too-few-values")]

    def test_degenerate_equal_values(self):
        reports, skipped = ad_lognormal({KEY: [2.0] * 12}, threshold=0.1)
        assert reports == {}
        assert skipped == [SkippedGroup(KEY, 12, "all-values-equal")]

    def test_nan_threshold_is_value_error(self):
        with pytest.raises(ValueError, match="threshold must be a number, got nan"):
            ad_lognormal({KEY: [1.0] * 8 + [2.0]}, threshold=math.nan)

    def test_infinite_threshold_is_value_error_but_minus_inf_filters_nothing(self):
        scores = {KEY: [1.0] * 8 + [2.0]}
        with pytest.raises(ValueError, match="threshold must be a number, got inf"):
            ad_lognormal(scores, threshold=math.inf)
        reports, skipped = ad_lognormal(scores, threshold=-math.inf)
        (report,) = ad_lognormal(scores, threshold=0.0)[0].values()
        assert reports == {KEY: replace(report, threshold=-math.inf)} and skipped == []

    def test_non_positive_after_filter(self):
        with pytest.raises(ValueError, match="group A/2003: values must be positive"):
            ad_lognormal({KEY: [0.0, 1.0, 2.0] + [1.0] * 8}, threshold=0.0)

    def test_lognormal_sample_usually_accepted(self):
        rng = np.random.default_rng(8)
        values = np.exp(rng.normal(1.0, 0.6, size=500))
        report = ad_one(values, threshold=0.1)
        assert report.p_bracket in (">0.25", "0.10-0.25")

    def test_grossly_non_lognormal_rejected(self):
        values = [0.5] * 100 + [80.0] * 100
        report = ad_one(values, threshold=0.1)
        assert report.p_bracket == "<0.005"

    def test_groups_keep_input_order_and_skips_are_listed(self):
        scores = {
            GroupKey("B", 2007): [2.0] * 9,
            GroupKey("A", 2007): PINNED,
            GroupKey("A", 2003): [1.0, 3.0],
            GroupKey("B", 2003): [17.0 * v for v in PINNED],
        }
        reports, skipped = ad_lognormal(scores, 0.1)
        assert list(reports) == [GroupKey("A", 2007), GroupKey("B", 2003)]
        assert reports[GroupKey("A", 2007)] == ad_one(PINNED, 0.1)
        assert [(sk.group, sk.reason) for sk in skipped] == [
            (GroupKey("B", 2007), "all-values-equal"),
            (GroupKey("A", 2003), "too-few-values"),
        ]
        assert ad_lognormal({}, 0.1) == ({}, [])

    @given(
        st.lists(
            st.lists(st.floats(0.05, 1e4), min_size=0, max_size=40),
            min_size=1, max_size=6,
        ),
        st.integers(0, 5),
    )
    def test_report_does_not_depend_on_the_other_groups(self, groups, pick):
        pick %= len(groups)
        key = GroupKey("G", pick)
        batch = {GroupKey("G", j): np.array(v) for j, v in enumerate(groups)}
        alone = ad_lognormal({key: batch[key]}, 0.1)
        together = ad_lognormal(batch, 0.1)
        assert alone[0].get(key) == together[0].get(key)
        assert alone[1] == [sk for sk in together[1] if sk.group == key]


class TestBatch:
    @given(scored_groups, st.sampled_from([0.1, 0.5, 2.0]))
    def test_matches_the_per_group_loop(self, scores, threshold):
        assert ad_lognormal(scores, threshold) == ad_oracle(scores, threshold)

    def test_long_groups_match_the_per_group_loop(self):
        # pairwise sums change shape past 8 and 128 values
        rng = np.random.default_rng(3)
        scores = {
            GroupKey("L", n): (1.0 + np.floor(np.exp(rng.normal(1.5, 1.2, n)))) / 3.7
            for n in (9, 120, 129, 300, 1000, 5000)
        }
        reports, skipped = ad_lognormal(scores)
        assert (reports, skipped) == ad_oracle(scores, 0.1)
        assert len(reports) == 6

    def test_a_skipped_group_beside_a_tested_one_stays_out_of_it(self):
        # at threshold 0 the skipped group's zeros survive, right before the
        # tested group's values; none of them may be logged
        scores = {GroupKey("A", 1): [0.0, 0.0], GroupKey("B", 1): PINNED}
        assert ad_lognormal(scores, threshold=0.0) == ad_oracle(scores, 0.0)

    def test_non_positive_value_names_the_first_tested_group(self):
        scores = {
            GroupKey("A", 1): [0.0, 1.0],  # too few: skipped before the check
            GroupKey("B", 1): [0.0, 1.0, 2.0] + [1.0] * 8,
            GroupKey("C", 1): [-1.0] + [1.0] * 9,
        }
        with pytest.raises(ValueError, match="group B/1: values must be positive"):
            ad_lognormal(scores, threshold=-5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_group(self, bad):
        scores = {GroupKey("A", 1): [1.0] * 9, GroupKey("B", 1): [bad] + [2.0] * 9}
        with pytest.raises(ValueError, match="group B/1: score .* is not finite"):
            ad_lognormal(scores)


class TestBrackets:
    def test_large_statistic_maps_to_smallest_bracket(self):
        assert p_bracket(3.291) == "<0.005"

    def test_boundary_mapping(self):
        assert p_bracket(0.470) == ">0.25"
        assert p_bracket(0.4701) == "0.10-0.25"
        assert p_bracket(0.752) == "0.05-0.10"
        assert p_bracket(0.7521) == "0.025-0.05"
        assert p_bracket(1.159) == "0.005-0.01"
        assert p_bracket(1.16) == "<0.005"

    def test_monotone_no_weaker_bracket_for_larger_statistic(self):
        grid = np.linspace(0.01, 4.0, 500)
        ranks = [P_BRACKETS.index(p_bracket(a)) for a in grid]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


class TestCalibration:
    def test_rejection_rate_near_nominal_five_percent(self):
        rng = np.random.default_rng(20120470)
        rejections = 0
        trials = 400
        for _ in range(trials):
            values = np.exp(rng.normal(1.0, 0.6, size=200))
            report = ad_one(values, threshold=0.1)
            if report.a_squared_star > 0.752:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09


def assert_close_to_scipy(x):
    """log_ndtr against scipy.special.log_ndtr, within 8 units in the last
    place of max(1, |reference|): the two use different erfc approximations,
    so bit identity is not expected."""
    ours, ref = log_ndtr(x), scipy_log_ndtr(x)
    tolerance = 8.0 * np.spacing(np.maximum(1.0, np.abs(ref)))
    worst = np.argmax(np.abs(ours - ref) / tolerance)
    assert np.all(np.abs(ours - ref) <= tolerance), (x[worst], ours[worst], ref[worst])


class TestLogNdtr:
    def test_matches_scipy_on_a_dense_grid(self):
        assert_close_to_scipy(np.linspace(-40.0, 40.0, 160_001))

    def test_matches_scipy_on_normal_draws(self):
        # log Phi(z) and log(1 - Phi(z)) = log Phi(-z), as ad_lognormal uses them
        rng = np.random.default_rng(1974)
        for scale in (0.5, 1.0, 3.0, 10.0, 40.0):
            z = rng.normal(0.0, scale, size=2000)
            assert_close_to_scipy(z)
            assert_close_to_scipy(-z)

    @given(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=50))
    def test_matches_scipy_on_finite_values(self, z):
        assert_close_to_scipy(np.array(z))

    def test_limits(self):
        got = log_ndtr(np.array([-np.inf, -1e300, np.nan, 1e300, np.inf]))
        assert got[:2].tolist() == [-np.inf, -np.inf]
        assert np.isnan(got[2])
        assert got[3:].tolist() == [0.0, 0.0]

import math

import numpy as np
import pytest
from scipy.stats import norm

from citescale.errors import InsufficientSampleError
from citescale.gof import P_BRACKETS, ad_lognormal, log_ndtr, p_bracket


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


PINNED = [0.31, 0.5, 0.77, 1.02, 1.3, 1.3, 2.4, 3.8, 5.9, 14.2]


class TestStatistic:
    def test_pinned_sample_matches_direct_formula(self):
        report = ad_lognormal(PINNED, threshold=0.1)
        assert report.a_squared == pytest.approx(
            a2_naive(PINNED, 0.1), abs=1e-9
        )
        assert report.n_used == 10
        assert report.a_squared > 0
        factor = 1 + 0.75 / 10 + 2.25 / 100
        assert report.a_squared_star == pytest.approx(report.a_squared * factor)

    def test_threshold_filters_before_fitting(self):
        values = [0.01, 0.05] + PINNED
        report = ad_lognormal(values, threshold=0.1)
        assert report.n_used == 10
        assert report.a_squared == pytest.approx(a2_naive(PINNED, 0.1), abs=1e-9)

    def test_sorting_invariance_exact(self):
        shuffled = [PINNED[i] for i in (7, 2, 9, 0, 4, 1, 8, 3, 6, 5)]
        a = ad_lognormal(PINNED, 0.1)
        b = ad_lognormal(shuffled, 0.1)
        assert a.a_squared == b.a_squared
        assert a.mu_hat == b.mu_hat and a.sigma_hat == b.sigma_hat

    def test_scale_invariance(self):
        a = ad_lognormal(PINNED, 0.1)
        scaled = [17.0 * v for v in PINNED]
        b = ad_lognormal(scaled, 17.0 * 0.1)
        assert b.a_squared == pytest.approx(a.a_squared, abs=1e-9)
        assert b.p_bracket == a.p_bracket
        assert b.sigma_hat == pytest.approx(a.sigma_hat, abs=1e-12)
        assert b.mu_hat == pytest.approx(a.mu_hat + math.log(17.0), abs=1e-12)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            ad_lognormal([1.0] * 7 + [0.01], threshold=0.1)

    def test_degenerate_equal_values(self):
        with pytest.raises(InsufficientSampleError):
            ad_lognormal([2.0] * 12, threshold=0.1)

    def test_non_positive_after_filter(self):
        with pytest.raises(ValueError):
            ad_lognormal([0.0, 1.0, 2.0] + [1.0] * 8, threshold=0.0)

    def test_lognormal_sample_usually_accepted(self):
        rng = np.random.default_rng(8)
        values = np.exp(rng.normal(1.0, 0.6, size=500))
        report = ad_lognormal(values, threshold=0.1)
        assert report.p_bracket in (">0.25", "0.10-0.25")

    def test_grossly_non_lognormal_rejected(self):
        values = [0.5] * 100 + [80.0] * 100
        report = ad_lognormal(values, threshold=0.1)
        assert report.p_bracket == "<0.005"


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
            report = ad_lognormal(values, threshold=0.1)
            if report.a_squared_star > 0.752:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09


class TestLogNdtr:
    def test_matches_scipy_stats_norm_byte_for_byte(self):
        # the test evaluates log Phi(z) and log(1 - Phi(z)) through
        # scipy.special; scipy.stats.norm computes the same with more overhead
        rng = np.random.default_rng(1974)
        for scale in (0.5, 1.0, 3.0, 10.0, 40.0):
            z = rng.normal(0.0, scale, size=2000)
            assert log_ndtr(z).tobytes() == norm.logcdf(z).tobytes()
            assert log_ndtr(-z).tobytes() == norm.logsf(z).tobytes()

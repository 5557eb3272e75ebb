import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale.corpus import GroupKey, citation_vectors, group_records
from citescale.errors import EmptyGroupError
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.survival import (
    binned_survival,
    collapse_metrics,
    ks_statistic,
    log_binned_thresholds,
    survival_curve,
)
from citescale.synth import CategorySpec, generate, scaled_copy_scenario


def ks_brute(a, b):
    """All-thresholds counting oracle for the two-sample KS statistic."""
    best = 0.0
    for t in sorted(set(a) | set(b)):
        fa = sum(1 for x in a if x <= t) / len(a)
        fb = sum(1 for x in b if x <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestSurvivalCurve:
    def test_counting_example(self):
        curve = survival_curve([0, 1, 1, 3])
        assert curve.points == ((0.0, 1.0), (1.0, 0.75), (3.0, 0.25))

    def test_constant_vector_is_single_point(self):
        curve = survival_curve([7, 7, 7])
        assert curve.points == ((7.0, 1.0),)

    def test_empty(self):
        with pytest.raises(EmptyGroupError):
            survival_curve([])

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=50))
    def test_first_prob_is_one_and_probs_decrease(self, values):
        curve = survival_curve(values)
        probs = list(curve.probs)
        assert probs[0] == 1.0
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert all(0 < p <= 1 for p in probs)
        vals = list(curve.values)
        assert vals == sorted(set(float(v) for v in values))

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    def test_probs_match_counting(self, values):
        curve = survival_curve(values)
        n = len(values)
        for v, p in curve.points:
            assert p == sum(1 for x in values if x >= v) / n


class TestKs:
    def test_pinned_samples_match_brute_force(self):
        a = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        b = [0, 0, 1, 2, 2, 4, 9, 9, 20, 50]
        got = ks_statistic(survival_curve(a), survival_curve(b))
        assert got == ks_brute(a, b)

    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=25),
        st.lists(st.integers(0, 15), min_size=1, max_size=25),
    )
    def test_matches_brute_force(self, a, b):
        got = ks_statistic(survival_curve(a), survival_curve(b))
        assert got == pytest.approx(ks_brute(a, b), abs=1e-15)

    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=25),
        st.lists(st.integers(0, 15), min_size=1, max_size=25),
    )
    def test_symmetry(self, a, b):
        ca, cb = survival_curve(a), survival_curve(b)
        assert ks_statistic(ca, cb) == ks_statistic(cb, ca)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=25))
    def test_self_distance_zero(self, a):
        curve = survival_curve(a)
        assert ks_statistic(curve, curve) == 0.0


class TestCollapseMetrics:
    def test_identical_samples_collapse_exactly(self):
        sample = [0, 1, 2, 2, 5, 9, 30]
        curves = [
            survival_curve(sample, group=GroupKey(c, 2003)) for c in "ABCD"
        ]
        report = collapse_metrics(curves)
        assert report.max_pairwise_ks == 0.0
        for d in report.quantile_dispersion:
            assert d.spread == 0.0
            assert d.n_excluded_zero == 0

    def test_rescaled_copy_after_mean_scaling_collapses(self):
        base = CategorySpec(
            "A", 2003, 500, "discretized-lognormal", (1.5, 1.2),
            zero_inflation=0.2,
        )
        corpus = generate(scaled_copy_scenario(base, k=3, seed=99))
        raw = citation_vectors(group_records(corpus))
        scored, _ = scale_corpus(raw, ScalingMethod.MEAN)
        curves = [survival_curve(v, group=k) for k, v in scored.items()]
        report = collapse_metrics(curves)
        assert report.max_pairwise_ks == 0.0
        assert all(d.spread == 0.0 for d in report.quantile_dispersion)

    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            collapse_metrics([survival_curve([1, 2, 3])])

    def test_zero_quantile_groups_excluded_and_counted(self):
        mostly_zero = survival_curve([0, 0, 0, 0, 0, 0, 9], group=GroupKey("A", 2003))
        cited = survival_curve([1, 2, 3, 4], group=GroupKey("B", 2003))
        report = collapse_metrics([mostly_zero, cited], quantiles=(0.5,))
        d = report.quantile_dispersion[0]
        assert d.n_excluded_zero == 1
        assert d.n_groups == 1
        assert d.spread == 0.0

    def test_quantile_dispersion_value(self):
        a = survival_curve([1, 1, 1, 1], group=GroupKey("A", 2003))
        b = survival_curve([10, 10, 10, 10], group=GroupKey("B", 2003))
        report = collapse_metrics([a, b], quantiles=(0.5,))
        assert report.quantile_dispersion[0].spread == pytest.approx(1.0)
        assert report.max_pairwise_ks == 1.0


class TestBinnedExport:
    def test_thresholds_are_log_spaced_over_global_range(self):
        thresholds = log_binned_thresholds([[0, 2, 800], [0, 5, 40]])
        assert thresholds.size == 25
        assert thresholds[0] == pytest.approx(2.0)
        assert thresholds[-1] == pytest.approx(800.0)
        ratios = thresholds[1:] / thresholds[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_no_positive_values(self):
        assert log_binned_thresholds([[0, 0], [0]]).size == 0

    def test_degenerate_single_positive_value(self):
        thresholds = log_binned_thresholds([[0, 4], [4, 4]])
        assert thresholds.tolist() == [4.0]

    def test_binned_probs_count_at_thresholds(self):
        probs = binned_survival([0, 1, 1, 3], np.array([1.0, 2.0, 3.0]))
        assert probs.tolist() == [0.75, 0.25, 0.25]

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale.corpus import GroupKey, group_records
from citescale.errors import EmptyGroupError
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.survival import (
    binned_survival,
    collapse_metrics,
    log_binned_thresholds,
)
from citescale.synth import CategorySpec, generate, scaled_copy_scenario

samples = st.lists(st.integers(0, 15), min_size=1, max_size=25)


def ks_brute(a, b):
    """All-thresholds counting oracle for the two-sample KS statistic."""
    best = 0.0
    for t in sorted(set(a) | set(b)):
        fa = sum(1 for x in a if x <= t) / len(a)
        fb = sum(1 for x in b if x <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


def groups(*vectors):
    return {GroupKey(f"C{i}", 2003): v for i, v in enumerate(vectors)}


def ks(a, b):
    return collapse_metrics(groups(a, b)).max_pairwise_ks


class TestSurvivalCurve:
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    def test_probs_match_counting(self, values):
        distinct = np.unique(values).astype(np.float64)
        probs = binned_survival(values, distinct)
        n = len(values)
        for v, p in zip(distinct.tolist(), probs.tolist()):
            assert p == sum(1 for x in values if x >= v) / n


class TestKs:
    def test_pinned_samples_match_brute_force(self):
        a = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        b = [0, 0, 1, 2, 2, 4, 9, 9, 20, 50]
        assert ks(a, b) == ks_brute(a, b)

    @given(samples, samples)
    def test_matches_brute_force(self, a, b):
        assert ks(a, b) == pytest.approx(ks_brute(a, b), abs=1e-15)

    @given(samples, samples)
    def test_symmetry(self, a, b):
        assert ks(a, b) == ks(b, a)

    @given(samples)
    def test_self_distance_zero(self, a):
        assert ks(a, a) == 0.0


class TestCollapseMetrics:
    def test_identical_samples_collapse_exactly(self):
        sample = [0, 1, 2, 2, 5, 9, 30]
        report = collapse_metrics(groups(*[sample] * 4))
        assert report.n_curves == 4
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
        raw = group_records(corpus)
        scored, _ = scale_corpus(raw, ScalingMethod.MEAN)
        report = collapse_metrics(scored)
        assert report.max_pairwise_ks == 0.0
        assert all(d.spread == 0.0 for d in report.quantile_dispersion)

    @pytest.mark.parametrize("vectors", [(), ([1, 2, 3],)], ids=["none", "one"])
    def test_fewer_than_two_groups_leave_nothing_to_compare(self, vectors):
        report = collapse_metrics(groups(*vectors))
        assert report.n_curves == len(vectors)
        assert report.max_pairwise_ks is None
        assert report.quantile_dispersion == ()

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroupError, match="C1/2003"):
            collapse_metrics(groups([1, 2, 3], []))
        with pytest.raises(EmptyGroupError, match="C0/2003"):
            collapse_metrics(groups([]))

    def test_zero_quantile_groups_excluded_and_counted(self):
        mostly_zero = [0, 0, 0, 0, 0, 0, 9]
        cited = [1, 2, 3, 4]
        report = collapse_metrics(groups(mostly_zero, cited))
        d = next(d for d in report.quantile_dispersion if d.q == 0.5)
        assert d.n_excluded_zero == 1
        assert d.n_groups == 1
        assert d.spread == 0.0

    def test_quantile_dispersion_value(self):
        report = collapse_metrics(groups([1, 1, 1, 1], [10, 10, 10, 10]))
        d = next(d for d in report.quantile_dispersion if d.q == 0.5)
        assert d.spread == pytest.approx(1.0)
        assert report.max_pairwise_ks == 1.0

    @given(st.lists(samples, min_size=2, max_size=5))
    def test_envelope_matches_pairwise_brute_force(self, vectors):
        expected = max(ks_brute(a, b) for a, b in itertools.combinations(vectors, 2))
        got = collapse_metrics(groups(*vectors)).max_pairwise_ks
        assert got == pytest.approx(expected, abs=1e-15)

    @given(st.lists(samples, min_size=2, max_size=5), st.randoms())
    def test_group_order_does_not_change_report(self, vectors, rng):
        keyed = list(groups(*vectors).items())
        shuffled = dict(rng.sample(keyed, len(keyed)))
        assert collapse_metrics(shuffled) == collapse_metrics(dict(keyed))


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

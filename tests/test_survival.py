import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale import survival
from citescale.corpus import GroupKey, group_records
from citescale.errors import EmptyGroupError
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.stats import _Segments
from citescale.survival import (
    QUANTILES,
    CollapseReport,
    QuantileDispersion,
    collapse_metrics,
    log_binned_thresholds,
    survival_curves,
)
from citescale.synth import CategorySpec, generate, scaled_copy_scenario

samples = st.lists(st.integers(0, 15), min_size=1, max_size=25)
# many groups of scores: counts c / d with ties, zeros and sizes around the
# gof MIN_SAMPLE, or floats with few ties
scored_groups = st.lists(
    st.tuples(
        st.lists(st.integers(0, 12), min_size=1, max_size=14),
        st.sampled_from([1.0, 3.0, 7.5, 0.37, 11.0 / 3.0]),
    ),
    min_size=1, max_size=40,
).map(lambda groups: [np.array(c, dtype=np.float64) / d for c, d in groups]) | st.lists(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30).map(np.array),
    min_size=1, max_size=20,
)


def _cdf(sorted_values, thresholds):
    n = sorted_values.size
    return 1.0 - (n - np.searchsorted(sorted_values, thresholds, side="right")) / n


def collapse_oracle(vectors):
    """collapse_metrics as one loop over the groups: the reference that the
    whole-array version must equal bit for bit."""
    samples = []
    for key, values in vectors.items():
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size == 0:
            raise EmptyGroupError(f"group {key}: empty score vector")
        samples.append(v)
    if len(samples) < 2:
        return CollapseReport(len(samples), None, ())
    grid = np.unique(np.concatenate(samples))
    hi = np.zeros_like(grid)
    lo = np.ones_like(grid)
    qvals = np.empty((len(QUANTILES), len(samples)))
    for g, v in enumerate(samples):
        cdf = _cdf(v, grid)
        np.maximum(hi, cdf, out=hi)
        np.minimum(lo, cdf, out=lo)
        distinct = v[np.concatenate(([True], v[1:] != v[:-1]))]
        idx = np.searchsorted(_cdf(v, distinct), QUANTILES, side="left")
        qvals[:, g] = distinct[np.minimum(idx, distinct.size - 1)]
    dispersions = []
    for q, row in zip(QUANTILES, qvals):
        positive = row[row > 0]
        logs = np.log10(positive)
        spread = float(logs.max() - logs.min()) if positive.size else None
        dispersions.append(
            QuantileDispersion(q, spread, int(positive.size), int(row.size - positive.size))
        )
    return CollapseReport(len(samples), float((hi - lo).max()), tuple(dispersions))


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
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_its_group(self, bad):
        with pytest.raises(ValueError, match="group C0/2003: score .* is not finite"):
            survival_curves(groups([bad, 1.0], [2.0]))

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroupError, match="group C1/2003: empty"):
            survival_curves(groups([1.0, 2.0], []))

    @given(scored_groups)
    def test_probs_match_counting(self, vectors):
        thresholds, probs = survival_curves(groups(*vectors))
        assert thresholds.tolist() == log_binned_thresholds(np.concatenate(vectors)).tolist()
        assert probs.shape == (len(vectors), thresholds.size)
        for v, row in zip(vectors, probs.tolist()):
            values = v.tolist()
            assert row == [
                sum(1 for x in values if x >= t) / len(values) for t in thresholds.tolist()
            ]

    def test_thresholds_out_of_order_are_counted_each(self):
        # np.geomspace between ends one ulp apart is not monotone
        vectors = ([0.0, 7.0, 7.0], [np.nextafter(7.0, 8.0), 0.0])
        thresholds, probs = survival_curves(groups(*vectors))
        assert thresholds.size == 25 and np.any(np.diff(thresholds) < 0)
        for v, row in zip(vectors, probs.tolist()):
            assert row == [sum(1 for x in v if x >= t) / len(v) for t in thresholds.tolist()]

    def test_no_groups(self):
        thresholds, probs = survival_curves({})
        assert thresholds.size == 0 and probs.shape == (0, 0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_its_group(self, bad):
        with pytest.raises(ValueError, match="group C1/2003: score .* is not finite"):
            collapse_metrics(groups([1.0, 2.0], [3.0, bad]))

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

    @given(scored_groups)
    def test_matches_the_per_group_loop(self, vectors):
        keyed = groups(*vectors)
        assert collapse_metrics(keyed) == collapse_oracle(keyed)

    def test_quantiles_match_the_cdf_of_every_value(self):
        # group n holds 0, 1, ..., n - 1: the quantile is the number of
        # values whose CDF 1 - (n - i) / n is below q, counted one by one
        sizes = range(1, 3001)
        seg = _Segments.of(np.arange(float(n)) for n in sizes).sort()
        got = survival._quantile_values(seg)
        for q, row in zip(QUANTILES, got.tolist()):
            assert row == [
                float(np.sum(1.0 - (n - np.arange(1, n + 1)) / n < q)) for n in sizes
            ]

    def test_memory_grows_with_scores_not_groups_times_grid(self):
        # 400 groups x 3,200 distinct values: a groups x grid matrix of
        # counts would take 10 MiB, the 3,200 scores take 25 KiB
        vectors = [np.arange(8.0) + 8 * g for g in range(400)]
        keyed = groups(*vectors)
        tracemalloc.start()
        try:
            collapse_metrics(keyed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(st.lists(samples, min_size=2, max_size=5), st.randoms())
    def test_group_order_does_not_change_report(self, vectors, rng):
        keyed = list(groups(*vectors).items())
        shuffled = dict(rng.sample(keyed, len(keyed)))
        assert collapse_metrics(shuffled) == collapse_metrics(dict(keyed))


class TestBinnedExport:
    def test_thresholds_are_log_spaced_over_global_range(self):
        thresholds = log_binned_thresholds(np.concatenate([[0, 2, 800], [0, 5, 40]]))
        assert thresholds.size == 25
        assert thresholds[0] == pytest.approx(2.0)
        assert thresholds[-1] == pytest.approx(800.0)
        ratios = thresholds[1:] / thresholds[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_no_positive_values(self):
        assert log_binned_thresholds(np.concatenate([[0, 0], [0]])).size == 0

    def test_degenerate_single_positive_value(self):
        thresholds = log_binned_thresholds(np.concatenate([[0, 4], [4, 4]]))
        assert thresholds.tolist() == [4.0]

    def test_binned_probs_count_at_thresholds(self):
        thresholds, probs = survival_curves(groups([0, 1, 1, 3], [3, 3]))
        assert thresholds.tolist() == np.geomspace(1.0, 3.0, 25).tolist()
        assert probs[0, [0, 1, -1]].tolist() == [0.75, 0.25, 0.25]
        assert probs[1].tolist() == [1.0] * 25

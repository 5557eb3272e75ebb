"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria cover: exact-rescaling collapse, normalization identities, the
frozen-scenario method-quality orderings, power-transform parameter
recovery, the lognormal goodness-of-fit statistic, descriptive-statistics
oracles, the median undefinedness rule, and report determinism.
"""

import functools
import json
import math
import re
import time
from pathlib import Path

import numpy as np

from citescale.cli import main
from citescale.corpus import (
    Corpus,
    GroupKey,
    emit_csv,
    group_records,
    ingest_csv,
)
from citescale.gof import ad_lognormal, p_bracket
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.stats import describe
from citescale.survival import collapse_metrics
from citescale.synth import (
    CategorySpec,
    benchmark_scenario,
    generate,
    save_scenario,
    scaled_copy_scenario,
)
from citescale.topshare import top_share

from test_gof import a2_naive
from test_scaling import fit_lambdas
from test_stats import naive_stats, assert_close

# content_hash of `report` on benchmark_scenario(), and the numpy version it
# was taken with: a numpy whose transcendental kernels round differently may
# legitimately move the last bit of some scores.
GOLDEN_FROZEN_HASH = "338a715dede445cde755feeec6a9791f8d105f6e0081e18fe7a2e0bbb6f640ff"
GOLDEN_NUMPY_VERSION = "2.4.6"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
        return wrapper
    return decorate


def collapse_for(raw, method):
    vectors = raw if method is None else scale_corpus(raw, method)[0]
    return collapse_metrics(vectors)


@criterion(1, "exact-rescaling collapse")
def test_criterion_1_exact_rescaling_collapse():
    started = time.perf_counter()
    base = CategorySpec(
        "A", 2003, 1000, "discretized-lognormal", (1.5, 1.2), zero_inflation=0.2
    )
    corpus = generate(scaled_copy_scenario(base, k=3, seed=41))
    raw = group_records(corpus)
    methods = (
        ScalingMethod.MEAN,
        ScalingMethod.MEAN_NO_ZERO,
        ScalingMethod.MEDIAN,
        ScalingMethod.MEDIAN_NO_ZERO,
        ScalingMethod.MAX_RANGE,
    )
    for method in methods:
        report = collapse_for(raw, method)
        assert report.max_pairwise_ks == 0.0, method
        for d in report.quantile_dispersion:
            assert d.spread == 0.0, (method, d.q)
            assert d.n_excluded_zero == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "normalization identities")
def test_criterion_2_normalization_identities():
    rng = np.random.default_rng(2)
    n_median_checked = 0
    for _ in range(50):
        size = 2 * int(rng.integers(10, 250)) + 1  # odd sizes: median is exact
        values = np.where(
            rng.random(size) < 0.25, 0, rng.integers(1, 80, size=size)
        ).astype(int)
        if values.sum() == 0:
            values[0] = 3
        group = {GroupKey("G", 2003): values}

        (aii,) = scale_corpus(group, ScalingMethod.MEAN)[0].values()
        assert abs(aii.mean() - 1.0) <= 1e-12

        (aii0,) = scale_corpus(group, ScalingMethod.MEAN_NO_ZERO)[0].values()
        assert abs(aii0[values > 0].mean() - 1.0) <= 1e-12

        scored_med, _ = scale_corpus(group, ScalingMethod.MEDIAN)
        if scored_med:
            (aii_med,) = scored_med.values()
            assert float(np.median(aii_med)) == 1.0
            n_median_checked += 1
    assert n_median_checked >= 25  # the identity was exercised, not skipped


@criterion(3, "frozen-scenario method orderings")
def test_criterion_3_frozen_scenario_orderings():
    started = time.perf_counter()
    raw = group_records(generate(benchmark_scenario()))
    scored = {method: scale_corpus(raw, method) for method in ScalingMethod}

    in_band = {"raw": top_share(raw, 0.10).n_within_band}
    for method, (scores, skipped) in scored.items():
        in_band[method.value] = top_share(scores, 0.10, skipped).n_within_band
    assert in_band["mean0"] >= in_band["mean"] > in_band["raw"], in_band
    assert in_band["median"] < in_band["mean0"], in_band
    assert in_band["median0"] < in_band["mean0"], in_band

    collapse = {
        name: collapse_for(raw, method)
        for name, method in (
            ("raw", None),
            ("mean", ScalingMethod.MEAN),
            ("mean0", ScalingMethod.MEAN_NO_ZERO),
        )
    }
    ks = {name: rep.max_pairwise_ks for name, rep in collapse.items()}
    assert ks["mean0"] <= ks["mean"] <= ks["raw"], ks
    # scaling must tighten every quantile's cross-group spread relative to
    # raw counts (the mean0-vs-mean per-quantile comparison is not asserted;
    # see the collapse-metric notes in the survival module)
    for name in ("mean", "mean0"):
        for d_scaled, d_raw in zip(
            collapse[name].quantile_dispersion, collapse["raw"].quantile_dispersion
        ):
            if d_scaled.spread is not None and d_raw.spread is not None:
                assert d_scaled.spread <= d_raw.spread, (name, d_scaled.q)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _oracle_loglik(values, lam):
    """Direct-formula likelihood, evaluated independently of the fit path."""
    c1 = np.asarray(values, dtype=np.float64) + 1.0
    if lam == 0.0:
        t = np.log(c1)
    else:
        t = (c1**lam - 1.0) / lam
    var = float(np.mean((t - t.mean()) ** 2))
    if var <= 0:
        return -math.inf
    n = c1.size
    return -0.5 * n * math.log(var) + (lam - 1.0) * float(np.log(c1).sum())


@criterion(4, "power-transform parameter recovery")
def test_criterion_4_lambda_recovery():
    cases = {
        -0.5: lambda rng: (1.0 - 0.5 * np.clip(rng.normal(1.2, 0.12, 5000), 0.0, 1.95))
        ** (-2.0) - 1.0,
        0.0: lambda rng: np.exp(rng.normal(2.0, 0.5, 5000)) - 1.0,
        0.5: lambda rng: (1.0 + 0.5 * np.clip(rng.normal(6.0, 1.4, 5000), 0.0, None))
        ** 2 - 1.0,
    }
    grid = np.arange(-3000, 3001) * 1e-3
    for true_lam, make in cases.items():
        rng = np.random.default_rng(int(1000 * (true_lam + 4)))
        values = make(rng)
        assert np.all(values >= 0)
        lam_hat = fit_lambdas([values])[0]
        assert abs(lam_hat - true_lam) <= 0.05, (true_lam, lam_hat)
        ll_hat = _oracle_loglik(values, lam_hat)
        ll_grid = max(_oracle_loglik(values, g) for g in grid)
        assert ll_hat >= ll_grid - 1e-6, (true_lam, ll_grid - ll_hat)


@criterion(5, "goodness-of-fit statistic correctness")
def test_criterion_5_anderson_darling():
    pinned = [0.31, 0.5, 0.77, 1.02, 1.3, 1.3, 2.4, 3.8, 5.9, 14.2]
    key = GroupKey("P", 2003)
    report = ad_lognormal({key: pinned}, threshold=0.1)[0][key]
    assert abs(report.a_squared - a2_naive(pinned, 0.1)) <= 1e-9

    assert p_bracket(3.291) == "<0.005"

    rng = np.random.default_rng(5)
    trials = 1000
    samples = {
        GroupKey("S", t): np.exp(rng.normal(1.0, 0.6, size=200)) for t in range(trials)
    }
    reports, skipped = ad_lognormal(samples, threshold=0.1)
    assert len(reports) == trials and skipped == []
    # p < 0.05 region
    rejections = sum(rep.a_squared_star > 0.752 for rep in reports.values())
    rate = rejections / trials
    assert 0.03 <= rate <= 0.08, f"rejection rate {rate:.3f}"


@criterion(6, "descriptive statistics against direct-summation oracle")
def test_criterion_6_stats_oracle(tmp_path):
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        values = rng.integers(0, 1000, size=n).tolist()
        got = describe(values)
        want = naive_stats(values)
        assert got.n == want["n"]
        assert got.min == want["min"] and got.max == want["max"]
        assert_close(got.mean, want["mean"])
        assert_close(got.median, want["median"])
        assert_close(got.stddev, want["stddev"])
        assert_close(got.skewness, want["skewness"], rel=1e-12)
        assert_close(got.kurtosis, want["kurtosis"], rel=1e-12)

    # aggregate fixture: 6,970 records / 100,209 citations across three
    # category blocks of one discipline-like set, ingested from CSV
    lines = ["pub_id,year,category,citations"]
    i = 0
    for cat, size in (("BIO-A", 2500), ("BIO-B", 2500), ("BIO-C", 1970)):
        for _ in range(size):
            lines.append(f"p{i},2003,{cat},{15 if i < 2629 else 14}")
            i += 1
    path = tmp_path / "bio.csv"
    path.write_text("\n".join(lines) + "\n")
    corpus = ingest_csv(path).corpus
    pooled = describe(corpus.citations)
    assert pooled.n == 6970
    assert round(pooled.mean, 2) == 14.38


@criterion(7, "median undefinedness rule")
def test_criterion_7_median_undefinedness():
    rng = np.random.default_rng(7)
    n_undefined_seen = 0
    for trial in range(30):
        columns = ([], [], [], [])  # pub_id, year, category, citations
        zero_share_by_group = {}
        for g in range(int(rng.integers(1, 6))):
            key = GroupKey(f"C{g}", 2003)
            size = int(rng.integers(3, 40))
            p_zero = float(rng.uniform(0.2, 0.8))
            values = np.where(
                rng.random(size) < p_zero, 0, rng.integers(1, 30, size=size)
            )
            zero_share_by_group[key] = values
            for i, c in enumerate(values):
                row = (f"{key.category}-{trial}-{i}", 2003, key.category, int(c))
                for column, cell in zip(columns, row):
                    column.append(cell)
        raw = group_records(Corpus(*columns))
        _, skipped = scale_corpus(raw, ScalingMethod.MEDIAN)
        skipped_keys = {s.group for s in skipped}
        for key, values in zero_share_by_group.items():
            n_zeros = int(np.sum(values == 0))  # brute-force zero count
            majority_zero = n_zeros > values.size / 2
            assert (key in skipped_keys) == majority_zero, (key, values)
            if majority_zero:
                n_undefined_seen += 1
    assert n_undefined_seen >= 10


@criterion(8, "report determinism and corpus round trip")
def test_criterion_8_determinism_and_round_trip(tmp_path):
    scenario_path = tmp_path / "frozen.json"
    save_scenario(benchmark_scenario(), scenario_path)

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["report", "--scenario", str(scenario_path), "--out", str(out1)]) == 0
    assert main(["report", "--scenario", str(scenario_path), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["content_hash"] == m2["content_hash"]
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["content_hash"] == GOLDEN_FROZEN_HASH, (
        f"frozen report hash {m1['content_hash']} differs from the golden hash "
        f"pinned with numpy {GOLDEN_NUMPY_VERSION}; running numpy {np.__version__}"
    )

    corpus_path = out1 / "corpus.csv"
    corpus = ingest_csv(corpus_path).corpus
    emitted = tmp_path / "roundtrip.csv"
    emit_csv(corpus, emitted)
    assert emitted.read_bytes() == corpus_path.read_bytes()


def test_golden_hash_is_pinned_alike_in_the_benchmark():
    # a re-pin must change both copies: the benchmark checks each frozen
    # report against its own
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    pinned = re.findall(r'^GOLDEN_FROZEN_HASH = "([0-9a-f]{64})"$',
                        workloads.read_text(encoding="utf-8"), flags=re.MULTILINE)
    assert pinned == [GOLDEN_FROZEN_HASH]

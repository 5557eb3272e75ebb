import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import tempfile
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citescale import cli, stats
from citescale.cli import main
from citescale.corpus import emit_csv, ingest_csv
from citescale.scaling import ScalingMethod
from citescale.synth import (
    Scenario, CategorySpec, benchmark_scenario, generate, save_scenario,
)

from conftest import write_corpus_csv


@pytest.fixture
def small_corpus_csv(tmp_path):
    rows = []
    for cat, values in {
        "A": [0, 1, 2, 3, 5, 8, 13, 21, 34, 2, 4, 6],
        "B": [0, 0, 2, 2, 4, 4, 9, 9, 16, 25, 1, 3],
    }.items():
        rows += [(f"{cat}-{i}", 2003, cat, c) for i, c in enumerate(values)]
    return write_corpus_csv(tmp_path / "corpus.csv", rows)


@pytest.fixture
def small_scenario_json(tmp_path):
    scenario = Scenario(seed=314, specs=(
        CategorySpec("A", 2003, 120, "discretized-lognormal", (1.8, 1.1), 0.1),
        CategorySpec("A", 2007, 150, "discretized-lognormal", (0.6, 1.2), 0.4),
        CategorySpec("B", 2003, 90, "discretized-lognormal", (2.4, 1.0), 0.08),
        CategorySpec("B", 2007, 100, "discretized-lognormal", (0.8, 1.2), 0.45),
    ))
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    return path


def _reject(constant):
    raise AssertionError(f"non-finite JSON number {constant}")


class TestIngestCheck:
    def test_prints_counts(self, small_corpus_csv, capsys):
        assert main(["ingest-check", "--input", str(small_corpus_csv)]) == 0
        out = capsys.readouterr().out
        assert "rows=24" in out and "records=24" in out
        assert "warnings=0" in out and "groups=2" in out

    def test_strict_duplicate_is_data_error(self, tmp_path, capsys):
        path = write_corpus_csv(
            tmp_path / "dup.csv", [("p1", 2003, "A", 1), ("p1", 2003, "A", 2)]
        )
        assert main(["ingest-check", "--input", str(path), "--strict"]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_lenient_duplicate_warns(self, tmp_path, capsys):
        path = write_corpus_csv(
            tmp_path / "dup.csv", [("p1", 2003, "A", 1), ("p1", 2003, "A", 2)]
        )
        assert main(["ingest-check", "--input", str(path)]) == 0
        assert "warnings=1" in capsys.readouterr().out


class TestErrorPaths:
    def test_stats_on_empty_csv_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["stats", "--input", str(empty), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main([
            "stats", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fraction", ["1.5", "0", "1", "nan", "inf"])
    def test_bad_top_fraction_is_usage_error(self, small_corpus_csv, tmp_path, fraction):
        with pytest.raises(SystemExit) as exc:
            main([
                "topshare", "--input", str(small_corpus_csv),
                "--top-fraction", fraction, "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_top_fraction_that_is_no_number_is_usage_error(
        self, small_corpus_csv, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "report", "--input", str(small_corpus_csv),
                "--top-fraction", "abc", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert "argument --top-fraction: not a number: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gof", "report"])
    @pytest.mark.parametrize("threshold", ["0", "-0.5", "nan", "inf"])
    def test_unusable_gof_threshold_is_usage_error(
        self, small_corpus_csv, tmp_path, command, threshold
    ):
        argv = [command, "--input", str(small_corpus_csv),
                "--gof-threshold", threshold, "--out", str(tmp_path / "o")]
        if command == "gof":
            argv += ["--method", "mean"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_malformed_scenario_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # cut-off JSON, and an integer literal longer than Python parses
        for text in ('{"seed": 1, "specs": [', '{"seed": %s, "specs": []}' % ("9" * 5000)):
            path.write_text(text)
            code = main(["report", "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == 1
            assert "not a JSON scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_deeply_nested_scenario_json_exits_one(self, tmp_path, capsys, command):
        # json's decoder raises RecursionError, not ValueError, on deep nesting
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "o"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {path}: not a JSON scenario: ")
        assert not out.exists()

    def test_non_utf8_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"pub_id,year,category,citations\np\xe9,2003,A,1\n")
        assert main(["stats", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest-check", "stats"])
    @pytest.mark.parametrize(
        "bad_row",
        [f"p2,2003,{'A' * 200_000},5", f"p2,2003,A,{'9' * 400}"],
        ids=["cell-beyond-csv-field-limit", "count-beyond-float64"],
    )
    def test_unreadable_row_exits_one_naming_line(
        self, tmp_path, capsys, command, bad_row
    ):
        path = tmp_path / "bad.csv"
        path.write_text(f"pub_id,year,category,citations\np1,2003,A,5\n{bad_row}\n")
        argv = [command, "--input", str(path)]
        if command == "stats":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "line 3" in capsys.readouterr().err

    def test_year_beyond_int64_exits_one_naming_line(self, tmp_path, capsys):
        path = tmp_path / "year.csv"
        path.write_text("pub_id,year,category,citations\na,99999999999999999999999,X,3\n")
        assert main(["ingest-check", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "year" in err

    def test_input_and_scenario_are_exclusive(self, small_corpus_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "stats", "--input", str(small_corpus_csv),
                "--scenario", "s.json", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_source_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command", ["stats", "scale", "survival", "topshare", "gof", "report"]
    )
    def test_strict_with_scenario_is_usage_error(
        self, small_scenario_json, tmp_path, capsys, command
    ):
        out = tmp_path / "o"
        argv = [command, "--scenario", str(small_scenario_json), "--strict",
                "--out", str(out)]
        if command in ("scale", "gof"):
            argv += ["--method", "mean"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--strict" in err and "--input" in err
        assert not out.exists()


class TestStats:
    def test_writes_one_row_per_group(self, small_corpus_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["stats", "--input", str(small_corpus_csv), "--out", str(out)]) == 0
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0].startswith("category,year,n,mean,median,stddev,skewness,kurtosis")
        assert len(lines) == 3
        assert lines[1].startswith("A,2003,12,")
        assert lines[0].endswith("kurtosis_convention")
        assert lines[1].endswith("excess")

    def test_duplicate_row_warns_unless_strict(self, tmp_path, capsys):
        path = write_corpus_csv(
            tmp_path / "dup.csv", [("p1", 2003, "A", 1), ("p2", 2003, "A", 4),
                                   ("p1", 2003, "A", 2)]
        )
        argv = ["stats", "--input", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == "warning: 1 duplicate (pub_id, category) rows replaced\n"
        assert main([*argv, "--strict"]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_undefined_statistics_are_empty_cells(self, tmp_path):
        rows = [("p1", 2003, "A", 0), ("p2", 2003, "A", 0)]
        path = write_corpus_csv(tmp_path / "c.csv", rows)
        assert main(["stats", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
        row = (tmp_path / "o" / "stats.csv").read_text().splitlines()[1]
        assert row == "A,2003,2,0,0,0,,,0,,,excess"

    def test_idempotent_bytes(self, small_corpus_csv, tmp_path):
        out = tmp_path / "out"
        main(["stats", "--input", str(small_corpus_csv), "--out", str(out)])
        first = (out / "stats.csv").read_bytes()
        main(["stats", "--input", str(small_corpus_csv), "--out", str(out)])
        assert (out / "stats.csv").read_bytes() == first


class TestScale:
    def test_zero_heavy_corpus_under_median_yields_empty_output(self, tmp_path, capsys):
        rows = [(f"p{i}", 2003, "A", 0) for i in range(6)] + [("p9", 2003, "A", 4)]
        path = write_corpus_csv(tmp_path / "zeros.csv", rows)
        out = tmp_path / "out"
        code = main(["scale", "--input", str(path), "--method", "median",
                     "--out", str(out)])
        assert code == 0
        scaled_lines = (out / "scaled_median.csv").read_text().splitlines()
        assert scaled_lines == ["pub_id,year,category,citations,method,aii"]
        skipped_lines = (out / "skipped_median.csv").read_text().splitlines()
        assert skipped_lines == [
            "category,year,n_records,reason", "A,2003,7,zero-median"
        ]

    def test_scaled_output_columns_and_precision(self, small_corpus_csv, tmp_path):
        out = tmp_path / "out"
        main(["scale", "--input", str(small_corpus_csv), "--method", "mean",
              "--out", str(out)])
        lines = (out / "scaled_mean.csv").read_text().splitlines()
        header, first = lines[0], lines[1]
        assert header == "pub_id,year,category,citations,method,aii"
        fields = first.split(",")
        assert fields[4] == "mean"
        assert len(fields) == 6
        # ten significant digits, '.' decimal separator
        assert fields[5] == f"{float(fields[5]):.10g}"


class TestSurvivalAndGof:
    def test_survival_emits_curves_and_collapse(self, small_corpus_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["survival", "--input", str(small_corpus_csv),
                     "--method", "mean", "--out", str(out)])
        assert code == 0
        for name in ("raw", "mean"):
            lines = (out / f"survival_{name}.csv").read_text().splitlines()
            assert lines[0] == "category,year,value,prob"
            assert len(lines) == 1 + 2 * 25  # two groups on a 25-bin grid
            payload = json.loads((out / f"collapse_{name}.json").read_text())
            assert payload["method"] == name
            assert payload["n_curves"] == 2
            assert 0.0 <= payload["max_pairwise_ks"] <= 1.0
            assert len(payload["quantile_dispersion"]) == 5

    def test_one_group_collapse_has_nothing_to_compare(self, tmp_path):
        rows = [(f"p{i}", 2003, "A", i % 5) for i in range(20)]
        path = write_corpus_csv(tmp_path / "one.csv", rows)
        out = tmp_path / "out"
        assert main(["survival", "--input", str(path), "--out", str(out)]) == 0
        assert (out / "collapse_raw.json").read_text() == (
            '{\n  "max_pairwise_ks": null,\n  "method": "raw",\n'
            '  "n_curves": 1,\n  "quantile_dispersion": []\n}\n'
        )

    def test_gof_writes_report_rows(self, small_scenario_json, tmp_path):
        out = tmp_path / "out"
        code = main(["gof", "--scenario", str(small_scenario_json),
                     "--method", "mean0", "--out", str(out)])
        assert code == 0
        lines = (out / "gof_mean0.csv").read_text().splitlines()
        assert lines[0] == ("category,year,n_used,threshold,mu_hat,sigma_hat,"
                            "a_squared,a_squared_star,p_bracket")
        assert len(lines) > 1


class TestTopshare:
    def test_reports_per_method_and_summary(self, small_corpus_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["topshare", "--input", str(small_corpus_csv),
                     "--method", "mean", "--method", "median0",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "topshare_summary.json").read_text())
        assert set(summary["methods"]) == {"raw", "mean", "median0"}
        for name in ("raw", "mean", "median0"):
            lines = (out / f"topshare_{name}.csv").read_text().splitlines()
            assert lines[0].startswith("category,n,top_count,share,band_low")
            assert len(lines) == 3

    @staticmethod
    def two_cohort_csv(tmp_path):
        # A/2003 has a median; most of A/2007 is uncited, so its median is 0
        rows = [(f"a{i}", 2003, "A", c) for i, c in enumerate([1, 2, 3, 4])]
        rows += [(f"b{i}", 2007, "A", c) for i, c in enumerate([0, 0, 0, 50])]
        return write_corpus_csv(tmp_path / "corpus.csv", rows)

    @pytest.mark.parametrize("years, n_records, n_skipped", [
        ([], [8, 4], 4),
        (["--year", "2003"], [4, 4], 0),
    ], ids=["all-years", "year-2003"])
    def test_year_selects_the_groups_scored_and_ranked(
        self, years, n_records, n_skipped, tmp_path
    ):
        out = tmp_path / "out"
        code = main(["topshare", "--input", str(self.two_cohort_csv(tmp_path)),
                     "--method", "median", *years, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "topshare_summary.json").read_text())
        assert [summary["methods"][m]["n_records"] for m in ("raw", "median")] == n_records
        # the 2007 group's undefined median counts only where 2007 is ranked
        (row,) = (out / "topshare_median.csv").read_text().splitlines()[1:]
        assert int(row.rsplit(",", 1)[1]) == n_skipped

    def test_year_without_groups_exits_one(self, tmp_path, capsys):
        code = main(["topshare", "--input", str(self.two_cohort_csv(tmp_path)),
                     "--year", "1999", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: no records in years [1999]" in capsys.readouterr().err


_SPEC = {"category": "A", "year": 2003, "n": 20,
         "family": "negative-binomial", "family_params": [2.0, 0.3]}
_LOGNORMAL = {**_SPEC, "family": "discretized-lognormal", "family_params": [1.0, 1.0]}
_ZIPF = {**_SPEC, "family": "zipf-with-cutoff", "family_params": [1.5, 50]}


@contextlib.contextmanager
def _address_space_cap():
    """Caps this process's address space at its current size plus 1 GiB
    inside the block, and restores the limit when it exits, before pytest
    reports.  A scenario with a huge ``n`` or zipf ``c_max`` must fail
    before anything is allocated per index; if a change allocates per
    index anyway, the MemoryError fails that one test instead of
    exhausting the machine's memory and ending the whole run.  Where
    ``/proc/self/statm`` is missing, nothing is capped."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + 2**30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _scenario_exit_code(tmp_path, scenario: dict) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))  # ASCII: a lone surrogate stays escaped
    return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])


class TestSimulate:
    def test_writes_corpus_and_metadata(self, small_scenario_json, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(small_scenario_json),
                     "--out", str(out)]) == 0
        corpus_lines = (out / "corpus.csv").read_text().splitlines()
        assert corpus_lines[0] == "pub_id,year,category,citations"
        assert len(corpus_lines) == 1 + 120 + 150 + 90 + 100
        meta = json.loads((out / "scenario_meta.json").read_text())
        assert meta["prng"] == "numpy.random.PCG64"
        assert meta["seed"] == 314
        assert meta["n_records"] == 460

    def test_simulated_corpus_round_trips(self, small_scenario_json, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", str(small_scenario_json), "--out", str(out)])
        first = (out / "corpus.csv").read_bytes()
        out2 = tmp_path / "out2"
        code = main(["ingest-check", "--input", str(out / "corpus.csv")])
        assert code == 0
        main(["simulate", "--scenario", str(small_scenario_json), "--out", str(out2)])
        assert (out2 / "corpus.csv").read_bytes() == first

    def test_frozen_corpus_csv_reads_back(self, tmp_path):
        # the benchmark's own traffic: 27,345 rows of the frozen scenario
        scenario = benchmark_scenario()
        save_scenario(scenario, tmp_path / "frozen.json")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(tmp_path / "frozen.json"),
                     "--out", str(out)]) == 0
        result = ingest_csv(out / "corpus.csv")
        assert result.corpus == generate(scenario)
        assert (result.n_rows, result.n_warnings) == (27345, 0)
        emit_csv(result.corpus, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (out / "corpus.csv").read_bytes()

    @staticmethod
    def simulate_one_spec(tmp_path, family_params, count_scale):
        path = tmp_path / "scenario.json"
        spec = CategorySpec("A", 2003, 200, "discretized-lognormal", family_params,
                            count_scale=count_scale)
        save_scenario(Scenario(seed=1, specs=(spec,)), path)
        return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("count_scale", [10**18])
    def test_total_citations_is_an_exact_int(self, count_scale, tmp_path):
        # every draw is 7: at 10**18 each count fits int64 but the total does not
        assert self.simulate_one_spec(tmp_path, (math.log(7.5), 1e-9), count_scale) == 0
        meta = json.loads((tmp_path / "out" / "scenario_meta.json").read_text())
        assert meta["total_citations"] == 200 * 7 * count_scale

    @pytest.mark.parametrize("family_params, count_scale, reason", [
        ((45.0, 1.0), 1, "must stay below 2**63, got 4.89398e+20"),
        ((3.0, 1.0), 10**400, "count_scale is beyond the int64 range"),
        ((3.0, 1.0), 4 * 10**17, "count_scale is beyond the int64 range"),
        ((3.0, 1.0), 10**19, "count_scale is beyond the int64 range"),
        # every draw is 7: 7 * 10**19 is beyond int64
        ((math.log(7.5), 1e-9), 10**19, "count_scale is beyond the int64 range"),
        # every draw is 0, so only count_scale itself is beyond int64
        ((-50.0, 1.0), 2**63, "count_scale is beyond the int64 range"),
    ], ids=["draw-beyond-int64", "count-beyond-float64", "product-beyond-int64",
            "count-scale-beyond-int64", "sevens-times-count-scale",
            "zeros-times-2**63"])
    def test_counts_beyond_range_exit_one_naming_spec(
        self, family_params, count_scale, reason, tmp_path, capsys
    ):
        assert self.simulate_one_spec(tmp_path, family_params, count_scale) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec A/2003: ") and reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_category_that_would_not_read_back_exits_one(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "scenario.json"
        spec = CategorySpec("A,B", 2003, 20, "negative-binomial", (2.0, 0.3))
        save_scenario(Scenario(seed=1, specs=(spec,)), path)
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        assert "category 'A,B'" in capsys.readouterr().err
        assert not (out / "corpus.csv").exists()

    @pytest.mark.parametrize("scenario, message", [
        ({"seed": 1, "specs": []}, "scenario has no specs"),
        ({"seed": 1, "specs": [{**_SPEC, "seed_salt": 5}]},
         "spec 'A'/2003: seed_salt must be a str that encodes as UTF-8, got 5"),
        ({"seed": 1, "specs": [{**_SPEC, "category": None}]},
         "spec None/2003: category must be a str that encodes as UTF-8, got None"),
        ({"seed": 1, "specs": [{**_SPEC, "category": "A\ud800"}]},
         "category must be a str that encodes as UTF-8, got 'A\\ud800'"),
        # keys are exactly the fields: a misspelt one is neither dropped nor defaulted
        ({"seed": 1, "specs": [{**_SPEC, "zero_inflaton": 0.9}]},
         "error: specs[0]: CategorySpec.__init__() got an unexpected keyword "
         "argument 'zero_inflaton'"),
        ({"seed": 1, "specs": [_SPEC], "sede": 2},
         "error: Scenario.__init__() got an unexpected keyword argument 'sede'"),
    ], ids=["no-specs", "salt-not-str", "category-null", "category-lone-surrogate",
            "spec-key-unknown", "top-level-key-unknown"])
    def test_unusable_scenario_exits_one(self, scenario, message, tmp_path, capsys):
        assert _scenario_exit_code(tmp_path, scenario) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, message", [
        ({"seed": 1, "specs": [{**_SPEC, "year": 2003.5}]},
         "year must be a JSON integer, got 2003.5"),
        ({"seed": 1, "specs": [{**_SPEC, "n": 2.5}]},
         "n must be a JSON integer, got 2.5"),
        ({"seed": 1, "specs": [{**_SPEC, "n": "20"}]},
         "n must be a JSON integer, got '20'"),
        ({"seed": 1, "specs": [{**_SPEC, "count_scale": 2.0}]},
         "count_scale must be a JSON integer, got 2.0"),
        ({"seed": 1.5, "specs": [_SPEC]}, "seed must be a JSON integer, got 1.5"),
    ], ids=["year-float", "n-float", "n-string", "count-scale-float", "seed-float"])
    def test_non_integer_scenario_field_exits_one(
        self, scenario, message, tmp_path, capsys
    ):
        # neither truncated (2003.5 -> 2003) nor parsed ("20" -> 20)
        assert _scenario_exit_code(tmp_path, scenario) == 1
        assert message in capsys.readouterr().err
        assert _scenario_exit_code(tmp_path, {"seed": 1, "specs": [_SPEC]}) == 0

    @pytest.mark.parametrize("spec, message", [
        ({**_SPEC, "zero_inflation": "0.1"},
         "error: specs[1]: zero_inflation must be a JSON number, got '0.1'"),
        ({**_SPEC, "family_params": ["1.0", "1.0"]},
         "error: specs[1]: family_params must be a JSON number, got '1.0'"),
        ({**_SPEC, "family_params": [True, 1.0]},
         "error: specs[1]: family_params must be a JSON number, got True"),
        ({**_SPEC, "n": True}, "error: specs[1]: n must be a JSON integer, got True"),
        ({**_SPEC, "family_params": [10**400, 0.3]},
         "error: specs[1]: family_params is beyond the float64 range"),
        ({**_LOGNORMAL, "family_params": [math.nan, 1.0]},
         "error: specs[1]: spec A/2003: family_params must be finite, got (nan, 1.0)"),
        ({**_LOGNORMAL, "family_params": [1.0, math.inf]},
         "error: specs[1]: spec A/2003: family_params must be finite, got (1.0, inf)"),
        ({**_ZIPF, "family_params": [1.5, math.inf]},
         "error: specs[1]: spec A/2003: family_params must be finite, got (1.5, inf)"),
        # beyond numpy's largest array dimension, so nothing is allocated
        ({**_SPEC, "n": 10**30}, "error: spec A/2003: "),
    ], ids=["zero-inflation-str", "params-str", "params-bool", "n-bool",
            "params-beyond-float64", "mu-nan", "sigma-inf", "c-max-inf",
            "n-beyond-array-size"])
    def test_unusable_scenario_number_exits_one(self, spec, message, tmp_path, capsys):
        # the unusable spec comes second, after one that draws fine
        specs = [{**_SPEC, "category": "Z"}, spec]
        with _address_space_cap():
            code = _scenario_exit_code(tmp_path, {"seed": 1, "specs": specs})
        assert code == 1
        assert message in capsys.readouterr().err
        for valid in (_LOGNORMAL, _ZIPF):
            assert _scenario_exit_code(tmp_path, {"seed": 1, "specs": [valid]}) == 0

    @pytest.mark.parametrize("spec, message", [
        # allocations that fail at once: 8 EB of draws, an 8 EB zipf support
        ({**_SPEC, "n": 10**18}, "error: spec A/2003: "),
        ({**_ZIPF, "family_params": [1.5, 1e18]}, "error: spec A/2003: "),
        ({k: v for k, v in _SPEC.items() if k != "n"},
         "error: specs[1]: CategorySpec.__init__() missing 1 required positional "
         "argument: 'n'"),
        ({**_SPEC, "family_params": 7},
         "error: specs[1]: family_params must be a JSON list, got 7"),
    ], ids=["n-beyond-memory", "c-max-beyond-memory", "n-missing", "params-not-list"])
    def test_spec_that_cannot_be_read_or_drawn_is_named(
        self, spec, message, tmp_path, capsys
    ):
        specs = [{**_SPEC, "category": "Z"}, spec]
        with _address_space_cap():
            code = _scenario_exit_code(tmp_path, {"seed": 1, "specs": specs})
        assert code == 1
        assert message in capsys.readouterr().err


class TestReport:
    def test_full_pipeline_artifacts_and_manifest(self, small_scenario_json, tmp_path):
        out = tmp_path / "report"
        code = main(["report", "--scenario", str(small_scenario_json),
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {a["path"] for a in manifest["artifacts"]}
        assert "stats.csv" in names and "corpus.csv" in names
        assert {f"topshare_{m}.csv" for m in
                ("raw", "max", "mean", "mean0", "boxcox", "median", "median0")} <= names
        assert {f"collapse_{m}.json" for m in
                ("raw", "max", "mean", "mean0", "boxcox", "median", "median0")} <= names
        assert {f"survival_{m}.csv" for m in
                ("raw", "mean", "median0")} <= names
        assert {f"gof_{m}.csv" for m in
                ("max", "mean", "mean0", "boxcox", "median", "median0")} <= names
        assert "topshare_summary.json" in names
        import hashlib
        for art in manifest["artifacts"]:
            digest = hashlib.sha256((out / art["path"]).read_bytes()).hexdigest()
            assert digest == art["sha256"]

    def test_each_family_is_scored_once_and_sorted_once(
        self, small_scenario_json, tmp_path, monkeypatch
    ):
        # the raw counts and each method's scores are one family, sorted once
        # and read by every writer: no diagnostic sorts its own copy, and
        # nothing lays out the counts again, the power transform's fit included
        sorts, layouts, scored = [], [], Counter()
        sort, score = stats._Segments.sort, cli.scale_corpus
        of = stats._Segments.of.__func__

        def counting(raw, method):
            scored[method] += 1
            return score(raw, method)

        monkeypatch.setattr(stats._Segments, "sort", lambda seg: sorts.append(seg) or sort(seg))
        monkeypatch.setattr(stats._Segments, "of", classmethod(
            lambda cls, vectors: layouts.append(cls) or of(cls, vectors)
        ))
        monkeypatch.setattr(cli, "scale_corpus", counting)
        assert main(["report", "--scenario", str(small_scenario_json),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(sorts) == 1 + len(ScalingMethod)
        assert layouts == []
        assert scored == Counter(ScalingMethod)

    def test_each_method_is_dropped_before_the_next_is_scored(
        self, small_scenario_json, tmp_path, monkeypatch
    ):
        # every writer reads a family before the next method is scored, so
        # at most one method's scores and sorted copy are alive at a time
        families, score = [], cli.scale_corpus

        def scoring(raw, method):
            assert [family() for family in families] == [None] * len(families)
            scores, skipped = score(raw, method)
            families.append(weakref.ref(scores))
            return scores, skipped

        monkeypatch.setattr(cli, "scale_corpus", scoring)
        assert main(["report", "--scenario", str(small_scenario_json),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(families) == len(ScalingMethod)

    def test_reruns_are_hash_identical(self, small_scenario_json, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["report", "--scenario", str(small_scenario_json), "--out", str(out1)])
        main(["report", "--scenario", str(small_scenario_json), "--out", str(out2)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        assert m1["content_hash"] == m2["content_hash"]

    def test_row_order_does_not_change_the_report(self, small_scenario_json, tmp_path):
        main(["simulate", "--scenario", str(small_scenario_json),
              "--out", str(tmp_path / "sim")])
        header, *rows = (tmp_path / "sim" / "corpus.csv").read_text().splitlines()
        random.Random(7).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *rows]) + "\n")
        hashes = []
        for name, path in (("a", tmp_path / "sim" / "corpus.csv"), ("b", shuffled)):
            assert main(["report", "--input", str(path),
                         "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            hashes.append(manifest["content_hash"])
        assert hashes[0] == hashes[1]

    def test_method_that_skips_every_group_writes_empty_diagnostics(self, tmp_path):
        # every group is 80 % uncited, so median skips all six
        specs = tuple(
            CategorySpec(f"Z{c}", year, 30, "discretized-lognormal", (1.0, 1.0), 0.8)
            for c in range(3) for year in (2001, 2002)
        )
        save_scenario(Scenario(seed=5, specs=specs), tmp_path / "s.json")
        out = tmp_path / "o"
        assert main(["report", "--scenario", str(tmp_path / "s.json"),
                     "--out", str(out)]) == 0
        assert (out / "collapse_median.json").read_text() == (
            '{\n  "max_pairwise_ks": null,\n  "method": "median",\n'
            '  "n_curves": 0,\n  "quantile_dispersion": []\n}\n'
        )
        assert (out / "survival_median.csv").read_text() == "category,year,value,prob\n"
        assert json.loads((out / "collapse_raw.json").read_text())["n_curves"] == 6

    @pytest.mark.parametrize("big, line", [(10**20, 14), (2**1023, 2)],
                             ids=["1e20", "2**1023"])
    def test_counts_beyond_int64_exit_one_naming_line(self, big, line, tmp_path, capsys):
        rows = [(f"p{i}", 2003, "A", c) for i, c in enumerate(range(0, 24, 2))]
        rows.insert(line - 2, ("big", 2003, "A", big))
        rows += [(f"q{i}", 2003, "B", c) for i, c in enumerate(range(1, 13))]
        path = write_corpus_csv(tmp_path / "big.csv", rows)
        out = tmp_path / "o"
        assert main(["report", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: citations is beyond the int64 range" in err
        assert not out.exists()

    def test_int64_max_counts_report_without_nan(self, tmp_path):
        counts = [2**63 - 1, 2**63 - 1, *range(2, 10)]
        rows = [(f"x{i}", 2000, "X", c) for i, c in enumerate(counts)]
        rows += [(f"y{c}", 2000, "Y", c) for c in range(10)]
        path = write_corpus_csv(tmp_path / "max.csv", rows)
        out = tmp_path / "o"
        assert main(["report", "--input", str(path), "--out", str(out)]) == 0
        for artifact in sorted(out.glob("*.json")):
            json.loads(artifact.read_text(), parse_constant=_reject)
        summary = json.loads((out / "topshare_summary.json").read_text())
        assert all(not m["unevaluated_categories"] for m in summary["methods"].values())


METHODS = ("max", "mean", "mean0", "boxcox", "median", "median0")
EVERY_METHOD = [arg for m in METHODS for arg in ("--method", m)]


class TestOnePipeline:
    """Every subcommand is a slice of `report`: same inputs, same bytes."""

    @pytest.mark.parametrize("argv, n_files", [
        (["stats"], 1),
        (["survival", *EVERY_METHOD], 14),
        (["topshare", *EVERY_METHOD], 8),
        *((["gof", "--method", m], 1) for m in METHODS),
        (["gof", *EVERY_METHOD], 6),
        # a repeated method is scored and written once
        (["survival", "--method", "mean", "--method", "mean"], 4),
        (["topshare", *EVERY_METHOD, "--method", "median"], 8),
    ], ids=["stats", "survival", "topshare", *(f"gof-{m}" for m in METHODS), "gof",
            "survival-repeated", "topshare-repeated"])
    def test_subcommand_writes_the_report_bytes(
        self, argv, n_files, small_scenario_json, tmp_path
    ):
        scenario = ["--scenario", str(small_scenario_json)]
        report = tmp_path / "report"
        assert main(["report", *scenario, "--out", str(report)]) == 0
        out = tmp_path / "sub"
        assert main([*argv, *scenario, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == n_files
        for name in names:
            assert (out / name).read_bytes() == (report / name).read_bytes(), name

    # sha256 of scaled_<method>.csv followed by skipped_<method>.csv on the
    # small scenario (first 16 hex digits), as written before the CLI became
    # one pipeline
    SCALED_SHA256 = {
        "max": "3bdcd97a818dc12f",
        "mean": "8e38d9d333385407",
        "mean0": "3cd7da4e55ab9c31",
        "boxcox": "750c56099ba25aea",
        "median": "c4efbf5973bd7d98",
        "median0": "e63570b8dcbbe8b9",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_scale_writes_the_pinned_bytes(self, method, small_scenario_json, tmp_path):
        out = tmp_path / "out"
        assert main(["scale", "--scenario", str(small_scenario_json),
                     "--method", method, "--out", str(out)]) == 0
        scaled, skipped = out / f"scaled_{method}.csv", out / f"skipped_{method}.csv"
        assert sorted(out.iterdir()) == [scaled, skipped]
        digest = hashlib.sha256(scaled.read_bytes() + skipped.read_bytes()).hexdigest()
        assert digest[:16] == self.SCALED_SHA256[method]

    # the same digests of the frozen benchmark corpus (27,345 records);
    # boxcox is not pinned, since numpy's SIMD tiers round its bytes apart
    FROZEN_SCALED_SHA256 = {
        "max": "18175ef39e5e47ea",
        "mean": "e0d8e069310257f8",
        "mean0": "a5011a1d0fbdac16",
        "median": "7d257fd02739563e",
        "median0": "21a66ec3d173732c",
    }

    @pytest.fixture(scope="class")
    def frozen_scaled(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("frozen")
        save_scenario(benchmark_scenario(), tmp / "frozen.json")
        methods = [arg for m in self.FROZEN_SCALED_SHA256 for arg in ("--method", m)]
        assert main(["scale", "--scenario", str(tmp / "frozen.json"), *methods,
                     "--out", str(tmp / "out")]) == 0
        return tmp / "out"

    @pytest.mark.parametrize("method", sorted(FROZEN_SCALED_SHA256))
    def test_scale_writes_the_pinned_bytes_on_the_frozen_corpus(self, method, frozen_scaled):
        scaled, skipped = (frozen_scaled / f"{kind}_{method}.csv" for kind in ("scaled", "skipped"))
        digest = hashlib.sha256(scaled.read_bytes() + skipped.read_bytes()).hexdigest()
        assert digest[:16] == self.FROZEN_SCALED_SHA256[method]

    def test_every_csv_line_holds_a_cell_per_header_cell(self, small_scenario_json, tmp_path):
        # a column whose texts lost their comma or line end shows on any input
        scenario = ["--scenario", str(small_scenario_json)]
        assert main(["report", *scenario, "--out", str(tmp_path)]) == 0
        assert main(["scale", *scenario, *EVERY_METHOD, "--out", str(tmp_path)]) == 0
        tables = sorted(tmp_path.glob("*.csv"))
        assert len(tables) == 2 + 7 + 6 + 7 + 2 * 6  # corpus, stats, survival, gof, topshare, scale
        for path in tables:
            text = path.read_bytes()
            assert text.endswith(b"\n"), path.name
            lines = text[:-1].split(b"\n")
            width = len(lines[0].split(b","))
            assert {line.count(b",") for line in lines} == {width - 1}, path.name

    def test_scale_writes_each_method_given(self, small_scenario_json, tmp_path):
        # two methods in one run write the files of two single-method runs
        scale = ["scale", "--scenario", str(small_scenario_json)]
        both = tmp_path / "both"
        assert main([*scale, "--method", "mean", "--method", "max", "--out", str(both)]) == 0
        assert sorted(p.name for p in both.iterdir()) == [
            "scaled_max.csv", "scaled_mean.csv", "skipped_max.csv", "skipped_mean.csv"
        ]
        for method in ("mean", "max"):
            one = tmp_path / method
            assert main([*scale, "--method", method, "--out", str(one)]) == 0
            for path in one.iterdir():
                assert (both / path.name).read_bytes() == path.read_bytes(), path.name

    def test_gof_notes_are_the_report_notes_in_method_order(self, tmp_path, capsys):
        rows = [(f"a{i}", 2003, "A", i % 9) for i in range(30)]
        rows += [(f"b{i}", 2003, "B", c) for i, c in enumerate([0, 1, 3, 3, 8])]
        path = write_corpus_csv(tmp_path / "c.csv", rows)
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
        notes = capsys.readouterr().err.splitlines()
        assert notes == [
            f"note: 1 groups below the minimum sample for gof_{m}" for m in METHODS
        ]
        for m, note in zip(METHODS, notes):
            assert main(["gof", "--input", str(path), "--method", m,
                         "--out", str(tmp_path / m)]) == 0
            assert capsys.readouterr().err == note + "\n"

    def test_gof_notes_count_each_skip_reason(self, tmp_path, capsys):
        rows = [(f"e{i}", 2003, "E", 5) for i in range(10)]  # all equal
        rows += [(f"s{i}", 2003, "S", i) for i in range(12)]
        rows += [(f"f{i}", 2003, "F", i) for i in (1, 2, 3)]  # too few
        path = write_corpus_csv(tmp_path / "c.csv", rows)
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
        few = "note: 1 groups below the minimum sample for gof_{}"
        equal = "note: 1 groups with all values equal for gof_{}"
        # max and boxcox skip E before the test: zero range, degenerate fit
        assert capsys.readouterr().err.splitlines() == [
            note.format(m) for m in METHODS
            for note in ((few,) if m in ("max", "boxcox") else (few, equal))
        ]

    @pytest.mark.parametrize("argv, flag, value, message", [
        pytest.param(argv, flag, value, message,
                     id=f"{argv[0]}-{flag[2:]}" + ("-nul" if value else ""))
        for argv, flags in (
            *((argv, ("--input", "--scenario", "--out")) for argv in (
                ["stats"], ["scale", "--method", "mean"], ["survival"], ["topshare"],
                ["gof", "--method", "mean"], ["report"],
            )),
            (["ingest-check"], ("--input",)),
            (["simulate"], ("--scenario", "--out")),
        )
        for flag in flags
        for value, message in (("", "must not be empty"),
                               ("c\x00.csv", "must not contain a NUL byte"))
    ])
    def test_empty_path_is_usage_error_and_writes_nothing(
        self, argv, flag, value, message, tmp_path, monkeypatch, capsys
    ):
        # Path("") is the working directory, read as a file or written into,
        # and a NUL byte fails at open() with a ValueError
        monkeypatch.chdir(tmp_path)
        # the other required paths: parsing fails before any use
        paths = {"ingest-check": {}, "simulate": {"--scenario": "s.json", "--out": "o"}}.get(
            argv[0], {"--input": "c.csv", "--out": "o"})
        if flag == "--scenario":
            paths.pop("--input", None)
        paths[flag] = value
        with pytest.raises(SystemExit) as exc:
            main([*argv, *(arg for item in paths.items() for arg in item)])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unreadable_input_leaves_no_report_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "o"
        assert main(["report", "--input", str(empty), "--out", str(out)]) == 1
        assert "empty" in capsys.readouterr().err
        assert not out.exists()


_INT64_MAX = 2**63 - 1
_COUNTS = st.sampled_from([0, 1, 3, _INT64_MAX, 2**63]) | st.integers(0, _INT64_MAX)
_GROUP_KEYS = st.tuples(st.sampled_from("AB"), st.sampled_from([2000, 2001]))
_ZIPF_SPECS = st.builds(
    lambda key, n, c_max, zero_inflation, margin: CategorySpec(
        *key, n, "zipf-with-cutoff", (1.0, c_max), zero_inflation,
        count_scale=max(1, _INT64_MAX // c_max + margin),
    ),
    _GROUP_KEYS,
    st.integers(1, 6),
    st.integers(1, 4),
    st.just(1 - 2**-20) | st.floats(0.0, 1.0, exclude_max=True),
    st.integers(-2, 2),
)


def _runs_or_exits_one(argv, out):
    """Run one ``citescale`` subcommand and check the contract every input
    meets: exit 0 with only finite numbers in its artifacts, or exit 1
    writing nothing, and no warning either way; return the exit code and
    stderr."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1)
    if code == 1:
        assert not out.exists()
        return code, stderr.getvalue()
    for artifact in out.glob("*.json"):
        json.loads(artifact.read_text(), parse_constant=_reject)
    for artifact in out.glob("*.csv"):
        cells = set(re.split("[,\n]", artifact.read_text().lower()))
        assert not cells & {"nan", "inf", "-inf"}, artifact.name
    return code, stderr.getvalue()


def _report_and_scale(source, method, tmp):
    """Exit code and stderr of ``report`` on ``source``; ``scale --method``
    on it must exit the same way and, on exit 1, print the same error."""
    code, err = _runs_or_exits_one(["report", *source], tmp / "report")
    scale_code, scale_err = _runs_or_exits_one(
        ["scale", "--method", method, *source], tmp / "scale"
    )
    assert scale_code == code
    if code == 1:
        assert scale_err == err
    return code, err


class TestEveryInputReportsOrExitsOne:
    """Small corpora and scenarios at the edge of the int64 count range, run
    through ``report`` and ``scale``, which writes the per-record scores."""

    @settings(max_examples=80)
    @given(st.lists(st.tuples(_GROUP_KEYS, _COUNTS), min_size=1, max_size=12),
           st.sampled_from(METHODS))
    def test_csv_input(self, rows, method):
        rows = [(f"p{i}", year, cat, count) for i, ((cat, year), count) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus_csv(Path(tmp) / "c.csv", rows)
            code, err = _report_and_scale(["--input", str(path)], method, Path(tmp))
        beyond = [i for i, row in enumerate(rows) if row[3] > _INT64_MAX]
        assert code == (1 if beyond else 0)
        if beyond:
            assert f"line {beyond[0] + 2}: citations is beyond the int64 range" in err

    @settings(max_examples=80)
    @given(st.lists(_ZIPF_SPECS, min_size=1, max_size=3,
                    unique_by=lambda s: (s.category, s.year)),
           st.sampled_from(METHODS))
    def test_scenario_counts_near_int64_max(self, specs, method):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            save_scenario(Scenario(seed=5, specs=specs), path)
            code, err = _report_and_scale(["--scenario", str(path)], method, Path(tmp))
        if code == 1:
            assert err.startswith("error: spec ") and "int64 range" in err


@st.composite
def _relabelled_groups(draw):
    """Each group's counts, and a permutation of them among its pub_ids."""
    groups = draw(st.lists(
        st.lists(st.integers(0, 60) | st.integers(0, 2**62), min_size=1, max_size=25),
        min_size=2, max_size=6,
    ))
    return [(counts, draw(st.permutations(range(len(counts))))) for counts in groups]


class TestRelabellingPubIds:
    """Which pub_id holds which count of a group moves no ratio divisor, so
    every artifact of ``report`` but the boxcox ones keeps its bytes (the
    boxcox fit sums in record order)."""

    @settings(max_examples=40)
    @given(_relabelled_groups())
    # summed in pub_id order, A's counts and their rotation have different means
    @example([([2**53, 1, 1, 0], [1, 2, 3, 0]), ([0, 1, 2, 3, 5, 8, 13, 21, 34], range(9))])
    def test_every_artifact_but_boxcox_keeps_its_bytes(self, groups):
        rows, relabelled = [], []
        for g, (counts, order) in enumerate(groups):
            cat, year = "ABC"[g % 3], 2003 + g // 3
            ids = [f"p{len(rows) + i + 1}" for i in range(len(counts))]
            rows += [(pid, year, cat, c) for pid, c in zip(ids, counts)]
            relabelled += [(pid, year, cat, counts[i]) for pid, i in zip(ids, order)]
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            for out, corpus in ((a, rows), (b, relabelled)):
                path = write_corpus_csv(out.with_suffix(".csv"), corpus)
                assert main(["report", "--input", str(path), "--out", str(out)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                if "boxcox" in name or name == "manifest.json":
                    continue
                if name == "topshare_summary.json":
                    summaries = [json.loads((d / name).read_text()) for d in (a, b)]
                    for summary in summaries:
                        del summary["methods"]["boxcox"]
                    assert json.dumps(summaries[0]) == json.dumps(summaries[1])
                else:
                    assert (a / name).read_bytes() == (b / name).read_bytes(), name

import contextlib
import hashlib
import io
import json
import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescale.cli import main
from citescale.corpus import emit_csv, ingest_csv
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

    def test_bad_top_fraction_is_usage_error(self, small_corpus_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "topshare", "--input", str(small_corpus_csv),
                "--top-fraction", "1.5", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

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
        assert _scenario_exit_code(tmp_path, {"seed": 1, "specs": specs}) == 1
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
        assert _scenario_exit_code(tmp_path, {"seed": 1, "specs": specs}) == 1
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
    ], ids=["stats", "survival", "topshare", *(f"gof-{m}" for m in METHODS)])
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

    @pytest.mark.parametrize("flag", ["--input", "--scenario", "--out"],
                             ids=lambda flag: flag[2:])
    @pytest.mark.parametrize("argv", [
        ["stats"], ["scale", "--method", "mean"], ["survival"], ["topshare"],
        ["gof", "--method", "mean"], ["report"],
    ], ids=lambda argv: argv[0])
    def test_empty_path_is_usage_error_and_writes_nothing(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        # Path("") is the working directory: read as a file, or written into
        monkeypatch.chdir(tmp_path)
        paths = {"--input": "c.csv", "--out": "o"}  # parsing fails before any use
        if flag == "--scenario":
            del paths["--input"]
        paths[flag] = ""
        with pytest.raises(SystemExit) as exc:
            main([*argv, *(arg for item in paths.items() for arg in item)])
        assert exc.value.code == 2
        assert f"argument {flag}: must not be empty" in capsys.readouterr().err
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


def _report_or_exit_one(argv, out):
    """Run ``citescale report`` and check the contract every input meets:
    exit 0 with only finite numbers in its artifacts, or exit 1 writing
    nothing, and no warning either way; return the exit code and stderr."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["report", *argv, "--out", str(out)])
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


class TestEveryInputReportsOrExitsOne:
    """Small corpora and scenarios at the edge of the int64 count range."""

    @settings(max_examples=80)
    @given(st.lists(st.tuples(_GROUP_KEYS, _COUNTS), min_size=1, max_size=12))
    def test_csv_input(self, rows):
        rows = [(f"p{i}", year, cat, count) for i, ((cat, year), count) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus_csv(Path(tmp) / "c.csv", rows)
            code, err = _report_or_exit_one(["--input", str(path)], Path(tmp) / "o")
        beyond = [i for i, row in enumerate(rows) if row[3] > _INT64_MAX]
        assert code == (1 if beyond else 0)
        if beyond:
            assert f"line {beyond[0] + 2}: citations is beyond the int64 range" in err

    @settings(max_examples=80)
    @given(st.lists(_ZIPF_SPECS, min_size=1, max_size=3,
                    unique_by=lambda s: (s.category, s.year)))
    def test_scenario_counts_near_int64_max(self, specs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            save_scenario(Scenario(seed=5, specs=specs), path)
            code, err = _report_or_exit_one(["--scenario", str(path)], Path(tmp) / "o")
        if code == 1:
            assert err.startswith("error: spec ") and "int64 range" in err

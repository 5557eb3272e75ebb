import json
import math
import random

import pytest

from citescale.cli import main
from citescale.synth import Scenario, CategorySpec, save_scenario

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
        path.write_text('{"seed": 1, "specs": [')
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

    @staticmethod
    def simulate_one_spec(tmp_path, family_params, count_scale):
        path = tmp_path / "scenario.json"
        spec = CategorySpec("A", 2003, 200, "discretized-lognormal", family_params,
                            count_scale=count_scale)
        save_scenario(Scenario(seed=1, specs=(spec,)), path)
        return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("count_scale", [4 * 10**17, 10**19])
    def test_count_scale_beyond_int64_is_exact(self, count_scale, tmp_path, capsys):
        assert self.simulate_one_spec(tmp_path, (3.0, 1.0), count_scale) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "out" / "corpus.csv").read_text().splitlines()[1:]
        counts = [int(line.rsplit(",", 1)[1]) for line in lines]
        assert all(c >= 0 and c % count_scale == 0 for c in counts)
        assert max(counts) >= 2**63
        meta = json.loads((tmp_path / "out" / "scenario_meta.json").read_text())
        assert meta["total_citations"] == sum(counts)

    @pytest.mark.parametrize("count_scale", [10**18, 10**19])
    def test_total_citations_is_an_exact_int(self, count_scale, tmp_path):
        # every draw is 7: at 10**18 each count fits int64 but the total does not
        assert self.simulate_one_spec(tmp_path, (math.log(7.5), 1e-9), count_scale) == 0
        meta = json.loads((tmp_path / "out" / "scenario_meta.json").read_text())
        assert meta["total_citations"] == 200 * 7 * count_scale

    @pytest.mark.parametrize("family_params, count_scale, reason", [
        ((45.0, 1.0), 1, "must stay below 2**63, got 4.89398e+20"),
        ((3.0, 1.0), 10**400, "exceeds the float64 range"),
    ], ids=["draw-beyond-int64", "count-beyond-float64"])
    def test_counts_beyond_range_exit_one_naming_spec(
        self, family_params, count_scale, reason, tmp_path, capsys
    ):
        assert self.simulate_one_spec(tmp_path, family_params, count_scale) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec A/2003: ") and reason in err

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

    def test_counts_beyond_int64_still_report(self, tmp_path):
        rows = [(f"p{i}", 2003, "A", c) for i, c in enumerate(range(0, 24, 2))]
        rows.append(("big", 2003, "A", 10**20))
        rows += [(f"q{i}", 2003, "B", c) for i, c in enumerate(range(1, 13))]
        path = write_corpus_csv(tmp_path / "big.csv", rows)
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "o")]) == 0

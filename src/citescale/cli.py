"""Command line front end: reproducible report runs over a corpus.

Subcommands::

    ingest-check   validate a corpus CSV and print row/warning/group counts
    stats          per-group descriptive statistics CSV
    scale          score one method, CSV output plus skipped-group sidecar
    survival       per-group curve data and a collapse-metrics JSON
    topshare       global top-share reports with admissibility bands
    gof            per-group lognormal goodness-of-fit CSV
    simulate       draw a synthetic corpus from a scenario JSON
    report         the full pipeline for raw plus all six methods, with a
                   hash manifest of every artifact

Exit codes: 0 success, 1 data error, 2 usage error (including flag values
that could not work, such as a non-positive goodness-of-fit threshold).
All numeric output is locale-independent with '.' as decimal separator and
10 significant digits, and rerunning a subcommand on identical inputs
rewrites identical bytes (timestamps appear only in the manifest metadata
block, which is excluded from hashing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    GroupKey,
    citation_vectors,
    emit_csv,
    group_records,
    ingest_csv,
    write_csv,
)
from .errors import CitescaleError, InsufficientSampleError
from .gof import DEFAULT_THRESHOLD, ad_lognormal
from .scaling import ScalingMethod, scale_corpus
from .stats import describe
from .survival import binned_survival, collapse_metrics, log_binned_thresholds
from .topshare import DEFAULT_TOP_FRACTION, method_comparison
from .synth import generate, load_scenario, prng_metadata

METHOD_NAMES = tuple(m.value for m in ScalingMethod)


def _opt(value: float | None) -> str:
    """A float cell that may be undefined: empty when None."""
    return "" if value is None else "%.10g" % value


def _write_json(path: Path, payload) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _load_corpus(args: argparse.Namespace) -> Corpus:
    if getattr(args, "scenario", None):
        return generate(load_scenario(args.scenario))
    result = ingest_csv(args.input, strict=getattr(args, "strict", False))
    if result.n_warnings:
        print(
            f"warning: {result.n_warnings} duplicate (pub_id, category) rows replaced",
            file=sys.stderr,
        )
    return result.corpus


def _load_citations(args: argparse.Namespace) -> dict[GroupKey, np.ndarray]:
    return citation_vectors(group_records(_load_corpus(args)))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- artifact writers (shared by single subcommands and `report`) ----------

STATS_HEADER = (
    "category", "year", "n", "mean", "median", "stddev", "skewness",
    "kurtosis", "n_nonzero", "mean_nonzero", "median_nonzero",
    "kurtosis_convention",
)


def _write_stats(citations: dict[GroupKey, np.ndarray], path: Path) -> None:
    rows = []
    for key, values in citations.items():
        st = describe(values)
        rows.append(
            (
                key.category, key.year, st.n, st.mean, st.median, _opt(st.stddev),
                _opt(st.skewness), _opt(st.kurtosis), st.n_nonzero,
                _opt(st.mean_nonzero), _opt(st.median_nonzero), "excess",
            )
        )
    write_csv(path, STATS_HEADER, "%s,%d,%d,%.10g,%.10g,%s,%s,%s,%d,%s,%s,%s\n", rows)


def _write_scaled(corpus: Corpus, method: ScalingMethod, out: Path) -> list[Path]:
    scores, skipped = scale_corpus(citation_vectors(group_records(corpus)), method)
    columns = (corpus.pub_id, corpus.year, corpus.category, corpus.citations)
    rows: list[tuple] = []
    for key, aii in scores.items():
        part = corpus.group_slices[key]
        rows += zip(
            *(c[part].tolist() for c in columns), repeat(method.value), aii.tolist()
        )
    scaled_path = out / f"scaled_{method.value}.csv"
    write_csv(
        scaled_path,
        ("pub_id", "year", "category", "citations", "method", "aii"),
        "%s,%d,%s,%d,%s,%.10g\n",
        rows,
    )
    skipped_path = out / f"skipped_{method.value}.csv"
    write_csv(
        skipped_path,
        ("category", "year", "n_records", "reason"),
        "%s,%d,%d,%s\n",
        ((sk.group.category, sk.group.year, sk.n_records, sk.reason) for sk in skipped),
    )
    return [scaled_path, skipped_path]


def _collapse_payload(report) -> dict:
    return {
        "method": "raw" if report.method is None else report.method.value,
        "n_curves": report.n_curves,
        "max_pairwise_ks": report.max_pairwise_ks,
        "quantile_dispersion": [
            {
                "q": d.q,
                "spread": d.spread,
                "n_groups": d.n_groups,
                "n_excluded_zero": d.n_excluded_zero,
            }
            for d in report.quantile_dispersion
        ],
    }


def _write_survival(
    vectors: dict[GroupKey, np.ndarray], method: ScalingMethod | None, out: Path
) -> list[Path]:
    """Curves and collapse metrics of one method's scores (raw counts when
    ``method`` is None)."""
    name = "raw" if method is None else method.value
    keys = list(vectors)
    thresholds = log_binned_thresholds(vectors[k] for k in keys)
    values = thresholds.tolist()
    rows: list[tuple] = []
    for key in keys:
        probs = binned_survival(vectors[key], thresholds).tolist()
        rows += zip(repeat(key.category), repeat(key.year), values, probs)
    curve_path = out / f"survival_{name}.csv"
    write_csv(
        curve_path, ("category", "year", "value", "prob"), "%s,%d,%.10g,%.10g\n", rows
    )

    collapse_path = out / f"collapse_{name}.json"
    if len(keys) >= 2:
        payload = _collapse_payload(collapse_metrics(vectors, method=method))
    else:
        payload = {
            "method": name,
            "n_curves": len(keys),
            "max_pairwise_ks": None,
            "quantile_dispersion": [],
        }
    _write_json(collapse_path, payload)
    return [curve_path, collapse_path]


TOPSHARE_HEADER = (
    "category", "n", "top_count", "share", "band_low", "band_high",
    "within_band", "n_skipped_records",
)


def _write_topshare(
    raw: dict[GroupKey, np.ndarray],
    scored: dict,
    top_fraction: float,
    out: Path,
    years=None,
) -> list[Path]:
    reports = method_comparison(raw, scored, top_fraction, years=years)
    paths = []
    summary: dict = {"top_fraction": top_fraction, "methods": {}}
    for report in reports:
        path = out / f"topshare_{report.method_name}.csv"
        write_csv(
            path,
            TOPSHARE_HEADER,
            "%s,%d,%d,%.10g,%.10g,%.10g,%s,%d\n",
            (
                (c.category, c.n, c.top_count, c.share, c.band_low, c.band_high,
                 "true" if c.within_band else "false", c.n_skipped_records)
                for c in report.per_category
            ),
        )
        paths.append(path)
        summary["methods"][report.method_name] = {
            "n_within_band": report.n_within_band,
            "n_categories_evaluated": report.n_categories_evaluated,
            "n_records": report.n_records,
            "n_top": report.n_top,
            "cutoff": None if report.n_records == 0 else report.cutoff,
            "unevaluated_categories": list(report.unevaluated_categories),
        }
    summary_path = out / "topshare_summary.json"
    _write_json(summary_path, summary)
    paths.append(summary_path)
    return paths


GOF_HEADER = (
    "category", "year", "n_used", "threshold", "mu_hat", "sigma_hat",
    "a_squared", "a_squared_star", "p_bracket",
)


def _write_gof(
    vectors: dict[GroupKey, np.ndarray],
    method: ScalingMethod,
    threshold: float,
    out: Path,
) -> list[Path]:
    rows = []
    n_skipped = 0
    for key in vectors:
        try:
            rep = ad_lognormal(vectors[key], threshold=threshold, group=key)
        except InsufficientSampleError:
            n_skipped += 1
            continue
        rows.append(
            (key.category, key.year, rep.n_used, rep.threshold, rep.mu_hat,
             rep.sigma_hat, rep.a_squared, rep.a_squared_star, rep.p_bracket)
        )
    if n_skipped:
        print(
            f"note: {n_skipped} groups below the minimum sample for "
            f"gof_{method.value}",
            file=sys.stderr,
        )
    path = out / f"gof_{method.value}.csv"
    write_csv(path, GOF_HEADER, "%s,%d,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%s\n", rows)
    return [path]


# --- subcommand entry points ------------------------------------------------

def _cmd_ingest_check(args: argparse.Namespace) -> int:
    result = ingest_csv(args.input, strict=args.strict)
    print(
        f"rows={result.n_rows} records={len(result.corpus)} "
        f"warnings={result.n_warnings} groups={len(result.corpus.group_slices)}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    citations = _load_citations(args)
    out = _out_dir(args)
    _write_stats(citations, out / "stats.csv")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    out = _out_dir(args)
    _write_scaled(corpus, ScalingMethod(args.method), out)
    return 0


def _cmd_survival(args: argparse.Namespace) -> int:
    raw = _load_citations(args)
    out = _out_dir(args)
    _write_survival(raw, None, out)
    for method in dict.fromkeys(ScalingMethod(m) for m in args.method or []):
        _write_survival(scale_corpus(raw, method)[0], method, out)
    return 0


def _cmd_topshare(args: argparse.Namespace) -> int:
    raw = _load_citations(args)
    out = _out_dir(args)
    scored = {
        method: scale_corpus(raw, method)
        for method in dict.fromkeys(ScalingMethod(m) for m in args.method or [])
    }
    _write_topshare(raw, scored, args.top_fraction, out, years=args.year or None)
    return 0


def _cmd_gof(args: argparse.Namespace) -> int:
    raw = _load_citations(args)
    out = _out_dir(args)
    method = ScalingMethod(args.method)
    _write_gof(scale_corpus(raw, method)[0], method, args.gof_threshold, out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    corpus = generate(scenario)
    out = _out_dir(args)
    emit_csv(corpus, out / "corpus.csv")
    meta = prng_metadata()
    meta.update(
        {
            "seed": scenario.seed,
            "n_specs": len(scenario.specs),
            "n_records": len(corpus),
            "total_citations": sum(corpus.citations.tolist()),  # exact, never int64
        }
    )
    _write_json(out / "scenario_meta.json", meta)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    artifacts: list[Path] = []
    corpus = _load_corpus(args)
    if args.scenario:  # a generated corpus is an artifact of the run
        artifacts.append(out / "corpus.csv")
        emit_csv(corpus, artifacts[-1])
    source = str(args.scenario or args.input)

    raw = citation_vectors(group_records(corpus))
    stats_path = out / "stats.csv"
    _write_stats(raw, stats_path)
    artifacts.append(stats_path)

    # every diagnostic reads the same score vectors: one scoring per method
    scored = {method: scale_corpus(raw, method) for method in ScalingMethod}
    artifacts.extend(_write_survival(raw, None, out))
    for method, (scores, _) in scored.items():
        artifacts.extend(_write_survival(scores, method, out))
        artifacts.extend(_write_gof(scores, method, args.gof_threshold, out))
    artifacts.extend(_write_topshare(raw, scored, args.top_fraction, out))

    entries = []
    for path in sorted(artifacts, key=lambda p: p.name):
        data = path.read_bytes()
        entries.append(
            {
                "path": path.name,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        )
    content_hash = hashlib.sha256(
        "\n".join(f"{e['path']}:{e['sha256']}" for e in entries).encode("utf-8")
    ).hexdigest()
    manifest = {
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "tool": "citescale",
            "version": __version__,
            "source": source,
            "top_fraction": args.top_fraction,
            "gof_threshold": args.gof_threshold,
            **prng_metadata(),
        },
        "artifacts": entries,
        "content_hash": content_hash,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"report written to {out} ({len(entries)} artifacts, hash {content_hash[:12]})")
    return 0


# --- parser ------------------------------------------------------------------

def _add_input_args(parser: argparse.ArgumentParser, scenario_ok: bool = True) -> None:
    if scenario_ok:
        src = parser.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="corpus CSV to read")
        src.add_argument("--scenario", help="scenario JSON to generate a corpus from")
    else:
        parser.add_argument("--input", required=True, help="corpus CSV to read")
    parser.add_argument(
        "--strict", action="store_true",
        help="reject duplicate (pub_id, category) rows instead of last-wins",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citescale",
        description="Field- and year-normalized citation scoring reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a corpus CSV")
    _add_input_args(p, scenario_ok=False)
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("stats", help="per-group descriptive statistics")
    _add_input_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("scale", help="score records under one method")
    _add_input_args(p)
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("survival", help="survival curves and collapse metrics")
    _add_input_args(p)
    p.add_argument(
        "--method", action="append", choices=METHOD_NAMES,
        help="scaling method(s) to add beside the raw curves (repeatable)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_survival)

    p = sub.add_parser("topshare", help="global top-share admissibility report")
    _add_input_args(p)
    p.add_argument(
        "--method", action="append", choices=METHOD_NAMES,
        help="scaling method(s) to compare against the raw ranking (repeatable)",
    )
    p.add_argument("--top-fraction", type=_fraction, default=DEFAULT_TOP_FRACTION)
    p.add_argument(
        "--year", action="append", type=int,
        help="restrict the ranking to these publication years (repeatable)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_topshare)

    p = sub.add_parser("gof", help="lognormal goodness of fit per group")
    _add_input_args(p)
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--gof-threshold", type=_positive, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("simulate", help="draw a synthetic corpus from a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="full pipeline: raw plus all six methods")
    _add_input_args(p)
    p.add_argument("--top-fraction", type=_fraction, default=DEFAULT_TOP_FRACTION)
    p.add_argument("--gof-threshold", type=_positive, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CitescaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: reproducible report runs over a corpus.

Subcommands::

    ingest-check   validate a corpus CSV and print row/warning/group counts
    stats          per-group descriptive statistics CSV
    scale          score one or more methods, CSV output plus skipped-group sidecar
    survival       per-group curve data and a collapse-metrics JSON
    topshare       global top-share reports with admissibility bands
    gof            per-group lognormal goodness-of-fit CSV
    simulate       draw a synthetic corpus from a scenario JSON
    report         the full pipeline for raw plus all six methods, with a
                   hash manifest of every artifact

Every subcommand but ``ingest-check`` and ``simulate`` is one pipeline,
:func:`_run`: load the corpus, group it once and keep the ``--year`` groups.
Then, one family at a time (the raw counts, then each selected method in
``--method`` order), score it, hand it to every writer that the subparser
names in ``set_defaults`` (the parser is the table of writers) and drop it
before scoring the next.  ``report`` selects all six methods and every
writer, and adds the generated ``corpus.csv`` and a hash manifest.

Exit codes: 0 success, 1 data error, 2 usage error (including flag values
that could not work, such as a non-positive goodness-of-fit threshold).
All numeric output is locale-independent with '.' as decimal separator.
CSV cells have 10 significant digits; JSON numbers are written at full
``repr`` precision, and rerunning a subcommand on identical inputs
rewrites identical bytes (timestamps appear only in the manifest metadata
block, which is excluded from hashing).

Every CSV goes through one writer, ``corpus._write_table``, as columns of
texts that each end in their own comma or line end.  Each text is
formatted once: per group (its ``category,year`` cells), per survival
threshold, or per distinct count, score or probability
(``corpus._format_once``, distinct by the float's bits).  A table of one
row per group formats each row once.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    _format_once,
    _per_group,
    _write_table,
    emit_csv,
    group_records,
    ingest_csv,
)
from .errors import CitescaleError, EmptyCorpusError
from .gof import DEFAULT_THRESHOLD, ad_lognormal
from .scaling import ScalingMethod, scale_corpus
from .stats import _describe, _Family
from .survival import collapse_metrics, survival_curves
from .topshare import DEFAULT_TOP_FRACTION, top_share
from .synth import generate, load_scenario, prng_metadata

METHOD_NAMES = tuple(m.value for m in ScalingMethod)


def _opt(value: float | None) -> str:
    """A float cell that may be undefined: empty when None."""
    return "" if value is None else "%.10g" % value


def _write_json(path: Path, payload) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _float_in(lo: float, hi: float):
    """Argparse type for a float in the open interval (lo, hi)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must be in ({lo:g}, {hi:g}), got {text}")
        return value

    return parse


_fraction = _float_in(0.0, 1.0)
_positive = _float_in(0.0, math.inf)


def _path(text: str) -> str:
    if not text:  # Path("") is the working directory
        raise argparse.ArgumentTypeError("must not be empty")
    if "\x00" in text:  # no file name holds one; open() would raise ValueError
        raise argparse.ArgumentTypeError("must not contain a NUL byte")
    return text


def _load_corpus(args: argparse.Namespace) -> Corpus:
    if args.scenario is not None:
        return generate(load_scenario(args.scenario))
    result = ingest_csv(args.input, strict=args.strict)
    if result.n_warnings:
        print(
            f"warning: {result.n_warnings} duplicate (pub_id, category) rows replaced",
            file=sys.stderr,
        )
    return result.corpus


# --- artifact writers: each takes (run, name, family, skipped) --------------
# ``family`` is the raw counts (``name`` "raw", nothing skipped) or one
# method's scores (``name`` its value); a writer returns the paths it wrote
# for that family.  ``run`` holds the flags (``args``), the output directory
# (``out``), the ``corpus`` and its ``raw`` counts, and the top-share summary
# entry of each family ranked so far (``ranked``).

STATS_HEADER = (
    "category", "year", "n", "mean", "median", "stddev", "skewness",
    "kurtosis", "n_nonzero", "mean_nonzero", "median_nonzero",
    "kurtosis_convention",
)


def _write_stats(run: argparse.Namespace, name: str, raw, skipped) -> list[Path]:
    if name != "raw":
        return []
    rows = [
        "%s,%d,%d,%.10g,%.10g,%s,%s,%s,%d,%s,%s,excess\n" % (
            key.category, key.year, st.n, st.mean, st.median, _opt(st.stddev),
            _opt(st.skewness), _opt(st.kurtosis), st.n_nonzero,
            _opt(st.mean_nonzero), _opt(st.median_nonzero))
        for key, st in zip(raw, _describe(raw.sorted))
    ]
    path = run.out / "stats.csv"
    _write_table(path, STATS_HEADER, [(rows, None)])
    return [path]


def _write_scaled(run: argparse.Namespace, name: str, scores, skipped) -> list[Path]:
    if name == "raw":
        return []
    # the raw counts lay out every group of the corpus (``scale`` takes no
    # --year), so their mask of scored groups selects the scored rows
    kept = run.raw.seg.spread([key in scores for key in run.raw])
    scaled, skips = run.out / f"scaled_{name}.csv", run.out / f"skipped_{name}.csv"
    _write_table(scaled, ("pub_id", "year", "category", "citations", "method", "aii"), [
        (run.corpus.pub_id[kept], None),
        _per_group([f",{key.year},{key.category}," for key in scores], scores.seg.size),
        _format_once(f"%d,{name},", run.corpus.citations[kept]),
        _format_once("%.10g\n", scores.seg.values),
    ])
    rows = ["%s,%d,%d,%s\n" % (s.group.category, s.group.year, s.n_records, s.reason)
            for s in skipped]
    _write_table(skips, ("category", "year", "n_records", "reason"), [(rows, None)])
    return [scaled, skips]


def _write_survival(run: argparse.Namespace, name: str, vectors, skipped) -> list[Path]:
    """The family's curves and collapse metrics."""
    thresholds, probs = survival_curves(vectors)
    curves, collapse = run.out / f"survival_{name}.csv", run.out / f"collapse_{name}.json"
    # one row per (group, threshold): a text per group, per threshold and
    # per distinct probability
    _write_table(curves, ("category", "year", "value", "prob"), [
        _per_group(["%s,%d," % (key.category, key.year) for key in vectors], thresholds.size),
        _format_once("%.10g,", np.tile(thresholds, len(vectors))),
        _format_once("%.10g\n", probs.ravel()),
    ])
    report = collapse_metrics(vectors)
    _write_json(collapse, {"method": name, **dataclasses.asdict(report)})
    return [curves, collapse]


TOPSHARE_HEADER = (
    "category", "n", "top_count", "share", "band_low", "band_high",
    "within_band", "n_skipped_records",
)


def _write_topshare(run: argparse.Namespace, name: str, scores, skipped) -> list[Path]:
    """The family's ranking; its summary entry joins ``run.ranked``."""
    report = top_share(scores, run.args.top_fraction, skipped)
    path = run.out / f"topshare_{name}.csv"
    rows = [
        "%s,%d,%d,%.10g,%.10g,%.10g,%s,%d\n" % (
            c.category, c.n, c.top_count, c.share, c.band_low, c.band_high,
            "true" if c.within_band else "false", c.n_skipped_records)
        for c in report.per_category
    ]
    _write_table(path, TOPSHARE_HEADER, [(rows, None)])
    run.ranked[name] = {
        "n_within_band": report.n_within_band,
        "n_categories_evaluated": report.n_categories_evaluated,
        "n_records": report.n_records,
        "n_top": report.n_top,
        "cutoff": report.cutoff,
        "unevaluated_categories": list(report.unevaluated_categories),
    }
    return [path]


GOF_HEADER = (
    "category", "year", "n_used", "threshold", "mu_hat", "sigma_hat",
    "a_squared", "a_squared_star", "p_bracket",
)


def _write_gof(run: argparse.Namespace, name: str, scores, skipped) -> list[Path]:
    if name == "raw":
        return []
    reports, unfit = ad_lognormal(scores, threshold=run.args.gof_threshold)
    rows = [
        "%s,%d,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%s\n" % (
            key.category, key.year, rep.n_used, rep.threshold, rep.mu_hat,
            rep.sigma_hat, rep.a_squared, rep.a_squared_star, rep.p_bracket)
        for key, rep in reports.items()
    ]
    reasons = Counter(sk.reason for sk in unfit)
    for reason, what in (("too-few-values", "below the minimum sample"),
                         ("all-values-equal", "with all values equal")):
        if reasons[reason]:
            print(f"note: {reasons[reason]} groups {what} for gof_{name}", file=sys.stderr)
    path = run.out / f"gof_{name}.csv"
    _write_table(path, GOF_HEADER, [(rows, None)])
    return [path]


def _write_manifest(args, out: Path, artifacts: list[Path]) -> None:
    entries = [
        {"path": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
         "bytes": path.stat().st_size}
        for path in sorted(artifacts, key=lambda p: p.name)
    ]
    content_hash = hashlib.sha256(
        "\n".join(f"{e['path']}:{e['sha256']}" for e in entries).encode("utf-8")
    ).hexdigest()
    manifest = {
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "tool": "citescale",
            "version": __version__,
            "source": str(args.input if args.scenario is None else args.scenario),
            "top_fraction": args.top_fraction,
            "gof_threshold": args.gof_threshold,
            **prng_metadata(),
        },
        "artifacts": entries,
        "content_hash": content_hash,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"report written to {out} ({len(entries)} artifacts, hash {content_hash[:12]})")


# --- subcommand entry points ------------------------------------------------

def _run(args: argparse.Namespace) -> int:
    """The pipeline of the module docstring; ``--out`` is made only once the
    corpus has loaded and ``--year``, if given, has matched a group."""
    corpus = _load_corpus(args)
    years = set(getattr(args, "year", None) or ())
    if years and not any(key.year in years for key in corpus.group_slices):
        raise EmptyCorpusError(f"no records in years {sorted(years)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if args.command == "report" and args.scenario is not None:
        # a generated corpus is an artifact of the run; written before
        # grouping, its formatted rows share memory with no counts or scores
        paths.append(out / "corpus.csv")
        emit_csv(corpus, paths[-1])
    raw = group_records(corpus)
    if years:  # each group is scored on its own: select before scoring
        raw = _Family.of_counts({k: v for k, v in raw.items() if k.year in years})
    run = argparse.Namespace(args=args, out=out, corpus=corpus, raw=raw, ranked={})
    names = getattr(args, "method", None) or ()
    for method in (None, *dict.fromkeys(ScalingMethod(m) for m in names)):
        family, skipped = (raw, ()) if method is None else scale_corpus(raw, method)
        name = "raw" if method is None else method.value
        paths += [p for write in args.writers for p in write(run, name, family, skipped)]
        del family, skipped  # this method's scores and sorted copy go before the next
    if run.ranked:
        paths.append(out / "topshare_summary.json")
        _write_json(paths[-1], {"top_fraction": args.top_fraction, "methods": run.ranked})
    if args.command == "report":
        _write_manifest(args, out, paths)
    return 0


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    result = ingest_csv(args.input, strict=args.strict)
    print(
        f"rows={result.n_rows} records={len(result.corpus)} "
        f"warnings={result.n_warnings} groups={len(result.corpus.group_slices)}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    corpus = generate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(corpus, out / "corpus.csv")
    meta = {
        **prng_metadata(),
        "seed": scenario.seed,
        "n_specs": len(scenario.specs),
        "n_records": len(corpus),
        "total_citations": sum(corpus.citations.tolist()),  # exact, never int64
    }
    _write_json(out / "scenario_meta.json", meta)
    return 0


# --- parser ------------------------------------------------------------------

def _add_input_args(parser: argparse.ArgumentParser, pipeline: bool = True) -> None:
    """--input and --strict, and for a :func:`_run` subcommand --scenario and --out."""
    if pipeline:
        src = parser.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", type=_path, help="corpus CSV")
        src.add_argument("--scenario", type=_path, help="scenario JSON to generate from")
        parser.add_argument("--out", required=True, type=_path, help="output directory")
    else:
        parser.add_argument("--input", required=True, type=_path, help="corpus CSV")
    parser.add_argument(
        "--strict", action="store_true",
        help="with --input: reject duplicate (pub_id, category) rows instead of last-wins",
    )


def _add_method_arg(parser: argparse.ArgumentParser, what: str, required: bool = False) -> None:
    parser.add_argument(
        "--method", action="append", required=required, choices=METHOD_NAMES,
        help=f"scaling method(s) {what} (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citescale",
        description="Field- and year-normalized citation scoring reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a corpus CSV")
    _add_input_args(p, pipeline=False)
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("stats", help="per-group descriptive statistics")
    _add_input_args(p)
    p.set_defaults(func=_run, writers=(_write_stats,))

    p = sub.add_parser("scale", help="score records under one or more methods")
    _add_input_args(p)
    _add_method_arg(p, "to score", required=True)
    p.set_defaults(func=_run, writers=(_write_scaled,))

    p = sub.add_parser("survival", help="survival curves and collapse metrics")
    _add_input_args(p)
    _add_method_arg(p, "to add beside the raw curves")
    p.set_defaults(func=_run, writers=(_write_survival,))

    p = sub.add_parser("topshare", help="global top-share admissibility report")
    _add_input_args(p)
    _add_method_arg(p, "to compare against the raw ranking")
    p.add_argument("--top-fraction", type=_fraction, default=DEFAULT_TOP_FRACTION)
    p.add_argument(
        "--year", action="append", type=int,
        help="score and rank only the groups of these publication years (repeatable)",
    )
    p.set_defaults(func=_run, writers=(_write_topshare,))

    p = sub.add_parser("gof", help="lognormal goodness of fit per group")
    _add_input_args(p)
    _add_method_arg(p, "to test for a lognormal fit", required=True)
    p.add_argument("--gof-threshold", type=_positive, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=_run, writers=(_write_gof,))

    p = sub.add_parser("simulate", help="draw a synthetic corpus from a scenario")
    p.add_argument("--scenario", required=True, type=_path, help="scenario JSON")
    p.add_argument("--out", required=True, type=_path, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="full pipeline: raw plus all six methods")
    _add_input_args(p)
    p.add_argument("--top-fraction", type=_fraction, default=DEFAULT_TOP_FRACTION)
    p.add_argument("--gof-threshold", type=_positive, default=DEFAULT_THRESHOLD)
    p.set_defaults(
        func=_run,
        method=METHOD_NAMES,
        writers=(_write_stats, _write_survival, _write_gof, _write_topshare),
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "strict", False) and getattr(args, "scenario", None) is not None:
        parser.error("--strict goes with --input, not with --scenario")
    try:
        return args.func(args)
    except (CitescaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

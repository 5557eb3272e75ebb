"""Per-layer spans for one `citescale report`, recorded from outside the package.

The tracer wraps each layer's boundary functions and rebinds every module
global of ``citescale.*`` that holds the original, so a function imported by
name into several modules (``scale_corpus`` into ``cli`` and ``topshare``,
``group_records`` into ``scaling`` and ``cli``) is timed at every call site.
Spans ``(name, start, end, parent)`` are kept in memory; a span's self time is
its duration minus that of its child spans.  Counts come from arguments and
return values at the same boundaries: per-record ``scaling.scale`` is left
unwrapped on purpose, since it runs once per record and method.

A boundary that no longer exists is reported absent instead of failing, so
the benchmark keeps running across refactors that rename or delete one.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, function) pairs wrapped by the tracer, by layer.
BOUNDARIES = (
    ("synth", "generate"),
    ("corpus", "ingest_csv"),
    ("corpus", "emit_csv"),
    ("corpus", "group_records"),
    ("corpus", "group"),
    ("stats", "describe"),
    ("scaling", "scale_corpus"),
    ("scaling", "fit_factors"),
    ("scaling", "fit_lambda"),
    ("survival", "survival_curve"),
    ("survival", "binned_survival"),
    ("survival", "log_binned_thresholds"),
    ("survival", "collapse_metrics"),
    ("survival", "ks_statistic"),
    ("topshare", "method_comparison"),
    ("topshare", "top_share"),
    ("gof", "ad_lognormal"),
)

# Per-layer time metrics: summed self time of the listed boundaries.
# Corpus input and output share one metric, because which of them runs is
# set by the input kind: generate + emit_csv for a scenario, ingest_csv for a
# CSV.  A split metric would read exactly 0 on every run of some workload;
# the split is in the spans and in the share table.
SELF_TIME_METRICS = {
    "corpus.io_s": ("synth.generate", "corpus.emit_csv", "corpus.ingest_csv"),
    "corpus.group_s": ("corpus.group_records", "corpus.group"),
    "stats.describe_s": ("stats.describe",),
    "scaling.scale_corpus_s": ("scaling.scale_corpus",),
    "scaling.fit_factors_s": ("scaling.fit_factors",),
    "scaling.fit_lambda_s": ("scaling.fit_lambda",),
    "survival.curve_s": (
        "survival.survival_curve",
        "survival.binned_survival",
        "survival.log_binned_thresholds",
    ),
    "survival.collapse_s": ("survival.collapse_metrics",),
    "survival.ks_s": ("survival.ks_statistic",),
    "topshare.compare_s": ("topshare.method_comparison",),
    "topshare.rank_s": ("topshare.top_share",),
    "gof.ad_s": ("gof.ad_lognormal",),
}

# Per-layer count metrics: calls of one boundary.
CALL_METRICS = {
    "corpus.group_calls": "corpus.group_records",
    "scaling.scale_corpus_calls": "scaling.scale_corpus",
    "scaling.fit_calls": "scaling.fit_factors",
    "scaling.fit_lambda_calls": "scaling.fit_lambda",
    "survival.ks_calls": "survival.ks_statistic",
    "gof.ad_calls": "gof.ad_lognormal",
}


def _records_grouped(args, result) -> int:
    return sum(len(recs) for recs in result.values())


def _records_scored(args, result) -> int:
    return len(result[0])


# Boundary -> (counter, function of (args, return value) giving its increment).
_RETURN_COUNTS = {
    "corpus.group_records": ("corpus.records_grouped", _records_grouped),
    "scaling.scale_corpus": ("scaling.records_scored", _records_scored),
}


class Tracer:
    """Spans and counts of the wrapped boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.fit_pairs: set = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        """Wrap every boundary that resolves; record the ones that do not."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "citescale" or name.startswith("citescale."))
        ]
        self.absent = []
        for mod_name, fn_name in BOUNDARIES:
            home = sys.modules.get(f"citescale.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def reset(self) -> None:
        self.spans = []
        self.calls.clear()
        self.counts.clear()
        self.raised.clear()
        self.fit_pairs = set()
        self._stack = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        return_count = _RETURN_COUNTS.get(name)
        is_fit = name == "scaling.fit_factors"

        def wrapper(*args, **kwargs):
            stack = self._stack
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                self.calls[name] += 1
            try:
                if return_count is not None:
                    self.counts[return_count[0]] += return_count[1](args, result)
                if is_fit:
                    self.fit_pairs.add((args[0], args[2]))
            except (AttributeError, IndexError, TypeError):
                # A changed signature or return type loses the count, not the run.
                self.counts["trace.count_errors"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> tuple[Counter, float]:
        """Self seconds per boundary, and the summed length of top-level spans."""
        own = Counter()
        top = 0.0
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent < 0:
                top += end - start
            else:
                own[self.spans[parent][0]] -= end - start
        return own, top

    def metrics(self, report_s: float) -> dict[str, float]:
        """Layer metrics of one traced report that took ``report_s`` seconds."""
        own, top = self.self_times()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(own[n] for n in names)
        for metric, name in CALL_METRICS.items():
            out[metric] = self.calls[name]
        out["corpus.records_grouped"] = self.counts["corpus.records_grouped"]
        out["scaling.records_scored"] = self.counts["scaling.records_scored"]
        fits = self.calls["scaling.fit_factors"]
        out["scaling.fit_useful_ratio"] = len(self.fit_pairs) / fits if fits else 0.0
        out["gof.insufficient_groups"] = self.raised[
            ("gof.ad_lognormal", "InsufficientSampleError")
        ]
        out["cli.self_s"] = report_s - top
        out["trace.absent_boundaries"] = len(self.absent)
        return out

    def shares(self, report_s: float) -> dict[str, float]:
        """Share of a traced report's wall time in each boundary's self time,
        with the remainder under ``cli.self``."""
        own, top = self.self_times()
        out = {name: t / report_s for name, t in sorted(own.items())}
        out["cli.self"] = (report_s - top) / report_s
        return out

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: name, start and end relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent in self.spans
        ]


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

"""citescale: field- and year-normalized citation scoring and diagnostics.

Citation counts are not comparable across fields or publication years, so
before any comparative ranking they are divided by a statistic of their
(subject category, year) reference distribution.  This package implements
six such scaling variants plus the evaluation machinery that tells them
apart: survival-curve collapse metrics, global top-share admissibility
bands, a lognormal goodness-of-fit test, and a deterministic synthetic
corpus generator for desk-scale validation.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    GroupKey,
    citation_vectors,
    emit_csv,
    group_records,
    ingest_csv,
)
from .errors import (
    CitescaleError,
    CorpusFormatError,
    CorpusValueError,
    DegenerateLikelihoodError,
    DuplicateRecordError,
    EmptyCorpusError,
    EmptyGroupError,
    InsufficientSampleError,
    ScenarioError,
)
from .gof import ad_lognormal
from .scaling import ScalingMethod, scale_corpus
from .stats import describe
from .survival import collapse_metrics
from .synth import (
    CategorySpec,
    Scenario,
    generate,
    load_scenario,
    benchmark_scenario,
    save_scenario,
    scaled_copy_scenario,
)
from .topshare import method_comparison, top_share

__all__ = [
    "__version__",
    # corpus
    "Corpus", "GroupKey",
    "citation_vectors", "emit_csv", "group_records", "ingest_csv",
    # errors
    "CitescaleError", "CorpusFormatError", "CorpusValueError",
    "DegenerateLikelihoodError", "DuplicateRecordError", "EmptyCorpusError",
    "EmptyGroupError", "InsufficientSampleError", "ScenarioError",
    # diagnostics
    "describe", "ScalingMethod", "scale_corpus", "collapse_metrics",
    "method_comparison", "top_share", "ad_lognormal",
    # synth
    "CategorySpec", "Scenario", "generate", "load_scenario",
    "benchmark_scenario", "save_scenario", "scaled_copy_scenario",
]

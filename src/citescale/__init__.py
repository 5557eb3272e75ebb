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
    IngestResult,
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
from .gof import GofReport, ad_lognormal, p_bracket
from .scaling import (
    ScalingFactorSet,
    ScalingMethod,
    SkippedGroup,
    boxcox_loglik,
    boxcox_transform,
    fit_factors,
    fit_lambda,
    scale_corpus,
)
from .stats import GroupStats, describe, describe_nonzero
from .survival import CollapseReport, QuantileDispersion, collapse_metrics
from .synth import (
    CategorySpec,
    Scenario,
    generate,
    load_scenario,
    benchmark_scenario,
    save_scenario,
    scaled_copy_scenario,
)
from .topshare import CategoryShare, TopShareReport, method_comparison, top_share

__all__ = [
    "__version__",
    # corpus
    "Corpus", "GroupKey", "IngestResult",
    "citation_vectors", "emit_csv", "group_records", "ingest_csv",
    # errors
    "CitescaleError", "CorpusFormatError", "CorpusValueError",
    "DegenerateLikelihoodError", "DuplicateRecordError", "EmptyCorpusError",
    "EmptyGroupError", "InsufficientSampleError", "ScenarioError",
    # stats
    "GroupStats", "describe", "describe_nonzero",
    # scaling
    "ScalingFactorSet", "ScalingMethod", "SkippedGroup",
    "boxcox_loglik", "boxcox_transform", "fit_factors", "fit_lambda",
    "scale_corpus",
    # survival
    "CollapseReport", "QuantileDispersion", "collapse_metrics",
    # topshare
    "CategoryShare", "TopShareReport", "method_comparison", "top_share",
    # gof
    "GofReport", "ad_lognormal", "p_bracket",
    # synth
    "CategorySpec", "Scenario", "generate", "load_scenario",
    "benchmark_scenario", "save_scenario", "scaled_copy_scenario",
]

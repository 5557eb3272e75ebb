import re
from pathlib import Path

import citescale

from conftest import write_corpus_csv

PUBLIC_API = {
    "__version__",
    "Corpus", "GroupKey", "citation_vectors", "emit_csv", "group_records",
    "ingest_csv",
    "CitescaleError", "CorpusFormatError", "CorpusValueError",
    "DegenerateLikelihoodError", "DuplicateRecordError", "EmptyCorpusError",
    "EmptyGroupError", "InsufficientSampleError", "ScenarioError",
    "describe", "ScalingMethod", "scale_corpus", "collapse_metrics",
    "method_comparison", "top_share", "ad_lognormal",
    "CategorySpec", "Scenario", "generate", "load_scenario",
    "benchmark_scenario", "save_scenario", "scaled_copy_scenario",
}


def test_public_api_is_exactly_the_pinned_names():
    assert len(citescale.__all__) == len(PUBLIC_API) == 30
    assert set(citescale.__all__) == PUBLIC_API
    for name in citescale.__all__:
        assert getattr(citescale, name) is not None


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert example, "README.md has no python block under '## Library'"
    rows = [(f"{cat}{i}", 2003, cat, i % 7) for cat in "AB" for i in range(30)]
    write_corpus_csv(tmp_path / "corpus.csv", rows)
    monkeypatch.chdir(tmp_path)
    exec(example.group(1), {})
    assert capsys.readouterr().out.strip() == "2 / 2"

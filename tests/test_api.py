import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import citescale
from citescale.cli import build_parser

from conftest import write_corpus_csv

PUBLIC_API = {
    "__version__",
    "Corpus", "GroupKey", "emit_csv", "group_records", "ingest_csv",
    "CitescaleError", "CorpusFormatError", "CorpusValueError",
    "DegenerateLikelihoodError", "DuplicateRecordError", "EmptyCorpusError",
    "EmptyGroupError", "InsufficientSampleError", "ScenarioError",
    "describe", "ScalingMethod", "scale_corpus", "collapse_metrics",
    "method_comparison", "top_share", "ad_lognormal",
    "CategorySpec", "Scenario", "generate", "load_scenario",
    "benchmark_scenario", "save_scenario", "scaled_copy_scenario",
}


def test_public_api_is_exactly_the_pinned_names():
    assert len(citescale.__all__) == len(PUBLIC_API) == 29
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


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no sh block under '## CLI'"
    lines = [line for line in block.group(1).splitlines() if line.startswith("citescale ")]
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        parser.parse_args(argv)  # exits 2 on an unknown flag or a bad value


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the slowest import of the stack, and no command needs it
    src = str(Path(citescale.__file__).resolve().parents[1])
    code = "import sys, citescale.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"

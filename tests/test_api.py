import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import citescale
from citescale.cli import build_parser
from citescale.corpus import GroupKey
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.synth import (
    CategorySpec, Scenario, load_scenario, save_scenario, scenario_to_dict,
)

from conftest import write_corpus_csv

PUBLIC_API = {
    "__version__",
    "Corpus", "GroupKey", "emit_csv", "group_records", "ingest_csv",
    "CitescaleError", "CorpusFormatError", "CorpusValueError",
    "DuplicateRecordError", "EmptyCorpusError", "EmptyGroupError",
    "ScenarioError",
    "describe", "ScalingMethod", "scale_corpus", "collapse_metrics",
    "top_share", "ad_lognormal",
    "CategorySpec", "Scenario", "generate", "load_scenario",
    "benchmark_scenario", "save_scenario", "scaled_copy_scenario",
}


def test_public_api_is_exactly_the_pinned_names():
    assert len(citescale.__all__) == len(PUBLIC_API) == 26
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


# one group, and the method that skips it, for each skip reason
SKIP_CASES = {
    "zero-range": ("max", [5, 5, 5]),
    "all-zero": ("mean", [0, 0, 0]),
    "no-nonzero": ("mean0", [0, 0, 0]),
    "zero-median": ("median", [0, 0, 0, 4]),
    "degenerate-boxcox": ("boxcox", [3, 3]),
    "zero-boxcox-mean": ("boxcox", [0.0, 0.0, 5e-324]),
}


def test_readme_lists_every_skip_reason():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## Scaling variants\n(.*?)^## ", readme, re.S | re.M)
    assert section, "README.md has no '## Scaling variants' section"
    table = section.group(1).split("| reason ", 1)[1]
    listed = re.findall(r"^\| `([a-z0-9-]+)` ", table, re.M)
    returned = set()
    for reason, (method, values) in SKIP_CASES.items():
        key = GroupKey(reason, 2000)
        scored, skipped = scale_corpus({key: values}, ScalingMethod(method))
        assert not scored and [s.group for s in skipped] == [key]
        returned.add(skipped[0].reason)
    assert returned == set(listed) and len(listed) == len(SKIP_CASES)


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


def test_readme_scenario_json_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Scenario JSON\n\n```json\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no json block under '## Scenario JSON'"
    (tmp_path / "scenario.json").write_text(block.group(1))
    scenario = load_scenario(tmp_path / "scenario.json")
    # its keys are exactly the fields, the neutral optional ones left out
    written = json.loads(json.dumps(scenario_to_dict(scenario)))
    assert written == json.loads(block.group(1))


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy is the only runtime dependency: neither importing the CLI nor a
    # full report may load any part of scipy
    scenario = Scenario(seed=5, specs=(
        CategorySpec("A", 2003, 60, "discretized-lognormal", (1.5, 1.0), 0.1),
        CategorySpec("B", 2003, 40, "negative-binomial", (2.0, 0.3)),
    ))
    save_scenario(scenario, tmp_path / "scenario.json")
    src = str(Path(citescale.__file__).resolve().parents[1])
    code = (
        "import sys, citescale.cli\n"
        "assert citescale.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    argv = ["report", "--scenario", str(tmp_path / "scenario.json"),
            "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"

"""Pinned `report` hashes of scenarios with many groups.

The frozen golden hash (criterion 8) covers 40 groups.  These pins cover
the diagnostics over many groups and large grids: the frozen specs with
every group three times as large, and 120 small groups of 40-99 records.
The tripled specs are pinned twice: generated from the scenario, and read
back from their emitted corpus CSV, the input a user hands to ``report``.

The bytes depend on which SIMD kernels numpy dispatches for its exp- and
log-type functions, so the benchmark's frozen and wide reports are also
pinned on the tier below AVX-512, in a child process with those kernels
switched off.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import citescale
from citescale.cli import main
from citescale.corpus import emit_csv
from citescale.synth import (
    CategorySpec,
    Scenario,
    benchmark_scenario,
    generate,
    save_scenario,
)


def tripled_frozen() -> Scenario:
    """The frozen specs with every group's size tripled (82,035 records)."""
    base = benchmark_scenario()
    return replace(base, specs=tuple(replace(s, n=3 * s.n) for s in base.specs))


def many_small_groups() -> Scenario:
    """30 categories x 4 cohorts of 40-99 records; zero mass up to 0.7, so
    some groups are more than half uncited and the medians skip them."""
    specs = []
    for j in range(120):
        category, year = f"M{j // 4 + 1:02d}", 2000 + 3 * (j % 4)
        n = 40 + (j * 43) % 60
        pi = round(0.05 + 0.65 * ((j * 71) % 120) / 119, 3)
        if j % 5 == 4:
            family, params = "negative-binomial", (1.0 + j % 3, 0.2 + 0.05 * (j % 7))
        else:
            family = "discretized-lognormal"
            params = (round(0.5 + 2.5 * ((j * 37) % 120) / 119, 3),
                      round(1.0 + 0.31 * ((j * 53) % 120) / 119, 3))
        specs.append(CategorySpec(category, year, n, family, params, zero_inflation=pi))
    return Scenario(seed=880803, specs=tuple(specs))


# content_hash of `report` on each scenario, numpy 2.4.6
PINNED = {
    "tripled_frozen": (tripled_frozen,
                       "e7876312b081822660c8d163167ecc7c816e2a30f502fb23061a4315b6a383c7"),
    "many_small_groups": (many_small_groups,
                          "e803d5252b6c073ba7cb5f6947544afce37951b08d724cd799f8321fd617fdfb"),
}


@pytest.mark.parametrize("name", PINNED)
def test_report_hash_is_pinned(tmp_path, name):
    build, expected = PINNED[name]
    save_scenario(build(), tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert main(["report", "--scenario", str(tmp_path / "scenario.json"),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["content_hash"] == expected


def test_report_hash_of_csv_input_is_pinned(tmp_path):
    # content_hash of `report --input` on the emitted CSV of tripled_frozen(),
    # numpy 2.4.6; no corpus.csv artifact, so it differs from the scenario pin
    emit_csv(generate(tripled_frozen()), tmp_path / "corpus.csv")
    out = tmp_path / "out"
    assert main(["report", "--input", str(tmp_path / "corpus.csv"), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["content_hash"] == (
        "411f819dd48a03b69ec43ccf2df7491f84143ff5cc12405aa9adb14176e6fe6d"
    )


# content_hash of `report` on the benchmark's frozen and wide scenarios at
# seed 880803, numpy 2.4.6, with the AVX-512 kernels switched off
WITHOUT_AVX512 = {
    "frozen": "f3de24906c4f4294ad83498ecdce1a1568938e5e0e7492485bdd8c24f28663c8",
    "wide": "1dc1b4893890d324d65b5353a5a6434e36b423c55329404b54657f436855b4a2",
}
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# numpy ignores feature names it does not know, so the child reports which
# tier it runs on before it runs anything
_CHILD = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
if __cpu_features__.get("X86_V4") is not False:
    print(json.dumps({"X86_V4": __cpu_features__.get("X86_V4")}))
    sys.exit()
import workloads
from citescale.cli import main
from citescale.synth import save_scenario
hashes = {}
for name in ("frozen", "wide"):
    root = Path(sys.argv[1]) / name
    root.mkdir()
    save_scenario(workloads.BUILDERS[name](880803), root / "scenario.json")
    assert main(["report", "--scenario", str(root / "scenario.json"),
                 "--out", str(root / "out")]) == 0
    hashes[name] = json.loads((root / "out" / "manifest.json").read_text())["content_hash"]
print(json.dumps(hashes))
"""


def test_report_hashes_without_avx512_are_pinned(tmp_path):
    paths = [Path(citescale.__file__).resolve().parents[1],
             Path(__file__).resolve().parents[1] / "perfbench"]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(map(str, paths)))
    child = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=600, check=True)
    hashes = json.loads(child.stdout.splitlines()[-1])
    if "X86_V4" in hashes:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={NO_AVX512!r} left X86_V4 at "
                    f"{hashes['X86_V4']} (True: still dispatched; None: not an x86 build)")
    assert hashes == WITHOUT_AVX512

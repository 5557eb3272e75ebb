"""Benchmark of `citescale report`, the product of one citescale run.

Run from the root of a checkout (it needs ``src/citescale``)::

    python3 perfbench/run.py --workload frozen --seed 880803 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # the three, interleaved
    python3 perfbench/run.py --smoke                 # tiny scenario, checks names

Workloads (inputs in ``workloads.py``, traced layer shares in ``LAYERS.md``):

    frozen  the paper's scenario, 27,345 records in 40 groups, scenario JSON;
    wide    120 groups of 40-99 records, scenario JSON: per-group costs;
    deep    the frozen groups three times as large, corpus CSV: per-record costs.

Load comes from one client process per workload (``worker.py``), one
thread, one report at a time in a closed loop.  The client imports the
package, runs one untimed warm-up report on a tiny scenario, then runs
reports on the workload while their summed wall time stays within
``--seconds`` (at least one).
With ``--workload all`` the three clients take turns report by report, so a
drifting machine slows all three alike.  After the reports this process
times fresh interpreters importing ``citescale.cli``.

Each timed report and import sits between two runs of a fixed calibration
loop (``machine.py``), and its wall time is rescaled to the machine speed
the loop's reference time was taken at.  On a shared VM the speed drifts
by tens of percent within minutes; the rescaling takes most of that drift
out of the run-to-run comparison.  The raw wall times print beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    report_s     median seconds of one report, at reference speed;
    setup_s      median seconds, at reference speed, for a fresh interpreter
                 to import citescale.cli, after this process's own untimed
                 import warmed the page cache;
    peak_rss_mb  peak resident set of the client after its first workload
                 report (VmHWM; see worker.peak_rss_mb).

With ``--trace 1`` each sample is one plain report and then one traced
report (``layertrace.py``), and the last line carries the per-layer metrics.
Every report's manifest is checked; a report that fails, lists an incomplete
manifest, or hashes differently from the run's first report counts as
failed, and ``frozen`` at the default seed must reproduce the golden hash.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from machine import WINDOW_S, calibrate, normalized

HERE = Path(__file__).resolve().parent
WORKLOADS = ("frozen", "wide", "deep")
DEFAULT_SEED = 880803  # the frozen scenario's own seed, with a golden hash
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 4
# An import lasts about 1.5 s; half-length windows keep the calibrations
# around the imports from costing as much as the imports themselves.
IMPORT_WINDOW_S = WINDOW_S / 2
SMOKE_SECONDS = 0.5
WORK_DIR = ".perfbench_work"


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Client:
    """This side of one worker process; see worker.py for the protocol."""

    def __init__(self, name: str, cfg: dict, env: dict) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} client exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the worker: it exits on end of input, or is killed if busy."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def time_setup(env: dict) -> list[tuple[float, float, float]]:
    """Wall seconds of fresh interpreters importing citescale.cli, each with
    the machine calibrations just before and after it (shared by neighbours)."""
    samples = []
    before = calibrate(IMPORT_WINDOW_S)
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import citescale.cli"], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        after = calibrate(IMPORT_WINDOW_S)
        samples.append((wall, before, after))
        before = after
    return samples


def prepare(name: str, seed: int, work: Path, csv_input: bool) -> list[str]:
    """Write a workload's input as a user would hand it over; return the
    matching `report` arguments."""
    import workloads
    from citescale import cli
    from citescale.synth import save_scenario

    scenario = work / f"{name}.json"
    save_scenario(workloads.BUILDERS[name](seed), scenario)
    if not csv_input:
        return ["--scenario", str(scenario)]
    if cli.main(["simulate", "--scenario", str(scenario), "--out", str(work / name)]) != 0:
        raise RuntimeError(f"could not write the {name} corpus CSV")
    return ["--input", str(work / name / "corpus.csv")]


def measure(plan: dict[str, list[str]], seconds: float, trace: bool, work: Path,
            src: Path, warmup: Path) -> tuple[dict, dict, list]:
    """Samples per workload, client totals, and fresh-import times.

    This process imported citescale while preparing the inputs; that untimed
    import warmed the page cache for the timed ones.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    client_env = dict(env, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    clients: dict[str, Client] = {}
    samples: dict[str, list] = {name: [] for name in plan}
    try:
        for name, report_args in plan.items():
            cfg = {
                "src": str(src), "warmup": str(warmup), "out": str(work / f"out_{name}"),
                "report_args": report_args, "trace": trace,
                "spans_path": str(work.parent / f"spans_{name}.json") if trace else None,
            }
            clients[name] = Client(name, cfg, client_env)
        # Rounds of one sample per client; a round that would end past
        # ``seconds`` per workload is not started, but the first always is.
        busy, rounds = 0.0, 0
        while rounds == 0 or busy * (rounds + 1) / rounds <= seconds * len(plan):
            for name, client in clients.items():
                start = time.perf_counter()
                samples[name].append(client.request("sample"))
                busy += time.perf_counter() - start
            rounds += 1
        totals = {name: dict(c.ready, **c.request("quit")) for name, c in clients.items()}
    finally:
        for client in clients.values():
            client.close()
    return samples, totals, [] if trace else time_setup(env)


def check(samples: list, expect_hash: str | None) -> tuple[int, list[str]]:
    """Reports attempted and the reasons of the failed ones."""
    reports = [r for s in samples for r in (s["plain"], s.get("traced")) if r]
    reference = expect_hash
    failures = []
    for r in reports:
        if not r["ok"]:
            failures.append(r["error"])
            continue
        reference = reference or r["hash"]
        if r["hash"] != reference:
            failures.append(f"content_hash {r['hash']} differs from {reference}")
    return len(reports), failures


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def summarize(samples: list, totals: dict, setup: list, trace: bool) -> dict:
    """Metric values of one workload; a metric without data is left out."""
    ok = [s for s in samples if s["plain"]["ok"]]
    plain = [s["plain"] for s in ok]
    wall_s = _median([r["report_s"] for r in plain])
    if not trace:
        values = {
            "report_s": _median([normalized(s["plain"]["report_s"], *s["machine_s"]) for s in ok]),
            "setup_s": _median([normalized(*x) for x in setup]),
            "peak_rss_mb": samples[0]["peak_rss_mb"],
        }
    else:
        from layertrace import median_metrics

        traced = [s["traced"] for s in samples if s["traced"]["ok"]]
        values = median_metrics([t["layers"] for t in traced]) if traced else {}
        traced_s = _median([t["report_s"] for t in traced])
        values.update({
            "cli.artifact_bytes": plain[0]["artifact_bytes"] if plain else None,
            "proc.cpu_s": _median([r["cpu_s"] for r in plain]),
            "proc.rss_growth_mb": totals["peak_rss_mb"] - totals["rss_after_import_mb"],
            "trace.report_s": traced_s,
            "trace.overhead_s": None if None in (traced_s, wall_s) else traced_s - wall_s,
            "machine.report_wall_s": wall_s,
            "machine.spin_s": _median([c for s in samples for c in s["machine_s"]]),
        })
    return {k: v for k, v in values.items() if v is not None}


def describe(name: str, samples: list, setup: list, values: dict,
             attempted: int, failures: list[str], trace: bool) -> None:
    """Human-readable lines for one workload, on stdout before the result."""
    ok = [s for s in samples if s["plain"]["ok"]]
    print(f"{name}: {attempted} reports, {len(failures)} failed")
    for reason in failures:
        print(f"  failed: {reason.strip().splitlines()[-1]}")
    timed = (
        ("report_s", [(s["plain"]["report_s"], *s["machine_s"]) for s in ok]),
        ("setup_s", setup),
    )
    for metric, rows in timed:
        if rows:
            ref = [normalized(*r) for r in rows]
            print(f"  {metric} {statistics.median(ref):.3f} s at reference speed, "
                  f"median of {len(ref)} (min {min(ref):.3f}, max {max(ref):.3f}); "
                  f"wall {statistics.median(r[0] for r in rows):.3f} s")
    spins = [c for s in samples for c in s["machine_s"]]
    print(f"  machine.spin_s {statistics.median(spins):.4f} s median of {len(spins)}")
    if trace:
        traced = [s["traced"] for s in samples if s["traced"]["ok"]]
        if traced:
            last = traced[-1]
            if last["absent"]:
                print(f"  absent boundaries: {', '.join(last['absent'])}")
            print(f"  share of traced report_s {last['report_s']:.3f} s by self time:")
            for boundary, share in sorted(last["shares"].items(), key=lambda kv: -kv[1]):
                print(f"    {boundary:<32} {100 * share:6.2f} %")
    else:
        print(f"  peak_rss_mb {values.get('peak_rss_mb', float('nan')):.1f} MB")


def run(names: list[str], seed: int, seconds: float, trace: bool,
        csv_names=None) -> tuple[dict, int, list[str]]:
    """Measure the named workloads together; values keyed per workload."""
    import workloads

    root = Path.cwd()
    src = root / "src"
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run_", dir=root / WORK_DIR))
    try:
        warmup = work / "warmup.json"
        from citescale.synth import save_scenario

        save_scenario(workloads.smoke(seed), warmup)
        csv_names = workloads.CSV_INPUT if csv_names is None else csv_names
        plan = {name: prepare(name, seed, work, name in csv_names) for name in names}
        samples, totals, setup = measure(plan, seconds, trace, work, src, warmup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values, attempted, failures = {}, 0, []
    for name in names:
        n, failed = check(samples[name], workloads.golden_hash(name, seed))
        values[name] = summarize(samples[name], totals[name], setup, trace)
        describe(name, samples[name], setup, values[name], n, failed, trace)
        attempted += n
        failures += failed
    return values, attempted, failures


def result_line(metrics: dict, attempted: int, failures: list[str]) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    })


def smoke(seed: int) -> int:
    """Tiny scenario through both input paths: every metric BENCHMARK.json
    names must print with its unit, and every traced boundary must resolve."""
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    attempted, failures = 0, []
    for trace, key, csv_names in ((False, "end_to_end", ()), (True, "per_layer", ("smoke",))):
        values, n, failed = run(["smoke"], seed, SMOKE_SECONDS, trace, csv_names)
        attempted += n
        failures += failed
        printed = {k: unit_of(k) for k in values["smoke"]}
        named = {m["name"]: m["unit"] for m in bench[key]}
        for name, unit in named.items():
            if printed.get(name) != unit:
                problems.append(f"{key} metric {name} ({unit}) printed as {printed.get(name)}")
        problems += [f"metric {k} is not in BENCHMARK.json" for k in printed.keys() - named.keys()]
        if trace and values["smoke"].get("trace.absent_boundaries", 1) != 0:
            problems.append("a traced boundary no longer resolves")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems or failures else "ok"))
    print(result_line({}, attempted, failures + problems))
    return 1 if problems or failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="report wall time to spend per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check metric names and trace boundaries on a tiny scenario")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "citescale" / "__init__.py").is_file():
        print(f"error: no citescale package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke(args.seed)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    values, attempted, failures = run(names, args.seed, args.seconds, bool(args.trace))
    if args.workload == "all":
        metrics = {f"{name}.{k}": v for name in names for k, v in values[name].items()}
    else:
        metrics = values[args.workload]
    # Failed reports are part of the result (``correct``, ``failed``), so a
    # run that got as far as printing it exits 0.
    print(result_line(metrics, attempted, failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())

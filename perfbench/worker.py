"""One benchmark client: a process that imports citescale and runs reports.

Started by ``run.py`` with a JSON configuration as its only argument.  It
imports the package from the checkout, runs one untimed warm-up report on a
tiny scenario, answers ``ready``, then serves one command per stdin line:

    sample   run one timed report on the workload input between two machine
             calibrations (and, when tracing, one traced report after them)
             and answer with its measurements;
    quit     answer with the process totals and exit.

Every answer is one JSON line on stdout.  The package's own stdout and
stderr are captured per report, so they never mix with the answers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from machine import calibrate

METHODS = ("max", "mean", "mean0", "boxcox", "median", "median0")


def expected_artifacts(scenario_input: bool) -> set[str]:
    """Artifacts every `report` must list; later versions may add more."""
    names = {"stats.csv", "topshare_summary.json"}
    for name in ("raw", *METHODS):
        names |= {f"survival_{name}.csv", f"collapse_{name}.json", f"topshare_{name}.csv"}
    names |= {f"gof_{m}.csv" for m in METHODS}
    if scenario_input:
        names.add("corpus.csv")
    return names


def check_manifest(out: Path, scenario_input: bool) -> tuple[str, int]:
    """Content hash and total artifact bytes of a complete manifest.

    Raises ValueError when an artifact is missing, unlisted, or differs from
    its listed sha256 or size.
    """
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest["artifacts"]
    listed = {e["path"] for e in entries}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    if listed != on_disk:
        raise ValueError(f"manifest lists {sorted(listed ^ on_disk)} inconsistently")
    missing = expected_artifacts(scenario_input) - listed
    if missing:
        raise ValueError(f"manifest lacks {sorted(missing)}")
    total = 0
    for e in entries:
        data = (out / e["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != e["sha256"] or len(data) != e["bytes"]:
            raise ValueError(f"{e['path']} does not match its manifest entry")
        total += len(data)
    content_hash = manifest["content_hash"]
    if not (isinstance(content_hash, str) and len(content_hash) == 64):
        raise ValueError(f"malformed content_hash {content_hash!r}")
    return content_hash, total


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MiB.

    Linux carries the parent's peak over into ``ru_maxrss`` across the
    vfork + exec that starts this process, so a large parent would show up
    here; VmHWM belongs to the new image alone.  ``ru_maxrss`` is the
    fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Client:
    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.out_root = Path(cfg["out"])
        self.scenario_input = cfg["report_args"][0] == "--scenario"
        self.n_reports = 0
        self.tracer = None
        self.spans: list = []

    def report(self, args: list[str]) -> dict:
        """Run one report; time it and check its manifest outside the timing."""
        self.n_reports += 1
        out = self.out_root / f"r{self.n_reports}"
        argv = ["report", *args, "--out", str(out)]
        captured = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {captured.getvalue().strip()}")
            content_hash, nbytes = check_manifest(out, self.scenario_input)
        except Exception:  # any failure is one failed report, not a crash
            return {"ok": False, "error": traceback.format_exc()}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {
            "ok": True, "report_s": elapsed, "cpu_s": cpu,
            "hash": content_hash, "artifact_bytes": nbytes,
        }

    def start(self) -> dict:
        src = Path(self.cfg["src"]).resolve()
        sys.path.insert(0, str(src))
        import citescale
        import citescale.cli

        if src not in Path(citescale.__file__).resolve().parents:
            raise RuntimeError(f"citescale imported from {citescale.__file__}, not {src}")
        self.cli = citescale.cli
        rss_import = peak_rss_mb()
        warm = self.report(["--scenario", self.cfg["warmup"]])
        if not warm["ok"]:  # the workload reports will fail and be counted
            print("warm-up report failed:\n" + warm["error"], file=sys.stderr)
        if self.cfg["trace"]:
            from layertrace import Tracer

            self.tracer = Tracer()
        return {"ready": True, "rss_after_import_mb": rss_import}

    def sample(self) -> dict:
        before = calibrate()
        result = {"plain": self.report(self.cfg["report_args"])}
        result["machine_s"] = (before, calibrate())
        result["peak_rss_mb"] = peak_rss_mb()
        if self.tracer is not None:
            tracer = self.tracer
            tracer.reset()
            tracer.install()
            try:
                traced = self.report(self.cfg["report_args"])
            finally:
                tracer.uninstall()
            if traced["ok"]:
                traced["layers"] = tracer.metrics(traced["report_s"])
                traced["shares"] = tracer.shares(traced["report_s"])
                traced["absent"] = tracer.absent
                self.spans = tracer.dump()
            result["traced"] = traced
        return result

    def finish(self) -> dict:
        if self.cfg.get("spans_path") and self.spans:
            with open(self.cfg["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
                fh.write("\n")
        return {"peak_rss_mb": peak_rss_mb()}


def main() -> int:
    client = Client(json.loads(sys.argv[1]))

    def answer(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    answer(client.start())
    for line in sys.stdin:
        command = line.strip()
        if command == "sample":
            answer(client.sample())
        elif command == "quit":
            answer(client.finish())
            return 0
        else:
            raise ValueError(f"unknown command {command!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())

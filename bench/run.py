"""misscomp benchmark: one workload per call, checked, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload survey_20k --seed 1 --seconds 30 --trace 0

Workloads:
  survey_20k  analyze + write_bundle on a seeded 20000-row survey CSV
  mc_grid     run_grid over Pearson/PCA cells 1x3/n100, 3x5/n250, 10x10/n1000
              and tetrachoric/PAF cells 3x5/n250, 5x5/n500

With ``--trace 0`` the result line carries the end-to-end metrics:
``run_s`` (median wall time of one workload call after a warm-up call;
analyze_s on survey_20k, simulate_s on mc_grid), ``setup_s``
(median wall time of a fresh interpreter importing misscomp.pipeline,
misscomp.simulation and misscomp.cli) and ``peak_rss_mb`` (ru_maxrss of a
fresh process after one workload call). With ``--trace 1`` it carries the
per-module metrics of a run under span recording, plus the tracing
overhead. ``--quick`` shrinks every workload for the smoke test.

This script only orchestrates and imports neither numpy nor misscomp, so
its own memory cannot leak into a child's ru_maxrss. The fixture and the
measurement each run in a child process with ``src`` on PYTHONPATH; all
files go under ``.bench_work/`` in the checkout. The full record of a run,
environment included, is written to ``.bench_work/results/``; the last
stdout line is the result object.
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

WORKLOADS = ("survey_20k", "mc_grid")
SETUP_REPEATS = 5
QUICK_ROWS = 2000
CHILD_TIMEOUT_S = 150
IMPORTS = "import misscomp.pipeline, misscomp.simulation, misscomp.cli"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def git_commit() -> str:
    """HEAD's commit read from .git files, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str], env: dict) -> str:
    """Run a Python child to completion; returns its stdout, raises on failure."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout


def setup_seconds(env: dict, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child(["-c", IMPORTS], env)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "misscomp" / "__init__.py").is_file():
        print(f"error: no misscomp sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = ROOT / ".bench_work"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        measure = [str(HERE / "measure.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(tmp)]
        if args.quick:
            measure.append("--quick")
        if args.trace:
            measure += ["--spans", str(results / f"{stem}-spans.json")]
        fixture = None
        if args.workload == "survey_20k":
            rows = ["--rows", str(QUICK_ROWS)] if args.quick else []
            csv_path = child([str(HERE / "fixture.py"), "--seed", str(args.seed),
                              "--out", str(tmp / "fixture"), *rows], env).strip()
            fixture = json.loads(Path(csv_path).with_suffix(".json").read_text(encoding="utf-8"))
            measure += ["--input", csv_path]
        record = json.loads(child(measure, env).strip().splitlines()[-1])
        setup = [] if args.trace else setup_seconds(env, 1 if args.quick else SETUP_REPEATS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = record["layers"]
    else:
        metrics = {
            "run_s": statistics.median(record["samples_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  quick=args.quick, fixture=fixture, setup_samples_s=setup, metrics=metrics)
    record["environment"]["git_commit"] = git_commit()
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    attempted, failed = record["attempted"], record["failed"]
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    if not args.trace:
        # the same figures under the names users know, plus the failure share
        time_name = "analyze_s" if args.workload == "survey_20k" else "simulate_s"
        named = {time_name: metrics["run_s"], "setup_s": metrics["setup_s"],
                 "peak_rss_mb": metrics["peak_rss_mb"], "failed_frac": failed / attempted}
        print(f"{args.workload} seed {args.seed}, {len(record['samples_s'])} timed calls: " + ", ".join(
            f"{name}={value:.6g} {'ratio' if name == 'failed_frac' else unit(name)}"
            for name, value in named.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

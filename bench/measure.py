"""One measured workload in a fresh process; started by bench/run.py.

Usage: python3 bench/measure.py --workload NAME --seed N --seconds S
           --trace 0|1 --workdir DIR [--input CSV] [--quick] [--spans PATH]

The process imports misscomp and makes one warm-up call on a reduced
input, which pays the first-call costs (lazy scipy imports, cached
factorisations) in a tenth of the full call's time. It then repeats the
full workload for ``--seconds``, timing every call and checking every
output, and reads its own peak resident set after the first full call,
so the figure is that of a fresh process that ran the workload once.
With ``--trace 1`` each untraced call is followed by a call under span
recording, which gives the per-module numbers and the tracing overhead.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtri

from misscomp import pipeline, reports, simulation
from misscomp.correlation import PEARSON, TETRACHORIC
from misscomp.extraction import PAF, PCA
from misscomp.retention import KAISER, PARALLEL
from misscomp.simulation import SimCondition

from tracing import Recorder, instrumented, layer_metrics

# (condition, replications); Pearson/PCA cells span k = 3 to 100 and spend
# their time in the permutation null, tetrachoric/PAF cells in the per-pair
# optimiser and iterated PAF. Reps keep every cell a visible share.
MC_CELLS = [
    (SimCondition(1, 3, 100, 0.25, PEARSON, PCA), 100),
    (SimCondition(3, 5, 250, 0.25, PEARSON, PCA), 50),
    (SimCondition(10, 10, 1000, 0.25, PEARSON, PCA), 10),
    (SimCondition(3, 5, 250, 0.25, TETRACHORIC, PAF), 15),
    (SimCondition(5, 5, 500, 0.25, TETRACHORIC, PAF), 10),
]
QUICK_DIVISOR = 10
WARMUP_ROWS = 2000


class Survey:
    """analyze + write_bundle on the generated survey CSV."""

    def __init__(self, args):
        self.csv_path = Path(args.input)
        self.meta = json.loads(self.csv_path.with_suffix(".json").read_text(encoding="utf-8"))
        self.outdir = Path(args.workdir) / "bundle"
        self.config = pipeline.RunConfig(
            input_path=self.csv_path,
            output_dir=self.outdir,
            seed=args.seed,
            correlation_kind=PEARSON,
            extraction_method=PCA,
            criterion=PARALLEL,
            covariate_columns=["age"],
            strata_column="site",
            output_formats=("csv", "json", "md"),
        )
        self.oracle = None
        self.digest = None

    def run(self):
        result = pipeline.analyze(self.config)
        return result, pipeline.write_bundle(result)

    def warm_up(self):
        """analyze + write_bundle on the CSV's first WARMUP_ROWS rows."""
        small = self.outdir.parent / "warmup.csv"
        with open(self.csv_path, encoding="utf-8") as src, open(small, "w", encoding="utf-8") as dst:
            dst.writelines(line for _, line in zip(range(WARMUP_ROWS + 1), src))
        config = replace(self.config, input_path=small, output_dir=self.outdir.parent / "warmup")
        pipeline.write_bundle(pipeline.analyze(config))

    def _independent_corr(self):
        """Indicator names and np.corrcoef of missingness read straight from the CSV."""
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], np.array(rows[1:], dtype=object)
        missing = body == ""
        frac = missing.mean(axis=0)
        keep = (frac > 0.0) & (frac < 1.0)
        names = [h for h, kept in zip(header, keep) if kept]
        return names, np.corrcoef(missing[:, keep].T.astype(np.float64))

    def check(self, out) -> list[str]:
        result, files = out
        problems = []
        planted = self.meta["propensities"]
        if result.decisive != PARALLEL or result.q != planted:
            problems.append(f"decisive {result.decisive} retained {result.q}, planted {planted}")
        if self.oracle is None:
            # built at the first check, after the peak RSS is read, so the
            # parsed CSV stays out of that figure
            self.oracle = self._independent_corr()
        names, want = self.oracle
        if result.ind.source_columns != names:
            problems.append("indicator columns differ from the CSV's partially missing columns")
        else:
            err = float(np.max(np.abs(result.corr.values - want)))
            if err > 1e-10:
                problems.append(f"Pearson matrix differs from np.corrcoef by {err:.3e}")
        manifest = json.loads((self.outdir / "manifest.json").read_text(encoding="utf-8"))
        not_done = [s["step"] for s in manifest["steps"] if s["status"] != "done"]
        if not_done:
            problems.append(f"manifest steps not done: {not_done}")
        digest = hashlib.sha256()
        for name in sorted(files):
            digest.update(name.encode() + b"\0" + (self.outdir / name).read_bytes())
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            problems.append("bundle bytes changed between calls at one seed")
        return problems


class Grid:
    """run_grid over a fixed cell list, one call per cell for per-cell reps."""

    def __init__(self, args):
        divisor = QUICK_DIVISOR if args.quick else 1
        self.cells = [(cond, max(1, reps // divisor)) for cond, reps in MC_CELLS]
        self.seed = args.seed
        self.grid_path = Path(args.workdir) / "grid.csv"
        self.grid_bytes = None

    def run(self):
        return [simulation.run_grid([cond], reps, self.seed, workers=1) for cond, reps in self.cells]

    def warm_up(self):
        """One replication of every cell."""
        simulation.run_grid([cond for cond, _ in self.cells], 1, self.seed, workers=1)

    def check(self, out) -> list[str]:
        problems = []
        grid = b""
        for report in out:
            reports.write_grid_csv(self.grid_path, report)
            grid += self.grid_path.read_bytes()
            cell = report.cells[0]
            cond = cell.condition
            if (cond.n_components, cond.items_per_component) != (1, 3):
                continue
            want = kaiser_oracle(cond, cell.replications_run, self.seed)
            got = (cell.converged[KAISER], cell.correct[KAISER])
            if got != want:
                problems.append(f"1x3 kaiser (decided, correct) {got}, independent oracle {want}")
            if not cell.success(KAISER):
                problems.append(f"1x3 kaiser correct in only {cell.correct[KAISER]} reps")
        if self.grid_bytes is None:
            self.grid_bytes = grid
        elif grid != self.grid_bytes:
            problems.append("grid.csv bytes changed between calls at one seed")
        return problems


def kaiser_oracle(cond: SimCondition, reps: int, seed: int) -> tuple[int, int]:
    """(decided, correct) Kaiser counts recomputed with np.corrcoef and eigvalsh.

    Redraws each replication's indicators from the per-replication stream
    that run_condition documents, (seed, condition key, rep), first spawn.
    """
    chol = np.linalg.cholesky(simulation.block_sigma(cond.n_components, cond.items_per_component))
    threshold = ndtri(1.0 - cond.p_miss)
    decided = correct = 0
    for rep in range(reps):
        gen_ss, _ = np.random.SeedSequence((seed, *cond.key(), rep)).spawn(2)
        z = np.random.default_rng(gen_ss).standard_normal((cond.n, cond.k)) @ chol.T
        x = (z > threshold).astype(np.float64)
        if (x.min(axis=0) == x.max(axis=0)).any():
            continue
        decided += 1
        correct += int((np.linalg.eigvalsh(np.corrcoef(x.T)) > 1.0).sum() == cond.n_components)
    return decided, correct


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["survey_20k", "mc_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--input")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    work = Survey(args) if args.workload == "survey_20k" else Grid(args)
    problems: list[str] = []
    attempted = failed = 0

    def checked(out):
        nonlocal attempted, failed
        attempted += 1
        found = work.check(out)
        if found:
            failed += 1
            problems.extend(found)

    _, warmup_s = timed(work.warm_up)

    recorder = Recorder()
    samples, traced = [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        out, dt = timed(work.run)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples.append(dt)
        checked(out)
        del out
        if args.trace:
            recorder.trace_id += 1
            with instrumented(recorder):
                out, dt = timed(work.run)
            traced.append(dt)
            checked(out)
            del out
        if time.perf_counter() >= deadline:
            break

    record = {
        "environment": environment(),
        "warmup_s": warmup_s,
        "samples_s": samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.trace:
        per_call = [layer_metrics(recorder.spans, tid) for tid in range(1, recorder.trace_id + 1)]
        layers = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(samples)
        record.update(traced_samples_s=traced, layers=layers)
        if args.spans:
            Path(args.spans).write_text(json.dumps(recorder.as_dicts()) + "\n", encoding="utf-8")
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()

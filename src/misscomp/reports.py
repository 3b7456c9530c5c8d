"""CSV, Markdown and JSON writers for analysis and simulation artifacts.

All writers format numbers explicitly so that a rerun with the same seed
produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .extraction import ComponentScores, EigenSolution
from .indicators import PatternTable
from .mechanism import LogisticFit, ScreenResult
from .retention import CRITERIA, RetentionDecision
from .simulation import SimReport

SCHEMA_VERSION = 1
LOADING_BOLD_THRESHOLD = 0.550
# cells of scores.csv formatted as Python objects at a time
_BLOCK_CELLS = 1 << 13


def _fmt(x, nd: int = 6) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return f"{x:.{nd}f}"


def write_patterns_csv(path: Path, table: PatternTable) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "pattern", "n_missing_vars", "count", "percent"])
        w.writerows(
            (row.rank, row.pattern, row.n_missing_vars, row.count, _fmt(row.percent)) for row in table.rows
        )


def write_patterns_md(path: Path, table: PatternTable) -> None:
    lines = [
        f"Distinct missingness patterns: {table.n_observed_patterns} observed "
        f"of {table.max_possible} possible across {table.k} indicators "
        f"(n = {table.n}, fully missing rows = {table.n_fully_missing}"
        + (", dropped from table" if table.fully_missing_dropped else "")
        + ")",
        "",
        "| rank | pattern | missing vars | count | percent |",
        "| ---: | :--- | ---: | ---: | ---: |",
    ]
    for row in table.rows:
        lines.append(
            f"| {row.rank} | `{row.pattern}` | {row.n_missing_vars} "
            f"| {row.count} | {100 * row.percent:.1f}% |"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# one pattern row as json.dump(indent=2, sort_keys=True) lays it out
_PATTERN_ROW = (
    '    {{\n      "count": {},\n      "n_missing_vars": {},\n      "pattern": {},\n'
    '      "percent": {},\n      "rank": {}\n    }}'
)


def write_patterns_json(path: Path, table: PatternTable) -> None:
    """The table as ``json.dump(payload, indent=2, sort_keys=True)`` writes
    it, byte for byte, with each row formatted here by the encoder's own
    rules (``encode_basestring_ascii``, ``int.__repr__``, ``float.__repr__``):
    with ``indent`` set json runs its pure-Python encoder, which is slower
    and builds a dict per row. The rows are streamed to the file."""
    head = {
        "schema_version": SCHEMA_VERSION,
        "k": table.k,
        "n": table.n,
        "n_fully_missing": table.n_fully_missing,
        "percent_base": table.percent_base,
        "fully_missing_dropped": table.fully_missing_dropped,
        "max_possible": table.max_possible,
        "rows": [],
    }
    before, after = json.dumps(head, indent=2, sort_keys=True).split('"rows": []')
    with open(path, "w") as fh:
        fh.write(before + '"rows": [')
        for i, r in enumerate(table.rows):
            fh.write(",\n" if i else "\n")
            fh.write(
                _PATTERN_ROW.format(
                    int.__repr__(r.count),
                    int.__repr__(r.n_missing_vars),
                    json.encoder.encode_basestring_ascii(r.pattern),
                    float.__repr__(r.percent),
                    int.__repr__(r.rank),
                )
            )
        fh.write(("\n  ]" if table.rows else "]") + after + "\n")


def write_loadings_csv(path: Path, names: list[str], loadings: np.ndarray) -> None:
    q = loadings.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["indicator"] + [f"component_{j + 1}" for j in range(q)])
        for name, row in zip(names, loadings):
            w.writerow([name] + [_fmt(v, 3) for v in row])


def write_loadings_md(path: Path, names: list[str], loadings: np.ndarray) -> None:
    q = loadings.shape[1]
    lines = [
        f"Component loadings (values above {LOADING_BOLD_THRESHOLD:.3f} in bold)",
        "",
        "| indicator | " + " | ".join(f"component {j + 1}" for j in range(q)) + " |",
        "| :--- |" + " ---: |" * q,
    ]
    for name, row in zip(names, loadings):
        cells = [f"**{v:.3f}**" if abs(v) > LOADING_BOLD_THRESHOLD else f"{v:.3f}" for v in row]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    Path(path).write_text("\n".join(lines) + "\n")


def write_retention_csv(
    path: Path, decisions: dict[str, RetentionDecision], decisive: str
) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["criterion", "k_retained", "converged", "decisive"])
        for crit, dec in decisions.items():
            w.writerow([crit, dec.k_retained, dec.converged, crit == decisive])


def write_retention_curves_csv(
    path: Path, decisions: dict[str, RetentionDecision], eigenvalues: np.ndarray
) -> None:
    """Per-position diagnostics: the observed spectrum against each
    criterion's reference series, in CRITERIA order (profile likelihood's
    reference is its log-likelihood at the split position, one fewer than
    the eigenvalues)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["criterion", "position", "observed_eigenvalue", "reference_value"])
        for crit in CRITERIA:
            for j, (ev, ref) in enumerate(zip(eigenvalues, decisions[crit].diagnostics), start=1):
                w.writerow([crit, j, _fmt(ev), _fmt(ref)])


def write_screens_csv(path: Path, rows: list[tuple[str, str, ScreenResult]]) -> None:
    """Rows are (component label, stratum label, result)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "component",
                "stratum",
                "variable",
                "test",
                "statistic",
                "df",
                "p_value",
                "n_group0",
                "n_group1",
                "n_excluded",
                "testable",
                "reason",
            ]
        )
        for component, stratum, r in rows:
            w.writerow(
                [
                    component,
                    stratum,
                    r.variable,
                    r.test,
                    _fmt(r.statistic),
                    _fmt(r.df, 2),
                    _fmt(r.p_value),
                    r.n_group0,
                    r.n_group1,
                    r.n_excluded,
                    r.testable,
                    r.reason,
                ]
            )


def write_logistic_csv(path: Path, rows: list[tuple[str, str, str, LogisticFit]]) -> None:
    """Rows are (component label, stratum label, model label, fit)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "component",
                "stratum",
                "model",
                "parameter",
                "coefficient",
                "std_error",
                "log_likelihood",
                "null_log_likelihood",
                "lr_chi2",
                "lr_df",
                "lr_p_value",
                "pseudo_r2",
                "auc",
                "sensitivity_pct",
                "specificity_pct",
                "correct_pct",
                "separated",
                "converged",
                "n",
                "aliased",
            ]
        )
        for component, stratum, model, fit in rows:
            for i, name in enumerate(fit.parameter_names):
                se = "" if fit.standard_errors is None else _fmt(fit.standard_errors[i])
                w.writerow(
                    [
                        component,
                        stratum,
                        model,
                        name,
                        _fmt(fit.coefficients[i]),
                        se,
                        _fmt(fit.log_likelihood, 4),
                        _fmt(fit.null_log_likelihood, 4),
                        _fmt(fit.lr_chi2, 4),
                        fit.lr_df,
                        _fmt(fit.lr_p_value),
                        _fmt(fit.pseudo_r2),
                        _fmt(fit.auc),
                        _fmt(100 * fit.sensitivity, 2),
                        _fmt(100 * fit.specificity, 2),
                        _fmt(100 * fit.correct_pct, 2),
                        fit.separated,
                        fit.converged,
                        fit.n,
                        ";".join(fit.aliased),
                    ]
                )


def _score_rows(scores: ComponentScores, start: int, stop: int):
    """Rows start..stop-1 of scores.csv, formatted one column at a time."""
    columns = [range(start + 1, stop + 1)]
    for j in range(scores.q):
        # _fmt's rules: NaN (x != x) is an empty cell
        score = ["" if x != x else f"{x:.6f}" for x in scores.scores[start:stop, j].tolist()]
        columns += [score, scores.dichotomized[start:stop, j].tolist()]
    columns.append(scores.fully_missing[start:stop].tolist())
    return zip(*columns)


def write_scores_csv(path: Path, scores: ComponentScores) -> None:
    """One row per case; rows are formatted in blocks of about
    ``_BLOCK_CELLS`` cells, so no whole column is held as Python objects."""
    header = ["row"]
    for j in range(scores.q):
        header += [f"score_{j + 1}", f"dichotomized_{j + 1}"]
    header.append("fully_missing")
    n = scores.scores.shape[0]
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for start in range(0, n, step):
            w.writerows(_score_rows(scores, start, min(start + step, n)))


def write_grid_csv(path: Path, report: SimReport) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["n_components", "items_per_component", "n", "p_miss", "corr", "method", "replications"]
        for crit in CRITERIA:
            header += [f"converged_{crit}", f"proportion_{crit}", f"success_{crit}"]
        w.writerow(header)
        for cell in report.cells:
            c = cell.condition
            row = [
                c.n_components,
                c.items_per_component,
                c.n,
                _fmt(c.p_miss, 2),
                c.corr_kind,
                c.method,
                cell.replications_run,
            ]
            for crit in CRITERIA:
                row += [cell.converged[crit], _fmt(cell.proportion(crit)), cell.success(crit)]
            w.writerow(row)


def write_aggregate_csv(path: Path, report: SimReport) -> None:
    agg = report.aggregate()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["criterion", "mean_proportion_correct", "n_cells", "n_success_cells"])
        for crit, stats in agg.items():
            w.writerow(
                [
                    crit,
                    _fmt(stats["mean_proportion_correct"]),
                    stats["n_cells"],
                    stats["n_success_cells"],
                ]
            )


def manifest(command: str, files: list[str], **sections) -> dict:
    """The manifest of one run: schema and library versions, the command,
    its own sections (settings, seed, counts) and the sorted file names."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "misscomp", "version": __version__},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "command": command,
        **sections,
        "files": sorted(files),
    }


def write_manifest(path: Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def solution_summary(sol: EigenSolution) -> dict:
    out = {
        "method": sol.method,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "eigenvalues": [round(float(v), 10) for v in sol.eigenvalues],
    }
    if sol.method == "paf":
        out.update(
            heywood=sol.heywood,
            smc_fallback=sol.smc_fallback,
            communalities=[round(float(h), 10) for h in sol.communalities],
        )
    return out

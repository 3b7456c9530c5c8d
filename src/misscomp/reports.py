"""CSV, Markdown and JSON writers for analysis and simulation artifacts.

All writers format numbers explicitly so that a rerun with the same seed
produces byte-identical files. Every CSV file streams through
``_write_csv`` and every Markdown table through ``_write_md``: each
writer hands them a header and an iterator of rows, so a table is written
row by row and never held whole. Both stay private: the benchmark's
tracer wraps every public ``write_*`` function and counts the bytes of
the file its first argument names.
"""

from __future__ import annotations

import csv
import json
import platform
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .extraction import PAF, ComponentScores, EigenSolution
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The package's one CSV writer: the header, then each row as ``rows`` yields it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_md(path: Path, title: str, header: list[str], align: list[str], rows) -> None:
    """The package's one Markdown writer: a title line, a blank line and a
    table, each row of cells written as ``rows`` yields it."""
    line = "|" + " {} |" * len(header) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{title}\n\n" + line.format(*header) + line.format(*align))
        fh.writelines(line.format(*cells) for cells in rows)


def write_patterns_csv(path: Path, table: PatternTable) -> None:
    rows = ((r.rank, r.pattern, r.n_missing_vars, r.count, _fmt(r.percent)) for r in table.rows)
    _write_csv(path, ["rank", "pattern", "n_missing_vars", "count", "percent"], rows)


def write_patterns_md(path: Path, table: PatternTable) -> None:
    dropped = ", dropped from table" if table.fully_missing_dropped else ""
    title = (
        f"Distinct missingness patterns: {table.n_observed_patterns} observed "
        f"of {table.max_possible} possible across {table.k} indicators "
        f"(n = {table.n}, fully missing rows = {table.n_fully_missing}{dropped})"
    )
    rows = ((r.rank, f"`{r.pattern}`", r.n_missing_vars, r.count, f"{100 * r.percent:.1f}%") for r in table.rows)
    header = ["rank", "pattern", "missing vars", "count", "percent"]
    _write_md(path, title, header, ["---:", ":---", "---:", "---:", "---:"], rows)


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
    header = ["indicator"] + [f"component_{j + 1}" for j in range(loadings.shape[1])]
    _write_csv(path, header, ([name] + [_fmt(v, 3) for v in row] for name, row in zip(names, loadings)))


def write_loadings_md(path: Path, names: list[str], loadings: np.ndarray) -> None:
    q = loadings.shape[1]
    title = f"Component loadings (values above {LOADING_BOLD_THRESHOLD:.3f} in bold)"
    header = ["indicator"] + [f"component {j + 1}" for j in range(q)]
    rows = (
        [name] + [f"**{v:.3f}**" if abs(v) > LOADING_BOLD_THRESHOLD else f"{v:.3f}" for v in row]
        for name, row in zip(names, loadings)
    )
    _write_md(path, title, header, [":---"] + ["---:"] * q, rows)


def write_retention_csv(
    path: Path, decisions: dict[str, RetentionDecision], decisive: str
) -> None:
    rows = ((crit, dec.k_retained, dec.converged, crit == decisive) for crit, dec in decisions.items())
    _write_csv(path, ["criterion", "k_retained", "converged", "decisive"], rows)


def write_retention_curves_csv(
    path: Path, decisions: dict[str, RetentionDecision], eigenvalues: np.ndarray
) -> None:
    """Per-position diagnostics: the observed spectrum against each
    criterion's reference series, in CRITERIA order (profile likelihood's
    reference is its log-likelihood at the split position, one fewer than
    the eigenvalues)."""
    _write_csv(
        path,
        ["criterion", "position", "observed_eigenvalue", "reference_value"],
        (
            (crit, j, _fmt(ev), _fmt(ref))
            for crit in CRITERIA
            for j, (ev, ref) in enumerate(zip(eigenvalues, decisions[crit].diagnostics), start=1)
        ),
    )


# screens.csv: (column, its cell of a (component, stratum, result) row)
_SCREEN_COLUMNS = (
    ("component", lambda c, s, r: c),
    ("stratum", lambda c, s, r: s),
    ("variable", lambda c, s, r: r.variable),
    ("test", lambda c, s, r: r.test),
    ("statistic", lambda c, s, r: _fmt(r.statistic)),
    ("df", lambda c, s, r: _fmt(r.df, 2)),
    ("p_value", lambda c, s, r: _fmt(r.p_value)),
    ("n_group0", lambda c, s, r: r.n_group0),
    ("n_group1", lambda c, s, r: r.n_group1),
    ("n_excluded", lambda c, s, r: r.n_excluded),
    ("testable", lambda c, s, r: r.testable),
    ("reason", lambda c, s, r: r.reason),
)

# logistic.csv: (column, its cell of parameter i of a (component, stratum, model, fit) row)
_LOGISTIC_COLUMNS = (
    ("component", lambda c, s, m, f, i: c),
    ("stratum", lambda c, s, m, f, i: s),
    ("model", lambda c, s, m, f, i: m),
    ("parameter", lambda c, s, m, f, i: f.parameter_names[i]),
    ("coefficient", lambda c, s, m, f, i: _fmt(f.coefficients[i])),
    ("std_error", lambda c, s, m, f, i: "" if f.standard_errors is None else _fmt(f.standard_errors[i])),
    ("log_likelihood", lambda c, s, m, f, i: _fmt(f.log_likelihood, 4)),
    ("null_log_likelihood", lambda c, s, m, f, i: _fmt(f.null_log_likelihood, 4)),
    ("lr_chi2", lambda c, s, m, f, i: _fmt(f.lr_chi2, 4)),
    ("lr_df", lambda c, s, m, f, i: f.lr_df),
    ("lr_p_value", lambda c, s, m, f, i: _fmt(f.lr_p_value)),
    ("pseudo_r2", lambda c, s, m, f, i: _fmt(f.pseudo_r2)),
    ("auc", lambda c, s, m, f, i: _fmt(f.auc)),
    ("sensitivity_pct", lambda c, s, m, f, i: _fmt(100 * f.sensitivity, 2)),
    ("specificity_pct", lambda c, s, m, f, i: _fmt(100 * f.specificity, 2)),
    ("correct_pct", lambda c, s, m, f, i: _fmt(100 * f.correct_pct, 2)),
    ("separated", lambda c, s, m, f, i: f.separated),
    ("converged", lambda c, s, m, f, i: f.converged),
    ("n", lambda c, s, m, f, i: f.n),
    ("aliased", lambda c, s, m, f, i: ";".join(f.aliased)),
)


def _write_spec_csv(path: Path, spec, items) -> None:
    """A CSV with one column per (column, cell) pair of ``spec`` and one row per item."""
    _write_csv(path, [name for name, _ in spec], ([cell(*item) for _, cell in spec] for item in items))


def write_screens_csv(path: Path, rows: list[tuple[str, str, ScreenResult]]) -> None:
    """Rows are (component label, stratum label, result)."""
    _write_spec_csv(path, _SCREEN_COLUMNS, rows)


def write_logistic_csv(path: Path, rows: list[tuple[str, str, str, LogisticFit]]) -> None:
    """Rows are (component label, stratum label, model label, fit); each
    fit's parameters take one line each."""
    items = ((*row, i) for row in rows for i in range(len(row[3].parameter_names)))
    _write_spec_csv(path, _LOGISTIC_COLUMNS, items)


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
    blocks = (_score_rows(scores, start, min(start + step, n)) for start in range(0, n, step))
    _write_csv(path, header, chain.from_iterable(blocks))


def write_grid_csv(path: Path, report: SimReport) -> None:
    header = ["n_components", "items_per_component", "n", "p_miss", "corr", "method", "replications"]
    for crit in CRITERIA:
        header += [f"converged_{crit}", f"proportion_{crit}", f"success_{crit}"]
    rows = (
        [c.n_components, c.items_per_component, c.n, _fmt(c.p_miss, 2), c.corr_kind, c.method, cell.replications_run]
        + [v for crit in CRITERIA for v in (cell.converged[crit], _fmt(cell.proportion(crit)), cell.success(crit))]
        for cell in report.cells
        for c in [cell.condition]
    )
    _write_csv(path, header, rows)


def write_aggregate_csv(path: Path, report: SimReport) -> None:
    _write_csv(
        path,
        ["criterion", "mean_proportion_correct", "n_cells", "n_success_cells"],
        (
            (crit, _fmt(stats["mean_proportion_correct"]), stats["n_cells"], stats["n_success_cells"])
            for crit, stats in report.aggregate().items()
        ),
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
    if sol.method == PAF:
        out.update(
            heywood=sol.heywood,
            communalities=[round(float(h), 10) for h in sol.communalities],
        )
    return out

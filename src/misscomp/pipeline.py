"""CSV ingestion and the end-to-end analysis pipeline.

The pipeline walks the eight-step procedure: indicators and patterns,
component extraction of the indicator correlations, retention, scoring and
dichotomization, then screens, logistic fits, and an optional stratified
rerun. Every step lands in the manifest as done, skipped (with reason), or
failed.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import correlation, extraction, mechanism, reports, retention
from .correlation import PEARSON, TETRACHORIC
from .extraction import PAF, PCA
from .indicators import (
    SCRATCH_ENTRIES,
    Dataset,
    IndicatorMatrix,
    PatternTable,
    build_indicators,
    encode,
    tabulate_patterns,
)
from .mechanism import LogisticFit, ScreenResult, StratumResult
from .retention import CRITERIA, RetentionDecision

NUMERIC_PARSE_FRACTION = 0.90
DEFAULT_SENTINELS = ("", "NA", ".")
FORMATS = ("csv", "json", "md")


class IngestError(ValueError):
    """The input file cannot be read as a rectangular table."""


class PipelineError(RuntimeError):
    def __init__(self, step: str, message: str):
        super().__init__(message)
        self.step = step


def _delimiter_error(delimiter) -> str | None:
    """Why ``delimiter`` cannot split the rows of a CSV file, or None if it can."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in "\r\n":
        return f"delimiter must be one character other than CR or LF, got {delimiter!r}"
    return None


@dataclass
class RunConfig:
    input_path: str | Path
    output_dir: str | Path = "."
    delimiter: str = ","
    missing_sentinels: tuple[str, ...] = DEFAULT_SENTINELS
    columns: list[str] | None = None
    correlation_kind: str = PEARSON
    extraction_method: str = PCA
    criterion: str = retention.PARALLEL  # one of CRITERIA or "auto"
    cutoff: float = 0.0
    pa_reps: int = retention.PA_REPS
    pa_percentile: float = retention.PA_PERCENTILE
    seed: int | None = None
    strata_column: str | None = None
    covariate_columns: list[str] | None = None
    items_per_component_hint: int | None = None
    expected_components_hint: int | None = None
    drop_fully_missing_pattern: bool = False
    output_formats: tuple[str, ...] = ("csv", "json")

    def validate(self) -> None:
        if self.correlation_kind not in (PEARSON, TETRACHORIC):
            raise ValueError(f"unknown correlation kind {self.correlation_kind!r}")
        if self.extraction_method not in (PCA, PAF):
            raise ValueError(f"unknown extraction method {self.extraction_method!r}")
        if self.criterion != "auto" and self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        bad = set(self.output_formats) - set(FORMATS)
        if bad:
            raise ValueError(f"unknown output formats {sorted(bad)}")
        if self.criterion == "auto" and (
            self.items_per_component_hint is None or self.expected_components_hint is None
        ):
            raise ValueError(
                "criterion 'auto' needs items_per_component_hint and expected_components_hint"
            )
        if self.pa_reps < 1:
            raise ValueError(f"pa_reps must be at least 1, got {self.pa_reps}")
        if not 0.0 < self.pa_percentile < 1.0:
            raise ValueError(f"pa_percentile must be in (0, 1), got {self.pa_percentile}")
        if not np.isfinite(self.cutoff):
            raise ValueError(f"cutoff must be finite, got {self.cutoff}")
        problem = _delimiter_error(self.delimiter)
        if problem:
            raise ValueError(problem)
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("items_per_component_hint", "expected_components_hint"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


class _ColumnChunks:
    """One column's cells as the file streams past, parsed chunk by chunk.

    A chunk takes the numeric fast path: strip, send sentinels to NaN,
    apply ``float``. When ``float`` raises, the chunk falls back to parsing
    each distinct token once, non-numbers becoming NaN, and from then on
    the column also keeps its stripped cells, which it needs if it ends
    categorical.
    """

    def __init__(self):
        self.values: list[np.ndarray] = []  # float64, NaN where missing or no number
        self.cells: list[str] | None = None  # stripped cells from fallback_row on
        self.tokens: dict[str, str] = {}  # one string object per distinct kept cell
        self.fallback_row = 0
        self.n_present = 0
        self.n_numeric = 0
        self.non_finite: tuple[int, str] | None = None  # first (row index, token)

    def add(self, raw: tuple[str, ...], start: int, sentinels: set[str]) -> None:
        """Parse the cells of data rows ``start``, ``start + 1``, ..."""
        cells = list(map(str.strip, raw))
        numbers = None
        try:
            values = [np.nan if c in sentinels else float(c) for c in cells]
            # count matches that one NaN object by identity, never a parsed nan
            n_missing = values.count(np.nan)
            n_numeric = len(cells) - n_missing
        except ValueError:
            if self.cells is None:
                self.cells, self.fallback_row = [], start
            counts = Counter(cells)
            numbers = {}
            for token in counts.keys() - sentinels:
                try:
                    numbers[token] = float(token)
                except ValueError:
                    pass
            values = [numbers.get(c, np.nan) for c in cells]
            n_missing = sum(counts[c] for c in sentinels)
            n_numeric = sum(counts[c] for c in numbers)
        if self.cells is not None:
            self.cells += map(self.tokens.setdefault, cells, cells)
        values = np.array(values, dtype=np.float64)
        self.values.append(values)
        self.n_present += len(cells) - n_missing
        self.n_numeric += n_numeric
        # every missing cell and non-number is NaN, so any further
        # non-finite value is a number
        non_finite = ~np.isfinite(values)
        if self.non_finite is None and np.count_nonzero(non_finite) > len(cells) - n_numeric:
            for i in np.flatnonzero(non_finite):
                if cells[i] not in sentinels and (numbers is None or cells[i] in numbers):
                    self.non_finite = (start + i, cells[i])
                    break


@contextmanager
def _csv_rows(path: Path, delimiter: str):
    """A csv reader over the file; failing to open or decode it is an IngestError."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield csv.reader(fh, delimiter=delimiter)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def _stream_columns(
    path: Path, sentinels: set[str], delimiter: str
) -> tuple[list[str], list[_ColumnChunks]]:
    """The header and every column's parsed chunks, reading at most
    ``SCRATCH_ENTRIES`` cells at a time."""
    with _csv_rows(path, delimiter) as rows:
        first = next(rows, None)
        if first is None:
            raise IngestError(f"{path} is empty: no header row")
        header = [h.strip() for h in first]
        if any(not h for h in header):
            raise IngestError(f"{path}: header has an empty column name")
        if len(set(header)) != len(header):
            raise IngestError(f"{path}: duplicate column names in header")
        width = len(header)
        columns = [_ColumnChunks() for _ in header]
        step = max(1, SCRATCH_ENTRIES // max(width, 1))
        start = 0
        while chunk := list(islice(rows, step)):
            for lineno, row in enumerate(chunk, start=start + 2):
                if len(row) != width:
                    raise IngestError(f"{path}: row {lineno} has {len(row)} cells, header has {width}")
            for column, raw in zip(columns, zip(*chunk)):
                column.add(raw, start, sentinels)
            start += len(chunk)
            del chunk  # freed before the next one is read
    return header, columns


def _leading_cells(path: Path, delimiter: str, stops: dict[int, int]) -> dict[int, list[str]]:
    """The stripped cells of column j in the first ``stops[j]`` data rows, for each j."""
    cells: dict[int, list[str]] = {j: [] for j in stops}
    with _csv_rows(path, delimiter) as rows:
        next(rows)
        for i, row in enumerate(islice(rows, max(stops.values()))):
            for j, stop in stops.items():
                if i < stop:
                    cells[j].append(row[j].strip())
    return cells


def ingest(
    path: str | Path,
    sentinels: tuple[str, ...] = DEFAULT_SENTINELS,
    delimiter: str = ",",
) -> Dataset:
    """Read a delimited text file into a typed dataset.

    The first row is the header. A column is numeric when at least 90% of
    its non-missing cells parse as numbers (the stragglers become missing,
    and their count per column is kept in ``Dataset.coerced``); otherwise
    it is categorical, stored as integer codes into its sorted level
    names. Cells matching a sentinel are missing either way. ``inf``,
    ``-inf`` and ``nan`` tokens count as numbers for that rule, but a
    numeric column holding one is rejected with an IngestError naming
    column, row and token: coerced to missing, it would become a
    missingness indicator. Declare such a token a sentinel to read it as
    missing. The file is streamed as UTF-8; a leading byte-order mark is
    dropped, so it never becomes part of the first column name. Rows end
    only at CR or LF outside quotes, so a quoted newline or a Unicode line
    separator stays inside its cell.

    The rows are read in chunks of ``SCRATCH_ENTRIES`` cells, so besides
    one chunk ingest holds 8 bytes per cell of a numeric column, and the
    cell strings of a column only from its first non-number on. A ragged
    row fails as it is read; every other check waits for the end of the
    file and runs column by column in header order. A column that ends
    categorical after a numeric start re-reads just those leading rows,
    so its levels keep the tokens as written.
    """
    path = Path(path)
    problem = _delimiter_error(delimiter)
    if problem:
        raise IngestError(f"cannot read {path}: {problem}")
    sentinel_set = set(sentinels)
    header, chunks = _stream_columns(path, sentinel_set, delimiter)
    numeric = [c.n_numeric >= NUMERIC_PARSE_FRACTION * c.n_present for c in chunks]
    for name, column, is_numeric in zip(header, chunks, numeric):
        if is_numeric and column.non_finite:
            row, token = column.non_finite
            raise IngestError(
                f"{path}: column {name!r} row {row + 2} holds the non-finite "
                f"number {token!r}; declare it a missing sentinel or fix the cell"
            )
    stops = {j: c.fallback_row for j, c in enumerate(chunks) if not numeric[j] and c.fallback_row}
    leading = _leading_cells(path, delimiter, stops) if stops else {}

    columns = []
    levels = []
    coerced = {}
    for j, name in enumerate(header):
        column, chunks[j] = chunks[j], None
        if numeric[j]:
            col, names = np.concatenate(column.values or [np.empty(0)]), None
            if column.n_numeric < column.n_present:
                coerced[name] = column.n_present - column.n_numeric
        else:
            col, names = encode(leading.pop(j, []) + column.cells, sentinel_set)
        columns.append(col)
        levels.append(names)
    return Dataset(column_names=header, columns=columns, levels=levels, coerced=coerced)


def tabulate(config: RunConfig) -> tuple[Dataset, IndicatorMatrix, PatternTable]:
    """Step 1: ingest the input, build its indicators and tabulate patterns.

    An unreadable input raises IngestError; a column selection that does
    not fit the data raises PipelineError("step1-indicators").
    """
    data = ingest(config.input_path, tuple(config.missing_sentinels), config.delimiter)
    try:
        ind = build_indicators(data, config.columns)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        raise PipelineError("step1-indicators", str(msg)) from exc
    return data, ind, tabulate_patterns(ind, drop_fully_missing=config.drop_fully_missing_pattern)


@dataclass
class AnalysisResult:
    config: RunConfig
    seed: int
    data: Dataset
    ind: IndicatorMatrix
    patterns: PatternTable
    corr: correlation.CorrelationMatrix
    retention_eigenvalues: np.ndarray
    decisions: dict[str, RetentionDecision]
    decisive: str
    q: int
    solution: extraction.EigenSolution | None
    oriented_loadings: np.ndarray | None
    scores: extraction.ComponentScores | None
    screen_rows: list[tuple[str, str, ScreenResult]] = field(default_factory=list)
    logistic_rows: list[tuple[str, str, str, LogisticFit]] = field(default_factory=list)
    strata: list[StratumResult] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _screening_dataset(data: Dataset, ind: IndicatorMatrix) -> Dataset:
    """Original columns plus indicators as categorical "0"/"1" codes."""
    return Dataset(
        column_names=list(data.column_names) + list(ind.column_names),
        columns=list(data.columns) + [ind.values[:, j].view(np.int8) for j in range(ind.k)],
        levels=list(data.levels) + [["0", "1"]] * ind.k,
    )


def analyze(config: RunConfig) -> AnalysisResult:
    """Run the full pipeline per the configuration.

    A configuration that fails ``RunConfig.validate`` raises ValueError
    before the input is read. Past that, failures raise PipelineError with
    the failing step's label; covariate and strata names, that no covariate
    is named twice, the covariates' numeric kind and the strata column's 2
    levels among the rows not missing on every indicator are checked against
    the data right after step 1. A retention outcome of zero components is
    not an error, the remaining steps are skipped with that reason.
    """
    config.validate()
    steps: list[dict] = []
    notes: list[str] = []

    def done(step, detail=""):
        steps.append({"step": step, "status": "done", "detail": detail})

    def skipped(step, reason):
        steps.append({"step": step, "status": "skipped", "detail": reason})

    seed = config.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0] % (2**31))
        notes.append("seed was not supplied; one was generated and recorded")

    # step 1: indicators and pattern tabulation
    try:
        data, ind, patterns = tabulate(config)
    except IngestError as exc:
        raise PipelineError("step1-indicators", str(exc)) from exc
    done("step1-indicators", f"{ind.k} indicator columns, {patterns.n_observed_patterns} patterns")
    covariates = list(config.covariate_columns or [])
    for i, name in enumerate(covariates):
        if name not in data.column_names:
            raise PipelineError("step7-logistic", f"covariate column {name!r} not in dataset")
        if name in covariates[:i]:
            raise PipelineError("step7-logistic", f"covariate column {name!r} is given more than once")
    if covariates:
        try:
            cov = np.column_stack([mechanism.numeric_values(data, c) for c in covariates])
        except ValueError as exc:
            raise PipelineError("step7-logistic", str(exc)) from exc
    if config.strata_column:
        if config.strata_column not in data.column_names:
            raise PipelineError("step8-strata", f"strata column {config.strata_column!r} not in dataset")
        # step 8 runs on the rows not missing on every indicator, known already
        try:
            mechanism.strata_levels(data, config.strata_column, ~ind.fully_missing_rows)
        except ValueError as exc:
            raise PipelineError("step8-strata", str(exc)) from exc

    # step 2: correlation of indicators (repair to positive definite if needed)
    try:
        corr = correlation.correlate(ind, config.correlation_kind)
    except (correlation.EstimationError, ValueError) as exc:
        raise PipelineError("step2-correlation", str(exc)) from exc
    done(
        "step2-correlation",
        f"{config.correlation_kind}" + (", repaired to positive definite" if corr.pd_repaired else ""),
    )

    # step 3: retention criteria (all four, side by side)
    spectrum = extraction.spectrum(corr, config.extraction_method)
    decisions = retention.decide(ind, spectrum, seed, config.pa_reps, config.pa_percentile)
    decisive = config.criterion
    if decisive == "auto":
        decisive = retention.guidance(
            ind.n, config.items_per_component_hint, config.expected_components_hint
        )
        notes.append(f"criterion 'auto' resolved to {decisive!r}")
    q = decisions[decisive].k_retained
    done("step3-retention", f"decisive criterion {decisive} retained {q} component(s)")

    if q == 0:
        reason = f"decisive criterion {decisive} retained 0 components"
        for step in ("step4-extraction", "step5-dichotomize", "step6-screens", "step7-logistic", "step8-strata"):
            skipped(step, reason)
        return AnalysisResult(
            config, seed, data, ind, patterns, corr, spectrum, decisions, decisive, 0,
            None, None, None, steps=steps, notes=notes,
        )

    # step 4: extract q components and score
    solution = extraction.pca(corr) if config.extraction_method == PCA else extraction.paf(corr, q)
    if not solution.converged:
        notes.append("principal axis factoring did not converge; last iterate reported")
    oriented = extraction.oriented_weights(solution, q)[0]
    comp_scores = extraction.scores(ind, solution, q, cutoff=config.cutoff)
    done("step4-extraction", f"extracted {q} component(s) with {config.extraction_method}")

    # step 5: dichotomize at the cutoff (computed alongside scoring)
    n_high = [int(comp_scores.dichotomized[:, j].sum()) for j in range(q)]
    done("step5-dichotomize", f"cutoff {config.cutoff}; high-group sizes {n_high}")

    # steps 6-7 run on rows that are not missing on every indicator
    usable = ~comp_scores.fully_missing
    n_fully = int(comp_scores.fully_missing.sum())
    if n_fully:
        notes.append(f"{n_fully} fully missing row(s) excluded from screens and fits")
    # the screens read each group's usable rows by index, so no column is
    # copied whether or not rows are excluded
    screen_data = _screening_dataset(data, ind)
    # the stratifying column itself is not screened
    screen_vars = [name for name in screen_data.column_names if name != config.strata_column]

    screen_rows: list[tuple[str, str, ScreenResult]] = []
    logistic_rows: list[tuple[str, str, str, LogisticFit]] = []
    strata_results: list[StratumResult] = []
    indicator_names = list(ind.column_names)
    if covariates:
        cov = cov[usable]
        keep = np.isfinite(cov).all(axis=1)

    # (label, flags over the usable rows, separating start of the joint
    # fits) of each component with both classes; the start is the score's
    # own map, cut midway between the classes' scores
    testable: list[tuple[str, np.ndarray, np.ndarray]] = []
    for j, flag in enumerate(np.array(comp_scores.dichotomized[usable].T, dtype=int, order="C")):
        label = f"component_{j + 1}"
        if flag.min() == flag.max():
            notes.append(f"{label}: dichotomized score has a single class; screens and fits skipped")
            continue
        s = comp_scores.scores[usable, j]
        gap = (s[flag == 0].max() + s[flag == 1].min()) / 2.0
        testable.append((label, flag, np.r_[comp_scores.intercepts[j] - gap, comp_scores.slopes[:, j]]))
        for res in mechanism.screen(screen_data, flag, screen_vars, usable):
            screen_rows.append((label, "", res))
    done("step6-screens", f"{len(screen_rows)} screen rows across {len(testable)} component(s)")

    x_ind = ind.values[usable]  # uint8; only a fit that does not certify casts a float64 design
    # a fit on one 0/1 indicator depends only on its 2x2 table against the
    # flag, so it runs on the table's four cells weighted by their counts
    cell_x = np.array([[1.0], [1.0], [0.0], [0.0]])
    cell_y = np.array([1, 0, 1, 0])
    n_ones = x_ind.sum(axis=0, dtype=np.int64)
    for label, flag, start in testable:
        both = x_ind[flag == 1].sum(axis=0, dtype=np.int64)
        n_high = flag.sum()
        tables = np.column_stack([both, n_ones - both, n_high - both, len(flag) - n_ones - n_high + both])
        for ind_name, counts in zip(indicator_names, tables):
            fit = mechanism.fit_logistic(cell_y, cell_x, [ind_name], weights=counts)
            logistic_rows.append((label, "", f"simple:{ind_name}", fit))
        logistic_rows.append(
            (label, "", "multiple", mechanism.fit_logistic(flag, x_ind, indicator_names, start=start))
        )
        if covariates:
            if keep.sum() and flag[keep].min() != flag[keep].max():
                fit = mechanism.fit_logistic(flag[keep], cov[keep], covariates)
                logistic_rows.append((label, "", "covariates", fit))
            else:
                notes.append(f"{label}: covariate fit skipped (no complete rows with both classes)")
    done("step7-logistic", f"{len(logistic_rows)} fitted model(s)")

    # step 8: stratified rerun
    if config.strata_column:
        n_unplaced = int(data.missing_mask(config.strata_column)[usable].sum())
        if n_unplaced:
            notes.append(f"{n_unplaced} usable row(s) missing {config.strata_column!r} left out of strata")
        for label, flag, start in testable:
            reruns = mechanism.stratified_rerun(
                screen_data, flag, config.strata_column, screen_vars, x_ind, indicator_names, start, usable
            )
            for res in reruns:
                strata_results.append(res)
                stratum_label = f"{config.strata_column}={res.stratum}"
                if not res.testable:
                    notes.append(f"{label}: stratum {stratum_label} skipped ({res.reason})")
                for s in res.screens:
                    screen_rows.append((label, stratum_label, s))
                if res.fit is not None:
                    logistic_rows.append((label, stratum_label, "multiple", res.fit))
        done("step8-strata", f"{sum(r.testable for r in strata_results)} stratum rerun(s)")
    else:
        skipped("step8-strata", "no strata column configured")

    return AnalysisResult(
        config=config,
        seed=seed,
        data=data,
        ind=ind,
        patterns=patterns,
        corr=corr,
        retention_eigenvalues=spectrum,
        decisions=decisions,
        decisive=decisive,
        q=q,
        solution=solution,
        oriented_loadings=oriented,
        scores=comp_scores,
        screen_rows=screen_rows,
        logistic_rows=logistic_rows,
        strata=strata_results,
        steps=steps,
        notes=notes,
    )


def _input_sections(data: Dataset, ind: IndicatorMatrix, table: PatternTable) -> dict:
    """The manifest's ``data`` and ``patterns`` sections, shared by analyze and patterns."""
    return {
        "data": {
            "n": data.n,
            "p": data.p,
            "indicator_columns": ind.column_names,
            "dropped_columns": [{"column": name, "reason": reason} for name, reason in ind.dropped_columns],
            "n_fully_missing_rows": int(ind.fully_missing_rows.sum()),
            "coerced_cells": data.coerced,
        },
        "patterns": {
            "n_observed": table.n_observed_patterns,
            "max_possible": table.max_possible,
            "n_fully_missing": table.n_fully_missing,
        },
    }


def _settings(config: RunConfig) -> dict:
    """Every RunConfig field as JSON reads it back: paths as strings, tuples as lists."""
    return {
        name: str(value) if isinstance(value, Path) else list(value) if isinstance(value, tuple) else value
        for name, value in asdict(config).items()
    }


def build_manifest(result: AnalysisResult, files: list[str]) -> dict:
    min_eig = result.corr.min_eigenvalue_before_repair
    return reports.manifest(
        "analyze",
        files,
        seed=result.seed,
        config=_settings(result.config),
        **_input_sections(result.data, result.ind, result.patterns),
        correlation={
            "kind": result.corr.kind,
            "pd_repaired": result.corr.pd_repaired,
            "min_eigenvalue_before_repair": None if np.isnan(min_eig) else min_eig,
        },
        retention={
            "decisive": result.decisive,
            "q": result.q,
            "decisions": {
                crit: {"k_retained": dec.k_retained, "converged": dec.converged}
                for crit, dec in result.decisions.items()
            },
        },
        extraction=reports.solution_summary(result.solution) if result.solution else None,
        orientation=[int(s) for s in result.scores.orientation] if result.scores else None,
        loading_bold_threshold=reports.LOADING_BOLD_THRESHOLD,
        separated_fits=[
            {"component": comp, "stratum": stratum, "model": model}
            for comp, stratum, model, fit in result.logistic_rows
            if fit.separated
        ],
        steps=result.steps,
        notes=result.notes,
    )


def _pattern_files(table: PatternTable, formats, outdir: Path) -> list[str]:
    """Write the pattern table in each requested format; returns the file names."""
    files = []
    for fmt in FORMATS:
        if fmt in formats:
            files.append(f"patterns.{fmt}")
            # looked up at call time, so a wrapped writer is the one called
            getattr(reports, f"write_patterns_{fmt}")(outdir / files[-1], table)
    return files


def write_bundle(result: AnalysisResult, output_dir: str | Path | None = None) -> list[str]:
    """Write the report bundle; returns the written file names."""
    outdir = Path(output_dir if output_dir is not None else result.config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    formats = set(result.config.output_formats)
    files = _pattern_files(result.patterns, formats, outdir)

    def emit(name):
        files.append(name)
        return outdir / name

    if "csv" in formats:
        reports.write_retention_csv(emit("retention.csv"), result.decisions, result.decisive)
        reports.write_retention_curves_csv(
            emit("retention_curves.csv"), result.decisions, result.retention_eigenvalues
        )
        if result.oriented_loadings is not None:
            reports.write_loadings_csv(
                emit("loadings.csv"), result.ind.column_names, result.oriented_loadings
            )
        if result.scores is not None:
            reports.write_scores_csv(emit("scores.csv"), result.scores)
        if result.screen_rows:
            reports.write_screens_csv(emit("screens.csv"), result.screen_rows)
        if result.logistic_rows:
            reports.write_logistic_csv(emit("logistic.csv"), result.logistic_rows)
    if "md" in formats and result.oriented_loadings is not None:
        reports.write_loadings_md(emit("loadings.md"), result.ind.column_names, result.oriented_loadings)

    files.append("manifest.json")
    reports.write_manifest(outdir / "manifest.json", build_manifest(result, files))
    return files


def write_patterns(config: RunConfig) -> tuple[PatternTable, list[str]]:
    """Step 1 alone: write the pattern table in the configured formats and a
    manifest; returns the table and the written file names."""
    config.validate()
    data, ind, table = tabulate(config)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = _pattern_files(table, set(config.output_formats), outdir)
    files.append("manifest.json")
    manifest = reports.manifest(
        "patterns", files, config=_settings(config), **_input_sections(data, ind, table)
    )
    reports.write_manifest(outdir / "manifest.json", manifest)
    return table, files

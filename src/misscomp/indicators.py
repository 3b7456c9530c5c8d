"""Missingness indicators and pattern tabulation.

A dataset with k incompletely observed variables carries a binary
missingness indicator per variable (1 = missing, 0 = observed) and up to
2**k - 1 distinct meaningful patterns across those indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# cap, in entries, on each scratch array of a co-occurrence count and of a
# block of permutation-null replications
SCRATCH_ENTRIES = 1 << 20
# float32 holds every integer up to 2**24 exactly, so a count summed over at
# most this many rows is exact
_FLOAT32_EXACT_ROWS = 1 << 24


class ColumnNotFoundError(KeyError):
    """A requested column name is not in the dataset."""


class EmptyIndicatorError(ValueError):
    """No selected column has any missingness variance to analyze."""


@dataclass
class Dataset:
    """Rectangular column store with explicit missing cells.

    Numeric columns are float arrays with NaN marking missing cells;
    categorical columns are object arrays with None marking missing cells.
    """

    column_names: list[str]
    columns: list[np.ndarray]
    kinds: list[str]

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise ValueError("duplicate column names in dataset")
        if not (len(self.column_names) == len(self.columns) == len(self.kinds)):
            raise ValueError("column_names, columns and kinds must align")
        lengths = {len(col) for col in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged dataset: column lengths {sorted(lengths)}")
        for kind in self.kinds:
            if kind not in (NUMERIC, CATEGORICAL):
                raise ValueError(f"unknown column kind {kind!r}")

    @property
    def n(self) -> int:
        return 0 if not self.columns else len(self.columns[0])

    @property
    def p(self) -> int:
        return len(self.column_names)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.column_names.index(name)]
        except ValueError:
            raise ColumnNotFoundError(name) from None

    def kind(self, name: str) -> str:
        try:
            return self.kinds[self.column_names.index(name)]
        except ValueError:
            raise ColumnNotFoundError(name) from None

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask of missing cells for one column."""
        col = self.column(name)
        if self.kind(name) == NUMERIC:
            return np.isnan(col)
        return np.array([v is None for v in col], dtype=bool)


@dataclass
class IndicatorMatrix:
    """Binary missingness indicators, one column per retained variable."""

    values: np.ndarray  # (n, k) uint8, 1 = missing
    column_names: list[str]
    source_columns: list[str]
    dropped_columns: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim != 2:
            raise ValueError("indicator values must be two-dimensional")
        if not np.isin(vals, (0, 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        self.values = vals.astype(np.uint8)
        marg = self.marginals
        if self.k and not ((marg > 0) & (marg < 1)).all():
            raise ValueError("retained indicator columns must have 0 < marginal < 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def marginals(self) -> np.ndarray:
        """Proportion missing per retained column."""
        if self.n == 0:
            return np.zeros(self.k)
        return self.values.mean(axis=0)

    @property
    def fully_missing_rows(self) -> np.ndarray:
        """Boolean mask of rows missing on every retained variable."""
        return self.values.all(axis=1) if self.k else np.zeros(self.n, dtype=bool)


def cooccurrence(values: np.ndarray) -> np.ndarray:
    """Exact co-occurrence counts ``XᵀX`` of a 0/1 matrix, as float64.

    Entry (i, j) counts the rows where columns i and j are both 1, so the
    diagonal holds the column sums. A stack of matrices, shape (..., n, k),
    gives one count matrix each. Rows go through a float32 BLAS product in
    chunks of at most ``SCRATCH_ENTRIES`` entries and 2**24 rows; each
    chunk's counts are integers that float32 represents exactly, and they
    add up in float64.
    """
    n, k = values.shape[-2:]
    width = max(values.size // max(n, 1), 1)  # entries per row across the stack
    step = max(1, min(SCRATCH_ENTRIES // width, _FLOAT32_EXACT_ROWS))
    counts = np.zeros(values.shape[:-2] + (k, k))
    for start in range(0, n, step):
        x = values[..., start : start + step, :].astype(np.float32)
        counts += np.swapaxes(x, -1, -2) @ x
    return counts


@dataclass
class PatternRow:
    pattern: str
    count: int
    percent: float
    rank: int

    @property
    def n_missing_vars(self) -> int:
        return self.pattern.count("1")


@dataclass
class PatternTable:
    """Distinct missingness patterns ranked by frequency."""

    rows: list[PatternRow]
    k: int
    n: int
    n_fully_missing: int
    percent_base: int
    fully_missing_dropped: bool

    @property
    def max_possible(self) -> int:
        return 2**self.k - 1

    @property
    def n_observed_patterns(self) -> int:
        return len(self.rows)


def build_indicators(data: Dataset, selected_columns: list[str] | None = None) -> IndicatorMatrix:
    """Turn missing cells of the selected columns into 0/1 indicator columns.

    Columns observed everywhere or missing everywhere carry no information
    about missingness structure and are dropped with a recorded reason.

    Parameters
    ----------
    data : Dataset
        Source data.
    selected_columns : list of str, optional
        Columns to inspect; all columns when omitted.

    Returns
    -------
    IndicatorMatrix
        Indicators named ``<column>_miss``, 1 where the cell was missing.
    """
    if selected_columns is None:
        selected_columns = list(data.column_names)
    if not selected_columns:
        raise ValueError("selected_columns must be nonempty")
    for name in selected_columns:
        if name not in data.column_names:
            raise ColumnNotFoundError(name)

    kept_cols = []
    kept_names = []
    kept_sources = []
    dropped = []
    for name in selected_columns:
        mask = data.missing_mask(name)
        frac = mask.mean() if mask.size else 0.0
        if frac == 0.0:
            dropped.append((name, "all cells observed"))
        elif frac == 1.0:
            dropped.append((name, "all cells missing"))
        else:
            kept_cols.append(mask.astype(np.uint8))
            kept_names.append(f"{name}_miss")
            kept_sources.append(name)
    if not kept_cols:
        raise EmptyIndicatorError(
            "no selected column has both observed and missing cells; "
            "there is no missingness structure to analyze"
        )
    values = np.column_stack(kept_cols)
    return IndicatorMatrix(values, kept_names, kept_sources, dropped)


def tabulate_patterns(ind: IndicatorMatrix, drop_fully_missing: bool = False) -> PatternTable:
    """Tabulate distinct indicator patterns with counts and percents.

    Rows are ranked by descending count, ties broken lexicographically by
    pattern string. With ``drop_fully_missing`` the all-ones pattern is
    removed and percents are taken over the remaining rows, the convention
    used when fully missing cases are excluded from an analytic sample.
    """
    n = ind.n
    patterns, counts = np.unique(ind.values, axis=0, return_counts=True)
    strings = ["".join("1" if b else "0" for b in row) for row in patterns]
    all_ones = "1" * ind.k
    n_fully_missing = 0
    pairs = []
    for s, c in zip(strings, counts):
        if s == all_ones:
            n_fully_missing = int(c)
            if drop_fully_missing:
                continue
        pairs.append((s, int(c)))
    base = n - n_fully_missing if drop_fully_missing else n
    pairs.sort(key=lambda sc: (-sc[1], sc[0]))
    rows = [
        PatternRow(pattern=s, count=c, percent=c / base if base else 0.0, rank=i + 1)
        for i, (s, c) in enumerate(pairs)
    ]
    return PatternTable(
        rows=rows,
        k=ind.k,
        n=n,
        n_fully_missing=n_fully_missing,
        percent_base=base,
        fully_missing_dropped=drop_fully_missing,
    )

"""Missingness indicators and pattern tabulation.

A dataset with k incompletely observed variables carries a binary
missingness indicator per variable (1 = missing, 0 = observed) and up to
2**k - 1 distinct meaningful patterns across those indicators.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# cap, in entries, on each float64 chunk of ``row_chunks`` (1 MB), on a
# block of permutation-null keys (512 kB of uint32) and on ingest's chunk
# of cells
SCRATCH_ENTRIES = 1 << 17


class ColumnNotFoundError(KeyError):
    """A requested column name is not in the dataset."""

    def __str__(self) -> str:  # KeyError's own str() is the quoted key
        return f"column {self.args[0]!r} not in dataset"


class EmptyIndicatorError(ValueError):
    """No selected column has any missingness variance to analyze."""


def encode(cells: list, missing: Iterable = (None,)) -> tuple[np.ndarray, list[str]]:
    """Integer codes and sorted level names of a list of string cells.

    Cells found in ``missing`` get code -1; every other distinct cell is a
    level, and levels sort as strings. The codes take the smallest signed
    integer type that holds -len(levels), and so every code.
    """
    missing = set(missing)
    levels = sorted(set(cells) - missing)
    index = dict.fromkeys(missing, -1)
    index.update((level, code) for code, level in enumerate(levels))
    dtype = np.min_scalar_type(-max(len(levels), 1))
    codes = np.fromiter((index[c] for c in cells), dtype=dtype, count=len(cells))
    return codes, levels


@dataclass
class Dataset:
    """Rectangular column store with explicit missing cells.

    Each column takes one of two forms. A numeric column is a float array
    with NaN marking missing cells, and its entry in ``levels`` is None. A
    categorical column is integer codes into its entry in ``levels``, a
    sorted list of level names, with -1 marking missing cells. So a column
    is categorical exactly when it has levels.
    """

    column_names: list[str]
    columns: list[np.ndarray]
    levels: list[list[str] | None]
    coerced: dict[str, int] = field(default_factory=dict)  # numeric column -> tokens read as missing

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise ValueError("duplicate column names in dataset")
        if not (len(self.column_names) == len(self.columns) == len(self.levels)):
            raise ValueError("column_names, columns and levels must align")
        lengths = {len(col) for col in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged dataset: column lengths {sorted(lengths)}")
        for name, col, names in zip(self.column_names, self.columns, self.levels):
            if col.dtype.kind != ("f" if names is None else "i"):
                has = "no levels" if names is None else "levels"
                raise ValueError(f"column {name!r} has {has} but dtype {col.dtype}")

    @property
    def n(self) -> int:
        return 0 if not self.columns else len(self.columns[0])

    @property
    def p(self) -> int:
        return len(self.column_names)

    def _index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise ColumnNotFoundError(name) from None

    def column(self, name: str) -> np.ndarray:
        """Numeric values, or categorical level names as objects (None = missing)."""
        j = self._index(name)
        if self.levels[j] is None:
            return self.columns[j]
        return np.array(self.levels[j] + [None], dtype=object)[self.columns[j]]

    def kind(self, name: str) -> str:
        return NUMERIC if self.levels[self._index(name)] is None else CATEGORICAL

    def codes(self, name: str) -> tuple[np.ndarray, list[str]]:
        """Integer codes (-1 = missing) and level names of one column.

        A numeric column is coded by the ``str`` of each distinct value,
        with levels in string order, so 10.0 sorts before 2.0.
        """
        j = self._index(name)
        if self.levels[j] is not None:
            return self.columns[j], self.levels[j]
        col = self.columns[j]
        present = ~np.isnan(col)
        # distinct bit patterns are distinct str() forms, 0.0 and -0.0 included
        bits, inverse = np.unique(col[present].view(f"i{col.itemsize}"), return_inverse=True)
        rank, levels = encode([str(v) for v in bits.view(col.dtype)])
        codes = np.full(len(col), -1, dtype=rank.dtype)
        codes[present] = rank[inverse]
        return codes, levels

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask of missing cells for one column."""
        j = self._index(name)
        if self.levels[j] is None:
            return np.isnan(self.columns[j])
        return self.columns[j] < 0


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
        if vals.dtype != bool and not np.isin(vals, (0, 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        self.values = np.ascontiguousarray(vals, dtype=np.uint8)
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


def row_chunks(x: np.ndarray, cols=slice(None)) -> Iterator[tuple[slice, np.ndarray]]:
    """Row slices of the 2-d array ``x`` and its columns ``cols`` on those
    rows, cast to float64 into one reused buffer of at most
    ``SCRATCH_ENTRIES`` cells (read as the walk starts)."""
    n = x.shape[0]
    width = x[:0, cols].shape[1]
    step = max(1, SCRATCH_ENTRIES // max(width, 1))
    buffer = np.empty((min(step, n), width))
    for start in range(0, n, step):
        chunk = buffer[: min(step, n - start)]
        chunk[...] = x[start : start + step, cols]
        yield slice(start, start + step), chunk


def cooccurrence(values: np.ndarray) -> np.ndarray:
    """Exact co-occurrence counts ``XᵀX`` of an (n, k) 0/1 matrix, as float64.

    Entry (i, j) counts the rows where columns i and j are both 1, so the
    diagonal holds the column sums. Rows go through a float64 BLAS product
    one ``row_chunks`` chunk at a time; float64 holds every integer up to
    2**53 exactly, so every partial sum is the exact count.
    """
    counts = np.zeros((values.shape[1],) * 2)
    for _, x in row_chunks(values):
        counts += x.T @ x
    return counts


def phi(counts: np.ndarray, n: int) -> np.ndarray:
    """Pearson (phi) correlations of 0/1 columns from their co-occurrence counts.

    ``counts`` is C = XᵀX over n rows, or a stack of such matrices; its
    diagonal holds each column's count of ones m, and
    r = (n C - m mᵀ) / (s sᵀ) with s = sqrt(n m - m²). Each entry is one
    expression in exact integer counts, so r is exactly symmetric. Every
    column needs 0 < m < n. ``counts`` is overwritten with r and returned.
    """
    m = np.diagonal(counts, axis1=-2, axis2=-1).copy()
    s = np.sqrt(n * m - m * m)
    counts *= n
    counts -= m[..., :, None] * m[..., None, :]
    counts /= s[..., :, None] * s[..., None, :]
    return counts


@dataclass(slots=True)
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


def from_mask(mask: np.ndarray, sources: list[str]) -> IndicatorMatrix:
    """Indicators of an (n, k) missing-cell mask, column j taken from ``sources[j]``.

    A column observed everywhere or missing everywhere carries no
    information about missingness structure and is dropped with its
    reason; each kept column is named ``<source>_miss``, 1 where the cell
    was missing.
    """
    mask = np.asarray(mask, dtype=bool)
    n_missing = mask.sum(axis=0)
    keep = (n_missing > 0) & (n_missing < len(mask))
    dropped = [
        (name, "all cells observed" if m == 0 else "all cells missing")
        for name, m, ok in zip(sources, n_missing, keep)
        if not ok
    ]
    kept = [name for name, ok in zip(sources, keep) if ok]
    return IndicatorMatrix(mask[:, keep], [f"{name}_miss" for name in kept], kept, dropped)


def build_indicators(data: Dataset, selected_columns: list[str] | None = None) -> IndicatorMatrix:
    """Turn missing cells of the selected columns into 0/1 indicator columns.

    Columns are kept and dropped as ``from_mask`` does.

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
    for i, name in enumerate(selected_columns):
        if name not in data.column_names:
            raise ColumnNotFoundError(name)
        if name in selected_columns[:i]:
            raise ValueError(f"column {name!r} is selected more than once")
    ind = from_mask(np.column_stack([data.missing_mask(c) for c in selected_columns]), selected_columns)
    if not ind.k:
        raise EmptyIndicatorError(
            "no selected column has both observed and missing cells; "
            "there is no missingness structure to analyze"
        )
    return ind


def tabulate_patterns(ind: IndicatorMatrix, drop_fully_missing: bool = False) -> PatternTable:
    """Tabulate distinct indicator patterns with counts and percents.

    Rows are ranked by descending count, ties broken lexicographically by
    pattern string. With ``drop_fully_missing`` the all-ones pattern is
    removed and percents are taken over the remaining rows, the convention
    used when fully missing cases are excluded from an analytic sample.
    """
    if ind.k == 0:
        raise EmptyIndicatorError("no indicator columns to tabulate")
    n = ind.n
    # one opaque key per row: its indicators packed 8 to a byte, first column
    # in the high bit, so the keys sort as the pattern strings do
    packed = np.packbits(ind.values, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    patterns = ind.values[first]
    fully_missing = patterns.all(axis=1)
    n_fully_missing = int(counts[fully_missing].sum())
    if drop_fully_missing:
        patterns, counts = patterns[~fully_missing], counts[~fully_missing]
    base = n - n_fully_missing if drop_fully_missing else n
    order = np.argsort(-counts, kind="stable")  # ties keep pattern order
    strings = (patterns[order] + ord("0")).view(f"S{ind.k}").ravel().astype(str).tolist()
    rows = [
        PatternRow(pattern=s, count=c, percent=c / base if base else 0.0, rank=i + 1)
        for i, (s, c) in enumerate(zip(strings, counts[order].tolist()))
    ]
    return PatternTable(
        rows=rows,
        k=ind.k,
        n=n,
        n_fully_missing=n_fully_missing,
        percent_base=base,
        fully_missing_dropped=drop_fully_missing,
    )

import numpy as np
import pytest

from misscomp import indicators, mechanism
from misscomp.indicators import NUMERIC, Dataset, encode


def dataset_from_arrays(named_columns):
    """Build a Dataset from {name: list} pairs; None marks missing cells.

    Lists of numbers become numeric columns (None -> NaN); any other list
    becomes a categorical column, encoded by the ``str`` of each value.
    """
    columns = []
    levels = []
    for raw in named_columns.values():
        if all(v is None or isinstance(v, (int, float)) for v in raw):
            columns.append(np.array([np.nan if v is None else float(v) for v in raw]))
            levels.append(None)
        else:
            codes, names = encode([None if v is None else str(v) for v in raw])
            columns.append(codes)
            levels.append(names)
    return Dataset(column_names=list(named_columns), columns=columns, levels=levels)


def small_walk(monkeypatch, module, cap):
    """Caps ``indicators.SCRATCH_ENTRIES`` at ``cap`` cells and returns the
    list that the shape of every chunk ``module``'s row walks yield is then
    appended to."""
    shapes = []

    def walk(*args):
        for rows, chunk in indicators.row_chunks(*args):
            shapes.append(chunk.shape)
            yield rows, chunk

    monkeypatch.setattr(indicators, "SCRATCH_ENTRIES", cap)
    monkeypatch.setattr(module, "row_chunks", walk)
    return shapes


def take(data, rows):
    """``data`` restricted to ``rows`` (a boolean mask or indices), every
    column copied: the reference for screens and reruns that select rows."""
    return Dataset(
        column_names=list(data.column_names),
        columns=[c[rows] for c in data.columns],
        levels=list(data.levels),
    )


def reference_screen(data, component_flag, variables, rows=None):
    """The screens by boolean masks: each variable copies its observed
    cells of ``rows`` (a boolean mask or indices; None for all), then each
    group's values or the level-by-flag table by ``bincount`` of 2·code +
    flag. The reference for ``mechanism.screen``."""
    if rows is None:
        rows = slice(None)
    else:
        rows = np.asarray(rows)
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows
    n = data.n if isinstance(rows, slice) else len(rows)
    flag = np.asarray(component_flag).astype(int)
    results = []
    for name in variables:
        kind = data.kind(name)
        observed = ~data.missing_mask(name)[rows]
        excluded = int(n - observed.sum())
        g0, g1 = flag[observed] == 0, flag[observed] == 1
        n0, n1 = int(g0.sum()), int(g1.sum())
        stat = df = p = np.nan
        reason = ""
        if n0 < 2 or n1 < 2:
            reason = f"fewer than 2 observed values in a group (n0={n0}, n1={n1})"
        elif kind == NUMERIC:
            vals = data.column(name)[rows][observed]
            stat, df, p = mechanism._welch(vals[g1], vals[g0])
        else:
            codes, levels = data.codes(name)
            pairs = 2 * codes[rows][observed].astype(np.intp) + flag[observed]
            stat, df, p = mechanism._chi_square(np.bincount(pairs, minlength=2 * len(levels)).reshape(-1, 2))
            if np.isnan(stat):
                reason = "contingency table has a single populated row or column"
        test = mechanism.WELCH_T if kind == NUMERIC else mechanism.CHI_SQUARE
        results.append(mechanism.ScreenResult(name, test, stat, df, p, not reason, reason, n0, n1, excluded))
    return results


@pytest.fixture
def small_dataset():
    # 8 rows, y1 and y2 partially missing, z complete, label categorical with holes
    return dataset_from_arrays(
        {
            "y1": [1.0, None, 3.0, None, 5.0, 6.0, 7.0, None],
            "y2": [None, 2.0, 3.0, 4.0, None, 6.0, 7.0, 8.0],
            "z": [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5],
            "label": ["a", "b", None, "a", "b", None, "a", "b"],
        }
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)

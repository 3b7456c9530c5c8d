import numpy as np
import pytest

from misscomp.indicators import Dataset, encode


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


def take(data, rows):
    """``data`` restricted to ``rows`` (a boolean mask or indices), every
    column copied: the reference for screens and reruns that select rows."""
    return Dataset(
        column_names=list(data.column_names),
        columns=[c[rows] for c in data.columns],
        levels=list(data.levels),
    )


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

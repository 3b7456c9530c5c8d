"""Screens and logistic models linking missingness components to data.

These are the mechanism-probing steps: compare observed variables across
the two sides of a dichotomized component score, then predict the score
from indicators or covariates with logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .indicators import NUMERIC, Dataset, row_chunks

WELCH_T = "welch_t"
CHI_SQUARE = "chi_square"

IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
SEPARATION_PROB_TOL = 1e-8
RANK_TOL = 1e-10


@dataclass
class ScreenResult:
    variable: str
    test: str
    statistic: float
    df: float
    p_value: float
    testable: bool
    reason: str = ""
    n_group0: int = 0
    n_group1: int = 0
    n_excluded: int = 0


@dataclass
class LogisticFit:
    parameter_names: list[str]  # intercept first
    coefficients: np.ndarray
    standard_errors: np.ndarray | None  # None when suppressed by separation
    log_likelihood: float
    null_log_likelihood: float
    lr_chi2: float
    lr_df: int
    lr_p_value: float
    pseudo_r2: float
    auc: float
    sensitivity: float
    specificity: float
    correct_pct: float
    separated: bool
    converged: bool
    iterations: int
    aliased: list[str]
    n: int


def _welch(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    ma, mb = a.mean(), b.mean()
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / len(a) + vb / len(b)
    if se2 == 0.0:
        # both groups constant; equal means is a null result, unequal is infinite evidence
        return (0.0, float(len(a) + len(b) - 2), 1.0) if ma == mb else (np.inf, float(len(a) + len(b) - 2), 0.0)
    stat = (ma - mb) / np.sqrt(se2)
    df = se2**2 / ((va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1))
    p = 2.0 * special.stdtr(df, -abs(stat))
    return float(stat), float(df), float(p)


def _chi2_sf(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution; 1 at and below zero."""
    return float(special.chdtrc(df, max(x, 0.0)))


def _chi_square(table: np.ndarray) -> tuple[float, float, float]:
    """Pearson chi-square of a level-by-flag count table, over the levels
    and flag classes that have any count."""
    table = table[table.sum(axis=1) > 0].astype(np.float64)
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return np.nan, np.nan, np.nan
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    df = float((table.shape[0] - 1) * (table.shape[1] - 1))
    return stat, df, _chi2_sf(stat, df)


def _too_few(n0: int, n1: int) -> str:
    """Why a screen with ``n0`` and ``n1`` observed values in its groups is
    not testable, or "" when it is."""
    return f"fewer than 2 observed values in a group (n0={n0}, n1={n1})" if n0 < 2 or n1 < 2 else ""


def _table_screen(name: str, table: np.ndarray, n_excluded: int = 0) -> ScreenResult:
    """The chi-square screen of ``name`` from its level-by-flag count table."""
    n0, n1 = table.sum(axis=0).tolist()
    stat = df = p = np.nan
    reason = _too_few(n0, n1)
    if not reason:
        stat, df, p = _chi_square(table)
        if np.isnan(stat):
            reason = "contingency table has a single populated row or column"
    return ScreenResult(name, CHI_SQUARE, stat, df, p, not reason, reason, n0, n1, n_excluded)


def indicator_tables(x: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """The (k, 4) 2×2 tables of the k columns of 0/1 ``x`` against the 0/1
    ``flag``, one row per column as ``fit_table`` reads it: a = (x=1, y=1),
    b = (1, 0), c = (0, 1) and d = (0, 0), exact integer column sums."""
    n_ones = x.sum(axis=0, dtype=np.int64)
    both = x[flag == 1].sum(axis=0, dtype=np.int64)
    n_high = np.count_nonzero(flag)
    return np.column_stack([both, n_ones - both, n_high - both, len(flag) - n_ones - n_high + both])


def screen_tables(tables: np.ndarray, names: list[str]) -> list[ScreenResult]:
    """The chi-square screens of 0/1 indicators from their ``indicator_tables``:
    each is ``screen``'s on the indicator as a categorical column with
    levels "0" and "1", which is never missing."""
    return [_table_screen(name, np.array([[d, c], [b, a]])) for name, (a, b, c, d) in zip(names, tables)]


def _binary(values, what: str) -> np.ndarray:
    """``values`` as ints, once every one of them is checked to be 0 or 1."""
    values = np.asarray(values)
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{what} must be binary")
    return values.astype(int)


def _rows(rows: np.ndarray | None, n: int) -> np.ndarray:
    """A row mask of length ``n`` or row indices as indices; None selects
    every one of the ``n`` rows."""
    if rows is None:
        return np.arange(n)
    rows = np.asarray(rows)
    if rows.dtype != bool:
        return rows
    if len(rows) != n:
        raise ValueError(f"row mask has {len(rows)} entries for {n} dataset rows")
    return np.flatnonzero(rows)


def screen(
    data: Dataset, component_flag: np.ndarray, variables: list[str], rows: np.ndarray | None = None
) -> list[ScreenResult]:
    """Compare each variable across the two component-flag groups.

    Numeric variables get a Welch t test on their observed values,
    categorical variables a Pearson chi-square on the level-by-flag table.
    Missing cells drop out pairwise; a group with fewer than two observed
    values makes the variable not testable (flagged, never raised).

    ``rows`` (a boolean mask over the rows of ``data`` or indices; None for
    all) picks the rows of ``data`` that ``component_flag`` describes. The
    screens equal those on a dataset of only those rows. Each group's
    data-row indices are found once, in the order of ``rows``, and every
    variable reads its cells through them: a numeric column's values in
    that order, a categorical column's table by counting its codes.
    """
    index = _rows(rows, data.n)
    flag = np.asarray(component_flag)
    if flag.ndim != 1 or len(flag) != len(index):
        raise ValueError("component_flag must align with dataset rows")
    flag = _binary(flag, "component_flag")
    groups = [index.take(np.flatnonzero(flag == g)) for g in (0, 1)]
    results = []
    for name in variables:
        if data.kind(name) != NUMERIC:
            codes, levels = data.codes(name)
            # levels by flag; cast before the shift, as int8 code 127 + 1 overflows
            counts = [np.bincount(codes.take(g).astype(np.intp) + 1, minlength=len(levels) + 1)[1:] for g in groups]
            table = np.column_stack(counts)
            results.append(_table_screen(name, table, len(index) - int(table.sum())))
            continue
        col = data.column(name)
        v0, v1 = (v.take(np.flatnonzero(~np.isnan(v))) for v in (col.take(g) for g in groups))
        n0, n1 = len(v0), len(v1)
        reason = _too_few(n0, n1)
        stat, df, p = (np.nan,) * 3 if reason else _welch(v1, v0)
        results.append(ScreenResult(name, WELCH_T, stat, df, p, not reason, reason, n0, n1, len(index) - n0 - n1))
    return results


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by the Mann-Whitney count.

    Over the distinct scores, each positive counts the negatives below it
    and half the negatives tied with it; every term is a whole or half
    count, so the sum is exact. Raises when only one class is present,
    where the area is undefined.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d and aligned")
    y = _binary(y, "labels")
    distinct, group = np.unique(s, return_inverse=True)
    pos = np.bincount(group[y == 1], minlength=len(distinct))
    neg = np.bincount(group[y == 0], minlength=len(distinct))
    n1, n0 = pos.sum(), neg.sum()
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC undefined: only one class present")
    u = pos @ (np.cumsum(neg) - neg / 2.0)
    return float(u / (n1 * n0))


def _independent_columns(x: np.ndarray) -> list[int]:
    """Left to right, the columns of the design [1, x] that add rank over
    those kept before.

    One pass over DᵀD (D the design), summed over the float64 chunks of
    ``row_chunks``, so that for 0/1 ``x`` every entry is an exact count,
    and scaled to unit diagonal: eliminating each kept column leaves on the
    diagonal each later column's squared sine to the kept span, and at most
    RANK_TOL (an all-zero column too) means aliased.
    """
    k = x.shape[1]
    gram = np.zeros((k + 1, k + 1))
    for _, c in row_chunks(x):
        gram[0, 0] += len(c)
        gram[0, 1:] += c.sum(axis=0)
        gram[1:, 1:] += c.T @ c
    gram[1:, 0] = gram[0, 1:]
    d = np.sqrt(np.diag(gram))
    d[d == 0.0] = 1.0
    a = gram / np.outer(d, d)
    kept = []
    for j in range(k + 1):
        if a[j, j] > RANK_TOL:
            kept.append(j)
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :]) / a[j, j]
    return kept


def _certifies(mu: np.ndarray, actual: np.ndarray) -> bool:
    """Whether fitted probabilities ``mu`` put every ``actual`` row above one
    half and every other row below it, which proves complete separation."""
    return bool(np.where(actual, mu > 0.5, mu < 0.5).all())


def _null_ll(n: int, n1: int) -> float:
    """Log-likelihood of ``n`` rows, ``n1`` of them y = 1, each fitted the
    share n1/n; 0 when every row has one class (0·ln 0 = 0)."""
    if n1 == 0 or n1 == n:
        return 0.0
    pbar = n1 / n
    return float(n * (pbar * np.log(pbar) + (1 - pbar) * np.log(1 - pbar)))


def _logistic_fit(
    names: list[str], beta: np.ndarray, ll0: float, n, n1, iterations: int, aliased: list[str],
    ll=0.0, auc=1.0, sens=1.0, spec=1.0, ses=None, separated=True, converged=False,
) -> LogisticFit:
    """The fit at ``beta``: its LR test, pseudo-R² and share classified
    correctly follow from the log-likelihoods ``ll`` and ``ll0`` and the
    counts ``n`` and ``n1`` (of y = 1). The defaults are those of an
    iterate that certifies complete separation (log-likelihood 0, the
    supremum; every row classified; no standard errors), for which those
    fields are exactly −2·ll₀, 1 and 1."""
    lr, df = 2.0 * (ll - ll0), len(beta) - 1
    return LogisticFit(
        parameter_names=names,
        coefficients=beta,
        standard_errors=ses,
        log_likelihood=ll,
        null_log_likelihood=ll0,
        lr_chi2=lr,
        lr_df=df,
        lr_p_value=_chi2_sf(lr, df) if df > 0 else np.nan,
        pseudo_r2=1.0 - ll / ll0,
        auc=auc,
        sensitivity=sens,
        specificity=spec,
        correct_pct=(sens * n1 + spec * (n - n1)) / n,
        separated=separated,
        converged=converged,
        iterations=iterations,
        aliased=aliased,
        n=int(n),
    )


def fit_logistic(
    y: np.ndarray,
    x: np.ndarray,
    predictor_names: list[str] | None = None,
    start: np.ndarray | None = None,
) -> LogisticFit:
    """Binary logistic regression by iteratively reweighted least squares.

    Newton steps run until the largest score component falls below 1e-8 or
    100 iterations pass. ``x`` may hold any real dtype (bool, integer or
    float); the fit's one float64 design, intercept first, is cast from it
    as it is built, so 0/1 indicators need no float copy of their own.

    ``start`` holds candidate coefficients, intercept first. When its
    entries for the design columns not aliased certify complete separation
    (below), they are the fit, which stops at iteration 1; otherwise the
    fit is bit for bit the one without ``start``, and IRLS starts from
    zero. The aliasing check, the certificate and the design build each
    walk x in the float64 chunks of ``indicators.row_chunks``, so a
    certified fit builds no design; every other fit builds its one float64
    design from the columns kept.

    An iterate that fits every y = 1 row above one half and every y = 0 row
    below it certifies complete separation (its linear predictor splits the
    classes strictly), so no finite maximum exists: the fit stops there with
    that iterate's coefficients, a separating direction at an arbitrary
    scale, log-likelihood 0 (the supremum) and ``converged`` False.
    Quasi-complete separation has no such certificate. One rule detects it
    after the fit: some row ends fitted to its own label within
    SEPARATION_PROB_TOL. No maximum exists under either kind, so a
    separated fit reports ``converged`` False even when the score test
    passed; it also suppresses its standard errors, while classification
    metrics stay available. Every other fit reports standard errors, None
    only when its Hessian cannot be inverted. A Newton step that cannot be
    solved ends the loop at the last iterate, with ``converged`` False.
    """
    y = np.asarray(y)
    x = np.atleast_2d(np.asarray(x))
    if x.dtype.kind not in "biuf":
        raise ValueError(f"predictors must be real numbers, got dtype {x.dtype}")
    if x.shape[0] != len(y):
        raise ValueError("y and x must have the same number of rows")
    # min and max carry any NaN or infinity, and make no copy of x
    if x.dtype.kind == "f" and not np.isfinite([x.min(initial=0.0), x.max(initial=0.0)]).all():
        raise ValueError("predictors must be finite")
    y = _binary(y, "y")
    if y.min() == y.max():
        raise ValueError("y must contain both classes")
    if predictor_names is None:
        predictor_names = [f"x{j + 1}" for j in range(x.shape[1])]
    if len(predictor_names) != x.shape[1]:
        raise ValueError("predictor_names must match predictor columns")
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (x.shape[1] + 1,):
            raise ValueError("start must hold an intercept and one coefficient per predictor")

    actual = y == 1
    n, n1 = len(y), np.count_nonzero(actual)
    ll0 = _null_ll(n, n1)
    kept = _independent_columns(x)
    names = ["intercept"] + list(predictor_names)
    aliased = [name for j, name in enumerate(names) if j not in kept]
    names = [names[j] for j in kept]
    # the intercept is never aliased; a slice of every column copies nothing
    cols = slice(None) if not aliased else [j - 1 for j in kept[1:]]

    if start is not None:
        beta = start[kept]
        chunks = row_chunks(x, cols)
        if all(_certifies(special.expit(c @ beta[1:] + beta[0]), actual[rows]) for rows, c in chunks):
            return _logistic_fit(names, beta, ll0, n, n1, 1, aliased)

    design = np.ones((n, len(kept)))
    for rows, c in row_chunks(x, cols):
        design[rows, 1:] = c
    y = y.astype(np.float64)
    beta = np.zeros(len(kept))
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        mu = special.expit(design @ beta)
        if _certifies(mu, actual):
            return _logistic_fit(names, beta, ll0, n, n1, iterations, aliased)
        g = design.T @ (y - mu)
        if np.max(np.abs(g)) < IRLS_TOL:
            converged = True
            break
        w = mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            # mu·(1 − mu) underflows once probabilities saturate; keep the last iterate
            break
        beta = beta + step

    mu = special.expit(design @ beta)
    # quasi-complete separation: the score test passes once the rows a
    # separating direction splits off saturate, while the coefficients drift
    separated = bool((np.where(actual, 1.0 - mu, mu) < SEPARATION_PROB_TOL).any())
    tiny = 1e-300
    ll = float(np.sum(y * np.log(np.maximum(mu, tiny)) + (1 - y) * np.log(np.maximum(1 - mu, tiny))))

    ses = None
    if not separated:
        w = mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None])
        try:
            ses = np.sqrt(np.diag(np.linalg.inv(hess)))
        except np.linalg.LinAlgError:
            pass

    predicted = mu > 0.5
    sens = np.count_nonzero(predicted & actual) / n1
    spec = np.count_nonzero(~predicted & ~actual) / (n - n1)
    auc = roc_auc(mu, y)
    converged = converged and not separated
    return _logistic_fit(names, beta, ll0, n, n1, iterations, aliased, ll, auc, sens, spec, ses, separated, converged)


def fit_table(counts, name: str) -> LogisticFit:
    """The logistic fit of y on one 0/1 predictor ``name``, in closed form
    from its 2×2 table: ``counts`` holds a = (x=1, y=1), b = (1, 0),
    c = (0, 1) and d = (0, 0).

    The maximum fits each x level its own share of y = 1 (Agresti,
    Categorical Data Analysis): intercept ln(c/d), slope ln(ad/bc),
    standard errors √(1/c+1/d) and √(1/a+1/b+1/c+1/d), log-likelihood
    Σ cell·ln(share). An empty cell with both levels present leaves no
    finite maximum (Albert & Anderson 1984): the fit is separated, its
    coefficients toward that cell infinite, its log-likelihood the
    supremum, with no standard errors and ``converged`` False. With one
    level, x is aliased and the fit is the null model.
    """
    cells = np.asarray(counts, dtype=np.float64)
    if cells.shape != (4,) or not (np.isfinite(cells) & (cells >= 0) & (cells == np.floor(cells))).all():
        raise ValueError("counts must be four non-negative whole numbers")
    a, b, c, d = (int(v) for v in counts)
    n1, n0 = a + c, b + d
    if n1 == 0 or n0 == 0:
        raise ValueError("y must contain both classes")
    if a + b == 0 or c + d == 0:  # x is constant: the null model
        names, aliased = ["intercept"], [name]
        num, den, var = [n1], [n0], [1 / n1 + 1 / n0]
    else:
        names, aliased = ["intercept", name], []
        num, den = [c, a * d], [d, b * c]
        var = None if 0 in (a, b, c, d) else [1 / c + 1 / d, 1 / a + 1 / b + 1 / c + 1 / d]
    with np.errstate(divide="ignore"):
        beta = np.log(np.divide(num, den, dtype=np.float64))
    # roc_auc's Mann-Whitney count over the two fitted shares: the ab + cd
    # pairs within a level tie, and of the pairs across levels the larger
    # of ad and bc is ranked right (with ad = bc every pair ties)
    auc = (max(a * d, b * c) + (a * b + c * d) / 2) / (n1 * n0)
    sens = (a * (a > b) + c * (c > d)) / n1
    spec = (b * (a <= b) + d * (c <= d)) / n0
    ll = _null_ll(a + b, a) + _null_ll(c + d, c)
    ll0 = _null_ll(n1 + n0, n1)
    separated = var is None
    ses = None if separated else np.sqrt(var)
    return _logistic_fit(names, beta, ll0, n1 + n0, n1, 0, aliased, ll, auc, sens, spec, ses, separated, not separated)


def strata_levels(
    data: Dataset, strata: str, rows: np.ndarray | None = None
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Codes of ``strata`` over ``rows`` (as in ``screen``), its level names,
    and the codes of the levels present there, which must be at least 2."""
    codes, names = data.codes(strata)
    codes = codes[_rows(rows, data.n)]
    seen = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(names)))
    if len(seen) < 2:
        raise ValueError("strata column must have at least 2 levels")
    return codes, names, seen


@dataclass
class StratumResult:
    stratum: str
    testable: bool
    reason: str
    n: int
    screens: list[ScreenResult]
    fit: LogisticFit | None  # None when the stratum is not testable or has no design


def stratified_rerun(
    data: Dataset,
    component_flag: np.ndarray,
    strata: str,
    variables: list[str],
    design: np.ndarray,
    design_names: list[str],
    start: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> list[StratumResult]:
    """Repeat screens and logistic fits inside each stratum level.

    ``design`` holds the 0/1 predictors of the stratum fit, one row per
    flag row and one column per name in ``design_names``, in any real dtype
    (``analyze`` passes the uint8 indicators). Each stratum screens
    ``variables`` from ``data``, then each design column from its 2×2 table
    against the flag over the stratum's rows (see ``screen_tables``), and
    fits a copy of its own rows of the design; no design column is screened
    or fitted when ``design_names`` is empty.
    ``start`` goes to every stratum fit (see ``fit_logistic``): a direction
    that separates the flag on all rows separates it on each stratum's
    rows, so those fits stop at iteration 1 unless an aliased column (never
    an all-zero one) carried part of the split. ``rows`` picks the rows of
    ``data`` that ``component_flag`` and ``design`` describe, as in ``screen``.
    Levels whose flag has a single class are reported not testable rather
    than fitted. Rows with a missing stratum value are left out entirely.
    Strata are named and ordered by ``Dataset.codes``, so a numeric strata
    column gives levels such as "10.0" and "2.0", in that order.
    """
    flag = _binary(component_flag, "component_flag")
    index = _rows(rows, data.n)
    if flag.shape != index.shape:
        raise ValueError("component_flag must align with dataset rows")
    design = np.asarray(design)
    if design.ndim != 2 or len(design) != len(flag):
        raise ValueError(f"design has shape {design.shape}; it needs one row per component_flag row, {len(flag)}")
    # checked a chunk at a time, so no n×k temporary is made
    if not all(np.isin(c, (0, 1)).all() for _, c in row_chunks(design)):
        raise ValueError("design must be binary")
    codes, names, seen = strata_levels(data, strata, index)
    out = []
    for code in seen:
        level = names[code]
        members = np.flatnonzero(codes == code)
        sub_flag = flag[members]
        n = len(members)
        if sub_flag.min() == sub_flag.max():
            out.append(StratumResult(level, False, "component flag has a single class", n, [], None))
            continue
        x = design[members]
        stratum_screens = screen(data, sub_flag, variables, index[members])
        stratum_screens += screen_tables(indicator_tables(x, sub_flag), design_names)
        fit = fit_logistic(sub_flag, x, design_names, start=start) if design_names else None
        out.append(StratumResult(level, True, "", n, stratum_screens, fit))
    return out


def numeric_values(data: Dataset, name: str) -> np.ndarray:
    """Numeric column as floats for model matrices; missing cells are NaN."""
    if data.kind(name) != NUMERIC:
        raise ValueError(f"column {name!r} is categorical; covariates must be numeric")
    return data.column(name).astype(np.float64)

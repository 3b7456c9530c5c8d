"""Screens and logistic models linking missingness components to data.

These are the mechanism-probing steps: compare observed variables across
the two sides of a dichotomized component score, then predict the score
from indicators or covariates with logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .indicators import NUMERIC, Dataset

WELCH_T = "welch_t"
CHI_SQUARE = "chi_square"

IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
SEPARATION_PROB_TOL = 1e-8
SEPARATION_COEF_BOUND = 15.0
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


def _chi_square(codes: np.ndarray, levels: list[str], flag: np.ndarray) -> tuple[float, float, float]:
    """Pearson chi-square of the table of the levels present in ``codes`` by flag."""
    table = np.bincount(2 * codes.astype(np.intp) + flag, minlength=2 * len(levels)).reshape(-1, 2)
    table = table[table.sum(axis=1) > 0].astype(np.float64)
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return np.nan, np.nan, np.nan
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    df = float((table.shape[0] - 1) * (table.shape[1] - 1))
    return stat, df, _chi2_sf(stat, df)


def _binary(values, what: str) -> np.ndarray:
    """``values`` as ints, once every one of them is checked to be 0 or 1."""
    values = np.asarray(values)
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{what} must be binary")
    return values.astype(int)


def _counts(weights, n: int) -> np.ndarray:
    """Frequency weights as floats, checked to be n non-negative whole counts."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or not (np.isfinite(w) & (w >= 0) & (w == np.floor(w))).all():
        raise ValueError("weights must be one non-negative whole count per row")
    return w


def screen(data: Dataset, component_flag: np.ndarray, variables: list[str]) -> list[ScreenResult]:
    """Compare each variable across the two component-flag groups.

    Numeric variables get a Welch t test on their observed values,
    categorical variables a Pearson chi-square on the level-by-flag table.
    Missing cells drop out pairwise; a group with fewer than two observed
    values makes the variable not testable (flagged, never raised).
    """
    flag = np.asarray(component_flag)
    if flag.ndim != 1 or len(flag) != data.n:
        raise ValueError("component_flag must align with dataset rows")
    flag = _binary(flag, "component_flag")
    results = []
    for name in variables:
        kind = data.kind(name)
        observed = ~data.missing_mask(name)
        excluded = int(data.n - observed.sum())
        g0, g1 = flag[observed] == 0, flag[observed] == 1
        n0, n1 = int(g0.sum()), int(g1.sum())
        stat = df = p = np.nan
        reason = ""
        if n0 < 2 or n1 < 2:
            reason = f"fewer than 2 observed values in a group (n0={n0}, n1={n1})"
        elif kind == NUMERIC:
            vals = data.column(name)[observed]
            stat, df, p = _welch(vals[g1], vals[g0])
        else:
            codes, levels = data.codes(name)
            stat, df, p = _chi_square(codes[observed], levels, flag[observed])
            if np.isnan(stat):
                reason = "contingency table has a single populated row or column"
        test = WELCH_T if kind == NUMERIC else CHI_SQUARE
        results.append(ScreenResult(name, test, stat, df, p, not reason, reason, n0, n1, excluded))
    return results


def roc_auc(scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Area under the ROC curve by the Mann-Whitney count.

    Over the distinct scores, each positive counts the negatives below it
    and half the negatives tied with it; every term is a whole or half
    count, so the sum is exact. ``weights`` are frequency weights: row i
    stands for weights[i] identical rows. Raises when only one class is
    present, where the area is undefined.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d and aligned")
    y = _binary(y, "labels")
    w = np.ones(len(y)) if weights is None else _counts(weights, len(y))
    distinct, group = np.unique(s, return_inverse=True)
    pos = np.bincount(group, weights=w * y, minlength=len(distinct))
    neg = np.bincount(group, weights=w * (1 - y), minlength=len(distinct))
    n1, n0 = pos.sum(), neg.sum()
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC undefined: only one class present")
    u = pos @ (np.cumsum(neg) - neg / 2.0)
    return float(u / (n1 * n0))


def _independent_columns(x: np.ndarray, weights: np.ndarray | None = None) -> list[int]:
    """Left to right, the columns of ``x`` that add rank over those kept before.

    One pass over xᵀWx (W the frequency weights, or the identity) scaled to
    unit diagonal: eliminating each kept column leaves on the diagonal each
    later column's squared sine to the kept span, and at most RANK_TOL (an
    all-zero column too) means aliased.
    """
    gram = x.T @ x if weights is None else x.T @ (x * weights[:, None])
    d = np.sqrt(np.diag(gram))
    d[d == 0.0] = 1.0
    a = gram / np.outer(d, d)
    kept = []
    for j in range(a.shape[0]):
        if a[j, j] > RANK_TOL:
            kept.append(j)
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :]) / a[j, j]
    return kept


def fit_logistic(
    y: np.ndarray,
    x: np.ndarray,
    predictor_names: list[str] | None = None,
    weights: np.ndarray | None = None,
) -> LogisticFit:
    """Binary logistic regression by iteratively reweighted least squares.

    Newton steps run until the largest score component falls below 1e-8 or
    100 iterations pass. ``weights`` are frequency weights (row i stands for
    weights[i] identical rows; rows of count zero drop out, and ``n`` is the
    total count), so a fit on a table's distinct rows equals the fit on the
    rows it counts.

    An iterate that fits every y = 1 row above one half and every y = 0 row
    below it certifies complete separation (its linear predictor splits the
    classes strictly), so no finite maximum exists: the fit stops there with
    that iterate's coefficients, a separating direction at an arbitrary
    scale, log-likelihood 0 (the supremum) and ``converged`` False.
    Quasi-complete separation has no such certificate; it is detected after
    the fit from a row fitted to its own label or runaway standardized
    coefficients. No maximum exists under either kind, so a separated fit
    reports ``converged`` False even when the score test passed; it also
    suppresses its standard errors, while classification metrics stay
    available.
    """
    y = np.asarray(y).astype(np.float64)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != len(y):
        raise ValueError("y and x must have the same number of rows")
    if weights is not None:
        weights = _counts(weights, len(y))
        present = weights > 0
        y, x, weights = y[present], x[present], weights[present]
    if not np.isfinite(x).all():
        raise ValueError("predictors must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("y must be binary")
    if y.min() == y.max():
        raise ValueError("y must contain both classes")
    if predictor_names is None:
        predictor_names = [f"x{j + 1}" for j in range(x.shape[1])]
    if len(predictor_names) != x.shape[1]:
        raise ValueError("predictor_names must match predictor columns")

    design = np.column_stack([np.ones(len(y)), x])
    names = ["intercept"] + list(predictor_names)
    kept = _independent_columns(design, weights)
    aliased = [name for j, name in enumerate(names) if j not in kept]
    if aliased:
        design, names = design[:, kept], [names[j] for j in kept]

    # per-row counts; unweighted rows count 1, which leaves every product exact
    fw = np.ones(len(y)) if weights is None else weights
    n = fw.sum()
    actual = y == 1.0
    # predictor scale for the runaway-coefficient separation check
    sds = design.std(axis=0) if weights is None else np.sqrt(fw @ (design - fw @ design / n) ** 2 / n)
    sds[0] = 1.0

    beta = np.zeros(design.shape[1])
    converged = certified = singular = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        mu = special.expit(design @ beta)
        if np.where(actual, mu > 0.5, mu < 0.5).all():
            certified = True
            break
        g = design.T @ (fw * (y - mu))
        if np.max(np.abs(g)) < IRLS_TOL:
            converged = True
            break
        w = fw * mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            # weights underflow once probabilities saturate; keep the last iterate
            singular = True
            break
        beta = beta + step

    mu = special.expit(design @ beta)
    # post-fit detection of quasi-complete separation: a row fitted to its
    # own label within SEPARATION_PROB_TOL (the score test passes once the
    # rows a separating direction splits off saturate, while the
    # coefficients still drift), or runaway standardized coefficients
    saturated = bool((np.where(actual, 1.0 - mu, mu) < SEPARATION_PROB_TOL).any())
    separated = certified or singular or saturated or bool(
        np.max(np.abs(beta * sds)) > SEPARATION_COEF_BOUND
    )
    tiny = 1e-300
    ll = 0.0 if certified else float(
        np.sum(fw * (y * np.log(np.maximum(mu, tiny)) + (1 - y) * np.log(np.maximum(1 - mu, tiny))))
    )
    pbar = np.sum(fw * y) / n
    ll0 = float(n * (pbar * np.log(pbar) + (1 - pbar) * np.log(1 - pbar)))
    lr = 2.0 * (ll - ll0)
    df = design.shape[1] - 1
    lr_p = _chi2_sf(lr, df) if df > 0 else np.nan

    if separated:
        ses = None
    else:
        w = fw * mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None])
        try:
            ses = np.sqrt(np.diag(np.linalg.inv(hess)))
        except np.linalg.LinAlgError:
            ses = None

    predicted = mu > 0.5
    n1 = fw[actual].sum()
    n0 = n - n1
    sens = float(fw[predicted & actual].sum() / n1)
    spec = float(fw[~predicted & ~actual].sum() / n0)
    correct = (sens * n1 + spec * n0) / n
    return LogisticFit(
        parameter_names=names,
        coefficients=beta,
        standard_errors=ses,
        log_likelihood=ll,
        null_log_likelihood=ll0,
        lr_chi2=lr,
        lr_df=df,
        lr_p_value=lr_p,
        pseudo_r2=1.0 - ll / ll0,
        auc=roc_auc(mu, y, weights),
        sensitivity=sens,
        specificity=spec,
        correct_pct=correct,
        separated=separated,
        converged=converged and not separated,
        iterations=iterations,
        aliased=aliased,
        n=int(n),
    )


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
) -> list[StratumResult]:
    """Repeat screens and logistic fits inside each stratum level.

    ``design`` holds the predictors of the stratum fit, one row per row of
    ``data`` and one column per name in ``design_names``; each stratum fits
    its own rows of it, and no fit runs when ``design_names`` is empty.
    Levels whose flag has a single class are reported not testable rather
    than fitted. Rows with a missing stratum value are left out entirely.
    Strata are named and ordered by ``Dataset.codes``, so a numeric strata
    column gives levels such as "10.0" and "2.0", in that order.
    """
    flag = _binary(component_flag, "component_flag")
    codes, names = data.codes(strata)
    seen = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(names)))
    if len(seen) < 2:
        raise ValueError("strata column must have at least 2 levels")
    out = []
    for code in seen:
        level = names[code]
        rows = np.flatnonzero(codes == code)
        sub = data.take(rows)
        sub_flag = flag[rows]
        n = len(rows)
        if len(np.unique(sub_flag)) < 2:
            out.append(StratumResult(level, False, "component flag has a single class", n, [], None))
            continue
        stratum_screens = screen(sub, sub_flag, variables)
        fit = fit_logistic(sub_flag, design[rows], design_names) if design_names else None
        out.append(StratumResult(level, True, "", n, stratum_screens, fit))
    return out


def numeric_values(data: Dataset, name: str) -> np.ndarray:
    """Numeric column as floats for model matrices; missing cells are NaN."""
    if data.kind(name) != NUMERIC:
        raise ValueError(f"column {name!r} is categorical; covariates must be numeric")
    return data.column(name).astype(np.float64)

"""Correlation matrices for binary missingness indicators.

Pearson (phi) treats the 0/1 indicators as scores; tetrachoric assumes each
indicator dichotomizes a latent standard normal. The thresholds come from
each 2x2 table's own margins, which makes the one-parameter likelihood
saturated: its maximum is the root of Phi2(h, k, rho) = n11/N. Phi2 comes
from Owen's T function (Owen 1956). Every pair's root is found at once by
safeguarded Newton steps, since dPhi2/drho is the bivariate normal density
(Plackett 1954).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .indicators import IndicatorMatrix, cooccurrence, phi

PEARSON = "pearson"
TETRACHORIC = "tetrachoric"

MIN_EIGENVALUE = 1e-6
RHO_BOUND = 0.999
RHO_TOL = 1e-12
# Bisection alone closes the bracket to RHO_TOL in 41 steps; this cap only
# stops a row whose arithmetic has gone wrong.
MAX_ITERATIONS = 200


class EstimationError(RuntimeError):
    """A pairwise tetrachoric estimate could not be computed."""

    def __init__(self, pair: tuple[int, int], message: str):
        super().__init__(f"pair {pair}: {message}")
        self.pair = pair


@dataclass
class CorrelationMatrix:
    values: np.ndarray
    kind: str
    pd_repaired: bool = False
    min_eigenvalue_before_repair: float = math.nan

    @property
    def k(self) -> int:
        return self.values.shape[0]


def bvn_upper(h, k, rho):
    """P(X > h, Y > k) for standard bivariate normal with correlation rho.

    Owen's (1956) closed form in his T function: with x = -h, y = -k and
    s = sqrt(1 - rho^2),

        P = (Phi(x) + Phi(y))/2 - T(x, (y/x - rho)/s) - T(y, (x/y - rho)/s) - beta,

    where beta = 1/2 when exactly one of x, y is negative, else 0. Where
    x = y, both T arguments take their common limit (1 - rho)/s, which is
    finite at x = y = 0. The inputs broadcast together; infinite thresholds
    and rho = +-1 are exact. Scalar input gives a Python float.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (h, k, rho)))
    shape = arrays[0].shape
    h, k, rho = (a.ravel() for a in arrays)
    # 0.0 - h, not -h: h = 0.0 must give x = +0.0, or T's infinite argument flips sign
    x, y = 0.0 - h, 0.0 - k
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        same = x == y
        ax = np.where(same, (1.0 - rho) / s, (y / x - rho) / s)
        ay = np.where(same, ax, (x / y - rho) / s)
        beta = np.where((x < 0.0) != (y < 0.0), 0.5, 0.0)
        out = 0.5 * (ndtr(x) + ndtr(y)) - owens_t(x, ax) - owens_t(y, ay) - beta
    out = np.where(rho == 1.0, ndtr(np.minimum(x, y)), out)
    out = np.where(rho == -1.0, ndtr(y) - ndtr(-x), out)
    edge = np.where(x == math.inf, ndtr(y), ndtr(x))
    edge[(x == -math.inf) | (y == -math.inf)] = 0.0
    out = np.where(np.isinf(x) | np.isinf(y), edge, out)
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if not shape else out.reshape(shape)


def _bvn_density(h, k, rho):
    """Standard bivariate normal density at (h, k): dPhi2/drho (Plackett 1954)."""
    one_minus = (1.0 - rho) * (1.0 + rho)
    return np.exp(-(h * h - 2.0 * rho * h * k + k * k) / (2.0 * one_minus)) / (
        2.0 * math.pi * np.sqrt(one_minus)
    )


def pearson(ind: IndicatorMatrix) -> CorrelationMatrix:
    """Pearson (phi) correlation of the indicator columns.

    It comes from the exact co-occurrence counts through ``phi``, the
    formula the permutation null applies to each replication.
    """
    r = phi(cooccurrence(ind.values), ind.n)
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r, PEARSON)


def tetrachoric_from_table(table: np.ndarray, pair: tuple[int, int] = (0, 1)) -> float:
    """Two-step ML tetrachoric correlation from a 2x2 table.

    Table layout: [[n11, n10], [n01, n00]] with 1 = missing. Any zero cell
    gets a 0.5 continuity correction. Thresholds come from the (corrected)
    marginals; the latent correlation then solves Phi2(h, k, rho) = n11/N,
    the saturated ML, clipped to +-RHO_BOUND. This is the one-table call of
    the solver ``tetrachoric`` runs over every pair.
    """
    t = np.asarray(table, dtype=np.float64)
    if t.shape != (2, 2):
        raise EstimationError(pair, "invalid 2x2 table")
    return float(_solve_tables(t.reshape(1, 4), np.array([pair]))[0])


def _solve_tables(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Tetrachoric root for each row (n11, n10, n01, n00) of ``cells``.

    One safeguarded Newton solve runs over all rows at once. Each step is
    kept inside the row's current bracket, and bisects when it would leave
    it; a row stops when its step falls under RHO_TOL. ``pairs`` names each
    row in an EstimationError. Every row goes through the same arithmetic
    whatever the batch, so a row's result does not depend on its company.
    """
    _check(pairs, (cells < 0).any(axis=1), "invalid 2x2 table")
    cells = np.where((cells == 0).any(axis=1, keepdims=True), cells + 0.5, cells)
    n11, n10, n01, n00 = cells.T
    total = n11 + n10 + n01 + n00
    px = (n11 + n10) / total
    py = (n11 + n01) / total
    _check(pairs, ~((0.0 < px) & (px < 1.0) & (0.0 < py) & (py < 1.0)), "degenerate marginal")
    h = ndtri(1.0 - px)
    k = ndtri(1.0 - py)
    target = n11 / total

    rho = np.full(len(cells), np.nan)  # rows still NaN after the loop never converged
    # Phi2 rises with rho, so a target past either bound's Phi2 pins the root there.
    below = bvn_upper(h, k, -RHO_BOUND) >= target
    above = bvn_upper(h, k, RHO_BOUND) <= target
    rho[below] = -RHO_BOUND
    rho[above] = RHO_BOUND
    active = np.flatnonzero(~below & ~above)
    h, k, target = h[active], k[active], target[active]
    x = np.zeros(len(active))
    lo = np.full(len(active), -RHO_BOUND)
    hi = np.full(len(active), RHO_BOUND)
    for _ in range(MAX_ITERATIONS):
        if not len(active):
            break
        f = bvn_upper(h, k, x) - target
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = x - f / _bvn_density(h, k, x)
        step = np.where((step > lo) & (step < hi), step, (lo + hi) / 2.0)
        step = np.where(f == 0.0, x, step)
        done = np.abs(step - x) < RHO_TOL
        rho[active[done]] = step[done]
        keep = ~done
        active, x, lo, hi = active[keep], step[keep], lo[keep], hi[keep]
        h, k, target = h[keep], k[keep], target[keep]
    _check(pairs, ~np.isfinite(rho), "root-find gave no finite estimate")
    return rho


def _check(pairs: np.ndarray, bad: np.ndarray, message: str) -> None:
    """Raise EstimationError naming the first row flagged in ``bad``."""
    if bad.any():
        i, j = pairs[np.flatnonzero(bad)[0]]
        raise EstimationError((int(i), int(j)), message)


def tetrachoric(ind: IndicatorMatrix) -> CorrelationMatrix:
    """Pairwise tetrachoric correlation matrix of the indicator columns.

    Every pair's 2x2 table comes from one co-occurrence count matrix: the
    both-missing count is C_ij and the column sums sit on its diagonal. All
    pairs are solved together.
    """
    k, n = ind.k, ind.n
    c = cooccurrence(ind.values)
    m = np.diag(c)
    i, j = np.triu_indices(k, 1)
    n11 = c[i, j]
    cells = np.column_stack([n11, m[i] - n11, m[j] - n11, n - m[i] - m[j] + n11])
    r = np.eye(k)
    r[i, j] = r[j, i] = _solve_tables(cells, np.column_stack([i, j]))
    return CorrelationMatrix(r, TETRACHORIC)


def correlate(ind: IndicatorMatrix, kind: str) -> CorrelationMatrix:
    """The indicators' correlation of the given kind, repaired to positive definite.

    This is the matrix both ``analyze`` and ``simulate`` extract from. Fewer
    than 2 indicator columns raise ValueError.
    """
    if ind.k < 2:
        raise ValueError(f"only {ind.k} indicator column(s); need at least 2 to correlate")
    return repair_pd({PEARSON: pearson, TETRACHORIC: tetrachoric}[kind](ind))


def repair_pd(c: CorrelationMatrix) -> CorrelationMatrix:
    """Clip eigenvalues below 1e-6 and rescale back to unit diagonal.

    Returns the input unchanged when already positive definite at that
    floor, so the operation is idempotent. Rescaling can nudge the smallest
    eigenvalue back under the floor, hence the short repeat loop.
    """
    vals = np.linalg.eigvalsh(c.values)
    min_before = float(vals[0])
    if min_before >= MIN_EIGENVALUE:
        return c
    m = c.values
    for _ in range(100):
        w, v = np.linalg.eigh(m)
        if w[0] >= MIN_EIGENVALUE:
            break
        w = np.maximum(w, MIN_EIGENVALUE)
        m = (v * w) @ v.T
        d = np.sqrt(np.diag(m))
        m = m / np.outer(d, d)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 1.0)
    return CorrelationMatrix(m, c.kind, pd_repaired=True, min_eigenvalue_before_repair=min_before)

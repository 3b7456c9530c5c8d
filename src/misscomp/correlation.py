"""Correlation matrices for binary missingness indicators.

Pearson (phi) treats the 0/1 indicators as scores; tetrachoric assumes each
indicator dichotomizes a latent standard normal. The thresholds come from
each 2x2 table's own margins, which makes the one-parameter likelihood
saturated: its maximum is the root of Phi2(h, k, rho) = n11/N. Every pair's
root is found at once by safeguarded Newton steps, since dPhi2/drho is the
bivariate normal density (Plackett 1954).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .indicators import IndicatorMatrix, cooccurrence, phi

PEARSON = "pearson"
TETRACHORIC = "tetrachoric"

MIN_EIGENVALUE = 1e-6
RHO_BOUND = 0.999
RHO_TOL = 1e-12
# Bisection alone closes the bracket to RHO_TOL in 41 steps; this cap only
# stops a row whose arithmetic has gone wrong.
MAX_ITERATIONS = 200

# Genz's |rho| bands: Gauss-Legendre with 6, 12 and 20 nodes below each
# edge, then a series with the 20-node rule from the last edge to 1.
_BAND_EDGES = (0.3, 0.75, 0.925)
_GL = [np.polynomial.legendre.leggauss(n) for n in (6, 12, 20)]


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

    Port of Genz's BVND quadrature/series scheme over arrays: the inputs
    broadcast together, and each |rho| band (< 0.3, < 0.75, < 0.925,
    >= 0.925) is evaluated under its own mask. Infinite thresholds, rho = 0
    and rho = +-1 are exact. Scalar input gives a Python float. Absolute
    accuracy is far inside the 1e-10 the tetrachoric root needs.
    """
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in (h, k, rho)))
    shape = arrays[0].shape
    h, k, rho = (a.ravel() for a in arrays)
    out = np.empty(h.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        edge = np.isinf(h) | np.isinf(k)
        out[edge] = np.where(
            (h[edge] == math.inf) | (k[edge] == math.inf),
            0.0,
            np.where(h[edge] == -math.inf, ndtr(-k[edge]), ndtr(-h[edge])),
        )
        indep = ~edge & (rho == 0.0)
        out[indep] = ndtr(-h[indep]) * ndtr(-k[indep])
        rest = ~edge & ~indep
        band = np.searchsorted(_BAND_EDGES, np.abs(rho), side="right")
        for b, (nodes, weights) in enumerate(_GL):
            sel = rest & (band == b)
            out[sel] = _bvn_quadrature(h[sel], k[sel], rho[sel], nodes, weights)
        sel = rest & (band == len(_BAND_EDGES))
        out[sel] = _bvn_tail(h[sel], k[sel], rho[sel])
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if not shape else out.reshape(shape)


def _bvn_quadrature(h, k, rho, nodes, weights):
    """Genz's |rho| < 0.925 branch: Gauss-Legendre over asin(rho)."""
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(rho)
    sn = np.sin(asr[:, None] * (nodes + 1.0) / 2.0)
    bvn = np.sum(weights * np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)), axis=1)
    return bvn * asr / (4.0 * math.pi) + ndtr(-h) * ndtr(-k)


def _bvn_tail(h, k, rho):
    """Genz's |rho| >= 0.925 branch: series in sqrt(1 - rho^2) plus a
    corrective quadrature; |rho| = 1 keeps only the limiting tail term."""
    nodes, weights = _GL[-1]
    neg = rho < 0.0
    k = np.where(neg, -k, k)
    hk = h * k
    bvn = np.zeros(h.shape)
    inner = np.abs(rho) < 1.0
    if inner.any():
        hi, ki, hki, ri = h[inner], k[inner], hk[inner], rho[inner]
        a_sq = (1.0 - ri) * (1.0 + ri)
        a = np.sqrt(a_sq)
        bs = (hi - ki) ** 2
        c = (4.0 - hki) / 8.0
        d = (12.0 - hki) / 16.0
        asr = -(bs / a_sq + hki) / 2.0
        series = np.where(
            asr > -100.0,
            a * np.exp(asr)
            * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_sq * a_sq / 5.0),
            0.0,
        )
        b = np.sqrt(bs)
        series -= np.where(
            -hki < 100.0,
            np.exp(-hki / 2.0) * math.sqrt(2.0 * math.pi) * ndtr(-b / a) * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
        half = a / 2.0
        xs = (half[:, None] * (nodes + 1.0)) ** 2
        asr_v = -(bs[:, None] / xs + hki[:, None]) / 2.0
        rs = np.sqrt(1.0 - xs)
        sp = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
        ep = np.exp(-hki[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        terms = np.where(asr_v > -100.0, weights * np.exp(asr_v) * (ep - sp), 0.0)
        bvn[inner] = -(series + half * np.sum(terms, axis=1)) / (2.0 * math.pi)
    return np.where(
        neg,
        -bvn + np.where(k > h, ndtr(k) - ndtr(h), 0.0),
        bvn + ndtr(-np.maximum(h, k)),
    )


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

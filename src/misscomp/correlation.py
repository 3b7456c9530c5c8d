"""Correlation matrices for binary missingness indicators.

Pearson (phi) treats the 0/1 indicators as scores; tetrachoric assumes each
indicator dichotomizes a latent standard normal and recovers the latent
correlation by maximum likelihood on the 2x2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

from .indicators import IndicatorMatrix, cooccurrence

PEARSON = "pearson"
TETRACHORIC = "tetrachoric"

MIN_EIGENVALUE = 1e-6
RHO_BOUND = 0.999

# Gauss-Legendre nodes for the three accuracy bands of the bivariate normal
# quadrature; band choice follows Genz's algorithm.
_GL = {n: np.polynomial.legendre.leggauss(n) for n in (6, 12, 20)}


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


def bvn_upper(h: float, k: float, rho: float) -> float:
    """P(X > h, Y > k) for standard bivariate normal with correlation rho.

    Port of Genz's BVND quadrature/series scheme; absolute accuracy is far
    inside the 1e-10 the tetrachoric likelihood needs.
    """
    if math.isinf(h) or math.isinf(k):
        if h == math.inf or k == math.inf:
            return 0.0
        if h == -math.inf and k == -math.inf:
            return 1.0
        return float(ndtr(-k) if h == -math.inf else ndtr(-h))
    if rho == 0.0:
        return float(ndtr(-h) * ndtr(-k))

    ar = abs(rho)
    nodes, weights = _GL[6 if ar < 0.3 else 12 if ar < 0.75 else 20]
    hk = h * k
    bvn = 0.0
    if ar < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(rho)
        sn = np.sin(asr * (nodes + 1.0) / 2.0)
        bvn = float(np.sum(weights * np.exp((sn * hk - hs) / (1.0 - sn * sn))))
        bvn = bvn * asr / (4.0 * math.pi) + float(ndtr(-h) * ndtr(-k))
        return min(1.0, max(0.0, bvn))

    # |rho| close to 1: series in sqrt(1 - rho^2) plus a corrective quadrature
    if rho < 0.0:
        k = -k
        hk = -hk
    if ar < 1.0:
        a_sq = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a_sq)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / a_sq + hk) / 2.0
        if asr > -100.0:
            bvn = a * math.exp(asr) * (
                1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_sq * a_sq / 5.0
            )
        if -hk < 100.0:
            b = math.sqrt(bs)
            bvn -= math.exp(-hk / 2.0) * math.sqrt(2.0 * math.pi) * float(ndtr(-b / a)) * b * (
                1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
            )
        half = a / 2.0
        xs = (half * (nodes + 1.0)) ** 2
        asr_v = -(bs / xs + hk) / 2.0
        keep = asr_v > -100.0
        if keep.any():
            xs_k = xs[keep]
            rs = np.sqrt(1.0 - xs_k)
            sp = 1.0 + c * xs_k * (1.0 + d * xs_k)
            ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            bvn += half * float(np.sum(weights[keep] * np.exp(asr_v[keep]) * (ep - sp)))
        bvn = -bvn / (2.0 * math.pi)
    if rho > 0.0:
        bvn += float(ndtr(-max(h, k)))
    else:
        bvn = -bvn
        if k > h:
            bvn += float(ndtr(k) - ndtr(h))
    return min(1.0, max(0.0, bvn))


def pearson(ind: IndicatorMatrix) -> CorrelationMatrix:
    """Pearson (phi) correlation of the indicator columns."""
    if ind.k < 2:
        raise ValueError("need at least 2 indicator columns")
    x = ind.values.astype(np.float64)
    z = x - x.mean(axis=0)
    norms = np.sqrt((z * z).sum(axis=0))
    if not (norms > 0).all():
        raise ValueError("zero-variance indicator column")  # unreachable by construction
    r = (z.T @ z) / np.outer(norms, norms)
    r = (r + r.T) / 2.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r, PEARSON)


def tetrachoric_from_table(table: np.ndarray, pair: tuple[int, int] = (0, 1)) -> float:
    """Two-step ML tetrachoric correlation from a 2x2 table.

    Table layout: [[n11, n10], [n01, n00]] with 1 = missing. Any zero cell
    gets a 0.5 continuity correction. Thresholds come from the (corrected)
    marginals; the latent correlation maximizes the multinomial likelihood
    of the four cells under the bivariate normal.
    """
    t = np.asarray(table, dtype=np.float64)
    if t.shape != (2, 2) or (t < 0).any():
        raise EstimationError(pair, "invalid 2x2 table")
    if (t == 0).any():
        t = t + 0.5
    total = t.sum()
    px = (t[0, 0] + t[0, 1]) / total
    py = (t[0, 0] + t[1, 0]) / total
    if not (0.0 < px < 1.0 and 0.0 < py < 1.0):
        raise EstimationError(pair, "degenerate marginal")
    h = float(ndtri(1.0 - px))
    k = float(ndtri(1.0 - py))
    tiny = 1e-300

    def neg_loglik(rho: float) -> float:
        p11 = bvn_upper(h, k, rho)
        p10 = px - p11
        p01 = py - p11
        p00 = 1.0 - px - py + p11
        ll = (
            t[0, 0] * math.log(max(p11, tiny))
            + t[0, 1] * math.log(max(p10, tiny))
            + t[1, 0] * math.log(max(p01, tiny))
            + t[1, 1] * math.log(max(p00, tiny))
        )
        return -ll

    res = minimize_scalar(
        neg_loglik,
        bounds=(-RHO_BOUND, RHO_BOUND),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if not np.isfinite(res.fun):
        raise EstimationError(pair, "likelihood not finite")
    return float(np.clip(res.x, -RHO_BOUND, RHO_BOUND))


def tetrachoric(ind: IndicatorMatrix) -> CorrelationMatrix:
    """Pairwise tetrachoric correlation matrix of the indicator columns.

    Every pair's 2x2 table comes from one co-occurrence count matrix: the
    both-missing count is C_ij and the column sums sit on its diagonal.
    """
    if ind.k < 2:
        raise ValueError("need at least 2 indicator columns")
    k, n = ind.k, ind.n
    c = cooccurrence(ind.values)
    m = np.diag(c)
    r = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            n11 = c[i, j]
            table = np.array([[n11, m[i] - n11], [m[j] - n11, n - m[i] - m[j] + n11]])
            r[i, j] = r[j, i] = tetrachoric_from_table(table, (i, j))
    return CorrelationMatrix(r, TETRACHORIC)


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

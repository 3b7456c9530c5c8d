"""Component and factor extraction from an indicator correlation matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .indicators import IndicatorMatrix, row_chunks

PCA = "pca"
PAF = "paf"

PAF_TOL = 1e-6
PAF_MAX_ITER = 1000


@dataclass
class EigenSolution:
    """Sorted eigenvalues plus loadings and the vectors that score them."""

    eigenvalues: np.ndarray  # (k,) descending
    loadings: np.ndarray  # (k, q)
    eigenvectors: np.ndarray  # (k, q), loading column j = vector j * sqrt(eigenvalue j)
    method: str
    converged: bool = True
    iterations: int = 0
    communalities: np.ndarray | None = None
    heywood: bool = False
    smc_fallback: bool = False


@dataclass
class ComponentScores:
    """Continuous and dichotomized component scores per case."""

    scores: np.ndarray  # (n, q)
    dichotomized: np.ndarray  # (n, q) uint8, 1 = high missingness side
    orientation: np.ndarray  # (q,) +1/-1 sign applied to each column
    fully_missing: np.ndarray  # (n,) bool, rows missing on every indicator
    slopes: np.ndarray  # (k, q), scores = indicators @ slopes + intercepts
    intercepts: np.ndarray  # (q,)

    @property
    def q(self) -> int:
        return self.scores.shape[1]


def _sorted_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def pca(c: CorrelationMatrix) -> EigenSolution:
    """Principal components of a correlation matrix.

    Loading column j is eigenvector j scaled by the square root of its
    eigenvalue, so squared loadings per column sum to the eigenvalue.
    """
    w, v = _sorted_eigh(c.values)
    loadings = v * np.sqrt(np.maximum(w, 0.0))
    return EigenSolution(w, loadings, v, PCA)


def smc(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Squared multiple correlations from a correlation matrix.

    Falls back to the largest absolute off-diagonal per row when the matrix
    cannot be inverted; the flag reports which route was taken.
    """
    k = values.shape[0]
    try:
        inv = np.linalg.inv(values)
        diag = np.diag(inv)
        if (diag <= 0).any() or not np.isfinite(diag).all():
            raise np.linalg.LinAlgError
        return 1.0 - 1.0 / diag, False
    except np.linalg.LinAlgError:
        off = np.abs(values - np.eye(k))
        return off.max(axis=1), True


def spectrum(c: CorrelationMatrix, method: str) -> np.ndarray:
    """Eigenvalues the retention criteria read, in descending order.

    Under PCA these are the correlation matrix's own. Under PAF the diagonal
    holds squared multiple correlations instead, which gives the
    common-variance spectrum without needing a factor count.
    """
    if method == PCA:
        return pca(c).eigenvalues
    h, _ = smc(c.values)
    reduced = c.values.copy()
    np.fill_diagonal(reduced, h)
    return _sorted_eigh(reduced)[0]


def paf(c: CorrelationMatrix, q: int) -> EigenSolution:
    """Principal axis factoring with iterated communalities.

    Starts from squared multiple correlations, replaces the diagonal, and
    iterates q-factor eigendecompositions until the largest communality
    change drops below 1e-6 or 1000 iterations pass. Communalities above 1
    are clamped (Heywood case) and flagged; non-convergence is reported in
    the result, not raised.
    """
    k = c.values.shape[0]
    if not 1 <= q <= k:
        raise ValueError(f"q must be in 1..{k}, got {q}")
    h, fallback = smc(c.values)
    heywood = False
    converged = False
    iterations = 0
    w = loadings = vectors = None
    for iterations in range(1, PAF_MAX_ITER + 1):
        reduced = c.values.copy()
        np.fill_diagonal(reduced, h)
        w, v = _sorted_eigh(reduced)
        vectors = v[:, :q]
        loadings = vectors * np.sqrt(np.maximum(w[:q], 0.0))
        h_new = (loadings**2).sum(axis=1)
        if (h_new > 1.0).any():
            heywood = True
            h_new = np.minimum(h_new, 1.0)
        delta = np.max(np.abs(h_new - h))
        h = h_new
        if delta < PAF_TOL:
            converged = True
            break
    return EigenSolution(
        eigenvalues=w,
        loadings=loadings,
        eigenvectors=vectors,
        method=PAF,
        converged=converged,
        iterations=iterations,
        communalities=h,
        heywood=heywood,
        smc_fallback=fallback,
    )


def oriented_weights(sol: EigenSolution, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First q loading and scoring-vector columns, sign-oriented.

    Any column whose loadings sum negative is negated so that high scores
    mean more missingness; returns (loadings, vectors, signs).
    """
    if q < 1 or q > sol.loadings.shape[1]:
        raise ValueError(f"q must be in 1..{sol.loadings.shape[1]}, got {q}")
    loadings = sol.loadings[:, :q].copy()
    vectors = sol.eigenvectors[:, :q].copy()
    signs = np.where(loadings.sum(axis=0) < 0.0, -1.0, 1.0)
    return loadings * signs, vectors * signs, signs


def scores(ind: IndicatorMatrix, sol: EigenSolution, q: int, cutoff: float = 0.0) -> ComponentScores:
    """Score cases on the first q components and dichotomize at the cutoff.

    Score j is Σᵢ (xᵢ − x̄ᵢ)/sdᵢ · vᵢⱼ, v the sign-oriented scoring vectors.
    With x̄ = m/n and sd = √(m(n − m))/n from the column counts m, the
    result keeps it as an affine map of the 0/1 indicators: ``slopes``
    vᵢⱼ/sdᵢ and ``intercepts`` −Σᵢ x̄ᵢvᵢⱼ/sdᵢ. A score strictly above the
    cutoff dichotomizes to 1; scores at or below it, including exactly at
    it, dichotomize to 0. Rows missing on every indicator are scored like
    any other but flagged so downstream analyses can exclude them.

    The product runs over the float64 chunks of ``indicators.row_chunks``,
    so no n×k float64 copy of the indicators is made; a chunked sum may
    differ from the whole product in the last bit.
    """
    _, vectors, signs = oriented_weights(sol, q)
    if vectors.shape[0] != ind.k:
        raise ValueError("solution dimension does not match indicator columns")
    m = ind.values.sum(axis=0, dtype=np.float64)
    slopes = vectors / (np.sqrt(m * (ind.n - m)) / ind.n)[:, None]
    intercepts = -(m / ind.n) @ slopes
    s = np.empty((ind.n, slopes.shape[1]))
    for rows, x in row_chunks(ind.values):
        np.matmul(x, slopes, out=s[rows])
    s += intercepts
    return ComponentScores(s, (s > cutoff).view(np.uint8), signs, ind.fully_missing_rows, slopes, intercepts)

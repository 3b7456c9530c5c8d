"""Criteria for how many indicator components to retain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indicators import SCRATCH_ENTRIES, IndicatorMatrix, cooccurrence

KAISER = "kaiser"
EKC = "ekc"
PARALLEL = "parallel"
PROFILE_LIKELIHOOD = "profile_likelihood"
CRITERIA = (KAISER, EKC, PARALLEL, PROFILE_LIKELIHOOD)

PA_REPS = 100
PA_PERCENTILE = 0.95
PA_MAX_DROP_FRACTION = 0.10
PL_VARIANCE_FLOOR = 1e-12


@dataclass
class RetentionDecision:
    criterion: str
    k_retained: int
    diagnostics: np.ndarray | None = None
    converged: bool = True


def _validate_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    e = np.asarray(eigenvalues, dtype=np.float64)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d array")
    if not np.isfinite(e).all():
        raise ValueError("eigenvalues must be finite")
    if (np.diff(e) > 1e-10).any():
        raise ValueError("eigenvalues must be sorted descending")
    return e


def kaiser(eigenvalues: np.ndarray) -> RetentionDecision:
    """Retain components with eigenvalue strictly greater than 1."""
    e = _validate_spectrum(eigenvalues)
    return RetentionDecision(KAISER, int(np.sum(e > 1.0)))


def ekc(eigenvalues: np.ndarray, n: int, k: int) -> RetentionDecision:
    """Empirical Kaiser criterion.

    Each position gets a reference that rescales the Marchenko-Pastur upper
    edge by the variance left after the preceding eigenvalues, floored at
    the classical Kaiser value of 1; retention stops at the first position
    whose eigenvalue fails its reference.
    """
    e = _validate_spectrum(eigenvalues)
    if len(e) != k:
        raise ValueError(f"expected {k} eigenvalues, got {len(e)}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    edge = (1.0 + math.sqrt(k / n)) ** 2
    refs = np.empty(k)
    used = 0.0
    for j in range(k):
        refs[j] = max(edge * (k - used) / (k - j), 1.0)
        used += e[j]
    retained = 0
    for j in range(k):
        if e[j] > refs[j]:
            retained += 1
        else:
            break
    return RetentionDecision(EKC, retained, diagnostics=refs)


def _permutation_null(ind: IndicatorMatrix, reps: int, seed: int) -> np.ndarray:
    """Eigenvalue spectra of column-permuted copies of the indicators.

    Each replication draws its permutations from a stream spawned off
    (seed, replication index), so the result is identical however the work
    is scheduled. Permuting a column keeps its count of ones m, so every
    replication's Pearson matrix follows from its exact co-occurrence
    counts C alone: r = (n C - m mᵀ) / (s sᵀ) with s = sqrt(n m - m²).
    Replications run in blocks of permuted uint8 copies; a block holds one
    copy (n·k bytes) or as many as fit in ``SCRATCH_ENTRIES`` bytes, and its
    float scratch is capped at ``SCRATCH_ENTRIES`` entries per array, so
    memory does not grow with reps; the output is reps·k floats.
    """
    n, k = ind.values.shape
    streams = np.random.SeedSequence(seed).spawn(reps)
    base = ind.values
    m = base.sum(axis=0, dtype=np.float64)
    s = np.sqrt(n * m - m * m)
    mm = np.outer(m, m)
    ss = np.outer(s, s)
    out = np.empty((reps, k))
    batch = max(1, SCRATCH_ENTRIES // max(n * k, k * k))
    for start in range(0, reps, batch):
        stop = min(start + batch, reps)
        perm = np.empty((stop - start, n, k), dtype=np.uint8)
        for i, r in enumerate(range(start, stop)):
            np.random.default_rng(streams[r]).permuted(base, axis=0, out=perm[i])
        corr = cooccurrence(perm)
        corr *= n
        corr -= mm
        corr /= ss
        out[start:stop] = np.linalg.eigvalsh(corr)[:, ::-1]
    return out


def parallel_analysis(
    ind: IndicatorMatrix,
    eigenvalues: np.ndarray,
    reps: int = PA_REPS,
    percentile: float = PA_PERCENTILE,
    seed: int = 0,
) -> RetentionDecision:
    """Permutation parallel analysis.

    The null keeps each indicator column's marginal but destroys dependence
    by permuting columns independently; the reference curve is the
    per-position percentile of the permuted Pearson spectra. Retention
    stops at the first observed eigenvalue that fails its reference.
    """
    e = _validate_spectrum(eigenvalues)
    if len(e) != ind.k:
        raise ValueError(f"expected {ind.k} eigenvalues, got {len(e)}")
    if reps < 1:
        raise ValueError("reps must be positive")
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be in (0, 1)")
    spectra = _permutation_null(ind, reps, seed)
    ok = np.isfinite(spectra).all(axis=1)
    dropped = int(len(ok) - ok.sum())
    converged = dropped <= PA_MAX_DROP_FRACTION * reps
    kept = spectra[ok]
    if kept.shape[0] == 0:
        return RetentionDecision(PARALLEL, 0, diagnostics=None, converged=False)
    refs = np.quantile(kept, percentile, axis=0, method="linear")
    retained = 0
    for j in range(ind.k):
        if e[j] > refs[j]:
            retained += 1
        else:
            break
    return RetentionDecision(PARALLEL, retained, diagnostics=refs, converged=converged)


def profile_loglik_curve(eigenvalues: np.ndarray) -> np.ndarray:
    """Profile log-likelihood of each split position q = 1..k-1.

    Both sides of the split are modeled as normal with their own mean and a
    pooled maximum-likelihood variance, floored to keep a degenerate
    spectrum finite.
    """
    e = _validate_spectrum(eigenvalues)
    k = len(e)
    if k < 2:
        raise ValueError("need at least 2 eigenvalues to locate a gap")
    curve = np.empty(k - 1)
    for q in range(1, k):
        head, tail = e[:q], e[q:]
        ss = ((head - head.mean()) ** 2).sum() + ((tail - tail.mean()) ** 2).sum()
        var = max(ss / k, PL_VARIANCE_FLOOR)
        curve[q - 1] = -0.5 * k * (math.log(2.0 * math.pi * var) + ss / (k * var))
    return curve


def profile_likelihood(eigenvalues: np.ndarray) -> RetentionDecision:
    """Retain the split position that maximizes the profile likelihood.

    Ties resolve to the smaller count. Never returns 0: the criterion
    locates the largest gap, which always sits after at least one value.
    """
    curve = profile_loglik_curve(eigenvalues)
    best = int(np.argmax(curve)) + 1
    return RetentionDecision(PROFILE_LIKELIHOOD, best, diagnostics=curve)


def guidance(n: int, items_per_component: int, expected_components: int) -> str:
    """Which criterion to trust for a planned design.

    Parallel analysis is the default; densely measured designs (5 or more
    items per component, 3 or more components) at sub-1000 samples favor
    the empirical Kaiser criterion, or the classical Kaiser rule when the
    sample is smaller than 250.
    """
    if n < 1 or items_per_component < 1 or expected_components < 1:
        raise ValueError("design quantities must be positive")
    if items_per_component >= 5 and n < 1000 and expected_components >= 3:
        return EKC if n >= 250 else KAISER
    return PARALLEL

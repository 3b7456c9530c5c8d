"""Criteria for how many indicator components to retain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indicators import SCRATCH_ENTRIES, IndicatorMatrix, phi

KAISER = "kaiser"
EKC = "ekc"
PARALLEL = "parallel"
PROFILE_LIKELIHOOD = "profile_likelihood"
CRITERIA = (KAISER, EKC, PARALLEL, PROFILE_LIKELIHOOD)

PA_REPS = 100
PA_PERCENTILE = 0.95
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


def _leading_run(e: np.ndarray, refs: np.ndarray | float) -> int:
    """How many leading eigenvalues exceed their references, up to the first that does not."""
    return int(np.logical_and.accumulate(e > refs).sum())


def kaiser(eigenvalues: np.ndarray) -> RetentionDecision:
    """Retain components with eigenvalue strictly greater than 1."""
    e = _validate_spectrum(eigenvalues)
    return RetentionDecision(KAISER, _leading_run(e, 1.0))


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
    used = np.concatenate(([0.0], np.cumsum(e[:-1])))
    refs = np.maximum(edge * (k - used) / (k - np.arange(k)), 1.0)
    return RetentionDecision(EKC, _leading_run(e, refs), diagnostics=refs)


def _permutation_null(ind: IndicatorMatrix, reps: int, seed: int) -> np.ndarray:
    """Eigenvalue spectra of column-permuted copies of the indicators.

    Each replication draws its permutations from a stream spawned off
    (seed, replication index), so the result is identical however the work
    is scheduled. Permuting a column keeps its count of ones, so every
    replication's Pearson matrix follows from its exact co-occurrence
    counts C alone, through ``phi`` as the observed matrix does.
    Each replication shuffles a float64 (k, n) copy of the indicators, one
    row per column, cast from a C-ordered uint8 (k, n) base: numpy's
    shuffle has a fast path for 8-byte items, and it draws the same stream
    for any item size or layout. C = P Pᵀ in float64 is exact, since its
    entries are integers up to n. One block, reused, holds one copy or as
    many as fit in ``SCRATCH_ENTRIES`` entries, so besides the n·k byte
    base the scratch is at most max(8·n·k, 8·SCRATCH_ENTRIES) bytes
    however many reps run; the output is reps·k floats.
    """
    n, k = ind.values.shape
    streams = np.random.SeedSequence(seed).spawn(reps)
    base = np.ascontiguousarray(ind.values.T)
    out = np.empty((reps, k))
    batch = min(reps, max(1, SCRATCH_ENTRIES // max(n * k, k * k)))
    block = np.empty((batch, k, n))
    for start in range(0, reps, batch):
        stop = min(start + batch, reps)
        perm = block[: stop - start]
        for i, r in enumerate(range(start, stop)):
            np.random.default_rng(streams[r]).permuted(base, axis=1, out=perm[i])
        corr = phi(perm @ perm.swapaxes(-1, -2), n)
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
    refs = np.quantile(spectra, percentile, axis=0, method="linear")
    return RetentionDecision(PARALLEL, _leading_run(e, refs), diagnostics=refs)


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


def decide(
    ind: IndicatorMatrix,
    eigenvalues: np.ndarray,
    seed: int,
    reps: int = PA_REPS,
    percentile: float = PA_PERCENTILE,
) -> dict[str, RetentionDecision]:
    """All four criteria on one spectrum of the indicators, in CRITERIA order.

    ``seed``, ``reps`` and ``percentile`` set the parallel-analysis null.
    """
    return {
        KAISER: kaiser(eigenvalues),
        EKC: ekc(eigenvalues, ind.n, ind.k),
        PARALLEL: parallel_analysis(ind, eigenvalues, reps=reps, percentile=percentile, seed=seed),
        PROFILE_LIKELIHOOD: profile_likelihood(eigenvalues),
    }


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

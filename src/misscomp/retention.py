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
    diagnostics: np.ndarray  # the reference series the criterion read, by position
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
    return RetentionDecision(KAISER, _leading_run(e, 1.0), np.ones(len(e)))


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
    return RetentionDecision(EKC, _leading_run(e, refs), refs)


def _permutation_null(ind: IndicatorMatrix, reps: int, seed: int) -> np.ndarray:
    """Eigenvalue spectra of column-permuted copies of the indicators.

    One generator seeded with ``seed`` draws a uniform key for every
    (replication, column, row), in that order, so the result is identical
    however the work is scheduled. In each replication column j puts its
    m_j ones at the rows of its m_j smallest keys, a uniformly random
    arrangement of its own count of ones. Each key row is padded with
    top - m_j entries below every key and m_j - min(m) above, top = max(m),
    so one ``partition`` at rank top - 1 finds every row's threshold; the
    keys at or below it become the ones. A row tied at its threshold (keys
    repeat with probability about n²/2^54) is settled by the stable order of
    its keys, so it still holds exactly m_j ones. Every replication's
    Pearson matrix follows from its exact co-occurrence counts C = P Pᵀ,
    through ``phi`` as the observed matrix does; float64 holds C exactly,
    since its entries are integers up to n. One block, reused, holds one
    replication's (k, n) keys or as many as fit in ``SCRATCH_ENTRIES``
    entries, and padded rows are partitioned in a reused chunk of at most
    max(one padded row, ``SCRATCH_ENTRIES``) entries, so however many reps
    run the scratch is about 8·n·k bytes plus the chunk's 1 MB; the output
    is reps·k floats.
    """
    n, k = ind.values.shape
    m = ind.values.sum(axis=0, dtype=np.int64)
    top = int(m.max())
    # entry a of row j's padding is 2a + 1 - 2(top - m_j): its first top - m_j
    # entries are at most -1, below every key, and the rest at least 1, above
    ramp = 2.0 * np.arange(top - m.min()) + 1.0
    shift = 2.0 * (top - m)
    width = n + len(ramp)
    chunk = np.empty((max(1, SCRATCH_ENTRIES // width), width))
    rng = np.random.default_rng(seed)
    out = np.empty((reps, k))
    batch = min(reps, max(1, SCRATCH_ENTRIES // max(n * k, k * k)))
    block = np.empty((batch, k, n))
    for start in range(0, reps, batch):
        stop = min(start + batch, reps)
        keys = block[: stop - start]
        rng.random(out=keys)
        rows = keys.reshape(-1, n)
        limits = np.empty(len(rows))
        for first in range(0, len(rows), len(chunk)):
            padded = chunk[: len(rows) - first]
            span = slice(first, first + len(padded))
            padded[:, :n] = rows[span]
            np.subtract(ramp, shift[np.arange(first, span.stop) % k, None], out=padded[:, n:])
            padded.partition(top - 1, axis=1)
            limits[span] = padded[:, top - 1]
            # a key above the threshold rank that equals the threshold would
            # make one too many ones
            tied = padded[:, top:].min(axis=1) == limits[span]
            for r in first + np.flatnonzero(tied):
                # replace the keys by their stable ranks: the first m_j are the ones
                rows[r, np.argsort(rows[r], kind="stable")] = np.arange(n)
                limits[r] = m[r % k] - 1
        np.less_equal(keys, limits.reshape(-1, k, 1), out=keys, casting="unsafe")
        corr = phi(keys @ keys.swapaxes(-1, -2), n)
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
    return RetentionDecision(PARALLEL, _leading_run(e, refs), refs)


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
    return RetentionDecision(PROFILE_LIKELIHOOD, best, curve)


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

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
# rows a float32 product of 0/1 copies may sum: float32 holds every integer
# up to 2**24 exactly, so every partial count is exact
EXACT_ROWS = 1 << 24


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


def _null_generators(seed: int) -> tuple[np.random.PCG64, np.random.PCG64]:
    """The null's bit generators: one draws the keys, one redraws tied rows."""
    keys, ties = np.random.SeedSequence(seed).spawn(2)
    return np.random.PCG64(keys), np.random.PCG64(ties)


def _uint32_keys(bitgen: np.random.PCG64, rows: int, width: int) -> np.ndarray:
    """(rows, width) uniform uint32 keys, a view of a freshly drawn block.

    Each row reads the next ceil(width / 2) raw outputs as little-endian
    uint32 pairs, low half first, and keeps the first ``width``.
    """
    raw = bitgen.random_raw((rows, (width + 1) // 2))
    return np.asarray(raw, dtype="<u8").view("<u4")[:, :width]


def _counts(copies: np.ndarray) -> np.ndarray:
    """Co-occurrence counts P Pᵀ of a stack of (k, n) float32 0/1 copies, as float64.

    Each float32 product sums at most ``EXACT_ROWS`` rows, so every count
    is an integer float32 holds exactly.
    """
    counts = np.zeros(copies.shape[:-1] + copies.shape[-2:-1])
    for first in range(0, copies.shape[-1], EXACT_ROWS):
        part = copies[..., first : first + EXACT_ROWS]
        counts += part @ part.swapaxes(-1, -2)
    return counts


def _place_ones(keys: np.ndarray, m: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Overwrite (b, k, n) uint32 keys in place with float32 0/1 copies.

    Row j gets ones at its keys up to its m_j-th smallest, so exactly m_j
    of them unless that key ties with a larger one. Each key row is padded
    in ``chunk`` with top - m_j zeros and m_j - min(m) entries of 2³² - 1,
    top = max(m), so one ``partition`` at rank top - 1 finds every row's
    threshold.
    """
    b, k, n = keys.shape
    top = int(m.max())
    ramp = np.arange(chunk.shape[1] - n)
    gap = top - m
    # a chunk holds whole replications or, when k rows do not fit, part of
    # one: when k·n is odd a block's rows are not one evenly strided stack
    per_chunk = max(1, len(chunk) // k)
    cols = min(k, len(chunk))
    for i in range(0, b, per_chunk):
        for j in range(0, k, cols):
            piece = keys[i : i + per_chunk, j : j + cols]
            padded = chunk[: piece.shape[0] * piece.shape[1]].reshape(*piece.shape[:2], -1)
            padded[..., :n] = piece
            pads = padded[..., n:]
            np.greater_equal(ramp, gap[j : j + cols, None], out=pads)
            pads *= np.uint32(2**32 - 1)
            padded.partition(top - 1, axis=-1)
            limits = padded[..., top - 1 : top]
            np.less_equal(piece, limits, out=piece.view(np.float32), casting="unsafe")
    return keys.view(np.float32)


def _untied_row(bitgen: np.random.PCG64, n: int, ones: int) -> np.ndarray:
    """A 0/1 row with ``ones`` ones at its smallest keys, redrawn until they are set apart."""
    while True:
        keys = _uint32_keys(bitgen, 1, n)[0]
        limit = np.partition(keys, ones - 1)[ones - 1]
        row = keys <= limit
        if np.count_nonzero(row) == ones:
            return row


def _permutation_null(ind: IndicatorMatrix, reps: int, seed: int) -> np.ndarray:
    """Eigenvalue spectra of column-permuted copies of the indicators.

    In each replication column j puts its m_j ones at the rows of its m_j
    smallest keys, a uniformly random arrangement of its own count of ones.
    ``SeedSequence(seed)`` spawns a key generator and a tie generator; each
    replication takes the next ceil(k·n / 2) raw outputs of the key
    generator as its uint32 keys, in (column, row) order, so the result is
    identical however the work is scheduled. The copies' exact
    co-occurrence counts C = P Pᵀ give each Pearson matrix through ``phi``,
    as for the observed one. A row whose m_j-th smallest key ties with a
    larger one (probability about n/2³²) shows it by a diagonal count above
    m_j. It is redrawn from the tie generator, in (replication, column)
    order, until its m_j smallest keys are set apart, and its replication is
    recounted; whether a row ties does not depend on where its keys sit, so
    every arrangement stays equally likely. A block holds one replication's
    keys or as many as fit in ``SCRATCH_ENTRIES`` entries, and rows are
    partitioned in a reused chunk of at most max(one padded row,
    ``SCRATCH_ENTRIES``) entries, so however many reps run the scratch is
    about 4·n·k bytes plus the chunk's 512 kB; the output is reps·k floats.
    """
    n, k = ind.values.shape
    m = ind.values.sum(axis=0, dtype=np.int64)
    width = n + int(m.max() - m.min())
    chunk = np.empty((max(1, SCRATCH_ENTRIES // width), width), dtype=np.uint32)
    key_gen, tie_gen = _null_generators(seed)
    out = np.empty((reps, k))
    batch = min(reps, max(1, SCRATCH_ENTRIES // max(n * k, k * k)))
    for start in range(0, reps, batch):
        stop = min(start + batch, reps)
        copies = _place_ones(_uint32_keys(key_gen, stop - start, k * n).reshape(-1, k, n), m, chunk)
        counts = _counts(copies)
        tied = np.argwhere(np.diagonal(counts, axis1=-2, axis2=-1) != m)
        for i, j in tied:
            copies[i, j] = _untied_row(tie_gen, n, int(m[j]))
        for i in np.unique(tied[:, 0]):
            counts[i] = _counts(copies[i])
        out[start:stop] = np.linalg.eigvalsh(phi(counts, n))[:, ::-1]
        # random_raw returns a fresh block: drop this one before the next is drawn
        del copies
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

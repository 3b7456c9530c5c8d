"""Monte Carlo harness for criterion recovery on planted-structure data.

Each condition plants a block correlation structure (0.7 within a
component's variables, 0.3 between components) in multivariate normal
data, dichotomizes it into missingness indicators at the quantile matching
the target missingness rate, and asks each retention criterion for the
number of components. A criterion is correct when it recovers the planted
count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from . import correlation, extraction, retention
from .correlation import PEARSON, TETRACHORIC, EstimationError
from .extraction import PAF, PCA
from .indicators import IndicatorMatrix, from_mask
from .retention import CRITERIA

WITHIN_CORR = 0.7
BETWEEN_CORR = 0.3
SUCCESS_THRESHOLD = 0.95

GRID_COMPONENTS = (1, 3, 5, 10)
GRID_ITEMS = (3, 5, 10)
GRID_N = (100, 250, 1000)
GRID_P_MISS = (0.10, 0.25, 0.50)

_CORR_CODE = {PEARSON: 0, TETRACHORIC: 1}
_METHOD_CODE = {PCA: 0, PAF: 1}


@dataclass(frozen=True)
class SimCondition:
    n_components: int
    items_per_component: int
    n: int
    p_miss: float
    corr_kind: str = PEARSON
    method: str = PCA

    def __post_init__(self):
        if self.n_components < 1 or self.items_per_component < 1 or self.n < 2:
            raise ValueError("condition sizes must be positive")
        if not 0.0 < self.p_miss < 1.0:
            raise ValueError("p_miss must be in (0, 1)")
        if self.corr_kind not in _CORR_CODE:
            raise ValueError(f"unknown corr_kind {self.corr_kind!r}")
        if self.method not in _METHOD_CODE:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def k(self) -> int:
        return self.n_components * self.items_per_component

    def key(self) -> tuple[int, ...]:
        """Stable integer tuple identifying the condition for seeding."""
        return (
            self.n_components,
            self.items_per_component,
            self.n,
            int(round(self.p_miss * 10_000)),
            _CORR_CODE[self.corr_kind],
            _METHOD_CODE[self.method],
        )


@dataclass
class CellResult:
    condition: SimCondition
    replications_run: int
    converged: dict[str, int]
    correct: dict[str, int]

    def proportion(self, criterion: str) -> float:
        conv = self.converged[criterion]
        return self.correct[criterion] / conv if conv else 0.0

    def success(self, criterion: str) -> bool:
        return self.proportion(criterion) >= SUCCESS_THRESHOLD


@dataclass
class SimReport:
    cells: list[CellResult]
    reps: int
    seed: int

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Mean per-cell proportion correct and success-cell count per criterion."""
        out = {}
        for crit in CRITERIA:
            props = [cell.proportion(crit) for cell in self.cells]
            out[crit] = {
                "mean_proportion_correct": float(np.mean(props)) if props else 0.0,
                "n_cells": len(props),
                "n_success_cells": sum(cell.success(crit) for cell in self.cells),
            }
        return out


def block_sigma(n_components: int, items_per_component: int) -> np.ndarray:
    k = n_components * items_per_component
    sigma = np.full((k, k), BETWEEN_CORR)
    for b in range(n_components):
        lo = b * items_per_component
        hi = lo + items_per_component
        sigma[lo:hi, lo:hi] = WITHIN_CORR
    np.fill_diagonal(sigma, 1.0)
    return sigma


@lru_cache(maxsize=None)
def _cholesky(n_components: int, items_per_component: int) -> np.ndarray:
    sigma = block_sigma(n_components, items_per_component)
    if np.linalg.eigvalsh(sigma)[0] <= 0.0:
        raise ValueError("planted correlation structure is not positive definite")
    return np.linalg.cholesky(sigma)


def sample_latent(cond: SimCondition, rng: np.random.Generator) -> np.ndarray:
    """Multivariate normal draws carrying the planted block correlation."""
    chol = _cholesky(cond.n_components, cond.items_per_component)
    return rng.standard_normal((cond.n, cond.k)) @ chol.T


def _indicators_from_latent(cond: SimCondition, rng: np.random.Generator) -> IndicatorMatrix:
    width = len(str(cond.k))
    names = [f"v{j + 1:0{width}d}" for j in range(cond.k)]
    return from_mask(sample_latent(cond, rng) > ndtri(1.0 - cond.p_miss), names)


def generate(cond: SimCondition, seed: int) -> IndicatorMatrix:
    """One simulated indicator matrix for a condition."""
    return _indicators_from_latent(cond, np.random.default_rng(np.random.SeedSequence(seed)))


def _replication_decisions(
    cond: SimCondition, gen_rng: np.random.Generator, pa_seed: int
) -> dict[str, retention.RetentionDecision] | None:
    """All four retention decisions for one replication, reached as ``analyze`` reaches them.

    Returns None when a failure ahead of them (degenerate indicators,
    pairwise estimation failure) leaves nothing to decide on.
    """
    ind = _indicators_from_latent(cond, gen_rng)
    if ind.dropped_columns:
        return None
    try:
        corr = correlation.correlate(ind, cond.corr_kind)
    except (EstimationError, ValueError):
        return None
    return retention.decide(ind, extraction.spectrum(corr, cond.method), pa_seed)


def run_condition(cond: SimCondition, reps: int, seed: int) -> CellResult:
    """Run one condition for a number of replications.

    Replication r draws its generator stream from (seed, condition key, r),
    so any scheduling of conditions or replications reproduces the same
    numbers. Replications that fail to produce a decision are excluded
    from every criterion's denominator.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    decided = 0
    correct = dict.fromkeys(CRITERIA, 0)
    for rep in range(reps):
        ss = np.random.SeedSequence((seed, *cond.key(), rep))
        gen_ss, pa_ss = ss.spawn(2)
        pa_seed = int(pa_ss.generate_state(1, np.uint64)[0])
        decisions = _replication_decisions(cond, np.random.default_rng(gen_ss), pa_seed)
        if decisions is None:
            continue
        decided += 1
        for crit, decision in decisions.items():
            correct[crit] += decision.k_retained == cond.n_components
    return CellResult(cond, reps, dict.fromkeys(CRITERIA, decided), correct)


def _run_cell(args: tuple[SimCondition, int, int]) -> CellResult:
    return run_condition(*args)


def run_grid(conditions: list[SimCondition], reps: int, seed: int, workers: int = 1) -> SimReport:
    """Run a list of conditions, optionally across worker processes.

    Per-replication seeding makes each cell's numbers independent of the
    worker count, and results are reduced in condition order, so reports
    are identical for any workers value. At most one worker process starts
    per condition, since a pool may start all of its workers up front.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    args = [(cond, reps, seed) for cond in conditions]
    workers = min(workers, len(conditions))
    if workers <= 1:
        cells = [_run_cell(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, args))
    return SimReport(cells=cells, reps=reps, seed=seed)


def full_grid(corr_kind: str = PEARSON, method: str = PCA) -> list[SimCondition]:
    """The full factorial design: 4 x 3 x 3 x 3 = 108 cells, fixed order."""
    return [
        SimCondition(c, i, n, p, corr_kind, method)
        for c in GRID_COMPONENTS
        for i in GRID_ITEMS
        for n in GRID_N
        for p in GRID_P_MISS
    ]

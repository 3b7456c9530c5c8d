import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misscomp.correlation import PEARSON, CorrelationMatrix, pearson
from misscomp.extraction import (
    PAF,
    PCA,
    EigenSolution,
    oriented_weights,
    paf,
    pca,
    scores,
    smc,
    spectrum,
)
from misscomp.indicators import SCRATCH_ENTRIES
from test_correlation import indicator_matrix


def corr(values):
    return CorrelationMatrix(values=np.asarray(values, dtype=np.float64), kind=PEARSON)


def equicorrelation(k, rho):
    values = np.full((k, k), rho)
    np.fill_diagonal(values, 1.0)
    return corr(values)


class TestPca:
    def test_two_by_two_analytic(self):
        # eigenvalues of [[1, r], [r, 1]] are 1 + r and 1 - r
        sol = pca(corr([[1.0, 0.6], [0.6, 1.0]]))
        np.testing.assert_allclose(sol.eigenvalues, [1.6, 0.4], atol=1e-12)
        assert sol.method == PCA

    def test_equicorrelation_spectrum(self):
        # 1 + (k-1)rho once, 1 - rho repeated k-1 times
        for k, rho in [(4, 0.5), (7, 0.3), (10, 0.7)]:
            sol = pca(equicorrelation(k, rho))
            expect = np.r_[1 + (k - 1) * rho, np.full(k - 1, 1 - rho)]
            np.testing.assert_allclose(sol.eigenvalues, expect, atol=1e-10)

    def test_eigenvalues_sum_to_trace(self, rng):
        values = rng.integers(0, 2, size=(300, 6))
        values[0] = 0
        values[1] = 1
        sol = pca(pearson(indicator_matrix(values)))
        assert sol.eigenvalues.sum() == pytest.approx(6.0, abs=1e-9)

    def test_loadings_are_scaled_eigenvectors(self):
        sol = pca(equicorrelation(5, 0.4))
        np.testing.assert_allclose(
            sol.loadings,
            sol.eigenvectors * np.sqrt(sol.eigenvalues),
            atol=1e-12,
        )

    def test_descending_order(self, rng):
        values = rng.integers(0, 2, size=(120, 8))
        values[0] = 0
        values[1] = 1
        sol = pca(pearson(indicator_matrix(values)))
        assert np.all(np.diff(sol.eigenvalues) <= 1e-12)


class TestSmc:
    def test_matches_inverse_formula(self):
        values = equicorrelation(4, 0.5).values
        h, fallback = smc(values)
        expect = 1.0 - 1.0 / np.diag(np.linalg.inv(values))
        np.testing.assert_allclose(h, expect, atol=1e-12)
        assert not fallback

    def test_singular_matrix_falls_back(self):
        # rank-1 correlation matrix cannot be inverted
        v = np.ones((3, 3))
        h, fallback = smc(v)
        assert fallback
        np.testing.assert_allclose(h, 1.0)  # max |off-diagonal| per row


class TestPaf:
    def test_one_factor_recovers_loadings(self):
        # uniform loading sqrt(0.49) = 0.7 generates equicorrelation 0.49
        sol = paf(equicorrelation(6, 0.49), q=1)
        assert sol.converged
        assert not sol.heywood
        np.testing.assert_allclose(np.abs(sol.loadings[:, 0]), 0.7, atol=1e-4)
        np.testing.assert_allclose(sol.communalities, 0.49, atol=1e-4)

    def test_two_block_structure(self):
        values = np.full((6, 6), 0.2)
        values[:3, :3] = 0.64
        values[3:, 3:] = 0.64
        np.fill_diagonal(values, 1.0)
        sol = paf(corr(values), q=2)
        assert sol.converged
        # oriented loading magnitudes: items load ~0.8 on their own factor
        strength = np.sqrt((sol.loadings**2).sum(axis=1))
        assert np.all(strength > 0.7)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            paf(equicorrelation(3, 0.3), q=0)
        with pytest.raises(ValueError):
            paf(equicorrelation(3, 0.3), q=4)

    def test_heywood_flagged_and_clamped(self):
        # near-collinear pair with conflicting thirds drives communalities past 1
        values = np.array(
            [
                [1.0, 0.99, 0.3],
                [0.99, 1.0, -0.3],
                [0.3, -0.3, 1.0],
            ]
        )
        sol = paf(corr(values), q=2)
        assert sol.heywood
        assert np.all(sol.communalities <= 1.0 + 1e-12)

    def test_iterations_reported(self):
        sol = paf(equicorrelation(5, 0.3), q=1)
        assert 1 <= sol.iterations <= 1000


class TestReducedSpectrum:
    def test_differs_from_pca_spectrum(self):
        c = equicorrelation(5, 0.4)
        reduced = spectrum(c, PAF)
        full = spectrum(c, PCA)
        assert reduced.shape == full.shape
        # SMC diagonal < 1 shrinks the trace
        assert reduced.sum() < full.sum()
        assert np.all(np.diff(reduced) <= 1e-12)

    def test_pca_spectrum_is_pca_eigenvalues(self):
        c = corr([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        assert spectrum(c, PCA).tobytes() == pca(c).eigenvalues.tobytes()

    def test_equicorrelation_closed_form(self):
        # SMC of an equicorrelation matrix is 1 - 1/[R^-1]_jj, and the SMC
        # diagonal shifts its spectrum to h + (k-1)rho once and h - rho
        k, rho = 5, 0.4
        inv_diag = (1 + (k - 2) * rho) / ((1 - rho) * (1 + (k - 1) * rho))
        h = 1.0 - 1.0 / inv_diag
        want = [h + (k - 1) * rho] + [h - rho] * (k - 1)
        np.testing.assert_allclose(spectrum(equicorrelation(k, rho), PAF), want, atol=1e-12)


class TestScores:
    def test_orientation_flips_negative_columns(self):
        sol = pca(equicorrelation(4, 0.5))
        flipped = EigenSolution(
            eigenvalues=sol.eigenvalues,
            loadings=-sol.loadings,
            eigenvectors=-sol.eigenvectors,
            method=sol.method,
        )
        l1, v1, s1 = oriented_weights(sol, 1)
        l2, v2, s2 = oriented_weights(flipped, 1)
        np.testing.assert_allclose(l1, l2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-12)
        assert l1[:, 0].sum() > 0

    def test_scores_are_projection_of_standardized(self, rng):
        values = rng.integers(0, 2, size=(100, 4))
        values[0] = 0
        values[1] = 1
        ind = indicator_matrix(values)
        sol = pca(pearson(ind))
        sc = scores(ind, sol, q=2)
        assert sc.scores.shape == (100, 2)
        assert sc.q == 2
        # column means of projected standardized data are 0
        np.testing.assert_allclose(sc.scores.mean(axis=0), 0.0, atol=1e-10)

    def test_dichotomize_strictly_above_cutoff(self, rng):
        values = rng.integers(0, 2, size=(50, 3))
        values[0] = 0
        values[1] = 1
        ind = indicator_matrix(values)
        sol = pca(pearson(ind))
        sc = scores(ind, sol, q=1, cutoff=0.0)
        np.testing.assert_array_equal(
            sc.dichotomized[:, 0], (sc.scores[:, 0] > 0.0).astype(np.uint8)
        )
        # a cutoff above the max zeroes everything
        hi = scores(ind, sol, q=1, cutoff=float(sc.scores.max()) + 1.0)
        assert hi.dichotomized.sum() == 0

    def test_fully_missing_rows_flagged(self):
        values = np.array(
            [
                [1, 1, 1],
                [0, 1, 0],
                [1, 0, 0],
                [0, 0, 0],
                [1, 1, 0],
            ],
            dtype=np.uint8,
        )
        ind = indicator_matrix(values)
        sol = pca(pearson(ind))
        sc = scores(ind, sol, q=1)
        assert sc.fully_missing.tolist() == [True, False, False, False, False]

    def test_mismatched_solution_rejected(self, rng):
        values = rng.integers(0, 2, size=(40, 3))
        values[0] = 0
        values[1] = 1
        ind = indicator_matrix(values)
        sol = pca(equicorrelation(5, 0.3))
        with pytest.raises(ValueError):
            scores(ind, sol, q=1)

    def test_scores_are_the_affine_map_of_the_indicators(self, rng):
        # the map comes from the column counts, and the 0/1 indicators are
        # multiplied one row chunk at a time: no float64 copy of them, no std()
        n, k, q = 20000, 30, 3
        ind = indicator_matrix((rng.random((n, k)) < rng.uniform(0.05, 0.6, size=k)).astype(np.uint8))
        sol = pca(pearson(ind))
        tracemalloc.start()
        try:
            sc = scores(ind, sol, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the scores and their flags (9 B per row and component), the fully
        # missing mask and one chunk's float64 copy, whatever k is
        assert peak < 9 * n * q + n + 8 * SCRATCH_ENTRIES + 2**17
        # the chunked sums may differ from the whole product in the last bit
        whole = ind.values @ sc.slopes + sc.intercepts
        np.testing.assert_allclose(sc.scores, whole, rtol=0, atol=1e-14 * np.abs(whole).max())
        np.testing.assert_array_equal(sc.dichotomized, whole > 0.0)
        np.testing.assert_array_equal(sc.dichotomized, sc.scores > 0.0)
        x = ind.values.astype(np.float64)
        _, vectors, _ = oriented_weights(sol, 3)
        expect = ((x - x.mean(axis=0)) / x.std(axis=0)) @ vectors
        # near-zero scores keep the cancellation's absolute error, so the
        # tolerance is relative to the largest score
        np.testing.assert_allclose(sc.scores, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
def test_pca_spectrum_properties(k, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(80, k))
    values[0] = 0
    values[1] = 1
    sol = pca(pearson(indicator_matrix(values)))
    assert sol.eigenvalues.shape == (k,)
    assert np.all(np.diff(sol.eigenvalues) <= 1e-10)
    assert sol.eigenvalues.sum() == pytest.approx(k, abs=1e-8)
    # oriented first column always has nonnegative loading sum
    loadings, _, _ = oriented_weights(sol, 1)
    assert loadings[:, 0].sum() >= -1e-12

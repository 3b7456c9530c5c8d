import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from misscomp.correlation import (
    MIN_EIGENVALUE,
    PEARSON,
    RHO_BOUND,
    TETRACHORIC,
    CorrelationMatrix,
    EstimationError,
    bvn_upper,
    pearson,
    repair_pd,
    tetrachoric,
    tetrachoric_from_table,
)
from misscomp.indicators import IndicatorMatrix


def indicator_matrix(values):
    values = np.asarray(values, dtype=np.uint8)
    k = values.shape[1]
    return IndicatorMatrix(
        values=values,
        column_names=[f"v{j}_miss" for j in range(k)],
        source_columns=[f"v{j}" for j in range(k)],
        dropped_columns=[],
    )


def quadrant_table(rho, p_x, p_y, total=1_000_000.0):
    """Expected 2x2 cell counts for dichotomized bivariate normal data."""
    h = ndtri(1.0 - p_x)
    k = ndtri(1.0 - p_y)
    p11 = bvn_upper(h, k, rho)
    p10 = (1.0 - ndtr(h)) - p11
    p01 = (1.0 - ndtr(k)) - p11
    p00 = 1.0 - p11 - p10 - p01
    return np.array([[p11, p10], [p01, p00]]) * total


def quadrature_oracle():
    """Independent P(X > h, Y > k): integrate phi(x) * P(Y > k | X = x) over
    x > h in mpmath at 30 digits; rho = +-1 and infinite thresholds by their
    closed forms. The integral is split at 0 and at k / rho wherever they
    lie above h: near |rho| = 1 the conditional tail is almost a step at
    x = k / rho, which one unsplit quadrature misses."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def oracle(h, k, rho):
        if h == np.inf or k == np.inf:
            return 0.0
        if h == -np.inf or k == -np.inf:
            return float(mpmath.ncdf(-k) if h == -np.inf else mpmath.ncdf(-h))
        if abs(rho) == 1.0:
            tx, ty = mpmath.ncdf(-h), mpmath.ncdf(-k)
            return float(min(tx, ty) if rho > 0 else max(0, tx + ty - 1))

        def f(x):
            cond = (mpmath.mpf(k) - rho * x) / mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
            return mpmath.npdf(x) * mpmath.ncdf(-cond)

        cuts = sorted({c for c in (0.0, k / rho if rho else 0.0) if c > h})
        return float(mpmath.quad(f, [h, *cuts, mpmath.inf]))

    return oracle


class TestBvnUpper:
    def test_independence_factorizes(self):
        for h, k in [(-1.3, 0.4), (0.0, 0.0), (2.1, -0.7)]:
            expect = (1.0 - ndtr(h)) * (1.0 - ndtr(k))
            assert bvn_upper(h, k, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_perfect_correlation_is_min_tail(self):
        for h, k in [(-0.5, 1.0), (1.5, 0.3)]:
            expect = min(1.0 - ndtr(h), 1.0 - ndtr(k))
            assert bvn_upper(h, k, 1.0) == pytest.approx(expect, abs=1e-14)

    def test_perfect_negative_correlation(self):
        h, k = -0.4, -0.9
        expect = max(0.0, (1.0 - ndtr(h)) + (1.0 - ndtr(k)) - 1.0)
        assert bvn_upper(h, k, -1.0) == pytest.approx(expect, abs=1e-14)

    def test_symmetry_in_arguments(self):
        assert bvn_upper(0.3, -1.2, 0.6) == pytest.approx(
            bvn_upper(-1.2, 0.3, 0.6), abs=1e-15
        )

    def test_complement_identity(self):
        # P(X>h, Y>k) + P(X>h, Y<=k) = P(X>h)
        h, k, rho = 0.7, -0.2, 0.45
        both = bvn_upper(h, k, rho)
        other = bvn_upper(h, -k, -rho)
        assert both + other == pytest.approx(1.0 - ndtr(h), abs=1e-14)

    def test_against_quadrature_oracle(self):
        oracle = quadrature_oracle()
        rng = np.random.default_rng(42)
        cases = [(-2.0, -2.0, 0.95), (2.0, 2.0, -0.95), (0.0, 0.0, 0.999), (-1.2, -3.5, -0.999)]
        cases += [
            (float(rng.normal()), float(rng.normal()), float(rng.uniform(-0.99, 0.99)))
            for _ in range(12)
        ]
        for h, k, rho in cases:
            assert bvn_upper(h, k, rho) == pytest.approx(
                oracle(h, k, rho), abs=5e-14
            ), (h, k, rho)

    def test_array_call_against_quadrature_oracle(self):
        # one call spanning rho of both signs, rho = 0 and +-1, infinite
        # thresholds, and the limits in Owen's formula: a zero threshold of
        # either sign, h = k, the origin and subnormal thresholds
        oracle = quadrature_oracle()
        rhos = [0.0, 0.1, -0.2, 0.5, -0.6, 0.8, -0.9, 0.93, -0.97, 0.999, 1.0, -1.0]
        thresholds = [(-0.4, 1.1), (-1.7, -0.6)]
        cases = [(h, k, rho) for rho in rhos for h, k in thresholds]
        inf = np.inf
        cases += [(inf, 0.3, 0.5), (-0.2, inf, -0.5), (-inf, 0.7, 0.4), (0.9, -inf, -0.95),
                  (-inf, -inf, 0.2), (-inf, 1.2, 1.0)]
        cases += [(0.0, -1.0, 0.5), (-0.0, -1.0, -0.5), (0.0, 0.8, -0.7), (-0.0, 0.8, 0.7),
                  (-0.9, 0.0, 0.6), (1.3, -0.0, -0.4)]
        cases += [(0.6, 0.6, 0.4), (-1.1, -1.1, -0.8)]
        cases += [(0.0, 0.0, -0.9), (-0.0, -0.0, -0.3), (0.0, -0.0, 0.3), (0.0, 0.0, 0.95)]
        cases += [(5e-324, -0.4, 0.6), (-0.7, -5e-324, -0.95), (5e-324, 5e-324, 0.2)]
        h, k, rho = (np.array(col) for col in zip(*cases))
        got = bvn_upper(h, k, rho)
        assert isinstance(got, np.ndarray) and got.shape == h.shape
        expect = np.array([oracle(*case) for case in cases])
        np.testing.assert_allclose(got, expect, rtol=0, atol=5e-14)

    def test_scalar_call_returns_float(self):
        assert type(bvn_upper(0.2, -0.3, 0.4)) is float
        assert type(bvn_upper(np.float64(0.2), 1, -1.0)) is float

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-3.5, max_value=3.5),
        st.floats(min_value=-3.5, max_value=3.5),
        st.floats(min_value=-0.999, max_value=0.999),
    )
    def test_is_a_probability(self, h, k, rho):
        p = bvn_upper(h, k, rho)
        assert 0.0 <= p <= 1.0
        # never exceeds either marginal tail
        assert p <= min(1.0 - ndtr(h), 1.0 - ndtr(k)) + 1e-15


class TestPearson:
    def test_phi_closed_form(self):
        # counts (n11, n10, n01, n00) = (40, 10, 10, 40) has phi = 0.6
        x = np.array([1] * 50 + [0] * 50)
        y = np.array([1] * 40 + [0] * 10 + [1] * 10 + [0] * 40)
        c = pearson(indicator_matrix(np.column_stack([x, y])))
        assert c.kind == PEARSON
        assert c.values[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_matches_numpy_corrcoef(self, rng):
        values = rng.integers(0, 2, size=(200, 5))
        values[0] = 0
        values[1] = 1
        c = pearson(indicator_matrix(values))
        expect = np.corrcoef(values, rowvar=False)
        np.testing.assert_allclose(c.values, expect, atol=1e-12)

    def test_unit_diagonal_and_symmetry(self, rng):
        values = rng.integers(0, 2, size=(60, 4))
        values[0] = 0
        values[1] = 1
        c = pearson(indicator_matrix(values))
        np.testing.assert_allclose(np.diag(c.values), 1.0)
        np.testing.assert_array_equal(c.values, c.values.T)

    def test_extreme_marginals_match_numpy_corrcoef(self, rng):
        # a column with a single one and a column with a single zero: the
        # smallest and largest counts an indicator column may hold
        n = 80
        values = rng.integers(0, 2, size=(n, 4))
        values[0] = 0
        values[1] = 1
        values[:, 0] = 0
        values[17, 0] = 1
        values[:, 1] = 1
        values[17, 1] = 0
        values[:, 2] = 1
        values[40, 2] = 0
        assert values.sum(axis=0)[:3].tolist() == [1, n - 1, n - 1]
        c = pearson(indicator_matrix(values))
        np.testing.assert_allclose(c.values, np.corrcoef(values, rowvar=False), atol=1e-12)

    def test_traced_peak_stays_bounded(self, rng):
        # centring float64 copies of a 200000x50 input peaks near 230 MB
        ind = indicator_matrix(rng.integers(0, 2, size=(200_000, 50), dtype=np.uint8))
        tracemalloc.start()
        try:
            pearson(ind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestTetrachoric:
    def test_recovers_rho_from_population_tables(self):
        # expected counts at n = 1e6 pin the ML estimate near the truth
        for rho in (-0.5, 0.0, 0.5, 0.7):
            for p_x, p_y in [(0.5, 0.5), (0.25, 0.25), (0.25, 0.5)]:
                table = quadrant_table(rho, p_x, p_y)
                est = tetrachoric_from_table(table)
                assert est == pytest.approx(rho, abs=2e-3), (rho, p_x, p_y)

    def test_independence_is_zero(self):
        est = tetrachoric_from_table(np.array([[2500, 2500], [2500, 2500]]))
        assert est == pytest.approx(0.0, abs=1e-6)

    def test_zero_cell_smoothing_keeps_estimate_finite(self):
        est = tetrachoric_from_table(np.array([[50, 0], [0, 50]]))
        assert 0.9 <= est <= RHO_BOUND

    def test_invalid_table_raises(self):
        with pytest.raises(EstimationError):
            tetrachoric_from_table(np.array([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(EstimationError):
            tetrachoric_from_table(np.array([[-1, 2], [3, 4]]))

    def test_matrix_kind_and_diagonal(self, rng):
        latent = rng.multivariate_normal(
            np.zeros(3), [[1, 0.5, 0.3], [0.5, 1, 0.3], [0.3, 0.3, 1]], size=2000
        )
        values = (latent > 0).astype(np.uint8)
        values[0] = 0
        values[1] = 1
        c = tetrachoric(indicator_matrix(values))
        assert c.kind == TETRACHORIC
        np.testing.assert_allclose(np.diag(c.values), 1.0)
        assert abs(c.values[0, 1] - 0.5) < 0.08

    def test_matrix_matches_per_pair_counted_tables(self, rng):
        values = (rng.random((300, 4)) < [0.2, 0.4, 0.5, 0.7]).astype(np.uint8)
        values[0] = 0
        values[1] = 1
        c = tetrachoric(indicator_matrix(values))
        for i in range(4):
            for j in range(i + 1, 4):
                x, y = values[:, i] == 1, values[:, j] == 1
                table = [[np.sum(x & y), np.sum(x & ~y)], [np.sum(~x & y), np.sum(~x & ~y)]]
                assert c.values[i, j] == c.values[j, i] == tetrachoric_from_table(table, (i, j))

    def test_root_solves_saturated_likelihood(self, rng):
        # at an interior estimate, Phi2 at the fitted margins reproduces the
        # continuity-corrected n11 / N
        oracle = quadrature_oracle()
        for _ in range(20):
            t = rng.integers(0, 80, size=(2, 2)).astype(float)
            est = tetrachoric_from_table(t)
            if abs(est) == RHO_BOUND:
                continue
            if (t == 0).any():
                t = t + 0.5
            total = t.sum()
            h = ndtri(1.0 - (t[0, 0] + t[0, 1]) / total)
            k = ndtri(1.0 - (t[0, 0] + t[1, 0]) / total)
            assert oracle(h, k, est) == pytest.approx(t[0, 0] / total, abs=1e-10), t
        # a rare column, 1 one in 200000 rows: the target n11 / N is 7.5e-6,
        # so hold the root to a relative tolerance
        est = tetrachoric_from_table(np.array([[1.0, 0.0], [3000.0, 196999.0]]))
        assert abs(est) < RHO_BOUND
        t = np.array([[1.5, 0.5], [3000.5, 196999.5]])
        total = t.sum()
        h = ndtri(1.0 - (t[0, 0] + t[0, 1]) / total)
        k = ndtri(1.0 - (t[0, 0] + t[1, 0]) / total)
        assert oracle(h, k, est) == pytest.approx(t[0, 0] / total, rel=1e-9, abs=0.0)

    def test_target_past_bound_returns_bound_exactly(self):
        # corrected [[50.5, 0.5], [0.5, 50.5]]: n11 / N = 0.495 beats Phi2(0, 0, 0.999)
        oracle = quadrature_oracle()
        assert oracle(0.0, 0.0, RHO_BOUND) < 50.5 / 102
        assert tetrachoric_from_table(np.array([[50, 0], [0, 50]])) == RHO_BOUND
        assert tetrachoric_from_table(np.array([[0, 50], [50, 0]])) == -RHO_BOUND

    def test_estimation_error_names_pair(self):
        with pytest.raises(EstimationError, match=r"pair \(2, 5\): invalid") as err:
            tetrachoric_from_table(np.array([[-1, 2], [3, 4]]), (2, 5))
        assert err.value.pair == (2, 5)
        with pytest.raises(EstimationError, match="degenerate marginal"):
            tetrachoric_from_table(np.array([[np.nan, 2], [3, 4]]))

    def test_estimate_monotone_in_concordance(self):
        weak = tetrachoric_from_table(np.array([[30, 20], [20, 30]]))
        strong = tetrachoric_from_table(np.array([[45, 5], [5, 45]]))
        assert strong > weak > 0


class TestRepairPd:
    def test_already_pd_untouched(self):
        values = np.array([[1.0, 0.3], [0.3, 1.0]])
        c = CorrelationMatrix(values=values, kind=PEARSON)
        out = repair_pd(c)
        assert not out.pd_repaired
        np.testing.assert_array_equal(out.values, values)

    def test_indefinite_matrix_repaired(self):
        # r12 = r13 = 0.9, r23 = -0.9 is far from PD
        values = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        c = CorrelationMatrix(values=values, kind=TETRACHORIC)
        out = repair_pd(c)
        assert out.pd_repaired
        assert out.min_eigenvalue_before_repair < 0
        eig = np.linalg.eigvalsh(out.values)
        assert eig.min() >= MIN_EIGENVALUE - 1e-9
        np.testing.assert_allclose(np.diag(out.values), 1.0, atol=1e-12)

    def test_repair_is_idempotent(self):
        values = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        once = repair_pd(CorrelationMatrix(values=values, kind=PEARSON))
        twice = repair_pd(CorrelationMatrix(values=once.values, kind=PEARSON))
        assert not twice.pd_repaired
        np.testing.assert_array_equal(once.values, twice.values)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_repair_output_always_usable(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(k, k))
        values = (a + a.T) / 2
        np.fill_diagonal(values, 1.0)
        out = repair_pd(CorrelationMatrix(values=values, kind=PEARSON))
        eig = np.linalg.eigvalsh(out.values)
        assert eig.min() >= MIN_EIGENVALUE - 1e-9
        np.testing.assert_allclose(np.diag(out.values), 1.0, atol=1e-9)
        assert np.all(np.abs(out.values) <= 1.0 + 1e-9)

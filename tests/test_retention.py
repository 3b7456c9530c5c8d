import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misscomp import indicators, retention
from misscomp.retention import (
    CRITERIA,
    EKC,
    KAISER,
    PARALLEL,
    PROFILE_LIKELIHOOD,
    PL_VARIANCE_FLOOR,
    RetentionDecision,
    ekc,
    guidance,
    kaiser,
    parallel_analysis,
    profile_likelihood,
    profile_loglik_curve,
)
from test_correlation import indicator_matrix


def brute_force_split(eigenvalues):
    """Independent oracle: evaluate the two-group normal likelihood at every q."""
    e = np.asarray(eigenvalues, dtype=np.float64)
    k = len(e)
    best_q, best_ll = None, -np.inf
    for q in range(1, k):
        head, tail = e[:q], e[q:]
        ss = ((head - head.mean()) ** 2).sum() + ((tail - tail.mean()) ** 2).sum()
        var = max(ss / k, PL_VARIANCE_FLOOR)
        ll = -0.5 * k * np.log(2.0 * np.pi * var) - 0.5 * ss / var
        if ll > best_ll:
            best_q, best_ll = q, ll
    return best_q


class TestKaiser:
    def test_known_answers(self):
        assert kaiser(np.array([2.5, 1.2, 0.8, 0.5])).k_retained == 2
        assert kaiser(np.array([1.0, 1.0, 1.0])).k_retained == 0
        assert kaiser(np.array([2.4, 0.3, 0.3])).k_retained == 1

    def test_strict_inequality(self):
        assert kaiser(np.array([1.0 + 1e-12, 1.0])).k_retained == 1

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            kaiser(np.array([1.0, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=6),
    )
    def test_appending_small_eigenvalues_never_changes_count(self, big, small):
        spectrum = np.sort(np.asarray(big))[::-1]
        base = kaiser(spectrum).k_retained
        extended = np.concatenate([spectrum, np.sort(np.asarray(small))[::-1]])
        if np.all(np.diff(extended) <= 0):
            assert kaiser(extended).k_retained == base


class TestEkc:
    def test_flat_spectrum_reference(self):
        # first reference is the rescaled Marchenko-Pastur edge
        k, n = 5, 100
        decision = ekc(np.ones(k), n=n, k=k)
        edge = (1.0 + np.sqrt(k / n)) ** 2
        assert decision.diagnostics[0] == pytest.approx(edge)
        assert decision.k_retained == 0

    def test_reference_floor_is_kaiser(self):
        # huge n makes the edge 1: EKC collapses to Kaiser
        e = np.array([2.5, 1.2, 0.8, 0.5])
        decision = ekc(e, n=10**12, k=4)
        np.testing.assert_allclose(decision.diagnostics, 1.0, atol=1e-5)
        assert decision.k_retained == kaiser(e).k_retained

    def test_frozen_reference_recursion(self):
        # refs computed by hand from the recursion at n=100, k=4
        e = np.array([2.0, 1.1, 0.6, 0.3])
        n, k = 100, 4
        edge = (1.0 + np.sqrt(k / n)) ** 2
        expect = []
        for j in range(k):
            rest = k - e[:j].sum()
            expect.append(max(edge * rest / (k - j), 1.0))
        decision = ekc(e, n=n, k=k)
        np.testing.assert_allclose(decision.diagnostics, expect, atol=1e-12)

    def test_consecutive_stopping(self):
        # a failing middle position blocks later successes
        e = np.array([4.0, 0.9, 2.0, 0.1])
        e = np.sort(e)[::-1]  # 4.0, 2.0, 0.9, 0.1
        decision = ekc(e, n=50, k=4)
        first_fail = next(
            j for j, (ev, ref) in enumerate(zip(e, decision.diagnostics)) if ev <= ref
        )
        assert decision.k_retained == first_fail

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=8.0), min_size=2, max_size=10),
        st.integers(min_value=10, max_value=5000),
    )
    def test_never_exceeds_kaiser(self, values, n):
        e = np.sort(np.asarray(values))[::-1]
        assert ekc(e, n=n, k=len(e)).k_retained <= kaiser(e).k_retained


class TestProfileLikelihood:
    def test_dominant_first_eigenvalue(self):
        assert profile_likelihood(np.array([10.0, 1.0, 1.0, 1.0, 1.0])).k_retained == 1

    def test_all_equal_ties_to_one(self):
        assert profile_likelihood(np.ones(6)).k_retained == 1

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 12))
            e = np.sort(rng.exponential(1.0, size=k))[::-1]
            assert profile_likelihood(e).k_retained == brute_force_split(e)

    def test_curve_length_and_argmax(self):
        e = np.array([5.0, 4.0, 1.0, 0.9, 0.8])
        curve = profile_loglik_curve(e)
        assert curve.shape == (4,)
        decision = profile_likelihood(e)
        assert decision.k_retained == int(np.argmax(curve)) + 1
        np.testing.assert_allclose(decision.diagnostics, curve)

    def test_clear_gap_detected(self):
        assert profile_likelihood(np.array([8.0, 7.5, 0.4, 0.3, 0.2, 0.1])).k_retained == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=50.0),
            min_size=2,
            max_size=10,
        ),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance(self, values, factor):
        e = np.sort(np.asarray(values))[::-1]
        assert (
            profile_likelihood(e).k_retained
            == profile_likelihood(e * factor).k_retained
        )

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            profile_likelihood(np.array([1.0]))


class TestParallelAnalysis:
    def _noise_indicators(self, rng, n=1000, k=6, p=0.3):
        values = (rng.random((n, k)) < p).astype(np.uint8)
        values[0] = 0
        values[1] = 1
        return indicator_matrix(values)

    def test_independent_noise_retains_nothing(self, rng):
        # under the null the observed spectrum should not clear the 95th
        # percentile references; allow a small failure margin over runs
        from misscomp.correlation import pearson
        from misscomp.extraction import pca

        zero = 0
        runs = 40
        for r in range(runs):
            ind = self._noise_indicators(np.random.default_rng(1000 + r))
            e = pca(pearson(ind)).eigenvalues
            decision = parallel_analysis(ind, e, seed=r)
            if decision.k_retained == 0:
                zero += 1
        assert zero >= 0.9 * runs

    def test_deterministic_for_fixed_seed(self, rng):
        from misscomp.correlation import pearson
        from misscomp.extraction import pca

        ind = self._noise_indicators(rng, n=200)
        e = pca(pearson(ind)).eigenvalues
        a = parallel_analysis(ind, e, seed=99)
        b = parallel_analysis(ind, e, seed=99)
        assert a.k_retained == b.k_retained
        np.testing.assert_array_equal(a.diagnostics, b.diagnostics)

    def test_single_rep_reference_is_that_permutation(self, rng):
        from misscomp.correlation import pearson
        from misscomp.extraction import pca

        ind = self._noise_indicators(rng, n=150, k=4)
        e = pca(pearson(ind)).eigenvalues
        a = parallel_analysis(ind, e, reps=1, percentile=0.95, seed=7)
        b = parallel_analysis(ind, e, reps=1, percentile=0.05, seed=7)
        # with one draw every percentile reads the same curve
        np.testing.assert_allclose(a.diagnostics, b.diagnostics)

    def test_structure_is_retained(self, rng):
        # one strong component must clear the permutation reference
        from misscomp.correlation import pearson
        from misscomp.extraction import pca
        from misscomp.simulation import SimCondition, generate

        ind = generate(SimCondition(1, 5, 1000, 0.25), seed=5)
        e = pca(pearson(ind)).eigenvalues
        decision = parallel_analysis(ind, e, seed=11)
        assert decision.k_retained == 1
        assert decision.converged


def null_keys(ind, reps, seed):
    """The null's keys redrawn: one uniform per (replication, column, row)."""
    return np.random.default_rng(seed).random((reps, ind.k, ind.n))


def placed_copies(ind, keys):
    """Each replication's (n, k) 0/1 copy: column j's ones at its m_j smallest keys.

    Rows are ranked with a stable ``argsort``, never ``partition``, so a tie
    goes to the earlier row.
    """
    m = ind.values.sum(axis=0)
    for rep in keys:
        x = np.zeros((ind.n, ind.k), dtype=np.uint8)
        for j in range(ind.k):
            x[np.argsort(rep[j], kind="stable")[: m[j]], j] = 1
        yield x


def reference_null(ind, reps, seed):
    """Independent oracle: centre and normalise each permuted copy in float64."""
    out = np.empty((reps, ind.k))
    for r, x in enumerate(placed_copies(ind, null_keys(ind, reps, seed))):
        x = x.astype(np.float64)
        z = x - x.mean(axis=0)
        norms = np.sqrt((z * z).sum(axis=0))
        out[r] = np.linalg.eigvalsh((z.T @ z) / np.outer(norms, norms))[::-1]
    return out


def stream_null(ind, keys):
    """Stream oracle: the null of the copies the keys place, in the other layout.

    It places the ones by sorting, not partitioning, and counts
    co-occurrences of each (n, k) uint8 copy with ``indicators.cooccurrence``
    (float64 row chunks), in the layout and item size ``_permutation_null``
    does not use, so bit-for-bit equality shows that the null depends on
    none of them.
    """
    n = ind.n
    m = ind.values.sum(axis=0, dtype=np.float64)
    s = np.sqrt(n * m - m * m)
    out = np.empty((len(keys), ind.k))
    for r, x in enumerate(placed_copies(ind, keys)):
        corr = (indicators.cooccurrence(x) * n - np.outer(m, m)) / np.outer(s, s)
        out[r] = np.linalg.eigvalsh(corr)[::-1]
    return out


class CoarseKeys:
    """A generator whose keys are multiples of 1/8, so rows tie at their thresholds."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def random(self, out):
        self.rng.random(out=out)
        np.floor(out * 8, out=out)
        out /= 8
        return out


class TestPermutationNull:
    def _indicators(self, rng, n, k):
        values = (rng.random((n, k)) < rng.uniform(0.05, 0.6, size=k)).astype(np.uint8)
        values[0] = 0
        values[1] = 1
        return indicator_matrix(values)

    @pytest.mark.parametrize("n,k,reps", [(400, 2, 25), (150, 6, 1), (900, 15, 40)])
    def test_matches_float64_reference(self, rng, n, k, reps):
        ind = self._indicators(rng, n, k)
        np.testing.assert_allclose(
            retention._permutation_null(ind, reps, seed=5),
            reference_null(ind, reps, seed=5),
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.parametrize("n,k,reps", [(400, 2, 25), (1000, 100, 3), (20000, 30, 2)])
    def test_keeps_the_stream_bit_for_bit(self, rng, n, k, reps):
        ind = self._indicators(rng, n, k)
        np.testing.assert_array_equal(
            retention._permutation_null(ind, reps, seed=8),
            stream_null(ind, null_keys(ind, reps, seed=8)),
        )

    @pytest.mark.parametrize("cap", [50, 20_000])
    def test_small_caps_split_replications_into_blocks(self, rng, monkeypatch, cap):
        # 50 entries: one replication per block and one padded row per
        # chunk; 20000: six blocks of two replications each, in chunks
        ind = self._indicators(rng, 1000, 8)
        default = retention._permutation_null(ind, 12, seed=3)
        monkeypatch.setattr(retention, "SCRATCH_ENTRIES", cap)
        np.testing.assert_array_equal(retention._permutation_null(ind, 12, seed=3), default)

    def test_single_ones_coincide_a_quarter_of_the_time(self):
        # two columns with one 1 each among 4 rows share their row with
        # probability 1/4: r = 1 gives eigenvalues (2, 0), otherwise
        # r = -1/3 gives (4/3, 2/3)
        values = np.zeros((4, 2), dtype=np.uint8)
        values[0, 0] = values[1, 1] = 1
        reps = 4000
        spectra = retention._permutation_null(indicator_matrix(values), reps, seed=6)
        together = np.isclose(spectra, [2.0, 0.0], atol=1e-12).all(axis=1)
        apart = np.isclose(spectra, [4 / 3, 2 / 3], atol=1e-12).all(axis=1)
        assert (together | apart).all()
        sd = np.sqrt(0.25 * 0.75 / reps)
        assert abs(together.mean() - 0.25) <= 4 * sd

    def test_ties_at_the_threshold_keep_every_count(self, rng, monkeypatch):
        # keys on a grid of 1/8 tie at nearly every threshold; each row must
        # still hold exactly m_j ones, placed by the stable order of its keys
        ind = self._indicators(rng, 300, 7)
        diagonals = []

        def recording_phi(counts, n):
            diagonals.append(np.diagonal(counts, axis1=-2, axis2=-1).copy())
            return indicators.phi(counts, n)

        monkeypatch.setattr(retention, "phi", recording_phi)
        monkeypatch.setattr(retention.np.random, "default_rng", CoarseKeys)
        got = retention._permutation_null(ind, 20, seed=4)
        m = ind.values.sum(axis=0)
        assert diagonals
        for diagonal in diagonals:
            assert (diagonal == m).all()
        keys = CoarseKeys(4).random(np.empty((20, ind.k, ind.n)))
        np.testing.assert_array_equal(got, stream_null(ind, keys))

    def test_extreme_marginals_give_a_finite_null(self):
        # a column with a single one and a column with a single zero: the
        # smallest and largest counts an indicator column may hold
        n = 60
        values = np.zeros((n, 3), dtype=np.uint8)
        values[7, 0] = 1
        values[:, 1] = 1
        values[30, 1] = 0
        values[::3, 2] = 1
        ind = indicator_matrix(values)
        assert ind.values.sum(axis=0).tolist() == [1, n - 1, n // 3]
        assert np.isfinite(retention._permutation_null(ind, 25, seed=2)).all()
        e = np.array([1.2, 1.0, 0.8])
        decision = parallel_analysis(ind, e, reps=25, seed=2)
        assert decision.converged
        assert np.isfinite(decision.diagnostics).all()

    def _traced_peak(self, ind, reps):
        tracemalloc.start()
        try:
            retention._permutation_null(ind, reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scratch_does_not_grow_with_reps(self, rng):
        # a float64 block of all 100 permuted copies would be 80 MB
        ind = self._indicators(rng, 5000, 20)
        assert self._traced_peak(ind, 100) < 16 * 2**20

    def test_scratch_is_one_key_block_and_a_chunk(self, rng):
        # one replication's float64 keys plus a partition chunk of at most
        # SCRATCH_ENTRIES entries (1 MB)
        n, k = 5000, 20
        ind = self._indicators(rng, n, k)
        assert self._traced_peak(ind, 100) <= 8 * n * k + 2 * 2**20


class TestGuidance:
    def test_default_is_parallel(self):
        assert guidance(1000, 10, 10) == PARALLEL
        assert guidance(5000, 3, 1) == PARALLEL
        assert guidance(100, 3, 10) == PARALLEL  # too few items per component
        assert guidance(100, 10, 2) == PARALLEL  # too few components

    def test_dense_small_sample_branch(self):
        assert guidance(250, 5, 3) == EKC
        assert guidance(999, 10, 5) == EKC
        assert guidance(100, 5, 3) == KAISER
        assert guidance(249, 5, 3) == KAISER

    def test_boundaries(self):
        assert guidance(1000, 5, 3) == PARALLEL  # n >= 1000 exits the branch
        assert guidance(250, 4, 3) == PARALLEL
        assert guidance(250, 5, 2) == PARALLEL

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            guidance(0, 5, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10000),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=20),
    )
    def test_totality(self, n, ipc, comps):
        assert guidance(n, ipc, comps) in CRITERIA


def test_decision_fields():
    d = kaiser(np.array([2.0, 0.5]))
    assert isinstance(d, RetentionDecision)
    assert d.criterion == KAISER
    assert d.converged
    assert d.k_retained <= 2

import csv

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from misscomp import simulation
from misscomp.correlation import PEARSON, TETRACHORIC
from misscomp.extraction import PAF, PCA
from misscomp.indicators import Dataset, build_indicators, tabulate_patterns
from misscomp.pipeline import RunConfig, analyze
from misscomp.retention import CRITERIA, EKC, KAISER, PARALLEL, PROFILE_LIKELIHOOD
from misscomp.simulation import (
    BETWEEN_CORR,
    GRID_COMPONENTS,
    GRID_ITEMS,
    GRID_N,
    GRID_P_MISS,
    SUCCESS_THRESHOLD,
    WITHIN_CORR,
    CellResult,
    SimCondition,
    block_sigma,
    full_grid,
    generate,
    run_condition,
    run_grid,
    sample_latent,
)


class TestCondition:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimCondition(0, 3, 100, 0.25)
        with pytest.raises(ValueError):
            SimCondition(1, 3, 100, 0.0)
        with pytest.raises(ValueError):
            SimCondition(1, 3, 100, 1.0)
        with pytest.raises(ValueError):
            SimCondition(1, 3, 100, 0.25, corr_kind="spearman")

    def test_k(self):
        assert SimCondition(3, 5, 100, 0.25).k == 15

    def test_keys_unique_over_grid(self):
        keys = {c.key() for c in full_grid()} | {
            c.key() for c in full_grid(TETRACHORIC, PAF)
        }
        assert len(keys) == 216


class TestGenerator:
    def test_block_sigma_layout(self):
        sigma = block_sigma(2, 3)
        assert sigma.shape == (6, 6)
        np.testing.assert_allclose(np.diag(sigma), 1.0)
        assert sigma[0, 1] == WITHIN_CORR
        assert sigma[0, 3] == BETWEEN_CORR
        np.testing.assert_array_equal(sigma, sigma.T)

    def test_latent_moments_large_sample(self):
        # generator correctness pinned at n = 100,000
        cond = SimCondition(2, 3, 100_000, 0.25)
        latent = sample_latent(cond, np.random.default_rng(123))
        sample = np.corrcoef(latent, rowvar=False)
        assert np.max(np.abs(sample - block_sigma(2, 3))) < 0.02
        np.testing.assert_allclose(latent.mean(axis=0), 0.0, atol=0.02)

    def test_indicator_marginals_match_missing_rate(self):
        for p_miss in (0.1, 0.25, 0.5):
            cond = SimCondition(1, 5, 100_000, p_miss)
            ind = generate(cond, seed=99)
            np.testing.assert_allclose(ind.marginals, p_miss, atol=0.005)

    def test_indicator_phi_attenuates_latent_correlation(self):
        # dichotomized variables correlate less than their latents
        cond = SimCondition(1, 2, 100_000, 0.5)
        ind = generate(cond, seed=7)
        phi = np.corrcoef(ind.values, rowvar=False)[0, 1]
        assert 0.3 < phi < WITHIN_CORR

    def test_generate_deterministic(self):
        cond = SimCondition(3, 3, 200, 0.25)
        a = generate(cond, seed=5)
        b = generate(cond, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_generated_indicators_tabulate(self):
        table = tabulate_patterns(generate(SimCondition(3, 5, 250, 0.25), seed=3))
        assert sum(r.count for r in table.rows) == 250

    @pytest.mark.parametrize(
        "cond, seed, dropped",
        [
            (SimCondition(3, 5, 250, 0.25), 3, []),
            (SimCondition(1, 3, 5, 0.1), 0, [("v3", "all cells observed")]),
            (SimCondition(1, 3, 5, 0.9), 1, [("v2", "all cells missing"), ("v3", "all cells missing")]),
        ],
    )
    def test_build_indicators_on_the_generated_mask_matches_generate(self, cond, seed, dropped):
        ind = generate(cond, seed)
        assert ind.dropped_columns == dropped
        # every column's mask, dropped ones included, redrawn from generate's stream
        z = sample_latent(cond, np.random.default_rng(np.random.SeedSequence(seed)))
        mask = z > ndtri(1.0 - cond.p_miss)
        names = [f"v{j + 1:0{len(str(cond.k))}d}" for j in range(cond.k)]
        data = Dataset(names, [np.where(m, np.nan, 0.0) for m in mask.T], [None] * cond.k)
        built = build_indicators(data)
        np.testing.assert_array_equal(built.values, ind.values)
        assert built.column_names == ind.column_names
        assert built.source_columns == ind.source_columns
        assert built.dropped_columns == ind.dropped_columns


class TestRunCondition:
    def test_easy_cell_all_criteria_correct(self):
        cell = run_condition(SimCondition(1, 5, 1000, 0.25), reps=10, seed=3)
        assert cell.replications_run == 10
        for crit in CRITERIA:
            assert cell.converged[crit] == 10
            assert cell.proportion(crit) == 1.0
            assert cell.success(crit)

    def test_success_threshold_exact(self):
        cell = CellResult(
            condition=SimCondition(1, 3, 100, 0.25),
            replications_run=100,
            converged={c: 100 for c in CRITERIA},
            correct={c: 95 for c in CRITERIA},
        )
        assert SUCCESS_THRESHOLD == 0.95
        assert all(cell.success(c) for c in CRITERIA)
        cell.correct = {c: 94 for c in CRITERIA}
        assert not any(cell.success(c) for c in CRITERIA)

    def test_bookkeeping_converged_plus_failed(self):
        # extreme sparsity at tiny n forces degenerate indicator columns
        cell = run_condition(SimCondition(1, 3, 30, 0.1), reps=40, seed=11)
        for crit in CRITERIA:
            assert 0 <= cell.converged[crit] <= 40
            assert cell.correct[crit] <= cell.converged[crit]

    def test_determinism(self):
        cond = SimCondition(3, 3, 150, 0.25)
        a = run_condition(cond, reps=8, seed=42)
        b = run_condition(cond, reps=8, seed=42)
        assert a.converged == b.converged
        assert a.correct == b.correct


    def test_tetrachoric_paf_decisions_pinned(self):
        # the criteria read the SMC-reduced spectrum here; the PAF spectrum
        # at the planted count gave these same counts
        cond = SimCondition(3, 5, 250, 0.25, TETRACHORIC, PAF)
        cell = run_condition(cond, reps=15, seed=11)
        assert cell.converged == {c: 15 for c in CRITERIA}
        assert cell.correct == {KAISER: 15, EKC: 15, PARALLEL: 15, PROFILE_LIKELIHOOD: 2}

    def test_pearson_paf_decisions_pinned(self):
        # recorded on the SMC-reduced spectrum; the PAF spectrum at the
        # planted count gave parallel 18 and profile likelihood 17
        cond = SimCondition(3, 5, 1000, 0.1, PEARSON, PAF)
        cell = run_condition(cond, reps=20, seed=5)
        assert cell.converged == {c: 20 for c in CRITERIA}
        assert cell.correct == {KAISER: 20, EKC: 20, PARALLEL: 14, PROFILE_LIKELIHOOD: 16}


@pytest.mark.parametrize(
    "cond, seed, rep",
    [
        (SimCondition(3, 5, 1000, 0.1, PEARSON, PAF), 5, 10),
        (SimCondition(3, 5, 250, 0.25, TETRACHORIC, PAF), 11, 5),
    ],
)
def test_analyze_reaches_the_replication_decisions(cond, seed, rep, tmp_path):
    # one replication, streams spawned as run_condition spawns them, written
    # out as missing cells and analyzed with its parallel-analysis seed
    gen_ss, pa_ss = np.random.SeedSequence((seed, *cond.key(), rep)).spawn(2)
    pa_seed = int(pa_ss.generate_state(1, np.uint64)[0])
    ind = simulation._indicators_from_latent(cond, np.random.default_rng(gen_ss))
    want = simulation._replication_decisions(cond, np.random.default_rng(gen_ss), pa_seed)
    path = tmp_path / "replication.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ind.source_columns)
        w.writerows([["" if v else "1" for v in row] for row in ind.values])
    result = analyze(
        RunConfig(
            input_path=path,
            output_dir=tmp_path,
            seed=pa_seed,
            correlation_kind=cond.corr_kind,
            extraction_method=cond.method,
        )
    )
    np.testing.assert_array_equal(result.ind.values, ind.values)
    got = {c: d.k_retained for c, d in result.decisions.items()}
    assert got == {c: d.k_retained for c, d in want.items()}

class TestRunGrid:
    def test_worker_count_invariance(self):
        conds = [
            SimCondition(1, 3, 120, 0.25),
            SimCondition(1, 5, 120, 0.5),
            SimCondition(3, 3, 120, 0.25),
        ]
        serial = run_grid(conds, reps=6, seed=9, workers=1)
        parallel = run_grid(conds, reps=6, seed=9, workers=3)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.condition == b.condition
            assert a.converged == b.converged
            assert a.correct == b.correct
        assert serial.aggregate() == parallel.aggregate()

    def test_single_condition_aggregate_is_cell_proportion(self):
        report = run_grid([SimCondition(1, 5, 500, 0.25)], reps=6, seed=1)
        agg = report.aggregate()
        cell = report.cells[0]
        for crit in CRITERIA:
            assert agg[crit]["mean_proportion_correct"] == cell.proportion(crit)
            assert agg[crit]["n_cells"] == 1

    def test_full_grid_shape_and_order(self):
        grid = full_grid()
        assert len(grid) == 108
        assert grid[0] == SimCondition(
            GRID_COMPONENTS[0], GRID_ITEMS[0], GRID_N[0], GRID_P_MISS[0]
        )
        # p_miss varies fastest, components slowest
        assert grid[1].p_miss == GRID_P_MISS[1]
        assert grid[-1] == SimCondition(10, 10, 1000, 0.50)
        assert all(c.corr_kind == PEARSON and c.method == PCA for c in grid)

    def test_full_grid_other_pipelines(self):
        grid = full_grid(TETRACHORIC, PAF)
        assert all(c.corr_kind == TETRACHORIC and c.method == PAF for c in grid)


def test_threshold_from_normal_quantile():
    # indicator cuts the latent at the upper p_miss tail
    cond = SimCondition(1, 3, 50_000, 0.25)
    rng = np.random.default_rng(17)
    latent = sample_latent(cond, rng)
    ind = generate(cond, seed=17)
    # recompute the same draw: the reported marginal matches the tail mass
    assert abs(ind.marginals.mean() - (1.0 - ndtr(0.6744897501960817))) < 0.01

"""End-to-end pipeline and CLI behavior on small synthetic inputs."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import misscomp
from misscomp import cli, pipeline
from misscomp.pipeline import (
    DEFAULT_SENTINELS,
    IngestError,
    PipelineError,
    RunConfig,
    analyze,
    build_manifest,
    ingest,
    write_bundle,
)
from misscomp.correlation import TETRACHORIC
from misscomp.extraction import PAF
from misscomp.mechanism import fit_logistic, strata_levels
from misscomp.retention import CRITERIA

from conftest import indicator_dataset, reference_screen


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def with_columns(src, dest, **columns):
    """A copy of the CSV at ``src`` with columns appended, one cell per row."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    cells = zip(*columns.values())
    return write_csv(dest, header + list(columns), [row + list(c) for row, c in zip(rows, cells)])


@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    """One dominant component across five items, 25% missing each, with a
    complete numeric covariate and a two-level stratum column."""
    rng = np.random.default_rng(7)
    n, k = 400, 5
    sigma = np.full((k, k), 0.7)
    np.fill_diagonal(sigma, 1.0)
    latent = rng.multivariate_normal(np.zeros(k), sigma, size=n)
    miss = latent > stats.norm.ppf(1 - 0.25)
    values = rng.normal(50.0, 10.0, size=(n, k))
    age = rng.normal(40.0, 5.0, size=n)
    site = rng.choice(["a", "b"], size=n)
    path = tmp_path_factory.mktemp("data") / "survey.csv"
    rows = []
    for i in range(n):
        row = ["" if miss[i, j] else f"{values[i, j]:.2f}" for j in range(k)]
        row += [f"{age[i]:.1f}", site[i]]
        rows.append(row)
    return write_csv(path, [f"item{j + 1}" for j in range(k)] + ["age", "site"], rows)


@pytest.fixture
def independent_csv(tmp_path):
    """Two exactly independent indicators: identity correlation, so the
    Kaiser rule retains nothing."""
    return write_csv(
        tmp_path / "flat.csv",
        ["y1", "y2"],
        [["1", "2"], ["3", ""], ["", "4"], ["", ""]],
    )


class TestIngest:
    def test_default_sentinels(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b"], [["1", "x"], ["NA", "."], ["3", "y"]])
        data = ingest(path)
        a = data.column("a")
        assert a[0] == 1.0 and np.isnan(a[1]) and a[2] == 3.0
        b = data.column("b")
        assert b[0] == "x" and b[1] is None and b[2] == "y"
        assert data.kind("a") == "numeric"
        assert data.kind("b") == "categorical"

    def test_custom_sentinels(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a"], [["-999"], ["2"]])
        data = ingest(path, sentinels=("-999",))
        a = data.column("a")
        assert np.isnan(a[0]) and a[1] == 2.0

    def test_bare_string_sentinels_are_an_ingest_error(self, tmp_path):
        # read one character at a time, "NA" would make the sentinels N and A
        rows = [["1", "x", "NA"], ["", "y", "2"], ["3", "", "4"], ["5", "N", ""]]
        path = write_csv(tmp_path / "s.csv", ["a", "b", "c"], rows)
        with pytest.raises(IngestError, match=r"^sentinels must be a sequence of strings, not the string 'NA'$"):
            ingest(path, "NA")

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("a;b\n1;2\n")
        data = ingest(path, delimiter=";")
        assert data.column_names == ["a", "b"]
        assert data.column("b")[0] == 2.0

    def test_numeric_threshold_exactly_met(self, tmp_path):
        cells = [[str(i)] for i in range(9)] + [["junk"]]
        data = ingest(write_csv(tmp_path / "d.csv", ["a"], cells))
        # 9 of 10 parse: still numeric, the straggler becomes missing
        assert data.kind("a") == "numeric"
        assert np.isnan(data.column("a")[9])

    def test_coerced_token_is_counted(self, tmp_path):
        cells = [[str(i), "x"] for i in range(18)] + [["abc", "y"], ["NA", "z"]]
        data = ingest(write_csv(tmp_path / "d.csv", ["a", "b"], cells))
        assert data.kind("a") == "numeric" and np.isnan(data.column("a")[18])
        # the sentinel is missing by declaration, not by coercion
        assert data.coerced == {"a": 1}

    def test_numeric_threshold_missed(self, tmp_path):
        cells = [[str(i)] for i in range(8)] + [["junk"], ["junk"]]
        data = ingest(write_csv(tmp_path / "d.csv", ["a"], cells))
        assert data.kind("a") == "categorical"
        assert data.column("a")[0] == "0"

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_token_in_numeric_column_rejected(self, tmp_path, token):
        path = write_csv(tmp_path / "d.csv", ["a", "b"], [["1", "x"], ["2", "y"], [token, "z"]])
        with pytest.raises(IngestError, match=rf"column 'a' row 4 .*'{token}'"):
            ingest(path)

    def test_non_finite_sentinel_reads_as_missing(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a"], [["1"], ["2"], ["nan"]])
        a = ingest(path, sentinels=("", "nan")).column("a")
        assert a[1] == 2.0 and np.isnan(a[2])

    def test_text_column_keeps_nan_token(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a"], [["red"], ["blue"], ["nan"]])
        data = ingest(path)
        assert data.kind("a") == "categorical"
        assert data.column("a")[2] == "nan"

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(IngestError, match="row 3"):
            ingest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="no header"):
            ingest(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path)

    def test_blank_header_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,\n1,2\n")
        with pytest.raises(IngestError, match="empty column name"):
            ingest(path)

    def test_byte_order_mark_stays_out_of_header(self, tmp_path, synthetic_csv):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + synthetic_csv.read_bytes())
        data = ingest(path)
        assert data.column_names[0] == "item1"
        result = analyze(
            RunConfig(input_path=path, seed=3, columns=["item1", "item2", "item3"])
        )
        assert result.ind.source_columns == ["item1", "item2", "item3"]

    def test_undecodable_file_reports_ingest_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\ncafé,1\n".encode("latin-1"))
        with pytest.raises(IngestError, match="cannot read"):
            ingest(path)

    @pytest.mark.parametrize("separator", ["\u0085", "\u2028"])
    def test_unicode_line_separator_stays_in_its_cell(self, tmp_path, separator):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,x{separator}y\n2,z\n", encoding="utf-8")
        data = ingest(path)
        assert data.n == 2
        assert data.column("b").tolist() == [f"x{separator}y", "z"]

    def test_quoted_newline_is_kept(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,b\n1,"x\ny"\n2,z\n', encoding="utf-8")
        assert ingest(path).column("b").tolist() == ["x\ny", "z"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest(tmp_path / "nope.csv")

    @pytest.mark.parametrize("delimiter", [";;", "", "\n", "\r"])
    def test_bad_delimiter_is_ingest_error(self, tmp_path, delimiter):
        path = write_csv(tmp_path / "d.csv", ["a"], [["1"]])
        with pytest.raises(IngestError, match="delimiter must be one character"):
            ingest(path, delimiter=delimiter)


def ingest_or_error(path, chunk_rows=None):
    """``ingest``'s dataset, or its IngestError's message; with ``chunk_rows``
    the chunk cap is set so that each chunk holds that many rows."""
    with open(path, newline="") as fh:
        width = len(next(csv.reader(fh)))
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            mp.setattr(pipeline, "SCRATCH_ENTRIES", chunk_rows * width)
        try:
            return ingest(path)
        except IngestError as exc:
            return str(exc)


def same_ingest(a, b):
    """Equal datasets, column dtypes and NaN positions included, or equal error messages."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (
        a.column_names == b.column_names
        and a.levels == b.levels
        and a.coerced == b.coerced
        and all(
            x.dtype == y.dtype and np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
            for x, y in zip(a.columns, b.columns)
        )
    )


@pytest.fixture(scope="module")
def survey_20k_csv(tmp_path_factory):
    """20000 rows of 30 float items with about 25% blanks, a numeric age and
    two categorical columns: the shape of the benchmark's survey."""
    rng = np.random.default_rng(5)
    n, k = 20000, 30
    values = np.char.mod("%.3f", rng.normal(10.0, 2.0, (n, k)))
    values[rng.random((n, k)) < 0.25] = ""
    age = rng.integers(18, 91, n).astype(str)
    site = rng.choice(["site_a", "site_b", "site_c", "site_d"], n)
    grp = rng.choice(["g1", "g2", "g3"], n)
    rows = np.column_stack([age, site, grp, values]).tolist()
    header = ["age", "site", "grp"] + [f"item{j + 1:02d}" for j in range(k)]
    return write_csv(tmp_path_factory.mktemp("survey") / "survey.csv", header, rows)


NUMBER_TOKENS = ["1", "2.5", "03", "-0", "1e3", " 4 ", "", "NA"]
OTHER_TOKENS = ["x", "y ", "inf", "nan"]


@st.composite
def small_tables(draw):
    """Columns of up to 12 cells: numbers and sentinels up to a drawn row,
    then text only, a mix, or numbers with a rare straggler."""
    n = draw(st.integers(min_value=0, max_value=12))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        split = draw(st.integers(min_value=0, max_value=n))
        tail = draw(st.sampled_from([OTHER_TOKENS, NUMBER_TOKENS + OTHER_TOKENS, NUMBER_TOKENS * 4 + ["x"]]))
        head = draw(st.lists(st.sampled_from(NUMBER_TOKENS), min_size=split, max_size=split))
        columns.append(head + draw(st.lists(st.sampled_from(tail), min_size=n - split, max_size=n - split)))
    return columns


class TestChunkedIngest:
    """A file that crosses several chunks reads exactly as in one chunk."""

    def check(self, path, rows=3):
        chunked, whole = ingest_or_error(path, rows), ingest_or_error(path)
        assert same_ingest(chunked, whole)
        return chunked

    def test_late_straggler_is_counted(self, tmp_path):
        cells = [[str(i), "x"] for i in range(11)] + [["abc", "y"]]
        data = self.check(write_csv(tmp_path / "d.csv", ["a", "b"], cells))
        assert data.kind("a") == "numeric" and np.isnan(data.column("a")[11])
        assert data.coerced == {"a": 1}

    def test_late_text_keeps_leading_tokens_verbatim(self, tmp_path):
        tokens = ["03", "1.50", " 7 ", "", "1e2", "03", "x", "y", "NA", "x", "z", "y"]
        cells = [[t, str(i)] for i, t in enumerate(tokens)]
        data = self.check(write_csv(tmp_path / "d.csv", ["a", "b"], cells))
        assert data.kind("a") == "categorical"
        assert data.codes("a")[1] == ["03", "1.50", "1e2", "7", "x", "y", "z"]
        assert data.column("a")[:3].tolist() == ["03", "1.50", "7"]

    def test_late_non_finite_reports_its_row(self, tmp_path):
        cells = [[str(i)] for i in range(10)] + [["inf"], ["11"]]
        path = write_csv(tmp_path / "d.csv", ["a"], cells)
        assert re.search(r"column 'a' row 12 .*'inf'", self.check(path))

    def test_late_ragged_row_reports_its_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "1,2\n" * 10 + "3\n4,5\n")
        assert "row 12 has 1 cells" in self.check(path)

    def test_earlier_column_in_header_is_named(self, tmp_path):
        # column a fails in the last chunk, column b in the first
        cells = [[str(i), str(i)] for i in range(12)]
        cells[10][0], cells[1][1] = "inf", "nan"
        path = write_csv(tmp_path / "d.csv", ["a", "b"], cells)
        assert re.search(r"column 'a' row 12 .*'inf'", self.check(path))

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        data = self.check(path)
        assert data.n == 0 and data.kind("a") == data.kind("b") == "numeric"

    @settings(max_examples=80, deadline=None)
    @given(small_tables(), st.integers(min_value=1, max_value=5))
    def test_any_chunk_size_reads_as_one_chunk(self, columns, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(
                Path(tmp) / "d.csv", [f"c{j}" for j in range(len(columns))], list(zip(*columns))
            )
            assert same_ingest(ingest_or_error(path, chunk_rows), ingest_or_error(path))

    def test_peak_memory_is_bounded(self, survey_20k_csv):
        # reading every cell string before parsing peaked at 40.8 MiB here
        tracemalloc.start()
        try:
            data = ingest(survey_20k_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (data.n, data.p) == (20000, 33)
        assert peak < 40.8 / 2 * 2**20


def stop_at_step2(monkeypatch):
    """Make step 2 fail loudly, so an error raised before it shows as itself."""

    def unreachable(*args, **kwargs):
        raise AssertionError("step 2 ran")

    monkeypatch.setattr(misscomp.correlation, "correlate", unreachable)


class TestRunConfig:
    def test_defaults_validate(self, synthetic_csv):
        RunConfig(input_path=synthetic_csv)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"correlation_kind": "spearman"}, "correlation kind"),
            ({"extraction_method": "ml"}, "extraction method"),
            ({"criterion": "scree"}, "criterion"),
            ({"output_formats": ("csv", "xlsx")}, "formats"),
            (
                {"criterion": "auto", "items_per_component_hint": 5},
                "auto",
            ),
            ({"pa_reps": 0}, "pa_reps"),
            ({"pa_percentile": 1.5}, "pa_percentile"),
            ({"pa_percentile": 0.0}, "pa_percentile"),
            ({"seed": -3}, "seed"),
            (
                {"criterion": "auto", "items_per_component_hint": 0, "expected_components_hint": 3},
                "items_per_component_hint",
            ),
            (
                {"criterion": "auto", "items_per_component_hint": 5, "expected_components_hint": 0},
                "expected_components_hint",
            ),
            ({"delimiter": ";;"}, "delimiter"),
            ({"delimiter": ""}, "delimiter"),
            ({"delimiter": "\n"}, "delimiter"),
            ({"delimiter": "\r"}, "delimiter"),
            ({"cutoff": float("nan")}, "cutoff must be finite"),
            ({"cutoff": float("inf")}, "cutoff must be finite"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(input_path="x.csv", **kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("pa_reps", 2.5),
            ("pa_reps", True),
            ("pa_reps", None),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "7"),
            ("items_per_component_hint", 5.0),
            ("expected_components_hint", True),
            ("cutoff", "x"),
            ("cutoff", True),
            ("cutoff", None),
            ("pa_percentile", "0.95"),
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, name, value):
        # refused when made, before analyze or a comparison reads the value
        kind = "a real number" if name in ("cutoff", "pa_percentile") else "an integer"
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {value!r}$"):
            RunConfig(input_path="x.csv", **{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be {kind}"):
            replace(RunConfig(input_path="x.csv"), **{name: value})

    def test_numpy_numbers_are_accepted_and_integers_stored_as_int(self):
        config = RunConfig(
            input_path="x.csv", pa_reps=np.int64(9), seed=np.uint8(3), cutoff=np.float64(0.5),
            pa_percentile=np.float32(0.9), criterion="auto",
            items_per_component_hint=np.int32(4), expected_components_hint=np.int16(2),
        )
        for name in ("pa_reps", "seed", "items_per_component_hint", "expected_components_hint"):
            assert type(getattr(config, name)) is int, name
        json.dumps(pipeline._settings(replace(config, pa_percentile=0.9)))

    @pytest.mark.parametrize("name", ["missing_sentinels", "columns", "covariate_columns", "output_formats"])
    def test_rejects_a_bare_string_for_a_sequence(self, name):
        # read one character at a time, "NA" would make the sentinels N and A
        with pytest.raises(ValueError, match=f"{name} must be a sequence of strings"):
            RunConfig(input_path="x.csv", **{name: "NA"})

    def test_replace_checks_the_new_values(self):
        config = RunConfig(input_path="x.csv")
        with pytest.raises(ValueError, match="pa_reps"):
            replace(config, pa_reps=0)
        with pytest.raises(FrozenInstanceError):
            config.pa_reps = 0

    def test_bare_string_sentinels_fail_before_ingest(self, tmp_path):
        rows = [["1", "x", "NA"], ["", "y", "2"], ["3", "", "4"], ["5", "N", ""]]
        path = write_csv(tmp_path / "s.csv", ["a", "b", "c"], rows)
        assert pipeline.tabulate(RunConfig(input_path=path))[1].column_names == ["a_miss", "b_miss", "c_miss"]
        # the characters of "NA" as sentinels: "" is no longer missing, so
        # a turns categorical and only N marks a missing cell
        chars = pipeline.tabulate(RunConfig(input_path=path, missing_sentinels=tuple("NA")))[1]
        assert chars.column_names == ["b_miss"]
        with pytest.raises(ValueError, match="missing_sentinels"):
            analyze(RunConfig(input_path=path, output_dir=tmp_path, missing_sentinels="NA"))

    def test_tabulate_validates_its_config(self, tmp_path):
        rows = [["1", "x", "NA"], ["", "y", "2"], ["3", "", "4"], ["5", "N", ""]]
        path = write_csv(tmp_path / "s.csv", ["a", "b", "c"], rows)
        with pytest.raises(ValueError, match="^missing_sentinels must be a sequence of strings"):
            pipeline.tabulate(RunConfig(input_path=path, missing_sentinels="NA"))


@pytest.fixture(scope="module")
def full_result(synthetic_csv):
    config = RunConfig(
        input_path=synthetic_csv,
        seed=123,
        covariate_columns=["age"],
        strata_column="site",
        output_formats=("csv", "json", "md"),
    )
    return analyze(config)


class TestAnalyze:
    def test_retains_one_component(self, full_result):
        assert full_result.q == 1
        assert full_result.decisive == "parallel"
        assert set(full_result.decisions) == set(CRITERIA)
        assert full_result.decisions["parallel"].k_retained == 1

    def test_complete_columns_become_covariates_not_indicators(self, full_result):
        assert full_result.ind.column_names == [f"item{j}_miss" for j in range(1, 6)]
        dropped = dict(full_result.ind.dropped_columns)
        assert dropped == {"age": "all cells observed", "site": "all cells observed"}

    def test_loadings_oriented_positive(self, full_result):
        loadings = full_result.oriented_loadings
        assert loadings.shape == (5, 1)
        # the dominant component of a positive block loads one way after orienting
        assert (loadings[:, 0] > 0.5).all()

    def test_screens_cover_items_covariate_and_indicators(self, full_result):
        base = [(c, v.variable) for c, s, v in full_result.screen_rows if s == ""]
        expected_vars = {f"item{j}" for j in range(1, 6)} | {"age"} | {
            f"item{j}_miss" for j in range(1, 6)
        }
        assert {v for _, v in base} == expected_vars
        assert {c for c, _ in base} == {"component_1"}
        # the stratifying column itself is not screened
        assert "site" not in {v for _, v in base}

    def test_logistic_models_fitted(self, full_result):
        base = {(m,) for c, s, m, f in full_result.logistic_rows if s == ""}
        assert {m for (m,) in base} == {
            "simple:item1_miss",
            "simple:item2_miss",
            "simple:item3_miss",
            "simple:item4_miss",
            "simple:item5_miss",
            "multiple",
            "covariates",
        }
        for _, _, _, fit in full_result.logistic_rows:
            assert fit.n > 0
            assert fit.separated in (True, False)

    def test_strata_rerun_covers_both_levels(self, full_result):
        assert {r.stratum for r in full_result.strata} == {"a", "b"}
        strata_labels = {s for _, s, _ in full_result.screen_rows if s}
        assert strata_labels == {"site=a", "site=b"}

    def test_all_steps_done(self, full_result):
        assert [s["step"] for s in full_result.steps] == [
            f"step{i}-{name}"
            for i, name in enumerate(
                ["indicators", "correlation", "retention", "extraction",
                 "dichotomize", "screens", "logistic", "strata"],
                start=1,
            )
        ]
        assert all(s["status"] == "done" for s in full_result.steps)

    def test_auto_criterion_resolves_from_hints(self, synthetic_csv):
        config = RunConfig(
            input_path=synthetic_csv,
            criterion="auto",
            items_per_component_hint=5,
            expected_components_hint=3,
            seed=1,
        )
        result = analyze(config)
        # n=400 with a dense design favors the empirical Kaiser variant
        assert result.decisive == "ekc"
        assert any("auto" in note for note in result.notes)

    def test_zero_retention_skips_later_steps(self, independent_csv):
        result = analyze(RunConfig(input_path=independent_csv, criterion="kaiser", seed=5))
        assert result.q == 0
        assert result.solution is None
        assert result.scores is None
        assert result.screen_rows == [] and result.logistic_rows == []
        skipped = {s["step"]: s for s in result.steps if s["status"] == "skipped"}
        assert set(skipped) == {
            "step4-extraction",
            "step5-dichotomize",
            "step6-screens",
            "step7-logistic",
            "step8-strata",
        }
        assert "retained 0" in skipped["step4-extraction"]["detail"]

    def test_missing_input_is_step1_error(self, tmp_path):
        with pytest.raises(PipelineError) as err:
            analyze(RunConfig(input_path=tmp_path / "nope.csv"))
        assert err.value.step == "step1-indicators"

    def test_single_indicator_is_step2_error(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", ["a", "b"], [["1", "1"], ["", "2"], ["3", "3"]])
        with pytest.raises(PipelineError) as err:
            analyze(RunConfig(input_path=path))
        assert err.value.step == "step2-correlation"

    def test_unknown_covariate_is_step7_error(self, synthetic_csv, monkeypatch):
        stop_at_step2(monkeypatch)
        config = RunConfig(input_path=synthetic_csv, seed=1, covariate_columns=["nope"])
        with pytest.raises(PipelineError, match=r"^covariate column 'nope' not in dataset$") as err:
            analyze(config)
        assert err.value.step == "step7-logistic"

    def test_unknown_strata_column_is_step8_error(self, synthetic_csv, monkeypatch):
        stop_at_step2(monkeypatch)
        config = RunConfig(input_path=synthetic_csv, seed=1, strata_column="nope")
        with pytest.raises(PipelineError, match=r"^strata column 'nope' not in dataset$") as err:
            analyze(config)
        assert err.value.step == "step8-strata"

    def test_categorical_covariate_is_step7_error(self, synthetic_csv, monkeypatch):
        stop_at_step2(monkeypatch)
        config = RunConfig(input_path=synthetic_csv, seed=123, covariate_columns=["site"])
        with pytest.raises(PipelineError, match=r"^column 'site' is categorical; covariates must be numeric$") as err:
            analyze(config)
        assert err.value.step == "step7-logistic"

    def test_single_level_strata_is_step8_error(self, synthetic_csv, tmp_path, monkeypatch):
        stop_at_step2(monkeypatch)
        path = with_columns(synthetic_csv, tmp_path / "wave.csv", wave=["w1"] * 400)
        config = RunConfig(input_path=path, seed=123, strata_column="wave")
        with pytest.raises(PipelineError, match=r"^strata column must have at least 2 levels$") as err:
            analyze(config)
        assert err.value.step == "step8-strata"

    def test_strata_level_only_on_fully_missing_rows_is_step8_error(self, synthetic_csv, tmp_path, monkeypatch):
        # step 8 leaves out the rows missing on every item, so a level seen
        # only there does not count
        with open(synthetic_csv, newline="") as fh:
            gone = [all(cell == "" for cell in row[:5]) for row in list(csv.reader(fh))[1:]]
        assert any(gone)
        stop_at_step2(monkeypatch)
        path = with_columns(synthetic_csv, tmp_path / "wave.csv", wave=["w2" if g else "w1" for g in gone])
        config = RunConfig(input_path=path, seed=123, strata_column="wave")
        with pytest.raises(PipelineError, match=r"^strata column must have at least 2 levels$") as err:
            analyze(config)
        assert err.value.step == "step8-strata"

    def test_indicator_named_like_a_data_column_is_step6_error(self, tmp_path, monkeypatch):
        # the screens would see two columns named age_miss
        stop_at_step2(monkeypatch)
        rows = [["" if i % 4 == 0 else str(30 + i), str(i % 2), str(i), str(i % 3)] for i in range(20)]
        path = write_csv(tmp_path / "clash.csv", ["age", "age_miss", "y", "z"], rows)
        msg = r"^indicator 'age_miss' has the name of a data column; rename the column 'age_miss'$"
        with pytest.raises(PipelineError, match=msg) as err:
            analyze(RunConfig(input_path=path, seed=1))
        assert err.value.step == "step6-screens"

    def test_every_stratum_runs_without_notes(self, full_result):
        assert full_result.steps[-1]["detail"] == "2 stratum rerun(s)"
        assert not [note for note in full_result.notes if "strat" in note]

    def test_skipped_stratum_and_unplaced_rows_are_noted(self, synthetic_csv, full_result, tmp_path):
        # a stratum of two rows on the high side of the flag cannot be fitted,
        # and one usable row with no stratum value is left out
        usable = np.flatnonzero(~full_result.scores.fully_missing)
        flag = full_result.scores.dichotomized[:, 0]
        high = [i for i in usable if flag[i]][:2]
        lost = next(i for i in usable if not flag[i])
        grp = ["x" if i in high else "" if i == lost else "y" for i in range(400)]
        path = with_columns(synthetic_csv, tmp_path / "grp.csv", grp=grp)
        items = [f"item{j}" for j in range(1, 6)]
        result = analyze(RunConfig(input_path=path, seed=123, columns=items, strata_column="grp"))
        assert result.q == 1
        np.testing.assert_array_equal(result.scores.dichotomized, full_result.scores.dichotomized)
        assert [(r.stratum, r.testable, r.n) for r in result.strata] == [
            ("x", False, 2), ("y", True, len(usable) - 3)
        ]
        assert "component_1: stratum grp=x skipped (component flag has a single class)" in result.notes
        assert "1 usable row(s) missing 'grp' left out of strata" in result.notes
        assert result.steps[-1] == {"step": "step8-strata", "status": "done", "detail": "1 stratum rerun(s)"}
        assert {s for _, s, _ in result.screen_rows if s} == {"grp=y"}

    def test_single_class_component_is_noted(self, synthetic_csv):
        # no score reaches a cutoff this high, so every usable row is unflagged
        result = analyze(RunConfig(input_path=synthetic_csv, seed=123, cutoff=1e6, covariate_columns=["age"]))
        assert result.q == 1
        assert not result.scores.dichotomized.any()
        assert "component_1: dichotomized score has a single class; screens and fits skipped" in result.notes
        assert result.screen_rows == [] and result.logistic_rows == []
        steps = {s["step"]: s["detail"] for s in result.steps}
        assert steps["step6-screens"] == "0 screen rows across 0 component(s)"
        assert steps["step7-logistic"] == "0 fitted model(s)"

    def test_covariate_fit_without_both_classes_is_noted(self, synthetic_csv, full_result, tmp_path):
        # a covariate observed only on unflagged rows leaves one class among
        # its complete rows
        flag = full_result.scores.dichotomized[:, 0]
        z = ["" if flag[i] else str(i % 7) for i in range(400)]
        path = with_columns(synthetic_csv, tmp_path / "z.csv", z=z)
        items = [f"item{j}" for j in range(1, 6)]
        result = analyze(RunConfig(input_path=path, seed=123, columns=items, covariate_columns=["z"]))
        np.testing.assert_array_equal(result.scores.dichotomized, full_result.scores.dichotomized)
        assert "component_1: covariate fit skipped (no complete rows with both classes)" in result.notes
        models = [m for _, _, m, _ in result.logistic_rows]
        assert "covariates" not in models and "multiple" in models

    def test_paf_non_convergence_is_noted(self, synthetic_csv, monkeypatch):
        note = "principal axis factoring did not converge; last iterate reported"
        config = RunConfig(input_path=synthetic_csv, seed=123, extraction_method="paf")
        assert note not in analyze(config).notes
        monkeypatch.setattr(pipeline.extraction, "PAF_MAX_ITER", 1)
        result = analyze(config)
        assert not result.solution.converged and result.solution.iterations == 1
        assert note in result.notes


class TestBundle:
    def test_file_list_all_formats(self, full_result, tmp_path):
        files = write_bundle(full_result, tmp_path)
        assert sorted(files) == [
            "loadings.csv",
            "loadings.md",
            "logistic.csv",
            "manifest.json",
            "patterns.csv",
            "patterns.json",
            "patterns.md",
            "retention.csv",
            "retention_curves.csv",
            "scores.csv",
            "screens.csv",
        ]
        for name in files:
            assert (tmp_path / name).stat().st_size > 0

    def test_zero_retention_bundle_is_minimal(self, independent_csv, tmp_path):
        result = analyze(RunConfig(input_path=independent_csv, criterion="kaiser", seed=5))
        files = write_bundle(result, tmp_path)
        assert sorted(files) == [
            "manifest.json",
            "patterns.csv",
            "patterns.json",
            "retention.csv",
            "retention_curves.csv",
        ]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["extraction"] is None
        assert manifest["retention"]["q"] == 0

    def test_manifest_content(self, full_result, tmp_path):
        files = write_bundle(full_result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["seed"] == 123
        assert manifest["tool"]["name"] == "misscomp"
        assert manifest["files"] == sorted(files)
        assert manifest["retention"]["decisive"] == "parallel"
        assert manifest["retention"]["q"] == 1
        assert manifest["data"]["n"] == 400
        assert manifest["correlation"]["kind"] == "pearson"
        assert isinstance(manifest["separated_fits"], list)
        assert manifest["loading_bold_threshold"] == 0.550

    def test_manifest_counts_coerced_cells(self, synthetic_csv, tmp_path):
        lines = synthetic_csv.read_text().splitlines()
        lines[5] = "abc" + lines[5][lines[5].index(","):]
        path = tmp_path / "coerced.csv"
        path.write_text("\n".join(lines) + "\n")
        config = RunConfig(input_path=path, output_dir=tmp_path / "out", seed=123)
        write_bundle(analyze(config))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["data"]["coerced_cells"] == {"item1": 1}

    def test_build_manifest_matches_written(self, full_result, tmp_path):
        files = write_bundle(full_result, tmp_path)
        rebuilt = build_manifest(full_result, files)
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert rebuilt == written

    def test_manifest_records_every_setting(self, full_result, tmp_path):
        write_bundle(full_result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert set(manifest["config"]) == {f.name for f in fields(RunConfig)}
        assert manifest["config"]["output_formats"] == ["csv", "json", "md"]
        assert manifest["config"]["covariate_columns"] == ["age"]

    def test_rerun_is_byte_identical(self, synthetic_csv, tmp_path):
        config = RunConfig(
            input_path=synthetic_csv,
            output_dir=tmp_path,
            seed=123,
            covariate_columns=["age"],
            strata_column="site",
            output_formats=("csv", "json", "md"),
        )
        files = write_bundle(analyze(config))
        first = {name: (tmp_path / name).read_bytes() for name in files}
        files_again = write_bundle(analyze(config))
        assert files_again == files
        for name in files:
            assert (tmp_path / name).read_bytes() == first[name], name


class TestCli:
    def test_guidance(self, capsys):
        rc = cli.main(["guidance", "--n", "1000", "--items-per-component", "5", "--components", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "parallel"

    def test_guidance_rejects_bad_design(self, capsys):
        rc = cli.main(["guidance", "--n", "0", "--items-per-component", "5", "--components", "3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [guidance]:")

    def test_patterns_writes_bundle(self, synthetic_csv, tmp_path, capsys):
        rc = cli.main(["patterns", "--input", str(synthetic_csv), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pattern(s) across 5 indicator(s)" in out
        assert (tmp_path / "patterns.csv").exists()
        assert (tmp_path / "patterns.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "patterns"
        assert manifest["files"] == ["manifest.json", "patterns.csv", "patterns.json"]

    def test_patterns_md_only(self, synthetic_csv, tmp_path):
        rc = cli.main(
            ["patterns", "--input", str(synthetic_csv), "--out", str(tmp_path), "--formats", "md"]
        )
        assert rc == 0
        assert (tmp_path / "patterns.md").exists()
        assert not (tmp_path / "patterns.csv").exists()

    def test_patterns_rejects_unknown_format(self, synthetic_csv, tmp_path, capsys):
        rc = cli.main(
            ["patterns", "--input", str(synthetic_csv), "--out", str(tmp_path), "--formats", "xml"]
        )
        assert rc == 1
        assert capsys.readouterr().err.strip() == "error [patterns]: unknown output formats ['xml']"
        assert not (tmp_path / "manifest.json").exists()

    def test_patterns_manifest_shares_analyze_sections(self, synthetic_csv, tmp_path, capsys):
        common = [
            "--input", str(synthetic_csv),
            "--columns", "item1,item2,item3",
            "--sentinels", ",NA",
            "--drop-fully-missing",
        ]
        assert cli.main(["patterns", *common, "--out", str(tmp_path / "p")]) == 0
        assert cli.main(["analyze", *common, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        pat = json.loads((tmp_path / "p" / "manifest.json").read_text())
        ana = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert pat["data"] == ana["data"]
        assert pat["patterns"] == ana["patterns"]
        assert pat["data"]["indicator_columns"] == ["item1_miss", "item2_miss", "item3_miss"]
        assert pat["command"] == "patterns"
        assert pat["config"]["input_path"] == str(synthetic_csv)
        assert pat["config"]["delimiter"] == ","
        assert pat["config"]["missing_sentinels"] == ["", "NA"]
        assert pat["config"]["columns"] == ["item1", "item2", "item3"]
        assert pat["config"]["drop_fully_missing_pattern"] is True
        assert pat["files"] == ["manifest.json", "patterns.csv", "patterns.json"]

    def test_analyze_end_to_end(self, synthetic_csv, tmp_path, capsys):
        rc = cli.main(
            [
                "analyze",
                "--input", str(synthetic_csv),
                "--out", str(tmp_path),
                "--seed", "123",
                "--covariates", "age",
                "--strata", "site",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel: 1 component(s) (decisive)" in out
        for name in ("patterns.csv", "retention.csv", "loadings.csv", "manifest.json"):
            assert (tmp_path / name).exists()

    def test_analyze_missing_input(self, tmp_path, capsys):
        rc = cli.main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [step1-indicators]:")

    def test_analyze_bad_delimiter(self, synthetic_csv, tmp_path, capsys):
        rc = cli.main(["analyze", "--input", str(synthetic_csv), "--out", str(tmp_path), "--delimiter", ";;"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [analyze]: delimiter must be one character")

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    def test_analyze_non_finite_cutoff(self, synthetic_csv, tmp_path, capsys, cutoff):
        rc = cli.main(["analyze", "--input", str(synthetic_csv), "--out", str(tmp_path), f"--cutoff={cutoff}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [analyze]: cutoff must be finite")
        assert not (tmp_path / "manifest.json").exists()

    def test_analyze_categorical_covariate(self, synthetic_csv, tmp_path, capsys):
        rc = cli.main(
            ["analyze", "--input", str(synthetic_csv), "--out", str(tmp_path), "--seed", "123",
             "--covariates", "site"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [step7-logistic]: column 'site' is categorical")

    def test_repeated_covariate_is_step7_error(self, synthetic_csv, tmp_path, capsys, monkeypatch):
        stop_at_step2(monkeypatch)
        rc = cli.main(
            ["analyze", "--input", str(synthetic_csv), "--out", str(tmp_path), "--seed", "123",
             "--covariates", "age,age"]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err == "error [step7-logistic]: covariate column 'age' is given more than once"
        assert not (tmp_path / "manifest.json").exists()

    def test_analyze_single_level_strata(self, synthetic_csv, tmp_path, capsys):
        path = with_columns(synthetic_csv, tmp_path / "wave.csv", wave=["w1"] * 400)
        rc = cli.main(
            ["analyze", "--input", str(path), "--out", str(tmp_path), "--seed", "123", "--strata", "wave"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [step8-strata]: strata column must have")

    @pytest.mark.parametrize("command", ["patterns", "analyze"])
    def test_repeated_column_is_step1_error(self, synthetic_csv, tmp_path, capsys, monkeypatch, command):
        stop_at_step2(monkeypatch)
        rc = cli.main(
            [command, "--input", str(synthetic_csv), "--out", str(tmp_path), "--columns", "item1,item1,item2"]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err == "error [step1-indicators]: column 'item1' is selected more than once"
        assert not (tmp_path / "manifest.json").exists()

    def test_analyze_unwritable_out_fails_before_the_input_is_read(self, synthetic_csv, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr(pipeline, "ingest", unreachable)
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["analyze", "--input", str(synthetic_csv), "--out", str(out), "--seed", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [analyze]: ") and str(out) in err

    def test_patterns_unwritable_out_fails_before_the_input_is_read(self, synthetic_csv, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr(pipeline, "ingest", unreachable)
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["patterns", "--input", str(synthetic_csv), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [patterns]: ") and str(out) in err

    def test_simulate_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(misscomp.simulation, "run_grid", unreachable)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "x"
        rc = cli.main(["simulate", "--cell", "1x3", "--n", "100", "--reps", "2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [simulate]: ") and str(out) in err

    def test_patterns_missing_input(self, tmp_path, capsys):
        rc = cli.main(["patterns", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [step1-indicators]:")

    @pytest.mark.parametrize(
        "text, columns, reason",
        [
            pytest.param(None, [], r"cannot read .*in\.csv: .*", id="missing-file"),
            pytest.param("a,b\n1,2\n3\n", [], r".*in\.csv: row 3 has 1 cells, header has 2", id="ragged-row"),
            pytest.param(
                "a,b\n1,\n,2\n3,4\n", ["--columns", "nope"], "column 'nope' not in dataset", id="unknown-column"
            ),
        ],
    )
    def test_step1_failures_read_alike_from_patterns_and_analyze(self, tmp_path, capsys, text, columns, reason):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        errors = []
        for command in ("patterns", "analyze"):
            assert cli.main([command, "--input", str(path), "--out", str(tmp_path / command), *columns]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert re.fullmatch(rf"error \[step1-indicators\]: {reason}\n", errors[0])

    def test_simulate_needs_cells(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error [simulate]:")

    def test_simulate_rejects_bad_cell(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--cell", "3by5", "--out", str(tmp_path)])
        assert rc == 1
        assert "--cell" in capsys.readouterr().err

    def test_simulate_full_takes_the_kind_and_method(self):
        args = cli.build_parser().parse_args(["simulate", "--full", "--corr", TETRACHORIC, "--method", PAF])
        cells = cli._parse_cells(args)
        assert len(cells) == 108
        assert all(c.corr_kind == TETRACHORIC and c.method == PAF for c in cells)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--cell", "3xA"], "bad --cell value '3xA'; expected integers"),
            (["--cell", "3x3", "--n", "1.5"], "--n takes integers and --pmiss takes floats"),
        ],
    )
    def test_simulate_rejects_a_bad_number(self, tmp_path, capsys, args, message):
        assert cli.main(["simulate", *args, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error [simulate]: {message}\n"

    def test_simulate_names_a_sample_size_below_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--cell", "3x3", "--n", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error [simulate]: n must be at least 2, got 1\n"

    def test_simulate_rejects_a_single_item_cell(self, tmp_path, capsys):
        args = ["--cell", "1x1", "--n", "100", "--pmiss", "0.25", "--reps", "3", "--out", str(tmp_path)]
        rc = cli.main(["simulate", *args])
        assert rc == 1
        assert capsys.readouterr().err == "error [simulate]: a condition needs at least 2 items, got 1x1\n"
        assert not (tmp_path / "grid.csv").exists()

    def test_simulate_undecided_cell_prints_blanks(self, tmp_path, capsys):
        # every replication drops a column, so no criterion has a proportion
        args = ["--cell", "2x2", "--n", "5", "--pmiss", "0.01", "--reps", "3", "--out", str(tmp_path)]
        assert cli.main(["simulate", *args]) == 0
        with open(tmp_path / "grid.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        for crit in CRITERIA:
            assert row[header.index(f"converged_{crit}")] == "0"
            assert row[header.index(f"proportion_{crit}")] == ""
            assert row[header.index(f"success_{crit}")] == "False"
        with open(tmp_path / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[crit, "", "0", "0"] for crit in CRITERIA]

    def test_simulate_small_cell(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate",
                "--cell", "1x5",
                "--n", "150",
                "--pmiss", "0.25",
                "--reps", "2",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean proportion correct" in out
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(grid) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        # cells are recorded as the integer seeding keys
        assert manifest["config"]["cells"] == [[1, 5, 150, 2500, 0, 0]]
        assert manifest["config"]["reps"] == 2

    def test_simulate_bytes_do_not_depend_on_workers(self, tmp_path, capsys):
        # two cells, so --workers 2 runs them in a process pool
        for workers in ("1", "2"):
            rc = cli.main(
                [
                    "simulate",
                    "--cell", "1x3",
                    "--n", "100",
                    "--pmiss", "0.1,0.25",
                    "--reps", "2",
                    "--seed", "4",
                    "--workers", workers,
                    "--out", str(tmp_path / workers),
                ]
            )
            assert rc == 0
        # the elapsed time goes to stdout only
        out = capsys.readouterr().out
        assert len(re.findall(r"^wrote grid.csv, aggregate.csv, manifest.json to .* in \d+\.\ds$", out, re.M)) == 2
        for name in ("grid.csv", "aggregate.csv", "manifest.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_console_script_installed(self):
        # From a source tree there is no installed wrapper, so run the declared
        # [project.scripts] target in a child process the way the wrapper calls
        # it; wherever a `misscomp` script is on the PATH, run that too.
        module, attr = _declared_console_script().split(":")
        code = (
            f"import sys; from {module} import {attr.split('.')[0]}; "
            f"sys.argv[0] = 'misscomp'; sys.exit({attr}())"
        )
        args = ["guidance", "--n", "200", "--items-per-component", "3", "--components", "2"]
        runs = [([sys.executable, "-c", code, *args], _source_env())]
        installed = shutil.which("misscomp")
        if installed:
            runs.append(([installed, *args], None))
        for command, run_env in runs:
            proc = subprocess.run(command, env=run_env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "parallel"


def _source_env():
    """This environment with the imported misscomp's source tree first on PYTHONPATH."""
    src = str(Path(misscomp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _declared_console_script():
    """The ``module:attr`` target of ``misscomp`` under ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        try:
            import tomli as tomllib
        except ModuleNotFoundError:  # read the installed distribution's metadata
            from importlib.metadata import entry_points

            (script,) = entry_points(group="console_scripts", name="misscomp")
            return script.value
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["misscomp"]


def test_import_leaves_out_scipy_stats_and_optimize():
    # they cost most of the import time and are not needed to run
    code = (
        "import sys, misscomp.pipeline, misscomp.simulation, misscomp.cli; "
        "print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    """Four items sharing one missingness propensity, a numeric covariate
    ``age``, a numeric strata column ``site`` whose values 2 and 10 sort
    differently as strings, with one cell missing, and a 3-level categorical
    ``grp`` whose level "hi" never occurs at site 10."""
    rng = np.random.default_rng(20261018)
    n, k = 300, 4
    sigma = np.full((k, k), 0.7)
    np.fill_diagonal(sigma, 1.0)
    miss = rng.multivariate_normal(np.zeros(k), sigma, size=n) > stats.norm.ppf(1 - 0.3)
    values = rng.normal(50.0, 10.0, size=(n, k))
    age = rng.normal(40.0, 5.0, size=n)
    site = rng.choice([2, 10], size=n)
    grp = np.where(site == 2, rng.choice(["lo", "mid", "hi"], size=n), rng.choice(["lo", "mid"], size=n))
    rows = []
    for i in range(n):
        row = ["" if miss[i, j] else f"{values[i, j]:.2f}" for j in range(k)]
        rows.append(row + [f"{age[i]:.1f}", "" if i == 5 else str(site[i]), grp[i]])
    path = tmp_path_factory.mktemp("golden") / "golden.csv"
    return write_csv(path, [f"item{j + 1}" for j in range(k)] + ["age", "site", "grp"], rows)


# SHA-256 of every bundle file but manifest.json, whose versions and paths
# vary by machine, for the golden input at seed 11. Recorded while
# categorical columns were still object arrays of strings. A CSV column of
# "0"/"1" always ingests as numeric, and the stratum fits take the
# indicators' 0/1 design from analyze, so no path models a binary
# categorical predictor any more.
# logistic.csv was re-recorded when completely separated fits began to stop
# at their separation certificate (only the coefficient, converged and
# log_likelihood cells of the separated rows moved), when a fit with a
# row fitted to its own label became separated: simple:site_miss, whose
# single x = 1 row sits in one cell of its 2x2 table, lost its standard
# errors, and when separated fits began to report converged False, since
# no maximum exists: only simple:site_miss's two converged cells moved.
# It was re-recorded again when the whole-sample joint fits began to start
# at the component score's own separating direction: only the coefficient
# cells of the multiple rows moved, to another separating direction at an
# arbitrary scale. It was re-recorded once more when the stratum joint fits,
# which alias the all-zero site_miss column, began to start at that same
# direction restricted to the kept columns: only the coefficient cells of
# the stratum multiple rows moved, to the whole-sample separating direction.
# It was re-recorded last when the one-indicator fits began to be solved in
# closed form from their 2x2 tables: only simple:site_miss's slope cell
# moved, from -18.469338 (the last IRLS iterate) to -inf, since its x = 1
# cell with y = 1 is empty and the maximum lies at infinity.
# retention_curves.csv was re-recorded when the permutation null began to
# draw uint32 keys, two from each raw PCG64 output of a key generator
# spawned from the seed, and to redraw a row tied at its threshold from a
# second spawned generator: only the reference cells of the parallel rows
# moved, by at most 0.011; retention.csv, which holds the decisions, did not.
GOLDEN_DIGESTS = {
    "loadings.csv": "4e439111979192ded9ef9ed4c2ff7df2c9af79f50e081ab690920a23ef714be2",
    "loadings.md": "04d120c61d2970c46bb9e8576f5d6452dead939b0b64bef95bcc73ea2b4874df",
    "logistic.csv": "e944f2eb7f4c205ad7cc7019e566dba99a32a7467e577ec32f522185721ef68e",
    "patterns.csv": "f105cf94e1098678cf5fa3e852190b5380939276619605386f0407dee0a7f772",
    "patterns.json": "54562e14ba8e1beccc05449b5cdd8de42b9e08fed59a411f6f7209a9a179fd9e",
    "patterns.md": "89615180fcf80d2dfa61e667d30e9133aae5421e007e5d87a88fb7073bf83704",
    "retention.csv": "217123febf839385c65cb421f34363c65c948ddf64b3439019c5d893af1fbf3e",
    "retention_curves.csv": "f4d0f3ca40340fb1da4008b6ac7dca566d4cab6b4952ed83bcc9f149b1083b81",
    "scores.csv": "a0c7d2ea83c417835bee617b920850006927f9960226771fd8cf3bd0e7eb6b60",
    "screens.csv": "444b93d5e15a9b6dca6cf0765ebe974f11bd51de2881e2e1f875053e82addae6",
}


class TestGoldenBundle:
    def config(self, path, out, **kwargs):
        return RunConfig(
            input_path=path,
            output_dir=out,
            seed=11,
            strata_column="site",
            output_formats=("csv", "json", "md"),
            **kwargs,
        )

    def test_bundle_bytes_match_recorded_digests(self, golden_csv, tmp_path):
        result = analyze(self.config(golden_csv, tmp_path, covariate_columns=["age"]))
        assert all(s["status"] == "done" for s in result.steps)
        # numeric strata levels are named and ordered as strings
        assert [r.stratum for r in result.strata] == ["10.0", "2.0"] * result.q
        files = write_bundle(result)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in sorted(files)
            if name != "manifest.json"
        }
        assert digests == GOLDEN_DIGESTS

    def test_one_indicator_fits_match_fits_on_the_rows(self, golden_csv, tmp_path):
        # analyze fits each indicator on its 2x2 table; the fit on the
        # usable rows themselves must give the same model
        result = analyze(self.config(golden_csv, tmp_path))
        usable = ~result.scores.fully_missing
        x = result.ind.values[usable].astype(float)
        simple = [(c, m, f) for c, s, m, f in result.logistic_rows if not s and m.startswith("simple:")]
        assert len(simple) == result.q * result.ind.k
        for comp, model, fit in simple:
            flag = result.scores.dichotomized[usable, int(comp.split("_")[1]) - 1].astype(int)
            name = model.split(":", 1)[1]
            rows = fit_logistic(flag, x[:, [result.ind.column_names.index(name)]], [name])
            assert fit.separated == rows.separated
            if not rows.separated:
                np.testing.assert_allclose(fit.coefficients, rows.coefficients, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(fit.standard_errors, rows.standard_errors, rtol=1e-9)
                assert fit.log_likelihood == pytest.approx(rows.log_likelihood, rel=1e-12)
            else:
                # the table's slope is infinite, the row fit's last iterate
                # heads the same way, and the supremum bounds its likelihood
                assert np.isinf(fit.coefficients[1])
                assert np.sign(fit.coefficients[1]) == np.sign(rows.coefficients[1])
                assert fit.log_likelihood >= rows.log_likelihood
            assert fit.null_log_likelihood == rows.null_log_likelihood
            assert (fit.auc, fit.sensitivity, fit.specificity, fit.n) == (
                rows.auc, rows.sensitivity, rows.specificity, rows.n
            )

    @pytest.mark.parametrize("items_only", [True, False], ids=["rows excluded", "site_miss constant"])
    def test_indicator_screens_equal_the_categorical_reference(self, golden_csv, tmp_path, items_only):
        # analyze screens each indicator from its 2x2 table; the reference
        # screens it as a categorical "0"/"1" column over the same rows: the
        # usable rows, then each site's among them. With the items alone,
        # some rows miss every indicator; with site_miss too, none does, and
        # site_miss is 0 on every row placed in a site
        columns = [f"item{j + 1}" for j in range(4)] if items_only else None
        result = analyze(self.config(golden_csv, tmp_path, columns=columns))
        names = result.ind.column_names
        oracle = indicator_dataset(result.ind.values, names)
        usable = np.flatnonzero(~result.scores.fully_missing)
        assert (len(usable) < result.ind.n) == items_only
        codes, levels, seen = strata_levels(result.data, "site", usable)
        reasons = set()
        for j in range(result.q):
            label = f"component_{j + 1}"
            flag = result.scores.dichotomized[usable, j].astype(int)
            want = {"": reference_screen(oracle, flag, names, usable)}
            for code in seen:
                rows = codes == code
                want[f"site={levels[code]}"] = reference_screen(oracle, flag[rows], names, usable[rows])
            got = {stratum: [] for stratum in want}
            for comp, stratum, res in result.screen_rows:
                if comp == label and res.variable in names:
                    got[stratum].append(res)
            assert repr(got) == repr(want)
            reasons.update(res.reason for screens in got.values() for res in screens)
        constant = "contingency table has a single populated row or column"
        assert (constant in reasons) != items_only

    def test_joint_fits_certify_at_the_score_direction(self, golden_csv, tmp_path):
        # with the items alone as indicators no column is constant within a
        # site, so every joint fit, whole-sample and per stratum, starts at
        # the component score's own separating direction
        items = [f"item{j + 1}" for j in range(4)]
        result = analyze(self.config(golden_csv, tmp_path, columns=items))
        assert result.scores.fully_missing.any()
        joint = [(stratum, fit) for _, stratum, model, fit in result.logistic_rows if model == "multiple"]
        assert [stratum for stratum, _ in joint] == ["", "site=10.0", "site=2.0"] * result.q
        for _, fit in joint:
            assert fit.iterations == 1 and not fit.aliased
            assert fit.separated and fit.log_likelihood == 0.0 and fit.auc == 1.0

    def test_joint_fits_with_an_aliased_column_start_at_the_score_direction(self, golden_csv, tmp_path):
        # site_miss is 0 on every row placed in a site, so each stratum fit
        # aliases it; a zero column adds nothing to the linear predictor, so
        # the start without it still certifies at iteration 1
        result = analyze(self.config(golden_csv, tmp_path))
        joint = [(c, s, f) for c, s, m, f in result.logistic_rows if m == "multiple"]
        assert len(joint) == 3 * result.q
        whole = {c: f for c, s, f in joint if not s}
        for comp, stratum, fit in joint:
            assert fit.aliased == (["site_miss"] if stratum else [])
            assert fit.iterations == 1 and fit.separated and fit.log_likelihood == 0.0
            # the whole-sample direction without site_miss's entry
            kept = [whole[comp].parameter_names.index(name) for name in fit.parameter_names]
            np.testing.assert_array_equal(fit.coefficients, whole[comp].coefficients[kept])

    def test_non_binary_categorical_covariate_rejected(self, golden_csv, tmp_path):
        with pytest.raises(PipelineError, match=r"^column 'grp' is categorical; covariates must be numeric$") as err:
            analyze(self.config(golden_csv, tmp_path, covariate_columns=["grp"]))
        assert err.value.step == "step7-logistic"

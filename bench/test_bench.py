"""Smoke test of the benchmark at reduced size.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
It takes about a minute: each workload runs once untraced and once
traced in ``--quick`` mode.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fixture  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from misscomp import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    lines, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the summary line names the figures as users know them
    time_name = "analyze_s" if workload == "survey_20k" else "simulate_s"
    summary = lines[-2]
    for name, unit in ((time_name, "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                       ("failed_frac", "ratio")):
        assert re.search(rf"\b{name}=[0-9.e+-]+ {re.escape(unit)}\b", summary), (name, summary)

    _, traced = _bench(workload, 1)
    assert traced["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want


def test_fixture_is_byte_identical_when_regenerated(tmp_path):
    a = fixture.write_survey(tmp_path / "a", seed=11, rows=300)
    b = fixture.write_survey(tmp_path / "b", seed=11, rows=300)
    c = fixture.write_survey(tmp_path / "c", seed=12, rows=300)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    meta = json.loads(a.with_suffix(".json").read_text(encoding="utf-8"))
    assert (meta["seed"], meta["rows"], meta["columns"]) == (11, 300, 33)


def test_spans_nest_and_self_time_is_nonnegative(tmp_path):
    csv_path = fixture.write_survey(tmp_path, seed=3, rows=400)
    config = pipeline.RunConfig(input_path=csv_path, output_dir=tmp_path / "out", seed=3,
                                covariate_columns=["age"], strata_column="site")
    original = pipeline.analyze
    recorder = tracing.Recorder()
    recorder.trace_id = 1
    with tracing.instrumented(recorder):
        pipeline.write_bundle(pipeline.analyze(config))
    assert pipeline.analyze is original, "wrappers were not removed"

    spans = recorder.spans
    names = {s.name for s in spans}
    assert {"pipeline.analyze", "pipeline.ingest", "correlation.pearson",
            "retention.parallel_analysis", "mechanism.fit_logistic",
            "mechanism.stratified_rerun", "reports.write_manifest"} <= names
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
    assert min(tracing.self_times(spans)) >= -1e-9
    by_name = {s.name: s for s in spans}
    assert spans[by_name["pipeline.ingest"].parent].name == "pipeline.analyze"
    assert spans[by_name["mechanism.stratified_rerun"].parent].name == "pipeline.analyze"

    layers = tracing.layer_metrics(spans, 1)
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in SPEC["per_layer"]}
    assert layers["mechanism.fit_logistic_calls"] > 0
    assert layers["reports.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir())

"""Span recording around the public functions of each misscomp module.

The traced run swaps module attributes for wrappers that record a span
per call (name, start, end, parent, trace id) plus counts read from the
returned object. Callers inside the package look these functions up as
module attributes at call time, so the wrappers see nested calls too:
``pipeline.analyze`` calls ``correlation.pearson``, ``stratified_rerun``
calls ``screen`` and ``fit_logistic``, ``run_grid`` calls
``run_condition``. Functions that ``pipeline`` imported by name are also
replaced in ``pipeline``'s namespace. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import asdict, dataclass, field

from misscomp import correlation, extraction, indicators, mechanism, pipeline, reports, retention, simulation


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``trace_id`` groups the spans of one workload call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), float("nan"),
                        self._stack[-1] if self._stack else None, self.trace_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(out, args, kwargs)
            return out

        return traced

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _pa_counts(dec, args, kwargs):
    reps = kwargs.get("reps", args[2] if len(args) > 2 else retention.PA_REPS)
    return {"reps": reps, "converged": int(dec.converged)}


def _cell_counts(cell, args, kwargs):
    return {"replications": cell.replications_run, "decided": sum(cell.converged.values()),
            "attempted": cell.replications_run * len(cell.converged)}


def _write_counts(out, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter); every public function a workload
# reaches, named by the module that defines it
TARGETS = [
    (pipeline, "ingest", "pipeline.ingest", lambda d, a, k: {"cells": d.n * d.p}),
    (pipeline, "analyze", "pipeline.analyze", None),
    (pipeline, "write_bundle", "pipeline.write_bundle", None),
    (indicators, "build_indicators", "indicators.build", None),
    (indicators, "tabulate_patterns", "indicators.patterns",
     lambda t, a, k: {"patterns": t.n_observed_patterns}),
    (correlation, "pearson", "correlation.pearson", None),
    (correlation, "tetrachoric", "correlation.tetrachoric",
     lambda c, a, k: {"pairs": c.k * (c.k - 1) // 2}),
    (correlation, "repair_pd", "correlation.repair_pd", lambda c, a, k: {"repaired": int(c.pd_repaired)}),
    (extraction, "pca", "extraction.pca", None),
    (extraction, "paf", "extraction.paf", lambda s, a, k: {"iterations": s.iterations}),
    (extraction, "scores", "extraction.scores", None),
    (retention, "parallel_analysis", "retention.parallel_analysis", _pa_counts),
    (mechanism, "screen", "mechanism.screen", None),
    (mechanism, "fit_logistic", "mechanism.fit_logistic",
     lambda f, a, k: {"iterations": f.iterations, "separated": int(f.separated)}),
    (mechanism, "numeric_values", "mechanism.numeric_values", None),
    (mechanism, "stratified_rerun", "mechanism.stratified_rerun", None),
    (simulation, "run_grid", "simulation.run_grid", None),
    (simulation, "run_condition", "simulation.run_condition", _cell_counts),
    (simulation, "sample_latent", "simulation.sample_latent", None),
] + [
    (reports, name, f"reports.{name}", _write_counts)
    for name in sorted(vars(reports))
    if name.startswith("write_") and callable(getattr(reports, name))
]


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Install span wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            wrapped = recorder.wrap(original, name, counter)
            # pipeline imported these by name, so its namespace needs the wrapper too
            homes = [module]
            if module is not pipeline and getattr(pipeline, attr, None) is original:
                homes.append(pipeline)
            for home in homes:
                saved.append((home, attr, original))
                setattr(home, attr, wrapped)
        yield recorder
    finally:
        for home, attr, original in reversed(saved):
            setattr(home, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential, so children never overlap and the sum of their
    durations is the part of the parent's interval they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span], trace_id: int) -> dict[str, float]:
    """Per-layer metrics of the workload call whose spans carry ``trace_id``."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    n_spans = 0
    for s, own in zip(spans, selfs):
        if s.trace_id != trace_id:
            continue
        n_spans += 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    write_s = sum(v for k, v in total.items() if k.startswith("reports.write_"))
    written = sum(v for k, v in counts.items() if k.startswith("reports.write_") and k.endswith(".bytes"))
    fits = calls.get("mechanism.fit_logistic", 0)
    pa_calls = calls.get("retention.parallel_analysis", 0)
    return {
        "pipeline.ingest_s": t("pipeline.ingest"),
        "pipeline.ingest_cells_per_s": ratio(c("pipeline.ingest.cells"), t("pipeline.ingest")),
        "pipeline.analyze_self_s": self_s.get("pipeline.analyze", 0.0),
        "indicators.build_s": t("indicators.build"),
        "indicators.patterns_s": t("indicators.patterns"),
        "indicators.n_patterns": c("indicators.patterns.patterns"),
        "correlation.pearson_s": t("correlation.pearson"),
        "correlation.repair_pd_s": t("correlation.repair_pd"),
        "correlation.pd_repaired_count": c("correlation.repair_pd.repaired"),
        "correlation.tetrachoric_s": t("correlation.tetrachoric"),
        "correlation.tetrachoric_pairs": c("correlation.tetrachoric.pairs"),
        "extraction.pca_s": t("extraction.pca"),
        "extraction.scores_s": t("extraction.scores"),
        "extraction.paf_s": t("extraction.paf"),
        "extraction.paf_iterations": c("extraction.paf.iterations"),
        "retention.parallel_analysis_s": t("retention.parallel_analysis"),
        "retention.pa_reps": c("retention.parallel_analysis.reps"),
        "retention.parallel_converged_ratio": ratio(c("retention.parallel_analysis.converged"), pa_calls),
        "mechanism.screen_s": t("mechanism.screen"),
        "mechanism.screen_calls": calls.get("mechanism.screen", 0),
        "mechanism.fit_logistic_s": t("mechanism.fit_logistic"),
        "mechanism.fit_logistic_calls": fits,
        "mechanism.irls_iterations": c("mechanism.fit_logistic.iterations"),
        "mechanism.separated_ratio": ratio(c("mechanism.fit_logistic.separated"), fits),
        "mechanism.numeric_values_s": t("mechanism.numeric_values"),
        "mechanism.stratified_rerun_self_s": self_s.get("mechanism.stratified_rerun", 0.0),
        "reports.write_s": write_s,
        "reports.bytes_written": written,
        "simulation.replications": c("simulation.run_condition.replications"),
        "simulation.decided_ratio": ratio(c("simulation.run_condition.decided"),
                                          c("simulation.run_condition.attempted")),
        "simulation.sample_latent_s": t("simulation.sample_latent"),
        "trace.spans": n_spans,
    }

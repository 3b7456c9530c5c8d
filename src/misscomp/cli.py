"""Command line interface.

Subcommands: ``analyze`` runs the full pipeline on a CSV and writes a
report bundle, ``patterns`` stops after pattern tabulation, ``simulate``
runs the criterion-recovery Monte Carlo, ``guidance`` prints the
recommended retention criterion for a planned design.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__, reports, retention, simulation
from .correlation import PEARSON, TETRACHORIC
from .extraction import PAF, PCA
from .pipeline import PipelineError, RunConfig, analyze, write_bundle, write_patterns


def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _names(text: str) -> list[str] | None:
    return text.split(",") if text else None


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", dest="input_path", required=True, help="input CSV path")
    p.add_argument("--out", dest="output_dir", help="output directory (default: current)")
    p.add_argument("--delimiter", help="field delimiter (default: ,)")
    p.add_argument(
        "--sentinels",
        dest="missing_sentinels",
        type=_csv_tuple,
        help="comma-joined missing-value sentinels; a leading/trailing comma adds the "
        'empty string (default: "", NA, .)',
    )
    p.add_argument("--columns", type=_names, help="comma-joined columns to analyze (default: all)")
    p.add_argument(
        "--drop-fully-missing",
        dest="drop_fully_missing_pattern",
        action="store_true",
        help="drop the all-missing pattern row and percent base",
    )
    p.add_argument(
        "--formats",
        dest="output_formats",
        type=_csv_tuple,
        help="comma-joined output formats from csv,json,md (default: csv,json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misscomp",
        description="Reduce missing-data patterns to components and probe what drives them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # analyze and patterns parse into RunConfig fields; an absent flag keeps
    # the RunConfig default
    pa = sub.add_parser(
        "analyze", help="run the full eight-step pipeline on a CSV", argument_default=argparse.SUPPRESS
    )
    _add_io_args(pa)
    pa.add_argument("--corr", dest="correlation_kind", choices=[PEARSON, TETRACHORIC])
    pa.add_argument("--method", dest="extraction_method", choices=[PCA, PAF])
    pa.add_argument(
        "--criterion",
        choices=list(retention.CRITERIA) + ["auto"],
        help="decisive retention criterion; all four are always reported (default: parallel)",
    )
    pa.add_argument("--cutoff", type=float, help="dichotomization cutoff (default 0)")
    pa.add_argument("--pa-reps", type=int)
    pa.add_argument("--pa-percentile", type=float)
    pa.add_argument("--seed", type=int, help="seed for the permutation null")
    pa.add_argument("--strata", dest="strata_column", help="column to stratify the rerun by")
    pa.add_argument(
        "--covariates", dest="covariate_columns", type=_names, help="comma-joined covariate columns"
    )
    pa.add_argument(
        "--ipc-hint",
        dest="items_per_component_hint",
        type=int,
        help="items per component, for --criterion auto",
    )
    pa.add_argument(
        "--components-hint",
        dest="expected_components_hint",
        type=int,
        help="expected components, for --criterion auto",
    )

    pp = sub.add_parser(
        "patterns", help="tabulate missingness patterns and stop", argument_default=argparse.SUPPRESS
    )
    _add_io_args(pp)

    ps = sub.add_parser("simulate", help="criterion-recovery Monte Carlo")
    ps.add_argument("--full", action="store_true", help="run the full 108-cell design")
    ps.add_argument("--cell", default=None, help='comma-joined "CxI" structures, e.g. 1x5,3x10')
    ps.add_argument("--n", default="1000", help="comma-joined sample sizes")
    ps.add_argument("--pmiss", default="0.25", help="comma-joined missingness rates")
    ps.add_argument("--corr", choices=[PEARSON, TETRACHORIC], default=PEARSON)
    ps.add_argument("--method", choices=[PCA, PAF], default=PCA)
    ps.add_argument("--reps", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--out", default=".", help="output directory (default: current)")

    pg = sub.add_parser("guidance", help="which criterion to trust for a planned design")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--items-per-component", type=int, required=True)
    pg.add_argument("--components", type=int, required=True)
    return parser


def _run_config(args) -> RunConfig:
    """The command's RunConfig, with its --out created, so an unwritable
    --out fails before the input is read."""
    config = RunConfig(**{name: value for name, value in vars(args).items() if name != "command"})
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    return config


def _cmd_analyze(args) -> int:
    result = analyze(_run_config(args))
    files = write_bundle(result)
    for crit, dec in result.decisions.items():
        marker = " (decisive)" if crit == result.decisive else ""
        print(f"{crit}: {dec.k_retained} component(s){marker}")
    print(f"wrote {len(files)} file(s) to {result.config.output_dir}")
    return 0


def _cmd_patterns(args) -> int:
    config = _run_config(args)
    table, files = write_patterns(config)
    print(
        f"{table.n_observed_patterns} pattern(s) across {table.k} indicator(s); "
        f"wrote {len(files)} file(s) to {config.output_dir}"
    )
    return 0


def _parse_cells(args) -> list[simulation.SimCondition]:
    if args.full:
        return simulation.full_grid(args.corr, args.method)
    if not args.cell:
        raise ValueError("pass --full or at least one --cell CxI")
    structures = []
    for token in args.cell.split(","):
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"bad --cell value {token!r}; expected CxI like 3x5")
        try:
            structures.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"bad --cell value {token!r}; expected integers") from None
    try:
        ns = [int(v) for v in args.n.split(",")]
        pmisses = [float(v) for v in args.pmiss.split(",")]
    except ValueError:
        raise ValueError("--n takes integers and --pmiss takes floats") from None
    return [
        simulation.SimCondition(c, i, n, p, args.corr, args.method)
        for c, i in structures
        for n in ns
        for p in pmisses
    ]


def _cmd_simulate(args) -> int:
    conditions = _parse_cells(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    report = simulation.run_grid(conditions, reps=args.reps, seed=args.seed, workers=args.workers)
    elapsed = time.time() - started
    reports.write_grid_csv(outdir / "grid.csv", report)
    reports.write_aggregate_csv(outdir / "aggregate.csv", report)
    # the worker count and the elapsed time stay out, so reruns match byte for byte
    settings = dict(
        cells=[list(c.key()) for c in conditions],
        n_cells=len(conditions),
        reps=args.reps,
        corr=args.corr,
        method=args.method,
        full=args.full,
    )
    files = ["aggregate.csv", "grid.csv", "manifest.json"]
    manifest = reports.manifest("simulate", files, seed=args.seed, config=settings)
    reports.write_manifest(outdir / "manifest.json", manifest)
    agg = report.aggregate()
    for crit, stats in agg.items():
        print(
            f"{crit}: mean proportion correct {stats['mean_proportion_correct']:.3f} "
            f"({stats['n_success_cells']}/{stats['n_cells']} cells at or above "
            f"{simulation.SUCCESS_THRESHOLD})"
        )
    print(f"wrote grid.csv, aggregate.csv, manifest.json to {args.out} in {elapsed:.1f}s")
    return 0


def _cmd_guidance(args) -> int:
    print(retention.guidance(args.n, args.items_per_component, args.components))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "patterns": _cmd_patterns,
        "simulate": _cmd_simulate,
        "guidance": _cmd_guidance,
    }
    try:
        return handlers[args.command](args)
    except PipelineError as exc:
        print(f"error [{exc.step}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # a bad setting or an unwritable output path
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

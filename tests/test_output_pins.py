"""Byte pins of both workloads' outputs on the benchmark's own inputs.

``analyze`` runs on the survey CSV that ``bench/fixture.py`` writes at
seeds 1, 6 and 11 (20000 rows), with covariate ``age``, strata ``site``
and every output format, and each bundle file's SHA-256 is pinned;
``manifest.json`` is pinned without its paths and version fields, which
vary by machine. ``run_grid`` runs each of the benchmark's five
``mc_grid`` cells at its benchmark replications, and the SHA-256 of the
cell's ``grid.csv`` and ``aggregate.csv`` is pinned. A refactor that
promises the same bytes must pass these unedited.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from misscomp import reports, simulation
from misscomp.correlation import PEARSON
from misscomp.extraction import PCA
from misscomp.pipeline import RunConfig, analyze, write_bundle
from misscomp.retention import PARALLEL

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    """``bench/<name>.py`` loaded as a module, with ``bench/`` on the path
    for the imports it makes of its neighbours."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


write_survey = _bench_module("fixture").write_survey
MC_CELLS = _bench_module("measure").MC_CELLS
GRID_SEED = 1

# recorded while the one-indicator fits of step 7 still ran IRLS on their
# 2x2 tables as frequency-weighted rows
SURVEY_DIGESTS = {
    1: {
        "loadings.csv": "431f7462c3f80e773b8b224a452cf5b105b7b33aefb9cb65d93873f6e03c88c7",
        "loadings.md": "afe19e028cbacff6e5e3d1effc103dfc262573ed02c3d564e575ca744b5d58e8",
        "logistic.csv": "3da313e347eadd5a040cb0b1029793af3b800748f3b7f67f3953b36b78397205",
        "patterns.csv": "b5bd18bfd2027e31a9a2e6743bec15f3545a495a2726514d7a6c56b5d9c1530d",
        "patterns.json": "f964146afec3c6f075a2b9f92c548ee3cc46f279ccde08e0456620c88064ac33",
        "patterns.md": "37455bba4ce10cef32ea7e499c0500134fb33d7965c465fc338e5cc05593a0af",
        "retention.csv": "42762073ecb811df8e0d870449e2b27132fe5f7cd9075833d358e5c86bc0b654",
        "retention_curves.csv": "1b95364e97995c465fd5515b0d6a80eb27518884cf29d381306a634d31ae2731",
        "scores.csv": "54b92997fdbedc38f4fd0c79166e2e1a28aa2433ac9b163c3221d4eb18ae67f9",
        "screens.csv": "000d69e487b0ee9b3c0ec61e5199b5b0882040dd47c129d1e65d2ab07eba7a06",
    },
    6: {
        "loadings.csv": "0a034c52f88edacc3875857a53ea2043351cca57fe22c0cdf71f0c85fc540318",
        "loadings.md": "18cffc9201993142b3f6db65e071bdf0910bc4039b3f0a841ab485864b5165e6",
        "logistic.csv": "ea53824de78e6b7bc2b99461c80c84383257145d1f3798e430388e0ffa124ace",
        "patterns.csv": "4515d634f705cb01e13a2069a717958a2d75e7d21d7474b1ae58d8e5c9e954b2",
        "patterns.json": "be1f9e9c59e3af2cf73fa2dc785e6f8a71d58d4018dd5b423b1668cae7b6be8b",
        "patterns.md": "e98954a3c4314749f1c06be849260d970b123577028076acd23a13046be8b6a3",
        "retention.csv": "42762073ecb811df8e0d870449e2b27132fe5f7cd9075833d358e5c86bc0b654",
        "retention_curves.csv": "29a951cfa5c88462dfbdc43b2f1684d3d44de1c3184e1c5fbbeca6abcbb39744",
        "scores.csv": "9533b8ebfd62b7ee47d0c1c889e38c71ac1ace62a693e81cd73a877ca7695b9c",
        "screens.csv": "4954c45a61a609cfbd0f407297b3c2a4ff0f2824cc6567140b9cded4d2d95d0b",
    },
    11: {
        "loadings.csv": "5d02870a0fb3056ed80b1b34960abb660a092b45c281169f635552f8b388a38a",
        "loadings.md": "ab0a09cae4d0e7d1436c4beb923e8e5b98502b28c2209140935525772a0c0c96",
        "logistic.csv": "9132aa0716e55080c0d46a57eff07af0b8d720507b4bec3319846ba57df420cf",
        "patterns.csv": "6a76d6f7e914b6926da94999ed0306156c2b3eae0e460327058560c75caa4830",
        "patterns.json": "8eee5d0257ff22f62f328321becf0e999f8520724814a4294f081154f39de2f6",
        "patterns.md": "9cfa4494188b4c87bec6aa2b52ac28a0ef256617eed2b3fceddef32132c7a9be",
        "retention.csv": "42762073ecb811df8e0d870449e2b27132fe5f7cd9075833d358e5c86bc0b654",
        "retention_curves.csv": "3c13caad9130a88badc5014f8a9209674477b13e39a98133b351ccda753439fb",
        "scores.csv": "5a4dd02a643d601254f3c58fa2a76c220adbd849c5e2a02ee77fbc4d7a878219",
        "screens.csv": "174d1330a774b70e347a380f58fb62aa6c687383b80e9fde06bf3571a67d9850",
    },
}
MANIFEST_DIGESTS = {
    1: "80ea3241b430307c7f49426c0ce36038833dded308b528e0445fe40999c7ed19",
    6: "ef3886836b660e501826f410ef0ae8e376356ef9b32c1e144b23e0d3fe32bc9a",
    11: "8a7ffc2cc76e2431a7ffc477074d2cffc8a3834f999fee67deb4c1d3a1d5bd18",
}
GRID_DIGESTS = {
    0: {
        "aggregate.csv": "811fada475890ed6a1234d7544f9b50649b78969e5c8f2e777bb0ce9caded152",
        "grid.csv": "a77a526d407925c825c5b293bd1607521ea57223c47ac45a39ba5c8a41b221f9",
    },
    1: {
        "aggregate.csv": "cfec9229a35b2c951755edbccc4ba05751888712043755ef822ce3b28b8f06b5",
        "grid.csv": "831b5fac4ab80cd8ae6c00fbf5b6cfaa0bb0875d3d2c94ae5da72acc21851a65",
    },
    2: {
        "aggregate.csv": "ba11cc0f75e1bf21d3a47d9b76038a15fc33ab823cf082bb3cea01e9483acbb7",
        "grid.csv": "4166789364b1a7733dc90a4b7c406ff9a131234b5aa8e5b948c6ec400674be16",
    },
    3: {
        "aggregate.csv": "ba11cc0f75e1bf21d3a47d9b76038a15fc33ab823cf082bb3cea01e9483acbb7",
        "grid.csv": "c8797539a878e234f338a8101fe062135d1828eb4c59dd9726dad23cdbdceb68",
    },
    4: {
        "aggregate.csv": "ba11cc0f75e1bf21d3a47d9b76038a15fc33ab823cf082bb3cea01e9483acbb7",
        "grid.csv": "7a4b76d85df0cc5bfd7b87481113e01e2ce3a6bbd917ac1cecf7fb95ab635baa",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stable_manifest(path: Path) -> bytes:
    """manifest.json without the fields that vary by machine: the input and
    output paths and the tool and library versions."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["config"]["input_path"], manifest["config"]["output_dir"]
    del manifest["tool"], manifest["versions"]
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def survey_digests(seed: int, workdir: Path) -> tuple[dict[str, str], str]:
    """(file name -> SHA-256 of every bundle file but the manifest, SHA-256
    of the stable manifest) of ``analyze`` on the fixture at ``seed``."""
    csv_path = write_survey(workdir / "input", seed)
    out = workdir / "bundle"
    config = RunConfig(
        input_path=csv_path,
        output_dir=out,
        seed=seed,
        correlation_kind=PEARSON,
        extraction_method=PCA,
        criterion=PARALLEL,
        covariate_columns=["age"],
        strata_column="site",
        output_formats=("csv", "json", "md"),
    )
    files = write_bundle(analyze(config))
    digests = {name: _sha256((out / name).read_bytes()) for name in sorted(files) if name != "manifest.json"}
    return digests, _sha256(_stable_manifest(out / "manifest.json"))


def grid_digests(cell: int, workdir: Path) -> dict[str, str]:
    """SHA-256 of ``grid.csv`` and ``aggregate.csv`` of benchmark cell ``cell``."""
    cond, reps = MC_CELLS[cell]
    report = simulation.run_grid([cond], reps, GRID_SEED, workers=1)
    reports.write_grid_csv(workdir / "grid.csv", report)
    reports.write_aggregate_csv(workdir / "aggregate.csv", report)
    return {name: _sha256((workdir / name).read_bytes()) for name in ("grid.csv", "aggregate.csv")}


@pytest.mark.parametrize("seed", [1, 6, 11])
def test_survey_bundle_bytes_are_pinned(tmp_path, seed):
    digests, manifest = survey_digests(seed, tmp_path)
    assert digests == SURVEY_DIGESTS[seed]
    assert manifest == MANIFEST_DIGESTS[seed]


@pytest.mark.parametrize("cell", range(len(MC_CELLS)))
def test_grid_bytes_are_pinned(tmp_path, cell):
    assert grid_digests(cell, tmp_path) == GRID_DIGESTS[cell]

"""Seeded fixture for the survey_20k workload.

Generalises the single-propensity generator of the acceptance tests to q
latent propensities: item j goes missing when
``LOADING * u[j // ITEMS_PER_PROPENSITY] + sqrt(1 - LOADING**2) * eps``
exceeds the normal quantile of its missingness rate, so the indicators
carry exactly q components. Three complete columns ride along: a numeric
covariate ``age`` that depends on the first propensity, a 4-level strata
column ``site`` and a 3-level categorical column ``grp``. Complete columns
get no indicator, so the indicator matrix is the items alone.

Usage: python3 bench/fixture.py --seed 7 --out DIR [--rows 20000]

Writes ``DIR/survey.csv`` and ``DIR/survey.json``; the sidecar records
the seed, the shape and the CSV's SHA-256. The same seed and rows give
the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

ROWS = 20_000
PROPENSITIES = 3
ITEMS_PER_PROPENSITY = 10
LOADING = math.sqrt(0.7)
P_MISS = (0.15, 0.25, 0.35)  # cycled over the items
SITES = ("site_a", "site_b", "site_c", "site_d")
GROUPS = ("g1", "g2", "g3")


def item_names() -> list[str]:
    return [f"item{j + 1:02d}" for j in range(PROPENSITIES * ITEMS_PER_PROPENSITY)]


def write_survey(out_dir: str | Path, seed: int, rows: int = ROWS) -> Path:
    """Write the seeded survey CSV plus its sidecar; returns the CSV path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = item_names()
    k = len(names)
    owner = np.arange(k) // ITEMS_PER_PROPENSITY
    p_miss = np.array([P_MISS[j % len(P_MISS)] for j in range(k)])

    u = rng.standard_normal((rows, PROPENSITIES))
    eps = rng.standard_normal((rows, k))
    latent = LOADING * u[:, owner] + math.sqrt(1.0 - LOADING * LOADING) * eps
    miss = latent > ndtri(1.0 - p_miss)
    values = rng.normal(10.0, 2.0, (rows, k))
    age = np.clip(np.rint(45.0 + 6.0 * u[:, 0] + rng.normal(0.0, 10.0, rows)), 18, 90).astype(int)
    site = rng.choice(len(SITES), size=rows, p=(0.4, 0.3, 0.2, 0.1))
    grp = rng.integers(0, len(GROUPS), rows)

    path = out_dir / "survey.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["age", "site", "grp", *names])
        for i in range(rows):
            cells = ["" if miss[i, j] else f"{values[i, j]:.3f}" for j in range(k)]
            w.writerow([age[i], SITES[site[i]], GROUPS[grp[i]], *cells])
    meta = {
        "seed": seed,
        "rows": rows,
        "columns": 3 + k,
        "items": k,
        "propensities": PROPENSITIES,
        "loading": LOADING,
        "p_miss": [float(p) for p in p_miss],
        "missing_cells": int(miss.sum()),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }
    (out_dir / "survey.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rows", type=int, default=ROWS)
    args = parser.parse_args()
    print(write_survey(args.out, args.seed, args.rows))


if __name__ == "__main__":
    main()

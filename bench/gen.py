"""Seeded synthetic inputs for the benchmark workloads.

Every file is a pure function of (workload, modules, seed). Module sizes
are log-normal LOC with McCC correlated to LOC, defectiveness follows a
logistic model of both, and defective modules carry 1 + Poisson defects.
Generated files are cached under .bench_cache/ in the checkout, so input
generation never falls inside a timed region and a repeated seed reuses
them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parents[1] / ".bench_cache"
# Each seed of the wide workload is ~12 MB of CSV; keep only the newest few.
KEEP_SEEDS = 4
# Score vectors evaluated by suite-grid, cycled through by its timed loop:
# NOISY_VECTORS noisy model scores, then one strong model's scores.
NOISY_VECTORS = 6
SUITE_VECTORS = NOISY_VECTORS + 1
WIDE_EXTRA = 18


def _modules(rng: np.random.Generator, n: int):
    loc = np.maximum(1.0, np.round(rng.lognormal(3.6, 1.1, n)))
    mccc = np.maximum(1.0, np.round(0.18 * loc * rng.lognormal(0.0, 0.45, n)))
    eta = -2.4 + 0.8 * (np.log(loc) - 3.6) + 3.0 * (mccc / loc - 0.2)
    defective = rng.random(n) < 1.0 / (1.0 + np.exp(-eta))
    return loc, mccc, defective, eta


def _ids(n: int) -> list[str]:
    return [f"m{i:06d}" for i in range(n)]


def _yn(defective) -> list[str]:
    return ["Y" if b else "N" for b in defective]


def _write(path: Path, header: list[str], fmt: str, columns) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in zip(*columns))


def gen_wide(directory: Path, n: int, seed: int) -> None:
    """wide.csv: id, LOC, McCC, 18 LOC-correlated measures, Defective."""
    rng = np.random.default_rng([seed, 1])
    loc, mccc, defective, _ = _modules(rng, n)
    ratios = rng.lognormal(0.0, 1.0, WIDE_EXTRA)
    extra = [np.round(loc * r * rng.lognormal(0.0, 0.3, n), 2) for r in ratios]
    header = ["id", "LOC", "McCC"] + [f"X{j + 1:02d}" for j in range(WIDE_EXTRA)] + ["Defective"]
    fmt = "%s,%d,%d," + ",".join(["%.2f"] * WIDE_EXTRA) + ",%s\n"
    _write(directory / "wide.csv", header, fmt, [_ids(n), loc, mccc, *extra, _yn(defective)])


def gen_suite(directory: Path, n: int, seed: int) -> None:
    """suite.csv with defect counts, the score-noise matrix noise.npy and strong.npy.

    strong.npy is a strong model's scores: defects per 100 LOC plus small
    noise. Ranking by it beats the defect-blind optimal curve, so its Popt
    with benefit=defects leaves [0, 1].
    """
    rng = np.random.default_rng([seed, 2])
    loc, mccc, defective, _ = _modules(rng, n)
    counts = np.where(defective, 1 + rng.poisson(1.0, n), 0)
    _write(
        directory / "suite.csv",
        ["id", "LOC", "McCC", "Defective", "defect_count"],
        "%s,%d,%d,%s,%d\n",
        [_ids(n), loc, mccc, _yn(defective), counts],
    )
    np.save(directory / "noise.npy", rng.normal(0.0, 0.75, (NOISY_VECTORS, n)))
    np.save(directory / "strong.npy", 100.0 * counts / loc + rng.normal(0.0, 0.05, n))


def gen_import(directory: Path, n: int, seed: int) -> None:
    """modules.csv with ~1% zero-LOC rows, and scores.csv (id, score) shuffled."""
    rng = np.random.default_rng([seed, 3])
    loc, mccc, defective, eta = _modules(rng, n)
    zero = rng.random(n) < 0.01
    loc[zero] = 0.0
    mccc[zero] = 0.0
    ids = _ids(n)
    _write(
        directory / "modules.csv",
        ["id", "LOC", "McCC", "Defective"],
        "%s,%d,%d,%s\n",
        [ids, loc, mccc, _yn(defective)],
    )
    scores = np.round(eta + rng.normal(0.0, 1.0, n), 4)
    order = rng.permutation(n)
    _write(
        directory / "scores.csv",
        ["id", "score"],
        "%s,%.4f\n",
        [[ids[i] for i in order], scores[order]],
    )


GENERATORS = {"wide": gen_wide, "suite": gen_suite, "import": gen_import}


def inputs(kind: str, n: int, seed: int) -> Path:
    """Directory holding the generated inputs, generating them on first use."""
    base = CACHE / kind
    directory = base / f"n{n}-s{seed}"
    done = directory / ".done"
    if not done.exists():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        GENERATORS[kind](directory, n, seed)
        done.touch()
    done.touch()  # mark as recently used
    stale = sorted(
        (p for p in base.iterdir() if p != directory),
        key=lambda p: (p / ".done").stat().st_mtime if (p / ".done").exists() else 0.0,
    )
    for old in stale[: max(0, len(stale) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return directory

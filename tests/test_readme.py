"""README's "Library use" example, run as written: a public name it shows
that the package no longer has fails here."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from eameval.dataset import save_dataset

from conftest import build_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(3)
    loc = rng.integers(5, 500, 60)
    mccc = rng.integers(1, 40, 60)
    labels = rng.random(60) < loc / 600  # larger modules more often defective
    save_dataset(build_dataset({"LOC": loc.tolist(), "McCC": mccc.tolist()}, labels.tolist()),
                 tmp_path / "PC3.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 * 2  # the single reading, then one line per grid cell

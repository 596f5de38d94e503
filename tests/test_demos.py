"""The demos run end to end against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tradeoff_sweep_table_is_monotone():
    lines = run_demo("tradeoff_sweep.py").splitlines()
    header = ["Threshold", "Tags/word", "Error", "rate"]
    start = next(i for i, line in enumerate(lines) if line.split() == header)
    rows = [line.split() for line in lines[start + 1:] if line.strip()]
    assert len(rows) == 7
    ambiguity = [float(a) for _, a, _ in rows]
    error = [float(e.rstrip("%")) for _, _, e in rows]
    assert ambiguity == sorted(ambiguity)
    assert error == sorted(error, reverse=True)


def test_train_and_tag_prints_every_threshold():
    out = run_demo("train_and_tag.py")
    for theta in ("1.0", "0.5", "0.1"):
        assert f"theta={theta:<4}" in out
    assert "posteriors for" in out

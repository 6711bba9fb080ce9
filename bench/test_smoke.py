"""Smoke check: the benchmark runs end to end on a short input.

Run from the repository root with:

    python3 -m pytest -q bench/test_smoke.py

It is kept out of the tier-1 suite (pyproject's testpaths is tests/), since
it starts real brokers and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "flood", "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, listing", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric(trace, listing):
    proc = run_bench(ROOT, "--records", "700", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[listing]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

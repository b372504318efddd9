"""Smoke tests for the benchmark: every workload at toy size with all
per-op checks on, the metric names against BENCHMARK.json, and the
refusal to run without the library sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_every_workload_passes_its_checks():
    p = _run("--smoke")
    assert p.returncode == 0, p.stdout + p.stderr
    assert json.loads(p.stdout.splitlines()[-1]) == {"smoke_ok": True}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = _run("--workload", "tail-torus", "--seed", "5", "--seconds",
                 "0.2", "--trace", str(trace), "--smoke")
        assert p.returncode == 0, p.stdout + p.stderr
        result = json.loads(p.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run("--workload", "tail-torus", "--seed", "1", "--seconds", "1",
             "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()

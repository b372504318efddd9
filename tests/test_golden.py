"""Golden artifact lock: sha256 of every artifact of a few small CLI runs
and of one small trend-report run.

The determinism contract makes every artifact except ``manifest.txt``
byte-identical for a fixed (config, seed).  This test pins those bytes
across code changes, so a refactor that alters any output fails here.
A change that alters an artifact on purpose regenerates the hashes with

    PYTHONPATH=src python3 tests/test_golden.py

and names the artifact and the reason in CHANGES.md.

The explicit graph is read from a path relative to ``tests/golden/``,
because ``graph.adjacency_file`` is part of the config hash stamped into
every artifact header.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ppmatch import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HASHES = GOLDEN / "hashes.json"

_TREE = ["--set", "graph.depth=5", "--set", "graph.core_margin=2",
         "--set", "radii.r0=2"]
_EXPLICIT = ["--set", "graph.family=explicit",
             "--set", "graph.adjacency_file=explicit12.adj",
             "--set", "graph.core_margin=2", "--set", "radii.r0=2"]

# name -> argv (without --out)
RUNS = {
    "sample-tree-perturbed": [
        "sample", "--seed", "3", *_TREE,
        "--set", "process_left.kind=perturbed",
        "--set", "process_left.distance_law=0:0.5,1:0.3,2:0.2",
    ],
    "radii-tree": [
        "radii", "--seed", "4", *_TREE,
        "--set", "process_left.kind=poisson",
    ],
    "match-tree": ["match", "--seed", "5", *_TREE],
    "tail-explicit": [
        "tail", "--seed", "6", "--trials", "4", *_EXPLICIT,
        "--set", "process_left.kind=perturbed",
        "--set", "process_left.distance_law=0:0.6,1:0.3,2:0.1",
    ],
    "verify-tree": [
        "verify", "--seed", "7", "--trials", "3", *_TREE,
        "--set", "matcher.max_stage=4",
        "--set",
        "run.experiments=chebyshev,hall,indep,pn,discrepancy,greedy,dominance",
    ],
    "verify-explicit": [
        "verify", "--seed", "8", "--trials", "3", *_EXPLICIT,
        "--set", "process_left.kind=poisson", "--set", "matcher.max_stage=3",
        "--set", "run.experiments=discrepancy,greedy,indep",
    ],
    "radii-explicit-exact": [
        "radii", "--seed", "9", *_EXPLICIT,
        "--set", "radii.mode=exact", "--set", "radii.size_cap=4",
        "--set", "process_left.kind=poisson",
    ],
    "demo-ladder": [
        "demo-ladder", "--seed", "10",
        "--set", "graph.depth=6", "--set", "graph.core_margin=3",
        "--set", "radii.r0=2",
    ],
    # Disjoint short cycles are where clause 2 settles vertices; this run
    # also takes stage 1 through several sweeps.
    "match-cycles": [
        "match", "--seed", "12", "--set", "graph.family=explicit",
        "--set", "graph.adjacency_file=cycles60x5.adj",
        "--set", "graph.core_margin=2", "--set", "radii.r0=2",
        "--set", "process_left.kind=poisson",
    ],
}


# scripts/trend_report.py arguments (without --out)
TREND = ["--depths", "5", "6", "--trials", "3", "--seed", "11"]


def dir_hashes(out: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name != "manifest.txt"
    }


def artifact_hashes(argv: list[str], out: Path) -> dict[str, str]:
    """Run one CLI command from inside tests/golden and hash its output."""
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        code = cli.main([*argv, "--out", str(out)])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv[0]} exited {code}"
    return dir_hashes(out)


def trend_hashes(out: Path) -> dict[str, str]:
    """Run the trend report script and hash every file it writes."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trend_report.py"),
         *TREND, "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return dir_hashes(out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_artifacts(name, tmp_path, capsys):
    expected = json.loads(HASHES.read_text())[name]
    got = artifact_hashes(RUNS[name], tmp_path / name)
    capsys.readouterr()
    assert got == expected


def test_golden_trend_report(tmp_path):
    expected = json.loads(HASHES.read_text())["trend-report"]
    assert trend_hashes(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: artifact_hashes(argv, Path(tmp) / name)
            for name, argv in sorted(RUNS.items())
        }
        table["trend-report"] = trend_hashes(Path(tmp) / "trend-report")
    HASHES.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"wrote {HASHES} ({sum(map(len, table.values()))} artifacts)",
          file=sys.stderr)

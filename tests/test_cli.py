import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ppmatch import cli, processes
from ppmatch.errors import ConfigurationError

EXPLICIT12 = Path(__file__).resolve().parent / "golden" / "explicit12.adj"

SMALL = [
    "--set", "graph.depth=5",
    "--set", "graph.core_margin=2",
    "--set", "radii.r0=2",
]


def load(overrides=(), seed=None, trials=None, out=None, path=None):
    return cli.load_config(path, list(overrides), seed, trials, out)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def test_defaults():
    cfg = load()
    assert cfg.family.kind == "regular_tree"
    assert cfg.family.degree == 3
    assert (cfg.depth, cfg.core_margin) == (8, 4)
    assert cfg.spec_left.is_degenerate
    assert not cfg.spec_right.is_degenerate
    assert cfg.pipeline.r0 == 4
    assert cfg.pipeline.mode == "support"
    assert (cfg.trials, cfg.seed, cfg.workers) == (1, 1, 1)
    assert cfg.out == Path("out")
    assert cfg.tail_radii == [0, 1, 2, 3, 4]
    assert "chebyshev" in cfg.experiment_names


def test_cli_args_win_over_defaults(tmp_path):
    cfg = load(
        ["radii.r0=2", "graph.depth=5", "graph.core_margin=2",
         "run.tail_radii=0,1"],
        seed=9, trials=3, out=tmp_path,
    )
    assert cfg.pipeline.r0 == 2
    assert (cfg.depth, cfg.core_margin) == (5, 2)
    assert (cfg.seed, cfg.trials, cfg.out) == (9, 3, tmp_path)
    assert cfg.tail_radii == [0, 1]


def test_config_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[graph]\ndepth = 5\ncore_margin = 2\n\n[radii]\nr0 = 2\n")
    cfg = load(path=p)
    assert cfg.depth == 5
    assert cfg.pipeline.r0 == 2
    # Overrides still beat the file.
    cfg2 = load(["graph.depth=6"], path=p)
    assert cfg2.depth == 6
    with pytest.raises(ConfigurationError):
        load(path=tmp_path / "missing.ini")


def test_perturbed_process_wiring():
    cfg = load([
        "process_left.kind=perturbed", "process_left.distance_law=1:1.0",
    ])
    assert cfg.spec_left.max_displacement == 1


def test_config_hash_skips_deployment_keys(tmp_path):
    ref = load().config_hash
    assert load(seed=99).config_hash == ref
    assert load(out=tmp_path).config_hash == ref
    assert load(["run.workers=4"]).config_hash == ref
    assert load(trials=7).config_hash != ref
    assert load(["radii.r0=2", "graph.core_margin=4"]).config_hash != ref
    assert len(ref) == 16


@pytest.mark.parametrize("overrides", [
    ["graph.family=weird"],
    ["graph.depth=-1"],
    ["graph.family=explicit"],  # no adjacency_file
    ["radii.r0=3"],
    ["radii.r0=0"],
    ["radii.mode=fancy"],
    ["radii.radius_cap=2"],  # below the default r0 = 4
    ["radii.radius_cap=4"],  # equal to the default r0 = 4
    ["graph.core_margin=2"],  # below the default r0 = 4
    ["process_left.kind=weird"],
    ["process_left.kind=perturbed"],  # empty distance_law
    ["process_left.kind=perturbed", "process_left.distance_law=9:1.0"],
    ["run.trials=0"],
    ["run.workers=0"],
    ["matcher.sweep_cap=0"],
    ["matcher.chain_cap=0"],
    ["nosuch.key=1"],
    ["graph.nope=1"],
    ["justvalue"],
    ["nodot=3"],
    ["graph.depth=abc"],
    ["radii.r0=2.5"],
    ["process_right.kind=perturbed", "process_right.distance_law=1:x"],
    ["run.tail_radii=1,,2"],
    ["graph.family=explicit", "graph.adjacency_file=no_such_graph.adj"],
    ["order.r_max=-1"],
    ["run.tail_radii=-1,0,1"],
    ["graph.family=explicit", f"graph.adjacency_file={EXPLICIT12}",
     "run.tail_radii=0,1,-2"],
    ["matcher.max_stage=0"],
])
def test_rejected_configs(overrides):
    with pytest.raises(ConfigurationError):
        load(overrides)


# ---------------------------------------------------------------------------
# Subcommands and artifacts
# ---------------------------------------------------------------------------


def run_cli(args, out):
    rc = cli.main(args + ["--out", str(out)])
    assert rc == 0
    return json.loads((out / "summary.json").read_text())


def test_sample_artifacts_roundtrip(tmp_path):
    summ = run_cli(["sample", "--seed", "5"] + SMALL, tmp_path)
    assert summ["n_vertices"] == 94
    assert summ["left_points"] == 94  # one point per vertex
    for side in ("left", "right"):
        lines = (tmp_path / f"{side}_points.txt").read_text().splitlines()
        assert lines[0] == f"# config_hash={summ['config_hash']} seed=5"
        counts = [tuple(map(int, line.split())) for line in lines[1:95]]
        assert [v for v, _ in counts] == list(range(94))
        assert sum(c for _, c in counts) == summ[f"{side}_points"]
        if len(lines) > 95:
            # Origin pairs, one per point, grouped by landing vertex.
            assert lines[95] == processes.ORIGIN_HEADER
            landing = [int(line.split()[1]) for line in lines[96:]]
            assert landing == [v for v, c in counts for _ in range(c)]


def test_radii_command(tmp_path):
    summ = run_cli(["radii", "--seed", "5"] + SMALL, tmp_path)
    for name in ("radii_left.csv", "radii_right.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == "vertex,R,mode,flags"
        assert len(lines) == 2 + 94
    assert summ["left_censored"] + summ["right_censored"] > 0


def test_match_identity_on_matched_degenerates(tmp_path):
    summ = run_cli(
        ["match", "--seed", "5", "--set", "process_right.kind=degenerate"],
        tmp_path,
    )
    # Depth-8 window, identical one-point-per-vertex sides: only the
    # 46-vertex decided interior survives censoring and pairs in place.
    assert summ["matched"] == summ["n_left"] == summ["n_right"] == 46
    assert summ["unmatched_left"] == 0
    assert summ["tail"] == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert summ["order_collisions"] == 766
    produced = {p.name for p in tmp_path.iterdir()}
    assert produced == {
        "matching.txt", "stages.csv", "graph.txt", "order.txt",
        "radii_left.csv", "radii_right.csv", "tail.csv",
        "summary.json", "manifest.txt",
    }
    header = f"# config_hash={summ['config_hash']} seed=5"
    for name in produced - {"summary.json", "manifest.txt"}:
        assert (tmp_path / name).read_text().splitlines()[0] == header


def test_tail_byte_determinism(tmp_path):
    args = ["tail", "--seed", "11", "--trials", "3",
            "--set", "process_left.kind=poisson"] + SMALL
    run_cli(args, tmp_path / "a")
    run_cli(args, tmp_path / "b")
    run_cli(args + ["--set", "run.workers=2"], tmp_path / "c")
    for name in ("tail.csv", "stages.csv", "summary.json"):
        ref = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == ref
        assert (tmp_path / "c" / name).read_bytes() == ref


def test_tail_stage_table_counts_reaching_trials(tmp_path):
    run_cli(["tail", "--seed", "11", "--trials", "3",
             "--set", "process_left.kind=poisson"] + SMALL, tmp_path)
    lines = (tmp_path / "stages.csv").read_text().splitlines()
    assert lines[1] == "stage,mean_p_n_left,mean_p_n_right,n_trials"
    reached = [int(row.split(",")[3]) for row in lines[2:]]
    assert reached[0] == 3  # every trial runs stage 1
    assert all(a >= b for a, b in zip(reached, reached[1:]))


def test_verify_writes_lemma_tables(tmp_path):
    summ = run_cli(
        ["verify", "--seed", "9", "--trials", "3",
         "--set", "process_left.kind=poisson",
         "--set", "matcher.max_stage=4"] + SMALL,
        tmp_path,
    )
    assert summ["exact_assertion_failures"] == 0
    for name in ("chebyshev", "indep", "discrepancy", "greedy"):
        assert summ[name]["violations"] == 0
    assert summ["pn"]["n_stages"] == 4
    produced = {p.name for p in tmp_path.iterdir()}
    assert {
        "lemma_chebyshev_density_boost.csv",
        "lemma_independent_unmatched.csv",
        "lemma_count_discrepancy.csv",
        "lemma_greedy_subpath.csv",
        "lemma_pn_decay.csv",
    } <= produced


def test_verify_pn_needs_three_stages(tmp_path, capsys):
    rc = cli.main(
        ["verify", "--seed", "9", "--set", "run.experiments=pn",
         "--set", "process_left.kind=poisson",
         "--set", "matcher.max_stage=2",
         "--out", str(tmp_path)] + SMALL
    )
    assert rc == 2
    assert "max_stage" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "match"])
def test_max_stage_below_one_exits_2(command, tmp_path, capsys):
    rc = cli.main(
        [command, "--set", "matcher.max_stage=0", "--out", str(tmp_path)]
        + SMALL
    )
    assert rc == 2
    assert "matcher.max_stage" in capsys.readouterr().err


def test_trend_report_rejects_short_stage_cap(tmp_path):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "trend_report.py"),
         "--depths", "4", "--trials", "1", "--max-stage", "2",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "max_stage" in proc.stderr


def test_unknown_experiment_exits_with_error(tmp_path, capsys):
    rc = cli.main(
        ["verify", "--set", "run.experiments=nope",
         "--out", str(tmp_path)] + SMALL + ["--set", "radii.r0=2"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.adj"
    bad.write_text("0: 1\n1: 0 two\n")
    for overrides, key in (
        (["graph.depth=abc"], "graph.depth"),
        (["graph.family=explicit", f"graph.adjacency_file={bad}"],
         "adjacency line"),
    ):
        args = [a for item in overrides for a in ("--set", item)]
        assert cli.main(["sample", "--out", str(tmp_path)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


@pytest.mark.parametrize("side,kind", [
    ("process_left", "degenerate"), ("process_right", "poisson"),
])
def test_distance_law_needs_perturbed_kind(tmp_path, capsys, side, kind):
    # A law the process would ignore must not silently change the
    # config hash: it is rejected, naming the key.
    overrides = [f"{side}.kind={kind}", f"{side}.distance_law=1:1"]
    with pytest.raises(ConfigurationError, match=f"{side}.distance_law"):
        load(overrides)
    args = [a for item in overrides for a in ("--set", item)]
    assert cli.main(["sample", "--out", str(tmp_path)] + SMALL + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{side}.distance_law" in err


def test_demo_ladder_reports_unsplittable_pairs(tmp_path, capsys):
    summ = run_cli(["demo-ladder", "--seed", "3"], tmp_path)
    # Mirrored counts tie every vertical pair in the window.
    assert summ["tied_vertical_pairs"] == summ["levels"] == 17
    assert summ["r_max"] == 4
    assert "17/17" in capsys.readouterr().out
    assert (tmp_path / "demo_ladder.txt").exists()


def test_manifest_records_run(tmp_path):
    run_cli(["sample", "--seed", "5"] + SMALL, tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "command: sample" in manifest
    assert "wall_s:" in manifest


def test_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ppmatch.cli", "sample", "--seed", "2",
         "--out", str(tmp_path)] + SMALL,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").exists()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a bare import's time and memory, and no
    # module of the package needs it.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ppmatch.cli, ppmatch.experiments, sys; "
         "assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr

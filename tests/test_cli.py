import importlib.metadata
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ppmatch import cli, experiments, matching, processes
from ppmatch.errors import ConfigurationError
from ppmatch.graphs import build_window

EXPLICIT12 = Path(__file__).resolve().parent / "golden" / "explicit12.adj"

SMALL = [
    "--set", "graph.depth=5",
    "--set", "graph.core_margin=2",
    "--set", "radii.r0=2",
]
SMALL_TREE = [
    "--set", "graph.depth=3",
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
    ["run.experiments=hall,nope"],
])
def test_rejected_configs(overrides):
    with pytest.raises(ConfigurationError):
        load(overrides)


# Every integer key with a value that is out of its bound or no integer,
# and the value the message shows.
@pytest.mark.parametrize("key, text, shown", [
    ("graph.degree", "x", "'x'"),
    ("graph.depth", "-1", "-1"),
    ("graph.depth", "1.5", "'1.5'"),
    ("graph.core_margin", "-1", "-1"),
    ("radii.r0", "0", "0"),
    ("radii.r0", "3", "3"),
    ("radii.size_cap", "-1", "-1"),
    ("radii.radius_cap", "4", "4"),  # the default r0 = 4
    ("radii.radius_cap", "x", "'x'"),
    ("order.r_max", "-1", "-1"),
    ("matcher.max_stage", "0", "0"),
    ("matcher.sweep_cap", "0", "0"),
    ("matcher.chain_cap", "0", "0"),
    ("matcher.chain_cap", "1e3", "'1e3'"),
    ("run.trials", "0", "0"),
    ("run.seed", "one", "'one'"),
    ("run.workers", "0", "0"),
    ("run.tail_radii", "0,-1", "-1"),
    ("run.tail_radii", "0,x", "'x'"),
])
def test_integer_key_errors_name_the_key_and_the_value(key, text, shown):
    with pytest.raises(ConfigurationError) as info:
        load([f"{key}={text}"])
    message = str(info.value)
    assert message.startswith(f"{key} must be")
    assert message.endswith(f"got {shown}")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unknown_experiment_stops_every_command(
    command, tmp_path, monkeypatch, capsys
):
    # The name is checked at load time: no window is built and nothing
    # is written, whether or not the command runs experiments.
    calls = []
    monkeypatch.setattr(cli, "build_window", lambda *a: calls.append(a))
    out = tmp_path / "out"
    rc = cli.main(
        [command, "--set", "run.experiments=nope", "--out", str(out)] + SMALL
    )
    assert rc == 2 and calls == []
    assert "run.experiments" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_runs_no_trial(tmp_path, monkeypatch, capsys):
    # hall comes first in the list, but the unknown name after it is
    # refused before any experiment runs.
    calls = []
    real = experiments.run_trials

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_trials", spy)
    rc = cli.main(
        ["verify", "--set", "run.experiments=hall,nope",
         "--out", str(tmp_path / "out")] + SMALL
    )
    assert rc == 2 and calls == []
    assert "'nope'" in capsys.readouterr().err


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


def test_tail_builds_its_window_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_window(*args, **kwargs):
        calls.append(args)
        return build_window(*args, **kwargs)

    monkeypatch.setattr(cli, "build_window", counting_build_window)
    monkeypatch.setattr(experiments, "build_window", counting_build_window)
    run_cli(["tail", "--seed", "11", "--trials", "3"] + SMALL, tmp_path)
    assert len(calls) == 1


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


def test_failing_verify_writes_nothing(tmp_path, capsys):
    # chebyshev and indep succeed before pn fails on a one-stage run;
    # their tables must not be left behind.
    out = tmp_path / "out"
    rc = cli.main(
        ["verify", "--seed", "1", "--out", str(out),
         "--set", "process_left.kind=poisson"] + SMALL_TREE
    )
    assert rc == 2
    assert "at least 3 stages, got 1" in capsys.readouterr().err
    assert not list(out.glob("lemma_*")) and not out.exists()


def test_hall_skips_fully_censored_trials(tmp_path):
    # Trial 1 of 4 has no censor-free vertex: it is left out, and the
    # other three each write one row.
    summ = run_cli(
        ["verify", "--seed", "2", "--trials", "4",
         "--set", "graph.depth=7", "--set", "graph.core_margin=2",
         "--set", "radii.r0=2", "--set", "process_left.kind=poisson",
         "--set", "run.experiments=hall"],
        tmp_path,
    )
    assert summ["hall"]["trials"] == 3
    lines = (tmp_path / "lemma_boosted_hall.csv").read_text().splitlines()
    assert lines[1] == "trial,lhs,rhs,margin"
    assert [row.split(",")[0] for row in lines[2:]] == ["0", "1", "2"]


@pytest.mark.parametrize("command", ["sample", "match"])
def test_max_stage_below_one_exits_2(command, tmp_path, capsys):
    rc = cli.main(
        [command, "--set", "matcher.max_stage=0", "--out", str(tmp_path)]
        + SMALL
    )
    assert rc == 2
    assert "matcher.max_stage" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["match", "tail"])
def test_max_stage_above_cap_exits_2(command, tmp_path, capsys):
    rc = cli.main(
        [command, "--set", f"matcher.max_stage={2**64}",
         "--out", str(tmp_path)] + SMALL
    )
    assert rc == 2
    assert str(matching.MAX_STAGE_CAP) in capsys.readouterr().err


# graph.core_margin sets order.r_max's default, core_margin - r0.
@pytest.mark.parametrize("setting, key", [
    ("radii.r0", "radii.r0"),
    ("radii.radius_cap", "radii.radius_cap"),
    ("order.r_max", "order.r_max"),
    ("graph.core_margin", "order.r_max"),
])
def test_radius_key_above_vertex_count_exits_2(setting, key, tmp_path, capsys):
    rc = cli.main(
        ["match", "--out", str(tmp_path),
         "--set", "graph.family=explicit",
         "--set", f"graph.adjacency_file={EXPLICIT12}",
         "--set", "radii.r0=2", "--set", "radii.mode=exact",
         "--set", "radii.size_cap=3", "--set", f"{setting}={10**5}"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "cap of 12" in err
    assert not any(tmp_path.iterdir())


def test_r0_at_the_vertex_count_runs(tmp_path):
    rc = cli.main(
        ["match", "--out", str(tmp_path),
         "--set", "graph.family=explicit",
         "--set", f"graph.adjacency_file={EXPLICIT12}",
         "--set", "radii.r0=12", "--set", "radii.mode=exact",
         "--set", "radii.size_cap=3"]
    )
    assert rc == 0


def _limit_address_space():
    import resource

    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# A deep tree stops at the vertex cap, level by level; a deep and wide
# one also keeps its default tail radii below the cap, so it exits 2
# within an address-space limit far below a list of 10**8 radii.
@pytest.mark.parametrize("overrides, preexec", [
    (["graph.depth=1000000"], None),
    (["graph.depth=100000000", "graph.core_margin=100000000"],
     _limit_address_space),
])
def test_deep_tree_window_exits_2_at_once(overrides, preexec, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    args = [x for s in overrides for x in ("--set", s)]
    proc = subprocess.run(
        [sys.executable, "-m", "ppmatch.cli", "sample", "--seed", "1",
         "--out", str(tmp_path)] + args,
        capture_output=True, text=True, timeout=30, preexec_fn=preexec,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert "exceeds 200000 vertices" in proc.stderr


# The largest window distance: 2 * depth in a tree ball, n - 1 in the
# explicit 12-vertex graph.  At 1023 on the depth-4 tree the ball size
# of the infinite tree passes the float range.
@pytest.mark.parametrize("command, window, radius, cap", [
    ("tail", ["--set", "graph.depth=4"], 1023, 8),
    ("match", ["--set", "graph.depth=4"], 9, 8),
    ("match", ["--set", "graph.family=explicit",
               "--set", f"graph.adjacency_file={EXPLICIT12}"], 12, 11),
])
def test_tail_radius_above_window_distance_exits_2(
    command, window, radius, cap, tmp_path, capsys
):
    out = tmp_path / "out"
    rc = cli.main(
        [command, "--seed", "5", "--trials", "2", "--out", str(out),
         "--set", "graph.core_margin=2", "--set", "radii.r0=2",
         "--set", f"run.tail_radii=0,{radius}"] + window
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "run.tail_radii" in err and f"cap of {cap}" in err
    assert not out.exists() or not any(out.iterdir())


def test_default_tail_radii_stay_within_a_small_window(tmp_path):
    # On a 4-cycle the largest distance, 3, is below the default
    # core_margin, 4: the default tail radii stop at 3, so commands that
    # never read them, and match, run.
    adj = tmp_path / "c4.adj"
    adj.write_text("0: 1 3\n1: 0 2\n2: 1 3\n3: 0 2\n")
    c4 = ["--seed", "2", "--set", "graph.family=explicit",
          "--set", f"graph.adjacency_file={adj}", "--set", "radii.r0=2"]
    for command in ("sample", "radii", "match"):
        run_cli([command] + c4, tmp_path / command)
    lines = (tmp_path / "match" / "tail.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "1", "2", "3"]


@pytest.mark.parametrize("seed", [1, 3])
def test_match_with_every_core_vertex_censored_writes_nothing(
    seed, tmp_path, capsys
):
    out = tmp_path / "out"
    rc = cli.main(
        ["match", "--seed", str(seed), "--out", str(out),
         "--set", "graph.depth=3", "--set", "graph.core_margin=2",
         "--set", "radii.r0=2", "--set", "process_left.kind=poisson"]
    )
    assert rc == 2
    assert "every core vertex was censored in every trial" in (
        capsys.readouterr().err
    )
    assert not out.exists() or not any(out.iterdir())


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


def test_trend_report_rejects_zero_trials(tmp_path):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "trend_report.py"),
         "--depths", "4", "--trials", "0", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "trials" in proc.stderr
    assert not (tmp_path / "trends.json").exists()


def test_trend_report_writes_strict_json(tmp_path):
    # At depth 4 the tail has one positive estimate, so its slope is
    # undefined: trends.json says null there, which a strict parser reads.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "trend_report.py"),
         "--depths", "4", "5", "--trials", "2", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr

    def refuse(name):
        raise ValueError(f"trends.json holds {name}")

    trends = json.loads(
        (tmp_path / "trends.json").read_text(), parse_constant=refuse
    )
    assert trends["4"]["tail_slope"] is None
    assert trends["5"]["tail_slope"] == 0.0


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
    assert f"scipy: {importlib.metadata.version('scipy')}" in manifest
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
    # module of the package needs it; the Poisson table is literal, so
    # scipy.special stays unloaded too.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ppmatch.cli, ppmatch.experiments, sys; "
         "assert 'scipy.stats' not in sys.modules; "
         "assert 'scipy.special' not in sys.modules"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Robustness: random --set values end in exit 0 or 2, never a raw exception
# ---------------------------------------------------------------------------

MALFORMED = ["", "x", "1.5", "1,,2", "-1"]
# Integers stop at 64, except for the keys with a declared cap, which
# also draw a value above it that must exit 2: matcher.max_stage draws
# 2**64, radii.radius_cap and order.r_max (capped at the window's
# vertex count; at 10**5 uncapped, a run on the 12-vertex graph took
# more than 20 s) draw 10**5, and run.tail_radii (capped at the window's
# largest distance; at 1023 uncapped, a tree run overflowed a float)
# draws 1023.
INTS = ["0", "1", "2", "3", "64"]

# Each key's values: the boundaries of its type, and malformed strings
# for every key but run.workers.  The window stays tiny (tree depth
# <= 3), and exact mode, which can draw 200,000 sets per vertex and
# radius at the default size cap, never runs with a size cap above 3.
SET_VALUES = {
    "graph.family": ["regular_tree", "ladder_diagonal", "explicit"],
    "graph.degree": ["2", "3", "4"],
    "graph.depth": ["0", "1", "2", "3"],
    "graph.core_margin": ["0", "1", "2", "3"],
    "graph.adjacency_file": [str(EXPLICIT12)],
    "process_left.kind": ["poisson", "degenerate", "perturbed"],
    "process_left.distance_law": ["0:1", "0:0.5,1:0.5", "1:0", "3:1"],
    "process_right.kind": ["poisson", "degenerate", "perturbed"],
    "process_right.distance_law": ["0:1", "2:1", "1:2.5"],
    "radii.r0": ["2", "4"],
    "radii.mode": ["support", "exact"],
    "radii.size_cap": ["0", "1", "3", "6"],
    "radii.radius_cap": INTS + [str(10**5)],
    "order.r_max": INTS + [str(10**5)],
    "matcher.max_stage": INTS + [str(2**64)],
    "matcher.sweep_cap": INTS,
    "matcher.chain_cap": INTS,
    "run.seed": INTS,
    "run.trials": ["1", "2", "3"],
    "run.tail_radii": ["0", "0,1,2", "64", "0,1023"],
    "run.experiments": [
        "chebyshev", "hall", "indep", "pn", "discrepancy", "greedy",
        "dominance", "hall,dominance,pn",
    ],
}


@st.composite
def set_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(SET_VALUES)), max_size=4,
                         unique=True))
    values = {
        key: draw(st.sampled_from(SET_VALUES[key]) | st.sampled_from(MALFORMED))
        for key in keys
    }
    # 6 is the default size cap.
    if values.get("radii.mode") == "exact" and (
        values.get("radii.size_cap", "6") == "6"
    ):
        values["radii.size_cap"] = draw(st.sampled_from(["0", "1", "3"]))
    values["run.workers"] = draw(st.sampled_from(["0", "1", "2"]))
    return values


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["match", "tail", "verify"]),
       values=set_overrides())
def test_random_settings_exit_cleanly(command, values):
    args = [command] + SMALL_TREE
    for key, value in values.items():
        args += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(args + ["--out", out]) in (0, 2)

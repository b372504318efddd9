"""Command line front end: config parsing, orchestration, and artifacts.

Subcommands: sample, radii, match, tail, verify, demo-ladder.  Configs
are INI files with sections mirroring the module names; any key can be
overridden with --set section.key=value.  For a fixed (config, seed)
every artifact except the manifest is byte-identical across runs and
across worker-pool sizes: trials get index-derived seeds and results are
aggregated in trial order.  The manifest records wall time and versions,
so it is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import importlib.metadata
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bipartite, experiments, matching, order, processes, radii
from .errors import ConfigurationError, PpmatchError, ResourceError
from .graphs import (
    EXPLICIT, MAX_WINDOW_VERTICES, GraphFamily, GraphWindow, build_window,
    parse_adjacency_text,
)
from .seeds import derive_seed

# The pipeline keys default to PipelineConfig's field defaults.
_PIPELINE = experiments.PipelineConfig
_DEFAULTS = {
    "graph": {
        "family": "regular_tree",
        "degree": "3",
        "depth": "8",
        "core_margin": "4",
        "adjacency_file": "",
    },
    "process_left": {"kind": "degenerate", "distance_law": ""},
    "process_right": {"kind": "poisson", "distance_law": ""},
    "radii": {
        "r0": "4",
        "mode": _PIPELINE.mode,
        "size_cap": str(_PIPELINE.size_cap),
        "radius_cap": "",
    },
    "order": {"r_max": ""},
    "matcher": {
        "max_stage": "",
        "sweep_cap": str(_PIPELINE.sweep_cap),
        "chain_cap": str(_PIPELINE.chain_cap),
    },
    "run": {
        "trials": "1",
        "seed": "1",
        "out": "out",
        "workers": "1",
        "tail_radii": "",
        "experiments": "chebyshev,indep,pn,discrepancy,greedy",
    },
}

# Keys that select where or how fast results are produced, not what they
# are; left out of the config hash so reruns elsewhere still match.
_HASH_EXEMPT = {("run", "out"), ("run", "workers"), ("run", "seed")}


def _int(
    text: str, key: str, low: int | None = None, optional: bool = False
) -> int | None:
    """Config key `key`'s value as an integer of at least `low` (None:
    blank and optional)."""
    if optional and not text.strip():
        return None
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{key} must be an integer, got {text!r}"
        ) from None
    if low is not None and value < low:
        raise ConfigurationError(f"{key} must be >= {low}, got {value}")
    return value


def _parse_distance_law(text: str) -> dict[int, float]:
    law = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigurationError(
                f"distance_law entry {part!r} is not dist:weight"
            )
        d, w = part.split(":", 1)
        try:
            law[int(d)] = float(w)
        except ValueError:
            raise ConfigurationError(
                f"distance_law entry {part!r} does not hold two numbers"
            ) from None
    if not law:
        raise ConfigurationError("distance_law must list dist:weight pairs")
    return law


def _process_spec(section: dict, name: str) -> processes.ProcessSpec:
    kind = section["kind"].strip()
    if kind in ("poisson", "degenerate") and section["distance_law"].strip():
        raise ConfigurationError(
            f"{name}.distance_law applies only to kind=perturbed, not {kind}"
        )
    if kind == "poisson":
        return processes.ProcessSpec.poisson()
    if kind == "degenerate":
        return processes.ProcessSpec.degenerate()
    if kind == "perturbed":
        law = _parse_distance_law(section["distance_law"])
        return processes.ProcessSpec.perturbed(law)
    raise ConfigurationError(f"{name}.kind: unknown process kind {kind!r}")


@dataclass
class RunConfig:
    family: GraphFamily
    depth: int
    core_margin: int
    spec_left: processes.ProcessSpec
    spec_right: processes.ProcessSpec
    pipeline: experiments.PipelineConfig
    trials: int
    seed: int
    out: Path
    workers: int
    tail_radii: list[int]
    experiment_names: list[str]
    config_hash: str

    def window(self) -> GraphWindow:
        """The configured window.  Its vertex count caps the radius keys
        (order.r_max also at its default, core_margin - r0): every
        window distance is below it, and the work of radii.r0,
        radii.radius_cap (exact mode) and order.r_max grows with the
        value, so a larger one raises ResourceError.  The window's
        largest distance caps run.tail_radii: a tail radius costs work
        that grows with it, and its infinite-ball size can pass the
        float range."""
        w = build_window(self.family, self.depth, self.core_margin)
        for key, value, cap, what in (
            ("radii.r0", self.pipeline.r0, w.n, "vertex count"),
            ("radii.radius_cap", self.pipeline.radius_cap, w.n,
             "vertex count"),
            ("order.r_max",
             self.pipeline.resolved_order_r_max(self.core_margin), w.n,
             "vertex count"),
            ("run.tail_radii", max(self.tail_radii),
             _largest_distance(self.family, self.depth),
             "largest distance"),
        ):
            if value is not None and value > cap:
                raise ResourceError(
                    f"{key}={value} exceeds the cap of {cap}, the "
                    f"window's {what}"
                )
        return w


def _largest_distance(family: GraphFamily, depth: int) -> int:
    """Caps every window distance: n - 1 explicit, 2 * depth in a ball,
    and MAX_WINDOW_VERTICES - 1 in any window that can be built."""
    if family.kind == EXPLICIT:
        return len(family.adjacency) - 1
    return min(2 * depth, MAX_WINDOW_VERTICES - 1)


def _resolve(raw: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    data = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for section in raw.sections():
        if section not in data:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, value in raw[section].items():
            if key not in data[section]:
                raise ConfigurationError(
                    f"unknown config key {section}.{key}"
                )
            data[section][key] = value
    return data


def _config_hash(data: dict[str, dict[str, str]]) -> str:
    h = hashlib.sha256()
    for section in sorted(data):
        for key in sorted(data[section]):
            if (section, key) in _HASH_EXEMPT:
                continue
            h.update(f"{section}.{key}={data[section][key]}\n".encode())
    return h.hexdigest()[:16]


def load_config(
    path: Path | None,
    overrides: list[str],
    seed: int | None,
    trials: int | None,
    out: Path | None,
) -> RunConfig:
    raw = configparser.ConfigParser()
    if path is not None:
        if not Path(path).exists():
            raise ConfigurationError(f"config file not found: {path}")
        raw.read(path)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"--set expects section.key=value, got {item!r}"
            )
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not raw.has_section(section):
            raw.add_section(section)
        raw[section][key.strip()] = value.strip()
    data = _resolve(raw)
    if seed is not None:
        data["run"]["seed"] = str(seed)
    if trials is not None:
        data["run"]["trials"] = str(trials)
    if out is not None:
        data["run"]["out"] = str(out)

    g = data["graph"]
    fam_name = g["family"].strip()
    if fam_name == "regular_tree":
        family = GraphFamily.regular_tree(
            _int(g["degree"], "graph.degree")
        )
    elif fam_name == "ladder_diagonal":
        family = GraphFamily.ladder_diagonal()
    elif fam_name == "explicit":
        if not g["adjacency_file"].strip():
            raise ConfigurationError(
                "graph.adjacency_file is required for family=explicit"
            )
        try:
            text = Path(g["adjacency_file"].strip()).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"graph.adjacency_file: {exc}") from None
        family = parse_adjacency_text(text)
    else:
        raise ConfigurationError(f"graph.family: unknown family {fam_name!r}")
    depth = _int(g["depth"], "graph.depth", 0)
    core_margin = _int(g["core_margin"], "graph.core_margin", 0)

    spec_left = _process_spec(data["process_left"], "process_left")
    spec_right = _process_spec(data["process_right"], "process_right")

    rr = data["radii"]
    r0 = _int(rr["r0"], "radii.r0", 2)
    if r0 % 2:
        raise ConfigurationError(f"radii.r0 must be even, got {r0}")
    mode = rr["mode"].strip()
    if mode not in (radii.EXACT, radii.SUPPORT):
        raise ConfigurationError(f"radii.mode must be exact or support, got {mode!r}")
    size_cap = _int(rr["size_cap"], "radii.size_cap", 0)
    radius_cap = _int(rr["radius_cap"], "radii.radius_cap", r0 + 1, optional=True)
    order_r_max = _int(data["order"]["r_max"], "order.r_max", 0, optional=True)
    mm = data["matcher"]
    max_stage = _int(mm["max_stage"], "matcher.max_stage", 1, optional=True)
    sweep_cap = _int(mm["sweep_cap"], "matcher.sweep_cap", 1)
    chain_cap = _int(mm["chain_cap"], "matcher.chain_cap", 1)

    pipeline = experiments.PipelineConfig(
        r0=r0, mode=mode, radius_cap=radius_cap, size_cap=size_cap,
        order_r_max=order_r_max, max_stage=max_stage,
        sweep_cap=sweep_cap, chain_cap=chain_cap,
    )
    d_max = max(spec_left.max_displacement, spec_right.max_displacement)
    eff_r_max = pipeline.resolved_order_r_max(core_margin)
    if family.kind != "explicit" and core_margin < max(r0, d_max, eff_r_max):
        raise ConfigurationError(
            f"graph.core_margin must be >= max(r0={r0}, D_max={d_max}, "
            f"order r_max={eff_r_max})"
        )

    run = data["run"]
    tail_raw = run["tail_radii"].strip()
    if tail_raw:
        tail_radii = [_int(x, "run.tail_radii", 0) for x in tail_raw.split(",")]
    else:
        tail_radii = list(
            range(0, min(core_margin, _largest_distance(family, depth)) + 1)
        )
    experiment_names = [
        x.strip() for x in run["experiments"].split(",") if x.strip()
    ]
    for name in experiment_names:
        if name not in _EXPERIMENTS:
            raise ConfigurationError(f"run.experiments: unknown name {name!r}")

    return RunConfig(
        family=family, depth=depth, core_margin=core_margin,
        spec_left=spec_left, spec_right=spec_right, pipeline=pipeline,
        trials=_int(run["trials"], "run.trials", 1),
        seed=_int(run["seed"], "run.seed"), out=Path(run["out"]),
        workers=_int(run["workers"], "run.workers", 1),
        tail_radii=tail_radii, experiment_names=experiment_names,
        config_hash=_config_hash(data),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write(cfg: RunConfig, name: str, lines: list[str]) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / name
    header = f"# config_hash={cfg.config_hash} seed={cfg.seed}"
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


def _write_json(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload["config_hash"] = cfg.config_hash
    payload["seed"] = cfg.seed
    path = cfg.out / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _write_manifest(cfg: RunConfig, command: str, t0: float) -> None:
    lines = [
        f"command: {command}",
        f"config_hash: {cfg.config_hash}",
        f"seed: {cfg.seed}",
        f"trials: {cfg.trials}",
        f"ppmatch: {__version__}",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}",
        f"scipy: {importlib.metadata.version('scipy')}",
        f"wall_s: {time.perf_counter() - t0:.3f}",
    ]
    (cfg.out / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(cfg: RunConfig) -> dict:
    w = cfg.window()
    left = processes.sample(cfg.spec_left, w, derive_seed(cfg.seed, "left"))
    right = processes.sample(cfg.spec_right, w, derive_seed(cfg.seed, "right"))
    _write(cfg, "left_points.txt", processes.dump_multiset(left))
    _write(cfg, "right_points.txt", processes.dump_multiset(right))
    return {
        "n_vertices": w.n,
        "left_points": int(left.total),
        "right_points": int(right.total),
        "left_discarded": left.discarded,
        "right_discarded": right.discarded,
    }


def _cmd_radii(cfg: RunConfig) -> dict:
    left, right, fl, fr = experiments.sample_radius_fields(
        cfg.window(), cfg.spec_left, cfg.spec_right, cfg.seed, cfg.pipeline
    )
    _write(cfg, "radii_left.csv", radii.dump_radius_field(fl))
    _write(cfg, "radii_right.csv", radii.dump_radius_field(fr))
    return {
        "left_censored": fl.n_censored,
        "right_censored": fr.n_censored,
        "left_points": int(left.total),
        "right_points": int(right.total),
    }


def _cmd_match(cfg: RunConfig) -> dict:
    w = cfg.window()
    res = experiments.run_matching_pipeline(
        w, cfg.spec_left, cfg.spec_right, cfg.seed, cfg.pipeline
    )
    # The curve fails when every core vertex is censored: build it
    # before the first write, so that a failing run writes nothing.
    curve = experiments.curve_from_rows(
        [experiments.tail_row(res, cfg.tail_radii)], w, cfg.tail_radii
    )
    _write(cfg, "matching.txt", matching.dump_matching(res.matching, res.graph))
    _write(cfg, "stages.csv", matching.stage_reports_csv(res.reports))
    _write(cfg, "graph.txt", bipartite.dump_graph(res.graph))
    _write(cfg, "order.txt", order.dump_order(res.order))
    _write(cfg, "radii_left.csv", radii.dump_radius_field(res.field_left))
    _write(cfg, "radii_right.csv", radii.dump_radius_field(res.field_right))
    _write(cfg, "tail.csv", experiments.tail_csv(curve))
    return {
        "n_left": res.graph.n_left,
        "n_right": res.graph.n_right,
        "matched": res.matching.size,
        "unmatched_left": int((res.matching.matchL == -1).sum()),
        "tail": list(curve.estimates),
        "order_collisions": res.order.n_collisions,
    }


def _cmd_tail(cfg: RunConfig) -> dict:
    w = cfg.window()
    runs = experiments.run_trials(
        w, cfg.spec_left, cfg.spec_right, cfg.pipeline,
        cfg.trials, cfg.seed, "trial",
        reduce=functools.partial(
            experiments.tail_trial, radii_list=cfg.tail_radii
        ),
        workers=cfg.workers,
    )
    curve = experiments.curve_from_rows(
        [row for row, _ in runs], w, cfg.tail_radii
    )
    _write(cfg, "tail.csv", experiments.tail_csv(curve))
    stage_lines = ["stage,mean_p_n_left,mean_p_n_right,n_trials"]
    for k, (pl, pr, n) in enumerate(
        experiments.stage_means([reports for _, reports in runs])
    ):
        stage_lines.append(f"{k + 1},{pl:.10g},{pr:.10g},{n}")
    _write(cfg, "stages.csv", stage_lines)
    return {
        "trials": cfg.trials,
        "estimates": list(curve.estimates),
        "stderrs": list(curve.stderrs),
        "log_slope_vs_ball": curve.slope,
    }


def _pipeline(cfg: RunConfig, w: GraphWindow, tag: str):
    """One pipeline run on the seed derived for `tag`."""
    return experiments.run_matching_pipeline(
        w, cfg.spec_left, cfg.spec_right, derive_seed(cfg.seed, tag), cfg.pipeline
    )


def _lemma(rep: experiments.LemmaReport) -> tuple[str, list[str], dict]:
    """A lemma report's table name, table and headline."""
    return f"lemma_{rep.lemma_id}.csv", experiments.lemma_report_csv(rep), {
        "violations": rep.violations, "trials": rep.n_trials, "stderr": rep.stderr,
    }


def _pn(cfg: RunConfig, w: GraphWindow) -> tuple[str, list[str], dict]:
    decay = experiments.pn_decay(_pipeline(cfg, w, "pn").reports)
    lines = ["stage,p_left,p_right,halving_reference"] + [
        f"{s},{pl:.10g},{pr:.10g},{2.0 ** -s:.10g}"
        for s, pl, pr in zip(decay.stages, decay.p_left, decay.p_right)
    ]
    return "lemma_pn_decay.csv", lines, {
        "p_left_head": list(decay.p_left[:8]),
        "n_stages": len(decay.p_left),
        "fitted_ratio": decay.fitted_ratio,
    }


# Each run.experiments name and its (table name, table, headline) on a
# window; load_config rejects any other name.
_EXPERIMENTS = {
    "chebyshev": lambda cfg, w: _lemma(experiments.verify_chebyshev(
        w, cfg.trials, derive_seed(cfg.seed, "cheb"))),
    "hall": lambda cfg, w: _lemma(experiments.verify_boosted_hall(
        w, cfg.spec_left, cfg.spec_right, cfg.pipeline, cfg.trials,
        derive_seed(cfg.seed, "hall"))),
    "indep": lambda cfg, w: _lemma(
        experiments.verify_indep_set(_pipeline(cfg, w, "indep"))),
    "discrepancy": lambda cfg, w: _lemma(experiments.verify_discrepancy(
        w, cfg.spec_left, cfg.spec_right, 1, cfg.trials,
        derive_seed(cfg.seed, "disc"))),
    "dominance": lambda cfg, w: _lemma(experiments.tail_hole_dominance(
        w, cfg.spec_right, cfg.pipeline, cfg.tail_radii, cfg.trials,
        derive_seed(cfg.seed, "dom"))),
    "greedy": lambda cfg, w: _lemma(
        experiments.verify_greedy(w, cfg.trials, cfg.seed)),
    "pn": _pn,
}


def _cmd_verify(cfg: RunConfig) -> dict:
    w = cfg.window()
    headline: dict = {"exact_assertion_failures": 0}
    tables: list[tuple[str, list[str]]] = []
    for name in cfg.experiment_names:
        table, lines, headline[name] = _EXPERIMENTS[name](cfg, w)
        tables.append((table, lines))
    # Any experiment can fail: write once all have run, so that a
    # failing run writes nothing.
    for table, lines in tables:
        _write(cfg, table, lines)
    return headline


def _cmd_demo_ladder(cfg: RunConfig) -> dict:
    family = GraphFamily.ladder_diagonal()
    w = build_window(family, cfg.depth, cfg.core_margin)
    pm = processes.sample(
        processes.ProcessSpec.poisson(), w, derive_seed(cfg.seed, "ladder")
    )
    counts = pm.counts.copy()
    for i, (n, z) in enumerate(w.labels):
        if z == 1:
            counts[i] = counts[w.label_to_index[(n, 0)]]
    mirrored = processes.multiset_from_counts(counts)
    r_max = max(1, cfg.core_margin)
    of = order.build_order(mirrored, w, r_max)
    lines = ["# vertical pairs with identical sphere signatures under the"]
    lines.append("# level-flip symmetry (counts mirrored across z)")
    tied = 0
    levels = sorted({n for n, _ in w.labels})
    for n in levels:
        a = w.label_to_index.get((n, 0))
        b = w.label_to_index.get((n, 1))
        if a is None or b is None:
            continue
        sa = of.signature(a)
        sb = of.signature(b)
        if sa == sb:
            tied += 1
            lines.append(f"{n} {','.join(str(c) for c in sa)}")
    _write(cfg, "demo_ladder.txt", lines)
    print(
        f"demo-ladder: {tied}/{len(levels)} vertical pairs share their "
        f"signature; no signature order can split them"
    )
    return {"levels": len(levels), "tied_vertical_pairs": tied, "r_max": r_max}


_COMMANDS = {
    "sample": _cmd_sample,
    "radii": _cmd_radii,
    "match": _cmd_match,
    "tail": _cmd_tail,
    "verify": _cmd_verify,
    "demo-ladder": _cmd_demo_ladder,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppmatch",
        description="point-process matching pipelines on graph windows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument(
            "--set", action="append", default=[], dest="overrides",
            metavar="SECTION.KEY=VALUE",
        )
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(
            args.config, args.overrides, args.seed, args.trials, args.out
        )
        summary = _COMMANDS[args.command](cfg)
        _write_json(cfg, "summary.json", summary)
        _write_manifest(cfg, args.command, t0)
    except PpmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

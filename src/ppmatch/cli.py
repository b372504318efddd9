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
import hashlib
import json
import multiprocessing
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bipartite, experiments, matching, order, processes, radii
from .errors import ConfigurationError, PpmatchError
from .graphs import GraphFamily, GraphWindow, build_window, parse_adjacency_text
from .seeds import derive_seed

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
        "mode": radii.SUPPORT,
        "size_cap": "6",
        "radius_cap": "",
    },
    "order": {"r_max": ""},
    "matcher": {"max_stage": "", "sweep_cap": "10000", "chain_cap": "1000000"},
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


def _parse_int(text: str, name: str, optional: bool = False) -> int | None:
    """Config key `name`'s value as an integer (None: blank and optional)."""
    if optional and not text.strip():
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {text!r}"
        ) from None


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
        return build_window(self.family, self.depth, self.core_margin)


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
            _parse_int(g["degree"], "graph.degree")
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
    depth = _parse_int(g["depth"], "graph.depth")
    core_margin = _parse_int(g["core_margin"], "graph.core_margin")
    if depth < 0 or core_margin < 0:
        raise ConfigurationError("graph.depth and graph.core_margin must be >= 0")

    spec_left = _process_spec(data["process_left"], "process_left")
    spec_right = _process_spec(data["process_right"], "process_right")

    rr = data["radii"]
    r0 = _parse_int(rr["r0"], "radii.r0")
    if r0 < 2 or r0 % 2:
        raise ConfigurationError("radii.r0 must be an even integer >= 2")
    mode = rr["mode"].strip()
    if mode not in (radii.EXACT, radii.SUPPORT):
        raise ConfigurationError(f"radii.mode must be exact or support, got {mode!r}")
    size_cap = _parse_int(rr["size_cap"], "radii.size_cap")
    radius_cap = _parse_int(rr["radius_cap"], "radii.radius_cap", optional=True)
    if size_cap < 0:
        raise ConfigurationError("radii.size_cap must be >= 0")
    if radius_cap is not None and radius_cap <= r0:
        raise ConfigurationError(f"radii.radius_cap must exceed radii.r0 = {r0}")

    order_r_max = _parse_int(data["order"]["r_max"], "order.r_max", optional=True)
    if order_r_max is not None and order_r_max < 0:
        raise ConfigurationError("order.r_max must be >= 0")

    mm = data["matcher"]
    max_stage = _parse_int(mm["max_stage"], "matcher.max_stage", optional=True)
    sweep_cap = _parse_int(mm["sweep_cap"], "matcher.sweep_cap")
    chain_cap = _parse_int(mm["chain_cap"], "matcher.chain_cap")
    if sweep_cap <= 0 or chain_cap <= 0:
        raise ConfigurationError("matcher caps must be positive")
    if max_stage is not None and max_stage < 1:
        raise ConfigurationError("matcher.max_stage must be >= 1")

    d_max = max(spec_left.max_displacement, spec_right.max_displacement)
    eff_r_max = order_r_max if order_r_max is not None else max(0, core_margin - r0)
    if family.kind != "explicit" and core_margin < max(r0, d_max, eff_r_max):
        raise ConfigurationError(
            f"graph.core_margin must be >= max(r0={r0}, D_max={d_max}, "
            f"order r_max={eff_r_max})"
        )

    run = data["run"]
    trials_v = _parse_int(run["trials"], "run.trials")
    seed_v = _parse_int(run["seed"], "run.seed")
    workers = _parse_int(run["workers"], "run.workers")
    if trials_v < 1 or workers < 1:
        raise ConfigurationError("run.trials and run.workers must be >= 1")
    tail_raw = run["tail_radii"].strip()
    if tail_raw:
        tail_radii = [
            _parse_int(x, "run.tail_radii") for x in tail_raw.split(",")
        ]
        if min(tail_radii) < 0:
            raise ConfigurationError("run.tail_radii must be >= 0")
    else:
        tail_radii = list(range(0, core_margin + 1))
    experiment_names = [
        x.strip() for x in run["experiments"].split(",") if x.strip()
    ]

    pipeline = experiments.PipelineConfig(
        r0=r0, mode=mode, radius_cap=radius_cap, size_cap=size_cap,
        order_r_max=order_r_max, max_stage=max_stage,
        sweep_cap=sweep_cap, chain_cap=chain_cap,
    )
    return RunConfig(
        family=family, depth=depth, core_margin=core_margin,
        spec_left=spec_left, spec_right=spec_right, pipeline=pipeline,
        trials=trials_v, seed=seed_v, out=Path(run["out"]), workers=workers,
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
    import scipy

    lines = [
        f"command: {command}",
        f"config_hash: {cfg.config_hash}",
        f"seed: {cfg.seed}",
        f"trials: {cfg.trials}",
        f"ppmatch: {__version__}",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}",
        f"scipy: {scipy.__version__}",
        f"wall_s: {time.perf_counter() - t0:.3f}",
    ]
    (cfg.out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _radii_csv(field: radii.RadiusField) -> list[str]:
    lines = ["vertex,R,mode,flags"]
    for line in radii.dump_radius_field(field):
        v, r, mode, flags = line.split(" ", 3)
        lines.append(f"{v},{r},{mode},{flags}")
    return lines


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

_POOL_CFG: dict = {}


def _pool_init(cfg: RunConfig) -> None:
    _POOL_CFG["cfg"] = cfg
    _POOL_CFG["window"] = cfg.window()


def _tail_trial(t: int):
    cfg: RunConfig = _POOL_CFG["cfg"]
    w: GraphWindow = _POOL_CFG["window"]
    res = experiments.run_matching_pipeline(
        w, cfg.spec_left, cfg.spec_right,
        derive_seed(cfg.seed, "trial", t), cfg.pipeline,
    )
    vals, base = experiments.tail_row(res, cfg.tail_radii)
    p_left = [r.p_left for r in res.reports]
    p_right = [r.p_right for r in res.reports]
    return t, vals, base, p_left, p_right


def _map_trials(cfg: RunConfig, fn, n: int) -> list:
    if cfg.workers == 1:
        _pool_init(cfg)
        return [fn(t) for t in range(n)]
    with multiprocessing.Pool(
        cfg.workers, initializer=_pool_init, initargs=(cfg,)
    ) as pool:
        return pool.map(fn, range(n))


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
        "n_vertices": len(w.labels),
        "left_points": int(left.total),
        "right_points": int(right.total),
        "left_discarded": left.discarded,
        "right_discarded": right.discarded,
    }


def _cmd_radii(cfg: RunConfig) -> dict:
    left, right, fl, fr = experiments.sample_radius_fields(
        cfg.window(), cfg.spec_left, cfg.spec_right, cfg.seed, cfg.pipeline
    )
    _write(cfg, "radii_left.csv", _radii_csv(fl))
    _write(cfg, "radii_right.csv", _radii_csv(fr))
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
    _write(cfg, "matching.txt", matching.dump_matching(res.matching, res.graph))
    _write(cfg, "stages.csv", matching.stage_reports_csv(res.reports))
    _write(cfg, "graph.txt", bipartite.dump_graph(res.graph))
    _write(cfg, "order.txt", order.dump_order(res.order))
    _write(cfg, "radii_left.csv", _radii_csv(res.field_left))
    _write(cfg, "radii_right.csv", _radii_csv(res.field_right))
    curve = experiments.matching_distance_tail([res], cfg.tail_radii)
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
    rows = _map_trials(cfg, _tail_trial, cfg.trials)
    rows.sort(key=lambda item: item[0])
    kept = [vals for _, vals, base, _, _ in rows if base]
    curve = experiments.curve_from_rows(kept, w, cfg.tail_radii)
    _write(cfg, "tail.csv", experiments.tail_csv(curve))
    # Trials can stop at different stages; average each stage over the
    # trials that reached it and record that count.
    n_stages = max(len(r[3]) for r in rows)
    stage_lines = ["stage,mean_p_n_left,mean_p_n_right,n_trials"]
    for k in range(n_stages):
        pl = [r[3][k] for r in rows if len(r[3]) > k]
        pr = [r[4][k] for r in rows if len(r[4]) > k]
        stage_lines.append(
            f"{k + 1},{np.mean(pl):.10g},{np.mean(pr):.10g},{len(pl)}"
        )
    _write(cfg, "stages.csv", stage_lines)
    return {
        "trials": cfg.trials,
        "estimates": list(curve.estimates),
        "stderrs": list(curve.stderrs),
        "log_slope_vs_ball": curve.slope,
    }


def _cmd_verify(cfg: RunConfig) -> dict:
    w = cfg.window()
    headline: dict = {"exact_assertion_failures": 0}
    for name in cfg.experiment_names:
        if name == "chebyshev":
            rep = experiments.verify_chebyshev(
                w, cfg.trials, derive_seed(cfg.seed, "cheb")
            )
        elif name == "hall":
            rep = experiments.verify_boosted_hall(
                w, cfg.spec_left, cfg.spec_right, cfg.pipeline,
                cfg.trials, derive_seed(cfg.seed, "hall"),
            )
        elif name == "indep":
            res = experiments.run_matching_pipeline(
                w, cfg.spec_left, cfg.spec_right,
                derive_seed(cfg.seed, "indep"), cfg.pipeline,
            )
            rep = experiments.verify_indep_set(res)
        elif name == "discrepancy":
            rep = experiments.verify_discrepancy(
                w, cfg.spec_left, cfg.spec_right, 1,
                cfg.trials, derive_seed(cfg.seed, "disc"),
            )
        elif name == "dominance":
            rep = experiments.tail_hole_dominance(
                w, cfg.spec_right, cfg.pipeline, cfg.tail_radii,
                cfg.trials, derive_seed(cfg.seed, "dom"),
            )
        elif name == "greedy":
            rep = experiments.verify_greedy(w, cfg.trials, cfg.seed)
        elif name == "pn":
            res = experiments.run_matching_pipeline(
                w, cfg.spec_left, cfg.spec_right,
                derive_seed(cfg.seed, "pn"), cfg.pipeline,
            )
            decay = experiments.pn_decay(res.reports)
            lines = ["stage,p_left,p_right,halving_reference"]
            for k, s in enumerate(decay.stages):
                lines.append(
                    f"{s},{decay.p_left[k]:.10g},{decay.p_right[k]:.10g},"
                    f"{decay.halving_reference[k]:.10g}"
                )
            _write(cfg, "lemma_pn_decay.csv", lines)
            headline["pn"] = {
                "p_left_head": list(decay.p_left[:8]),
                "n_stages": len(decay.p_left),
                "fitted_ratio": decay.fitted_ratio,
            }
            continue
        else:
            raise ConfigurationError(f"run.experiments: unknown name {name!r}")
        _write(cfg, f"lemma_{rep.lemma_id}.csv", experiments.lemma_report_csv(rep))
        headline[name] = {
            "violations": rep.violations,
            "trials": rep.n_trials,
            "stderr": rep.stderr,
        }
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

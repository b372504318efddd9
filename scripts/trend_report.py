"""Trend report across window depths.

For each depth, runs the one-point-per-vertex versus Poisson pipeline a
few times and writes three tables per depth plus a combined JSON:

  tail_depth<d>.csv        matching-distance tail against ball size
  stages_depth<d>.csv      mean unmatched density per stage
  components_depth<d>.csv  components of {R_v > r} with censoring split out

The interesting trends: the log-tail slope against b_r stays negative,
unmatched densities fall off geometrically, and the live (non-censored)
part of the high-radius components does not grow with the window, while
the censored boundary shell necessarily does.
"""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from ppmatch import experiments, processes, radii
from ppmatch.errors import PpmatchError
from ppmatch.graphs import GraphFamily, build_window

TAIL_RADII = [0, 1, 2, 3, 4]


def reduce_trial(res, r0):
    """A trial's tail row, stage reports, and components of {R_v > r0}."""
    return (
        experiments.tail_row(res, TAIL_RADII),
        res.reports,
        radii.components_above(res.field_left, res.window, r0),
    )


def run_depth(depth, trials, seed, out, max_stage):
    window = build_window(GraphFamily.regular_tree(3), depth, 4)
    cfg = experiments.PipelineConfig(r0=2, max_stage=max_stage)
    runs = experiments.run_trials(
        window, processes.ProcessSpec.degenerate(),
        processes.ProcessSpec.poisson(), cfg, trials, seed,
        "depth", depth, "trial",
        reduce=partial(reduce_trial, r0=cfg.r0),
    )
    reports = [reps for _, reps, _ in runs]
    decays = [experiments.pn_decay(reps) for reps in reports]
    comps = [c for _, _, trial_comps in runs for c in trial_comps]
    comp_max = max((c.size for c in comps), default=0)
    comp_live_max = max((c.size - c.n_censored for c in comps), default=0)

    curve = experiments.curve_from_rows(
        [row for row, _, _ in runs], window, TAIL_RADII
    )
    (out / f"tail_depth{depth}.csv").write_text(
        "\n".join(experiments.tail_csv(curve)) + "\n"
    )

    lines = ["stage,mean_p_left,mean_p_right,halving_reference"]
    for k, (pl, pr, _) in enumerate(experiments.stage_means(reports)):
        lines.append(f"{k + 1},{pl:.10g},{pr:.10g},{2.0 ** -(k + 1):.10g}")
    (out / f"stages_depth{depth}.csv").write_text("\n".join(lines) + "\n")

    (out / f"components_depth{depth}.csv").write_text(
        "\n".join([
            "depth,n_vertices,n_components,max_size,max_size_minus_censored",
            f"{depth},{window.n},{len(comps)},{comp_max},{comp_live_max}",
        ]) + "\n"
    )

    return {
        "n_vertices": window.n,
        "tail_slope": curve.slope,
        "tail": list(curve.estimates),
        "fitted_ratio_mean": float(np.mean([d.fitted_ratio for d in decays])),
        "component_max_size": comp_max,
        "component_max_live_size": comp_live_max,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depths", type=int, nargs="+", default=[6, 8, 10])
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-stage", type=int, default=4)
    parser.add_argument("--out", type=Path, default=Path("trend_out"))
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for depth in args.depths:
        try:
            summary[str(depth)] = run_depth(
                depth, args.trials, args.seed, args.out, args.max_stage
            )
        except PpmatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        s = summary[str(depth)]
        print(
            f"depth {depth}: n={s['n_vertices']} tail_slope={s['tail_slope']:+.4f} "
            f"p_n_ratio={s['fitted_ratio_mean']:.3f} "
            f"component_max={s['component_max_size']} "
            f"live_max={s['component_max_live_size']}"
        )
    (args.out / "trends.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )


if __name__ == "__main__":
    main()

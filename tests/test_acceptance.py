"""Acceptance gate: eleven end-to-end criteria with stated budgets.

Each test prints one PASS line (visible under pytest -s) and enforces
its wall-clock budget; tolerances are part of the assertions.  The
oracles here are independent of the engine code paths they check:
exhaustive enumeration in conftest, closed-form analytics, and the
Hopcroft-Karp reference matcher.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    attach_tree_adjacency,
    exhaustive_chains_below,
    exhaustive_max_matching,
    random_instance,
    seeded_ranks,
)
from ppmatch import cli, experiments, matching, order, processes, radii
from ppmatch.graphs import GraphFamily, build_window
from ppmatch.seeds import derive_seed, uniform_stream


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def done(self, detail=""):
        wall = time.perf_counter() - self.t0
        assert wall < self.seconds, (
            f"{self.name}: {wall:.1f}s exceeded the {self.seconds}s budget"
        )
        print(f"PASS {self.name} ({wall:.1f}s < {self.seconds}s) {detail}")


def test_criterion_01_maximum_matching_oracles():
    budget = Budget("criterion 1: staged matcher equals two reference oracles", 60)
    for s in range(200):
        g = random_instance(derive_seed(1, "c1", s), 40, 40)
        n_pts = g.n_left + g.n_right
        ranks = seeded_ranks(g, derive_seed(1, "rk", s))
        m, _, _ = matching.run(g, ranks, math.ceil(n_pts / 4) + 1)
        hk, _ = matching.hopcroft_karp(g)
        assert m.size == hk, f"instance {s}: staged {m.size} != reference {hk}"
    for s in range(50):
        g = random_instance(derive_seed(1, "c1b", s), 10, 10, edge_prob=0.3)
        n_pts = g.n_left + g.n_right
        m, _, _ = matching.run(
            g, seeded_ranks(g, derive_seed(1, "rkb", s)), math.ceil(n_pts / 4) + 1
        )
        hk, _ = matching.hopcroft_karp(g)
        ex = exhaustive_max_matching(g)
        assert m.size == hk == ex, f"instance {s}: {m.size}/{hk}/{ex}"
    budget.done("200 + 50 instances, exact size agreement")


def test_criterion_02_stage_postcondition():
    budget = Budget("criterion 2: no chain shorter than 4n survives stage n", 120)
    checks = 0
    for s in range(20):
        g = random_instance(derive_seed(2, "c2", s), 60, 60, edge_prob=0.08)
        ranks = seeded_ranks(g, derive_seed(2, "rk", s))
        for n in range(1, 6):
            m = matching.run(g, ranks, max_stage=n)[0]
            leftovers = exhaustive_chains_below(g, m, 4 * n)
            assert leftovers == [], (
                f"instance {s} stage {n}: {len(leftovers)} short chains remain"
            )
            checks += 1
    budget.done(f"{checks} exhaustive searches, all empty")


def test_criterion_03_degenerate_end_to_end(tree3_d8):
    budget = Budget("criterion 3: identical one-per-vertex sides pair in place", 10)
    w = tree3_d8
    spec = processes.ProcessSpec.degenerate()
    left = processes.sample(spec, w, derive_seed(3, "left"))
    assert not radii.compute_bad_set(left, w, 4).any()
    cfg = experiments.PipelineConfig(r0=4)
    res = experiments.run_matching_pipeline(w, spec, spec, 3, cfg)
    decided = ~res.field_left.censored
    assert decided.any()
    assert (res.field_left.values[decided] == 4).all()
    # Stage 1 alone produces the identity pairing.
    assert res.reports[0].unmatched_left == 0
    assert res.matching.size == res.graph.n_left == res.graph.n_right
    assert np.array_equal(
        res.graph.left_vertex, res.graph.right_vertex[res.matching.matchL]
    )
    curve = experiments.curve_from_rows(
        [experiments.tail_row(res, [0, 1, 2, 3, 4])], w, [0, 1, 2, 3, 4]
    )
    assert curve.estimates[0] == 1.0
    assert all(x == 0.0 for x in curve.estimates[1:])
    budget.done(f"{res.matching.size} pairs, all at distance 0, tail 0 beyond r=0")


def test_criterion_04_poisson_analytics():
    budget = Budget("criterion 4: Poisson count and hole analytics", 30)
    n = 100_000
    counts = processes.poisson_count_samples(4, n, "c4")
    p0 = float(np.mean(counts == 0))
    target = math.exp(-1)
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(p0 - target) <= 3 * sigma, f"P(count=0) {p0} vs {target}"
    w = build_window(GraphFamily.regular_tree(3), 2, 1)
    est = processes.hole_probability(
        processes.ProcessSpec.poisson(), w, 1, n, derive_seed(4, "hole")
    )
    assert est.analytic == pytest.approx(math.exp(-4))
    sigma_h = math.sqrt(est.analytic * (1 - est.analytic) / n)
    assert abs(est.value - est.analytic) <= 3 * sigma_h, (
        f"hole {est.value} vs {est.analytic}"
    )
    budget.done(
        f"P(0)={p0:.5f} (target {target:.5f}), h(1)={est.value:.5f} "
        f"(target {est.analytic:.5f}), {n} samples each"
    )


def test_criterion_05_density_boost_spot_check():
    budget = Budget("criterion 5: neighborhood density boost at depth 10", 30)
    w = build_window(GraphFamily.regular_tree(3), 10, 1)
    rep = experiments.verify_chebyshev(w, 40, 5)
    p_hat = rep.extras["p_hat_mean"]
    p_prime = float(np.mean(rep.lhs))
    assert abs(p_hat - (1 - math.exp(-1))) <= 0.01
    assert abs(p_prime - (1 - math.exp(-3))) <= 0.01
    rho2 = 8.0 / 9.0
    bound = p_hat / (rho2 * (1 - p_hat) + p_hat)
    assert abs(bound - 0.659) <= 0.01
    assert rep.violations == 0  # p_prime >= bound in every trial
    budget.done(
        f"p={p_hat:.4f} (0.6321), p'={p_prime:.4f} (0.9502), bound {bound:.3f}"
    )


def test_criterion_06_order_value_conformance():
    budget = Budget("criterion 6: order value agrees with lexicographic order", 5)
    psi = order.psi
    from fractions import Fraction

    assert psi((0, 0, 0)) == 0
    assert psi((1, 0, 0)) == Fraction(1, 2)
    assert psi((2, 0)) == Fraction(3, 4)
    lens = uniform_stream(6, 10_000, "c6len")
    vals = uniform_stream(6, 16 * 10_000, "c6val")
    seen = {}
    for k in range(10_000):
        length = 1 + int(lens[k] * 6)
        base = 16 * k
        a = tuple(int(vals[base + i] * 5) for i in range(length))
        b = tuple(int(vals[base + 8 + i] * 5) for i in range(length))
        assert (a < b) == (psi(a) < psi(b)) and (a == b) == (psi(a) == psi(b))
        # Injective per length: trailing zero entries only append binary
        # zeros, so distinctness is scoped to equal-length signatures.
        for t in (a, b):
            key = (length, psi(t))
            seen.setdefault(key, t)
            assert seen[key] == t, f"collision: {t} vs {seen[key]}"
    budget.done(f"10^4 pairs ordered consistently, {len(seen)} distinct values")


def test_criterion_07_greedy_sparse_subpath():
    budget = Budget("criterion 7: greedy subpath conditions on 100 families", 60)
    w5 = build_window(GraphFamily.regular_tree(3), 5, 2)
    w6 = build_window(GraphFamily.regular_tree(3), 6, 2)
    for t in range(100):
        r = (1, 1, 1, 2, 2, 3)[t % 6]
        w = w5 if t % 2 else w6
        sets, u, v = experiments.sample_rconnected_family(
            w, r, 4, 4, derive_seed(7, "fam", t)
        )
        g = experiments.greedy_sparse_subpath(w, sets, u, v, r)
        assert g.pairwise_ok, f"family {t}: selected sets within r"
        assert g.gap_ok, f"family {t}: consecutive gap bound failed"
        assert g.endpoint_ok, f"family {t}: endpoint distance bound failed"
        assert g.bound_ok, (
            f"family {t}: dist {g.distance_uv} > bound {g.bound_value}"
        )
    budget.done("pairwise, gap, endpoint and distance bounds all exact")


def test_criterion_08_tail_dominates_holes(tree3_d8):
    budget = Budget("criterion 8: per-trial tail >= hole frequency", 300)
    rep = experiments.tail_hole_dominance(
        tree3_d8, processes.ProcessSpec.poisson(),
        experiments.PipelineConfig(r0=2), [0, 1, 2], 1000, 8,
    )
    assert rep.violations == 0, f"{rep.violations} per-trial violations"
    # A fully censored trial leaves both sides with no base vertices, so
    # the inequality is vacuous there; it must stay a rare exception.
    skipped = rep.extras["skipped_trials"]
    assert skipped <= 10, f"{skipped} of 1000 trials fully censored"
    budget.done(
        f"{rep.n_trials} comparisons, {skipped} vacuous trials, "
        f"worst margin {min(rep.margins):+.4f}"
    )


def test_criterion_09_support_mode_below_exact_mode():
    budget = Budget("criterion 9: support radii never exceed exact radii", 300)
    checked = 0
    for s in range(50):
        n = 10 + s % 4
        fam = GraphFamily.explicit(attach_tree_adjacency(n, derive_seed(9, "g", s)))
        w = build_window(fam, 0, 0)
        own = processes.sample(
            processes.ProcessSpec.poisson(), w, derive_seed(9, "own", s)
        )
        other = processes.sample(
            processes.ProcessSpec.poisson(), w, derive_seed(9, "oth", s)
        )
        sup = radii.compute_radius_field(
            own, other, w, 2, mode=radii.SUPPORT, size_cap=None
        )
        exa = radii.compute_radius_field(
            own, other, w, 2, mode=radii.EXACT, size_cap=None
        )
        # The single-component check is among the sets the exhaustive
        # mode tests, so wherever exact resolves, support resolves too
        # and cannot sit higher.
        assert not (sup.censored & ~exa.censored).any()
        both = ~sup.censored & ~exa.censored
        assert (sup.values[both] <= exa.values[both]).all(), f"seed {s}"
        checked += int(both.sum())
    budget.done(f"50 seeds, {checked} vertex comparisons")


def test_criterion_10_byte_determinism(tmp_path):
    budget = Budget("criterion 10: byte-identical artifacts", 120)
    small = [
        "--set", "graph.depth=5", "--set", "graph.core_margin=2",
        "--set", "radii.r0=2", "--set", "process_left.kind=poisson",
    ]
    cases = {
        "sample": ["sample", "--seed", "10"] + small,
        "radii": ["radii", "--seed", "10"] + small,
        "match": ["match", "--seed", "10"] + small,
        "tail": ["tail", "--seed", "10", "--trials", "4"] + small,
        "verify": ["verify", "--seed", "10", "--trials", "3",
                   "--set", "matcher.max_stage=4"] + small,
        "demo-ladder": ["demo-ladder", "--seed", "10"],
    }
    compared = 0
    for name, args in cases.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        for f in sorted(out_a.iterdir()):
            if f.name == "manifest.txt":  # records wall time by design
                continue
            assert f.read_bytes() == (out_b / f.name).read_bytes(), (
                f"{name}: {f.name} differs between reruns"
            )
            compared += 1
    out_w = tmp_path / "tail-w2"
    assert cli.main(
        cases["tail"] + ["--set", "run.workers=2", "--out", str(out_w)]
    ) == 0
    for f in sorted(out_w.iterdir()):
        if f.name == "manifest.txt":
            continue
        ref = (tmp_path / "tail-a" / f.name).read_bytes()
        assert f.read_bytes() == ref, f"worker pool changed {f.name}"
        compared += 1
    budget.done(f"6 subcommands rerun + 2-worker pool, {compared} files identical")


def test_criterion_11_trend_reports(tmp_path):
    budget = Budget("criterion 11: depth trend reports", 900)
    script = Path(__file__).resolve().parent.parent / "scripts" / "trend_report.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--depths", "6", "8", "10",
         "--trials", "6", "--seed", "11", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    # The script itself asserts tail and p_n monotonicity on every run.
    assert proc.returncode == 0, proc.stderr
    trends = json.loads((tmp_path / "trends.json").read_text())
    for d in ("6", "8", "10"):
        for name in (f"tail_depth{d}.csv", f"stages_depth{d}.csv",
                     f"components_depth{d}.csv"):
            assert (tmp_path / name).exists()
        assert math.isfinite(trends[d]["tail_slope"])
        assert 0.0 <= trends[d]["fitted_ratio_mean"] <= 1.0
    slopes = {d: trends[d]["tail_slope"] for d in trends}
    live = {d: trends[d]["component_max_live_size"] for d in trends}
    budget.done(f"slopes {slopes}, live component max {live}")

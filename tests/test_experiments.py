import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ppmatch import bipartite, experiments, order, processes
from ppmatch.errors import (
    CensoringError,
    ConfigurationError,
    ContractViolationError,
)
from ppmatch.graphs import (
    GraphFamily, GraphWindow, build_window, parse_adjacency_text,
)
from ppmatch.matching import StageReport
from ppmatch.seeds import derive_seed

from conftest import bfs_oracle, greedy_rescan_oracle, window_adjacency


DEG = processes.ProcessSpec.degenerate()
POI = processes.ProcessSpec.poisson()
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def deg_pipeline_d8(tree3_d8):
    cfg = experiments.PipelineConfig(r0=4)
    return experiments.run_matching_pipeline(tree3_d8, DEG, DEG, 7, cfg)


@pytest.fixture(scope="module")
def poisson_pipeline_d5(tree3_d5):
    cfg = experiments.PipelineConfig(r0=2)
    return experiments.run_matching_pipeline(tree3_d5, POI, POI, 13, cfg)


def path_window(n):
    adj = [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
    return build_window(GraphFamily.explicit(adj), 0, 0)


# ---------------------------------------------------------------------------
# Pipeline wiring
# ---------------------------------------------------------------------------


def test_resolved_order_r_max():
    assert experiments.PipelineConfig(r0=4).resolved_order_r_max(4) == 0
    assert experiments.PipelineConfig(r0=2).resolved_order_r_max(4) == 2
    assert experiments.PipelineConfig(r0=4).resolved_order_r_max(2) == 0
    cfg = experiments.PipelineConfig(r0=4, order_r_max=1)
    assert cfg.resolved_order_r_max(4) == 1


def test_pipeline_degenerate_end_state(
    deg_pipeline_d8, tree3_d8, poisson_pipeline_d5, tree3_d5
):
    res = deg_pipeline_d8
    # Identical one-point-per-vertex processes pair up in place.
    assert res.matching.size == res.graph.n_left == res.graph.n_right
    matched = res.left_distance >= 0
    assert matched.all()
    assert (res.left_distance == 0).all()
    assert np.array_equal(
        res.live_vertices,
        ~(res.field_left.censored | res.field_right.censored),
    )
    # Matched distances agree with a direct recomputation.
    for i, j in enumerate(res.matching.matchL):
        d = tree3_d8.distance(
            int(res.graph.left_vertex[i]), int(res.graph.right_vertex[j])
        )
        assert res.left_distance[i] == d
    # Poisson against Poisson: matched pairs sit apart.
    res = poisson_pipeline_d5
    matched = np.flatnonzero(res.matching.matchL >= 0)
    assert len(matched) > 0
    assert (res.left_distance > 0).any()
    for i in matched:
        j = res.matching.matchL[i]
        d = tree3_d5.distance(
            int(res.graph.left_vertex[i]), int(res.graph.right_vertex[j])
        )
        assert res.left_distance[i] == d
    assert (res.left_distance >= 0).sum() == len(matched)


def matched_count(res):
    return res.matching.size


def test_run_trials_in_trial_order(tree3_d5):
    cfg = experiments.PipelineConfig(r0=2)
    want = [
        experiments.run_matching_pipeline(
            tree3_d5, POI, POI, derive_seed(5, "depth", 5, "trial", t), cfg
        ).matching.size
        for t in range(3)
    ]
    assert len(set(want)) > 1
    for workers in (1, 2):
        assert experiments.run_trials(
            tree3_d5, POI, POI, cfg, 3, 5, "depth", 5, "trial",
            reduce=matched_count, workers=workers,
        ) == want


def test_run_trials_bounds_the_pool(tree3_d5, monkeypatch):
    # The pool gets min(workers, trials, CPU count) processes, and none
    # at one; a stand-in Pool records its size and runs in-process.
    import multiprocessing

    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(t) for t in items]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    monkeypatch.setattr(experiments, "_WORKER", {})
    cfg = experiments.PipelineConfig(r0=2)
    want = experiments.run_trials(
        tree3_d5, POI, POI, cfg, 3, 5, "trial", reduce=matched_count
    )
    for cpus, workers, trials, size in [
        (2, 8, 3, 2), (8, 8, 3, 3), (8, 2, 3, 2), (8, 8, 1, None),
        (1, 8, 3, None), (None, 8, 3, None),
    ]:
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = experiments.run_trials(
            tree3_d5, POI, POI, cfg, trials, 5, "trial",
            reduce=matched_count, workers=workers,
        )
        assert got == want[:trials]
        assert sizes == ([] if size is None else [size])


@pytest.mark.parametrize("harness", [
    lambda w: experiments.run_trials(
        w, POI, POI, experiments.PipelineConfig(r0=2), 0, 5, "trial",
        reduce=matched_count,
    ),
    lambda w: experiments.verify_chebyshev(w, 0, 1),
    lambda w: experiments.verify_discrepancy(w, POI, POI, 1, 0, 1),
    lambda w: experiments.verify_greedy(w, 0, 1),
], ids=["run_trials", "chebyshev", "discrepancy", "greedy"])
def test_zero_trials_are_refused(harness, tree3_d5):
    # A run of no trials has nothing to report: it is refused, not
    # reported as an empty table or a nan mean.
    with pytest.raises(ConfigurationError, match="trials must be >= 1, got 0"):
        harness(tree3_d5)


def test_pipeline_builds_order_from_left(tree3_d5):
    cfg = experiments.PipelineConfig(r0=2)
    res = experiments.run_matching_pipeline(tree3_d5, POI, DEG, 11, cfg)
    r_max = cfg.resolved_order_r_max(tree3_d5.core_margin)
    of = order.build_order(res.left, tree3_d5, r_max)
    assert np.array_equal(res.order.vertex_rank, of.vertex_rank)
    of_right = order.build_order(res.right, tree3_d5, r_max)
    assert not np.array_equal(res.order.vertex_rank, of_right.vertex_rank)


# ---------------------------------------------------------------------------
# Matching-distance tail
# ---------------------------------------------------------------------------


def test_tail_degenerate_exact(deg_pipeline_d8):
    curve = experiments.curve_from_rows(
        [experiments.tail_row(deg_pipeline_d8, [0, 1, 2])],
        deg_pipeline_d8.window, [0, 1, 2],
    )
    assert curve.estimates == (1.0, 0.0, 0.0)
    assert curve.ball_sizes == (1.0, 4.0, 10.0)
    assert curve.stderrs == (0.0, 0.0, 0.0)
    assert curve.n_trials == 1
    assert math.isnan(curve.slope)  # a single positive estimate fits no line


def test_tail_curve_rejects_increase():
    with pytest.raises(ContractViolationError):
        experiments.TailCurve(
            radii=(0, 1),
            ball_sizes=(1.0, 4.0),
            estimates=(0.5, 0.6),
            stderrs=(0.0, 0.0),
            slope=0.0,
            n_trials=1,
        )


def test_tail_empty_inputs(tree3_d5):
    with pytest.raises(CensoringError):
        experiments.curve_from_rows([], tree3_d5, [0, 1])
    with pytest.raises(CensoringError):
        experiments.curve_from_rows(
            [(np.zeros(2), 0), (np.zeros(2), 0)], tree3_d5, [0, 1]
        )
    curve = experiments.curve_from_rows(
        [(np.array([1.0, 0.5]), 3), (np.zeros(2), 0)], tree3_d5, [0, 1]
    )
    assert curve.estimates == (1.0, 0.5)
    assert curve.n_trials == 1


def test_tail_csv_format(deg_pipeline_d8):
    curve = experiments.curve_from_rows(
        [experiments.tail_row(deg_pipeline_d8, [0, 1])],
        deg_pipeline_d8.window, [0, 1],
    )
    lines = experiments.tail_csv(curve)
    assert lines[0] == "r,b_r,estimate,stderr"
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,4,0,0"


def test_tail_ball_sizes_averaged_in_explicit_window():
    w = path_window(5)
    curve = experiments.curve_from_rows(
        [(np.array([1.0, 0.5, 0.25]), 5)], w, [0, 1, 2]
    )
    # Mean ball sizes over the 5-path: interior vertices see more.
    assert curve.ball_sizes == (1.0, 2.6, 3.8)
    assert curve.estimates == (1.0, 0.5, 0.25)


def test_tail_ball_sizes_from_bfs_rows_on_a_torus(monkeypatch):
    # Explicit ball sizes come from truncated BFS rows, not from the
    # per-radius relations of ball_counts, up to the largest radius the
    # window allows.
    side = 12
    adj = [
        [((x + dx) % side) * side + (y + dy) % side
         for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for x in range(side) for y in range(side)
    ]
    w = build_window(GraphFamily.explicit(adj), 0, 0)

    def no_relations(*args, **kwargs):
        raise AssertionError("curve_from_rows called ball_counts")

    monkeypatch.setattr(GraphWindow, "ball_counts", no_relations)
    radii = [0, 1, 5, w.n - 1]
    vals = np.array([1.0, 0.5, 0.25, 0.0])
    curve = experiments.curve_from_rows([(vals, w.n)], w, radii)
    dist = bfs_oracle(adj)
    assert curve.ball_sizes == tuple(
        sum(d is not None and d <= r for row in dist for d in row) / w.n
        for r in radii
    )
    assert curve.ball_sizes[-1] == w.n


def test_tail_ball_sizes_do_not_depend_on_the_block_size():
    # The ball sizes do not depend on how many sources a block of rows
    # holds: the default, or one at ROW_ENTRIES = n.
    w = build_window(
        parse_adjacency_text((GOLDEN / "explicit12.adj").read_text()), 0, 0
    )
    radii = [0, 1, 2, 3, 5, 11]
    rows = [(np.zeros(len(radii)), 1)]
    default = experiments.curve_from_rows(rows, w, radii).ball_sizes
    with mock.patch("ppmatch.graphs.ROW_ENTRIES", w.n):
        one_each = experiments.curve_from_rows(rows, w, radii).ball_sizes
    assert one_each == default
    assert default[0] == 1.0 and default[-1] == w.n


def test_unmatched_count_at_every_radius(tree3_d5):
    # Degenerate left against an empty-ish right: force unmatched left
    # points by matching against a thinned process; with the flag their
    # tail contribution never decays to zero.
    cfg = experiments.PipelineConfig(r0=2)
    res = experiments.run_matching_pipeline(tree3_d5, DEG, POI, 3, cfg)
    vals_inf, base = experiments.tail_row(
        res, [0, 5, 50], unmatched_as_infinite=True
    )
    vals_fin, base2 = experiments.tail_row(res, [0, 5, 50])
    assert base == base2 > 0
    unmatched_rate = vals_inf[2] - vals_fin[2]
    assert vals_inf[2] >= vals_fin[2]
    # At r = 50 no in-window match can reach, so what is left is exactly
    # the unmatched density.
    assert vals_fin[2] == 0.0
    assert vals_inf[0] >= vals_inf[1] >= vals_inf[2] == unmatched_rate


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_extras_hold_only_what_the_rows_do_not(tree3_d5, poisson_pipeline_d5):
    cfg = experiments.PipelineConfig(r0=2)
    cases = [
        (experiments.tail_hole_dominance(tree3_d5, POI, cfg, [0, 1], 2, 3),
         {"skipped_trials"}),
        (experiments.verify_boosted_hall(tree3_d5, DEG, DEG, cfg, 2, 3),
         {"skipped_trials"}),
        (experiments.verify_chebyshev(tree3_d5, 2, 3), {"p_hat_mean"}),
        (experiments.verify_indep_set(poisson_pipeline_d5), set()),
        (experiments.verify_discrepancy(tree3_d5, POI, POI, 1, 4, 3),
         {"sizes", "log_freq_slope"}),
        (experiments.verify_greedy(tree3_d5, 2, 3), set()),
    ]
    for rep, keys in cases:
        assert set(rep.extras) == keys, rep.lemma_id
        assert rep.n_trials == len(rep.lhs) == len(rep.rhs), rep.lemma_id


def test_lemma_report_margins():
    rep = experiments.LemmaReport(
        lemma_id="x",
        lhs=(1.0, 2.0, 3.0),
        rhs=(0.5, 2.5, 3.0),
        violations=1,
        stderr=0.0,
    )
    assert rep.margins == (0.5, -0.5, 0.0)
    assert rep.n_trials == 3


def test_lemma_report_csv(deg_pipeline_d8, tree3_d8):
    rep = experiments.tail_hole_dominance(
        tree3_d8, DEG, experiments.PipelineConfig(r0=4), [0], 1, 7
    )
    lines = experiments.lemma_report_csv(rep)
    assert lines[0] == "trial,lhs,rhs,margin"
    assert len(lines) == 1 + rep.n_trials


# ---------------------------------------------------------------------------
# Tail versus hole dominance
# ---------------------------------------------------------------------------


def test_dominance_holds_per_trial(tree3_d5):
    rep = experiments.tail_hole_dominance(
        tree3_d5, POI, experiments.PipelineConfig(r0=2), [0, 1, 2], 10, 23
    )
    assert rep.violations == 0
    assert rep.extras["skipped_trials"] == 0
    assert rep.n_trials == 30  # 10 trials x 3 radii
    assert min(rep.margins) >= 0


def test_dominance_skip_accounting():
    # Depth-4 window with margin 4: the core is the root alone and the
    # sparse window censors it in most trials.
    w = build_window(GraphFamily.regular_tree(3), 4, 4)
    cfg = experiments.PipelineConfig(r0=4)
    rep = experiments.tail_hole_dominance(w, POI, cfg, [0, 1], 3, 1)
    assert rep.extras["skipped_trials"] == 2
    assert rep.n_trials == 2  # one usable trial x 2 radii
    with pytest.raises(CensoringError):
        experiments.tail_hole_dominance(w, POI, cfg, [0, 1], 3, 2)


def test_hall_skip_accounting():
    # Depth-4 window, Poisson on both sides: seed 3 censors every vertex
    # in two of three trials, seed 1 in all three.
    w = build_window(GraphFamily.regular_tree(3), 4, 2)
    cfg = experiments.PipelineConfig(r0=2)
    rep = experiments.verify_boosted_hall(w, POI, POI, cfg, 3, 3)
    assert rep.extras == {"skipped_trials": 2}
    assert rep.n_trials == 1
    with pytest.raises(CensoringError):
        experiments.verify_boosted_hall(w, POI, POI, cfg, 3, 1)


# ---------------------------------------------------------------------------
# Neighborhood density inequalities
# ---------------------------------------------------------------------------


def test_chebyshev_occupied_default(tree3_d5):
    rep = experiments.verify_chebyshev(tree3_d5, 4, 9)
    assert rep.lemma_id == "chebyshev_density_boost"
    assert rep.n_trials == 4
    assert 0.0 < rep.extras["p_hat_mean"] < 1.0


def test_chebyshev_rejects_amenable(ladder_d10):
    with pytest.raises(ConfigurationError):
        experiments.verify_chebyshev(ladder_d10, 1, 1)


def test_boosted_hall_shapes(tree3_d5):
    cfg = experiments.PipelineConfig(r0=2)
    rep = experiments.verify_boosted_hall(tree3_d5, DEG, DEG, cfg, 2, 3)
    assert rep.lemma_id == "boosted_hall"
    assert rep.n_trials == 2


# ---------------------------------------------------------------------------
# Independence of short-chain-free sets
# ---------------------------------------------------------------------------


def test_alternating_even_reachable_hand_instance():
    g = bipartite.graph_from_point_edges([0, 1], [0], [(0, 0), (1, 0)])
    matchL = np.array([0, -1], dtype=np.int64)
    in_l, in_r = experiments.alternating_even_reachable(g, matchL, 0)
    # Length 0: origins only, and every right point is matched.
    assert in_l.tolist() == [False, True]
    assert in_r.tolist() == [False]
    in_l2, in_r2 = experiments.alternating_even_reachable(g, matchL, 2)
    # left 1 -> right 0 (free edge) -> left 0 (matching edge).
    assert in_l2.tolist() == [True, True]
    assert in_r2.tolist() == [False]


def test_indep_set_exact_on_pipeline(poisson_pipeline_d5):
    rep = experiments.verify_indep_set(poisson_pipeline_d5)
    assert rep.n_trials == len(poisson_pipeline_d5.snapshots)
    assert all(x == pytest.approx(1.0 / 3.0) for x in rep.lhs)
    assert all(r >= 0.0 for r in rep.rhs)


def test_indep_set_catches_planted_edge(poisson_pipeline_d5):
    res = poisson_pipeline_d5
    g = res.graph
    # Plant a stage-1 failure: unmatch one edge's endpoints so both ends
    # of a live edge sit in the even-reachable sets.
    snap = res.snapshots[0].copy()
    i = int(np.nonzero(snap >= 0)[0][0])
    snap[i] = -1
    broken = experiments.PipelineResult(
        window=res.window, left=res.left, right=res.right,
        field_left=res.field_left, field_right=res.field_right,
        graph=g, order=res.order, ranks=res.ranks, matching=res.matching,
        reports=res.reports, snapshots=[snap],
        left_distance=res.left_distance,
    )
    with pytest.raises(ContractViolationError):
        experiments.verify_indep_set(broken)


# ---------------------------------------------------------------------------
# Count discrepancy
# ---------------------------------------------------------------------------


def test_discrepancy_r_zero_never_violates(tree3_d5):
    rep = experiments.verify_discrepancy(tree3_d5, POI, POI, 0, 30, 17)
    # r = 0 makes the right-hand side vanish, so counts never fall short.
    assert all(x == 0.0 for x in rep.rhs)
    assert rep.violations == 0


def test_discrepancy_reports_by_grown_size(tree3_d5):
    rep = experiments.verify_discrepancy(tree3_d5, POI, POI, 1, 40, 19)
    assert 0 <= rep.violations <= rep.n_trials
    assert all(isinstance(k, int) for k in rep.extras["sizes"])
    assert rep.n_trials == 40


# ---------------------------------------------------------------------------
# Greedy sparse subpath
# ---------------------------------------------------------------------------


def test_is_rconnected():
    w = path_window(5)
    assert experiments.is_rconnected(w, [0, 2, 4], 2)
    assert not experiments.is_rconnected(w, [0, 2, 4], 1)
    assert not experiments.is_rconnected(w, [], 1)


def test_greedy_drops_small_bridge_set():
    w = path_window(11)
    sets = [[0, 1, 2], [4, 5], [7, 8, 9]]
    res = experiments.greedy_sparse_subpath(w, sets, 0, 9, 2)
    assert res.path_indices == (0, 1, 2)
    # Largest-first keeps the two big sets; the middle pair is within r
    # of the first pick and drops out.
    assert res.selected == (0, 2)
    assert res.pairwise_ok and res.gap_ok and res.endpoint_ok and res.bound_ok
    assert res.distance_uv == 9
    assert res.bound_value == 3 * 2 * 2 + 3 * 6


def test_greedy_endpoint_check_reads_the_distance_to_the_kept_set():
    # {0, 3, 6} meets the larger {9, ..., 12} within r = 3 and drops out;
    # u = 0 then lies 9 from the one kept set, past |U| + r = 7, while
    # u = 3 lies 6 from it and v = 12 inside it.
    w = path_window(13)
    sets = [[0, 3, 6], [9, 10, 11, 12]]
    far = experiments.greedy_sparse_subpath(w, sets, 0, 12, 3)
    assert far.selected == (1,) and not far.endpoint_ok
    assert experiments.greedy_sparse_subpath(w, sets, 3, 12, 3).endpoint_ok
    back = experiments.greedy_sparse_subpath(w, sets, 12, 0, 3)
    assert back.selected == (1,) and not back.endpoint_ok


def test_greedy_validation():
    w = path_window(11)
    with pytest.raises(ContractViolationError):
        experiments.greedy_sparse_subpath(w, [[0, 1], []], 0, 1, 2)
    with pytest.raises(ContractViolationError):
        # {0, 5} is not 2-connected.
        experiments.greedy_sparse_subpath(w, [[0, 5]], 0, 5, 2)
    with pytest.raises(ContractViolationError):
        # Union {0,1} u {8,9} has a 7-step gap.
        experiments.greedy_sparse_subpath(w, [[0, 1], [8, 9]], 0, 9, 2)
    with pytest.raises(ContractViolationError):
        experiments.greedy_sparse_subpath(w, [[0, 1, 2]], 5, 0, 2)


def test_greedy_matches_rescanning_oracle():
    for depth in (5, 6):
        w = build_window(GraphFamily.regular_tree(3), depth, 0)
        dist = bfs_oracle(window_adjacency(w))
        for k in range(100):
            r = 1 + k % 3
            sets, u, v = experiments.sample_rconnected_family(
                w, r, 5, 4, derive_seed(11, "rescan", depth, k)
            )
            got = experiments.greedy_sparse_subpath(w, sets, u, v, r)
            want = greedy_rescan_oracle(sets, list(got.path_indices), dist, r)
            assert got.selected == want, (depth, k)


def test_sample_rconnected_family_is_valid(tree3_d5):
    for s in (3, 4):
        sets, u, v = experiments.sample_rconnected_family(tree3_d5, 2, 4, 4, s)
        union = sorted({x for ss in sets for x in ss})
        assert all(experiments.is_rconnected(tree3_d5, ss, 2) for ss in sets)
        assert experiments.is_rconnected(tree3_d5, union, 2)
        assert u in union and v in union


# ---------------------------------------------------------------------------
# Unmatched density decay
# ---------------------------------------------------------------------------


def fake_reports(p_left, p_right=None):
    p_right = p_right or p_left
    return [
        StageReport(
            stage=k + 1, sweeps=1, flips=0,
            unmatched_left=0, unmatched_right=0,
            p_left=a, p_right=b, wall_s=0.0,
        )
        for k, (a, b) in enumerate(zip(p_left, p_right))
    ]


def test_stage_means_count_reaching_trials():
    means = experiments.stage_means([
        fake_reports([0.4, 0.2, 0.1], [0.5, 0.3, 0.2]),
        fake_reports([0.6]),
    ])
    assert means == [
        (pytest.approx(0.5), pytest.approx(0.55), 2),
        (0.2, 0.3, 1),
        (0.1, 0.2, 1),
    ]


def test_pn_decay_halving():
    dec = experiments.pn_decay(fake_reports([0.4, 0.2, 0.1]))
    assert dec.stages == (1, 2, 3)
    assert dec.fitted_ratio == pytest.approx(0.5)


def test_pn_decay_guards():
    with pytest.raises(ConfigurationError, match="max_stage"):
        experiments.pn_decay(fake_reports([0.4, 0.2]))
    with pytest.raises(ContractViolationError):
        experiments.pn_decay(fake_reports([0.4, 0.5, 0.1]))
    with pytest.raises(ContractViolationError):
        experiments.pn_decay(fake_reports([0.4, 0.4, 0.4], [0.4, 0.5, 0.4]))


def test_pn_decay_on_pipeline(deg_pipeline_d8):
    reports = deg_pipeline_d8.reports
    if len(reports) < 3:
        pytest.skip("pipeline ended before stage 3")
    dec = experiments.pn_decay(reports)
    assert dec.p_left[0] == 0.0  # stage 1 already pairs everything
    assert dec.fitted_ratio == 0.0

import math

import numpy as np
import pytest

from ppmatch import bipartite, experiments, order, processes
from ppmatch.errors import (
    CensoringError,
    ConfigurationError,
    ContractViolationError,
)
from ppmatch.graphs import GraphFamily, build_window
from ppmatch.matching import StageReport


DEG = processes.ProcessSpec.degenerate()
POI = processes.ProcessSpec.poisson()


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


def test_resolved_order_r_max(tree3_d8):
    assert experiments.PipelineConfig(r0=4).resolved_order_r_max(tree3_d8) == 0
    assert experiments.PipelineConfig(r0=2).resolved_order_r_max(tree3_d8) == 2
    cfg = experiments.PipelineConfig(r0=4, order_r_max=1)
    assert cfg.resolved_order_r_max(tree3_d8) == 1


def test_pipeline_degenerate_end_state(
    deg_pipeline_d8, tree3_d8, poisson_pipeline_d5, tree3_d5
):
    res = deg_pipeline_d8
    # Identical one-point-per-vertex processes pair up in place.
    assert res.matching.size == res.graph.n_left == res.graph.n_right
    matched = res.left_distance >= 0
    assert matched.all()
    assert (res.left_distance == 0).all()
    assert (res.right_distance == 0).all()
    assert np.array_equal(
        res.live_vertices,
        ~(res.field_left.censored | res.field_right.censored),
    )
    # Matched distances agree with a direct recomputation.
    for i, j in res.matching.pairs():
        d = tree3_d8.distance(
            int(res.graph.left_vertex[i]), int(res.graph.right_vertex[j])
        )
        assert res.left_distance[i] == d
    # Poisson against Poisson: matched pairs sit apart, and both sides
    # carry each pair's distance.
    res = poisson_pipeline_d5
    pairs = res.matching.pairs()
    assert len(pairs) > 0
    assert (res.left_distance > 0).any()
    for i, j in pairs:
        d = tree3_d5.distance(
            int(res.graph.left_vertex[i]), int(res.graph.right_vertex[j])
        )
        assert res.left_distance[i] == res.right_distance[j] == d
    assert (res.left_distance >= 0).sum() == len(pairs)
    assert (res.right_distance >= 0).sum() == len(pairs)


def test_pipeline_builds_order_from_left(tree3_d5):
    cfg = experiments.PipelineConfig(r0=2)
    res = experiments.run_matching_pipeline(tree3_d5, POI, DEG, 11, cfg)
    of = order.build_order(res.left, tree3_d5, cfg.resolved_order_r_max(tree3_d5))
    assert np.array_equal(res.order.vertex_rank, of.vertex_rank)
    of_right = order.build_order(
        res.right, tree3_d5, cfg.resolved_order_r_max(tree3_d5)
    )
    assert not np.array_equal(res.order.vertex_rank, of_right.vertex_rank)


# ---------------------------------------------------------------------------
# Matching-distance tail
# ---------------------------------------------------------------------------


def test_tail_degenerate_exact(deg_pipeline_d8):
    curve = experiments.matching_distance_tail([deg_pipeline_d8], [0, 1, 2])
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
    with pytest.raises(ValueError):
        experiments.matching_distance_tail([], [0, 1])
    with pytest.raises(CensoringError):
        experiments.curve_from_rows([], tree3_d5, [0, 1])


def test_tail_csv_format(deg_pipeline_d8):
    curve = experiments.matching_distance_tail([deg_pipeline_d8], [0, 1])
    lines = experiments.tail_csv(curve)
    assert lines[0] == "r,b_r,estimate,stderr"
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,4,0,0"


def test_tail_ball_sizes_averaged_in_explicit_window():
    w = path_window(5)
    curve = experiments.curve_from_rows([np.array([1.0, 0.5, 0.25])], w, [0, 1, 2])
    # Mean ball sizes over the 5-path: interior vertices see more.
    assert curve.ball_sizes == (1.0, 2.6, 3.8)
    assert curve.estimates == (1.0, 0.5, 0.25)


def test_unmatched_count_at_every_radius(tree3_d5):
    # Degenerate left against an empty-ish right: force unmatched left
    # points by matching against a thinned process; with the flag their
    # tail contribution never decays to zero.
    cfg = experiments.PipelineConfig(r0=2)
    res = experiments.run_matching_pipeline(tree3_d5, DEG, POI, 3, cfg)
    vals_inf, base = experiments.tail_row(
        res, [0, 5, 50], side="left", unmatched_as_infinite=True
    )
    vals_fin, base2 = experiments.tail_row(res, [0, 5, 50], side="left")
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


def test_lemma_report_margins():
    rep = experiments.LemmaReport(
        lemma_id="x",
        n_trials=3,
        lhs=(1.0, 2.0, 3.0),
        rhs=(0.5, 2.5, 3.0),
        violations=1,
        stderr=0.0,
    )
    assert rep.margins == (0.5, -0.5, 0.0)


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
    assert rep.extras["worst_margin"] >= 0


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


def test_hole_indicator_average_empty_base(tree3_d5):
    pm = processes.sample(POI, tree3_d5, 5)
    with pytest.raises(CensoringError):
        experiments.hole_indicator_average(
            pm, tree3_d5, 1, np.zeros(tree3_d5.n, dtype=bool)
        )


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
    assert rep.extras["stages"] == len(poisson_pipeline_d5.snapshots)
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
        left_distance=res.left_distance, right_distance=res.right_distance,
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
    assert rep.extras["violation_rate"] == 0.0


def test_discrepancy_reports_by_grown_size(tree3_d5):
    rep = experiments.verify_discrepancy(tree3_d5, POI, POI, 1, 40, 19)
    assert 0.0 <= rep.extras["violation_rate"] <= 1.0
    assert all(isinstance(k, int) for k in rep.extras["sizes"])
    assert rep.n_trials == 40


# ---------------------------------------------------------------------------
# Greedy sparse subpath
# ---------------------------------------------------------------------------


def test_set_distance_and_rconnected():
    w = path_window(5)
    assert experiments.set_distance(w, [0], [3]) == 3
    assert experiments.set_distance(w, [0, 1], [3, 4]) == 2
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


def test_pn_decay_halving():
    dec = experiments.pn_decay(fake_reports([0.4, 0.2, 0.1]))
    assert dec.stages == (1, 2, 3)
    assert dec.fitted_ratio == pytest.approx(0.5)
    assert dec.halving_reference == (0.5, 0.25, 0.125)


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

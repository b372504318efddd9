"""Engine tests: chain discovery, minimal selection, flips, stages.

The little deterministic instances pin down the selection semantics the
statistics depend on; the randomized blocks cross-check the staged
engine against Hopcroft-Karp and the fast stage-1 selection, fresh and
kept across sweeps, against the generic sweep.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ppmatch import bipartite, matching
from ppmatch.errors import (
    ConfigurationError,
    ContractViolationError,
    ResourceError,
    StageDivergenceError,
)
from conftest import (
    exhaustive_chains_below,
    index_ranks,
    random_instance,
    seeded_ranks,
    derive,
)


def two_pair_trace():
    """Two left and two right points, co-located pairs plus one crossing
    edge: the smallest instance where key order decides the outcome."""
    return bipartite.graph_from_point_edges(
        [0, 1], [0, 1], [(0, 0), (1, 1), (0, 1)]
    )


def fresh(g):
    return matching.Matching(g)


def test_point_order_left_before_colocated_right():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    # Global pids: L0 L1 R0 R1 -> ranks interleave by vertex then side.
    assert list(ranks) == [0, 2, 1, 3]


def test_point_order_respects_vertex_rank():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.array([1, 0], dtype=np.int64))
    assert list(ranks) == [2, 0, 3, 1]


def test_chain_canonical_orientation():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    c = matching.Chain.canonical((3, 0), ranks)
    assert c.points == (0, 3)
    again = matching.Chain.canonical((0, 3), ranks)
    assert again == c


def test_chain_key_is_endpoint_first():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    short = matching.Chain.canonical((0, 2), ranks)  # L0-R0
    assert matching.chain_key(short, ranks) == (0, 1)
    # The length-3 detour L0-R1-L1-R0 shares endpoints 0..R0 only if
    # matched edges exist; here test pure key shape on a 1-edge chain.
    cross = matching.Chain.canonical((0, 3), ranks)
    assert matching.chain_key(cross, ranks) == (0, 3)
    assert matching.chain_key(short, ranks) < matching.chain_key(cross, ranks)


def test_find_chains_initial_singles():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m = fresh(g)
    chains = matching.find_chains(g, m, 4, ranks)
    # All three edges are length-1 chains.
    assert sorted(c.points for c in chains) == [(0, 2), (0, 3), (1, 3)]


def test_select_minimal_blocks_overlaps():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m = fresh(g)
    chains = matching.find_chains(g, m, 4, ranks)
    picked = matching.select_minimal(chains, ranks)
    # (L0,R0) has the least key and blocks both other chains at shared
    # points; nothing else is locally minimal everywhere.
    assert [c.points for c in picked] == [(0, 2)]


def test_two_pair_trace_full_stage():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m, (rep,), _ = matching.run(g, ranks, max_stage=1)
    # Sweep 1 flips L0-R0; sweep 2 the surviving single edge L1-R1 (the
    # length-3 detour through the crossing edge loses at both of its
    # endpoints); sweep 3 finds nothing below length 4.
    assert m.size == 2
    assert m.matchL[0] == 0 and m.matchL[1] == 1
    assert rep.flips == 2
    assert rep.sweeps >= 2
    assert rep.p_left == 0.0 and rep.p_right == 0.0


def test_disjoint_chains_flip_in_one_sweep():
    g = bipartite.graph_from_point_edges(
        [0, 10], [0, 10], [(0, 0), (1, 1)]
    )
    ranks = matching.point_order(g, np.arange(11, dtype=np.int64))
    m, (rep,), _ = matching.run(g, ranks, max_stage=1)
    assert m.size == 2
    assert rep.sweeps == 1 and rep.flips == 2  # disjoint: same sweep


def test_overlap_cascade_resolves_across_sweeps():
    # Path of 5 colliding chains: an unselected chain still blocks its
    # neighbors within the sweep where it was found.
    g = bipartite.graph_from_point_edges(
        [0, 1, 2], [0, 1, 2],
        [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)],
    )
    m, (rep,), _ = matching.run(g, index_ranks(g), max_stage=1)
    assert m.size == 3
    assert list(m.matchL) == [0, 1, 2]
    assert rep.flips == 3


def test_flip_validates_alternation():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m = fresh(g)
    c = matching.Chain.canonical((0, 2), ranks)
    matching.flip(m, c)
    assert m.matchL[0] == 0
    with pytest.raises(ContractViolationError):
        matching.flip(m, c)  # endpoints now matched: stale chain
    bad = matching.Chain((1, 2))
    with pytest.raises(ContractViolationError):
        matching.flip(m, bad)  # R0 is matched


def test_flip_rejects_repeated_points():
    g = bipartite.graph_from_point_edges([0, 1, 2], [0, 1, 2], [(0, 0)])
    m = fresh(g)
    dup = matching.Chain((0, 3, 0, 4))
    with pytest.raises(ContractViolationError):
        matching.flip(m, dup)


def test_flip_unmakes_the_matched_edge_of_a_longer_chain():
    g = bipartite.graph_from_point_edges([0, 1], [0, 1], [(0, 0), (0, 1), (1, 1)])
    ranks = index_ranks(g)
    m = fresh(g)
    matching.flip(m, matching.Chain.canonical((0, 3), ranks))  # L0-R1
    # L1-R1-L0-R0: L0-R1 is unmade, L1-R1 and L0-R0 are made.
    matching.flip(m, matching.Chain.canonical((1, 3, 0, 2), ranks))
    assert m.matchL[0] == 0 and m.matchL[1] == 1


def test_shortest_chain_length_certificate():
    g = two_pair_trace()
    m = fresh(g)
    assert matching.shortest_chain_length(g, m) == 1
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m = matching.run(g, ranks, max_stage=1)[0]
    assert matching.shortest_chain_length(g, m) is None
    # Perfect matching on an even cycle leaves only longer augmenting
    # structure; build a half-matched zigzag to get length 3.
    g2 = bipartite.graph_from_point_edges(
        [0, 1], [0, 1], [(0, 0), (1, 0), (1, 1)]
    )
    m2 = fresh(g2)
    matching.flip(m2, matching.Chain((1, 2)))  # L1-R0
    assert matching.shortest_chain_length(g2, m2) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2))
def test_shortest_chain_length_matches_exhaustive_search(seed, stages):
    g = random_instance(seed, 8, 8, edge_prob=0.3)
    if stages:
        m = matching.run(g, seeded_ranks(g, seed), max_stage=stages)[0]
    else:
        m = fresh(g)
    chains = exhaustive_chains_below(g, m, g.n_points + 1)
    expected = min((len(c) - 1 for c in chains), default=None)
    assert matching.shortest_chain_length(g, m) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 14))
def test_find_chains_matches_exhaustive_search(seed, max_len):
    # The distance cut in find_chains must not lose a chain.  A greedy
    # matching over a random edge order leaves chains of many lengths.
    g = random_instance(seed, 12, 12, edge_prob=0.3)
    ranks = seeded_ranks(g, seed)
    m = fresh(g)
    edges = [(i, int(j)) for i in range(g.n_left) for j in g.right_neighbors(i)]
    for k in np.random.default_rng(seed).permutation(len(edges)):
        i, j = edges[k]
        if m.matchL[i] == -1 and m.matchR[j] == -1:
            m.matchL[i], m.matchR[j] = j, i
    found = [c.points for c in matching.find_chains(g, m, max_len, ranks)]
    expected = [
        matching.Chain.canonical(list(c), ranks).points
        for c in exhaustive_chains_below(g, m, max_len)
    ]
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(expected)


def test_assert_valid_names_the_first_asymmetric_pair():
    g = two_pair_trace()
    m = fresh(g)
    m.matchL[:] = [0, 1]
    m.matchR[0] = 0  # R1 does not point back to L1
    with pytest.raises(ContractViolationError, match=r"asymmetric pair \(1,1\)"):
        m.assert_valid()


def test_assert_valid_rejects_a_matched_non_edge():
    g = two_pair_trace()  # L1-R0 is not an edge
    m = fresh(g)
    m.matchL[1], m.matchR[0] = 0, 1
    with pytest.raises(ContractViolationError, match=r"matched non-edge \(1,0\)"):
        m.assert_valid()


def test_assert_valid_rejects_disagreeing_index_counts():
    g = two_pair_trace()
    m = fresh(g)
    m.matchR[0] = 0  # L0 is unmatched in matchL
    with pytest.raises(ContractViolationError, match="match index counts disagree"):
        m.assert_valid()


def test_find_chains_cap():
    g = bipartite.graph_from_point_edges(
        [0] * 5, [0] * 5, [(i, j) for i in range(5) for j in range(5)]
    )
    m = fresh(g)
    with pytest.raises(ResourceError):
        matching.find_chains(g, m, 4, index_ranks(g), cap=3)


def test_run_sweep_cap_diverges():
    # Selection is never empty when chains exist, so force divergence
    # via the sweep cap: stage 1 needs more than one sweep here.
    g = random_instance(derive("div"), 12, 12, edge_prob=0.4)
    with pytest.raises(StageDivergenceError, match="stage 1: exceeded 1 sweeps"):
        matching.run(g, index_ranks(g), max_stage=1, sweep_cap=1)


def test_run_produces_monotone_reports():
    g = random_instance(derive("mono"), 30, 30)
    m, reports, snapshots = matching.run(g, index_ranks(g))
    p_l = [r.p_left for r in reports]
    assert all(a >= b - 1e-12 for a, b in zip(p_l, p_l[1:]))
    assert len(snapshots) == len(reports)
    # Snapshots record the end of each stage; the last equals the result.
    np.testing.assert_array_equal(snapshots[-1], m.matchL)
    # A vacuous stage shares the snapshot before it; none can be written.
    for r, before, after in zip(reports[1:], snapshots, snapshots[1:]):
        assert (after is before) == (r.sweeps == 0)
    assert not any(s.flags.writeable for s in snapshots)
    m.assert_valid()


def test_run_early_out_synthesizes_reports():
    g = bipartite.graph_from_point_edges([0], [0], [(0, 0)])
    m, reports, _ = matching.run(g, index_ranks(g), max_stage=4)
    assert m.size == 1
    assert len(reports) == 4
    assert [r.flips for r in reports] == [1, 0, 0, 0]
    assert [r.sweeps for r in reports][1:] == [0, 0, 0]
    assert [r.wall_s for r in reports][1:] == [0.0, 0.0, 0.0]
    assert all(r.p_left == 0.0 for r in reports)
    with pytest.raises(ConfigurationError, match="max_stage"):
        matching.run(g, index_ranks(g), max_stage=0)


def test_stage_reports_csv_shape():
    g = two_pair_trace()
    m, reports, _ = matching.run(g, index_ranks(g), max_stage=2)
    lines = matching.stage_reports_csv(reports)
    assert lines[0] == "stage,sweeps,flips,p_n_left,p_n_right"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_dump_matching_needs_edge_distances():
    g = two_pair_trace()
    m, _, _ = matching.run(g, index_ranks(g), max_stage=1)
    with pytest.raises(ContractViolationError):
        matching.dump_matching(m, g)


def test_hopcroft_karp_known_values():
    g = two_pair_trace()
    size, pair_u = matching.hopcroft_karp(g)
    assert size == 2
    # Z-shaped instance with max matching 2 of 3.
    g2 = bipartite.graph_from_point_edges(
        [0, 1, 2], [0, 1], [(0, 0), (1, 0), (1, 1), (2, 1)]
    )
    assert matching.hopcroft_karp(g2)[0] == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_staged_equals_hopcroft_karp(seed):
    g = random_instance(seed, 24, 24)
    ranks = seeded_ranks(g, seed)
    m, _, _ = matching.run(g, ranks)
    hk, _ = matching.hopcroft_karp(g)
    assert m.size == hk
    m.assert_valid()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_stage_leaves_no_short_chains(seed, n):
    g = random_instance(seed, 16, 16)
    m = matching.run(g, seeded_ranks(g, seed), max_stage=n)[0]
    assert exhaustive_chains_below(g, m, 4 * n) == []
    m.assert_valid()


def long_path(n):
    """Edges L_i-R_i and L_{i+1}-R_i, ranked R_0 < L_1 < R_1 < ... <
    L_{n-1} < R_{n-1} < L_0: stage 1 pairs L_{i+1} with R_i, which
    leaves one augmenting chain through the whole path."""
    edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
    ids = np.arange(n)
    g = bipartite.graph_from_point_edges(ids, ids, edges)
    seq = []
    for i in range(n - 1):
        seq += [n + i, i + 1]
    seq += [2 * n - 1, 0]
    ranks = np.empty(2 * n, dtype=np.int64)
    ranks[np.asarray(seq)] = np.arange(2 * n)
    return g, ranks


def seeded_instance(seed, max_left, max_right, edge_prob):
    g = random_instance(seed, max_left, max_right, edge_prob=edge_prob)
    return g, seeded_ranks(g, seed)


def colocated_instance():
    """Six points per side at each of four vertices, joined within a
    vertex and between neighbouring vertices: every point has degree 12
    or 18, so after the first sweep stage 1 reruns its array pass."""
    per, k = 6, 4
    ids = np.repeat(np.arange(k), per)
    edges = [
        (i, j)
        for i in range(per * k)
        for j in range(per * k)
        if abs(int(ids[i]) - int(ids[j])) <= 1
    ]
    g = bipartite.graph_from_point_edges(ids, ids, edges)
    return g, seeded_ranks(g, 3)


def line_instance(n, seed, reach=1.5):
    """n points per side at uniform positions on [0, n), a left and a
    right point joined within `reach`; random ranks."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, n, n))
    y = np.sort(rng.uniform(0, n, n))
    lo = np.searchsorted(y, x - reach)
    hi = np.searchsorted(y, x + reach, side="right")
    edges = [(i, j) for i in range(n) for j in range(lo[i], hi[i])]
    ids = np.arange(n)
    g = bipartite.graph_from_point_edges(ids, ids, edges)
    return g, rng.permutation(2 * n)


def generic_selection(g, m, ranks):
    chains = matching.find_chains(g, m, 4, ranks)
    return [c.points for c in matching.select_minimal(chains, ranks)]


@settings(max_examples=40, deadline=None)
@given(st.builds(
    seeded_instance, st.integers(0, 10**9), st.integers(1, 36),
    st.integers(1, 36), st.floats(0.05, 0.6),
))
@example(long_path(40))
def test_kernel_sweep_matches_generic_selection(instance):
    # Sweep until nothing is selected; at each state a fresh stage-1
    # object (one array pass) and the generic selection must select the
    # same chains.
    g, ranks = instance
    m = fresh(g)
    while True:
        kernel = matching._Stage1(g, m, ranks).select()
        assert [c.points for c in kernel] == generic_selection(g, m, ranks)
        if not kernel:
            break
        for c in kernel:
            matching.flip(m, c)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.builds(
        seeded_instance, st.integers(0, 10**9), st.integers(1, 36),
        st.integers(1, 36), st.floats(0.02, 0.7),
    ),
    st.builds(
        line_instance, st.integers(2, 60), st.integers(0, 10**9),
        st.floats(0.5, 4.0),
    ),
), st.booleans())
@example(long_path(40), False)
@example(colocated_instance(), False)
@example(line_instance(6, 5, 1.5), True)
def test_kept_stage1_state_matches_fresh_and_generic(instance, worklist_only):
    # One stage-1 object kept across the sweeps of a stage, as `run`
    # keeps it, must select at every sweep what a fresh object and the
    # generic selection select.  The fallback cutoff is a speed choice,
    # so with it at 0 every sweep after the first takes the worklist.
    g, ranks = instance
    m = fresh(g)
    kept = matching._Stage1(g, m, ranks)
    if worklist_only:
        kept._FALLBACK = 0
    while True:
        selected = kept.select()
        chains = [c.points for c in selected]
        assert chains == [
            c.points for c in matching._Stage1(g, m, ranks).select()
        ]
        assert chains == generic_selection(g, m, ranks)
        if not chains:
            break
        for c in selected:
            matching.flip(m, c)


def test_run_keeps_one_stage1_state_and_takes_both_updates(monkeypatch):
    # `run` builds one stage-1 object per run.  On the long path every
    # sweep after the first flips one chain of low degree and takes the
    # worklist; on the co-located instance the flipped points carry many
    # edges and the array pass runs again.
    calls = {"init": 0, "array": 0, "worklist": 0}

    class Counted(matching._Stage1):
        def __init__(self, *args):
            calls["init"] += 1
            super().__init__(*args)

        def _array_pass(self):
            calls["array"] += 1
            return super()._array_pass()

        def _worklist(self, flipped):
            calls["worklist"] += 1
            return super()._worklist(flipped)

    monkeypatch.setattr(matching, "_Stage1", Counted)
    g, ranks = long_path(40)
    reports = matching.run(g, ranks)[1]
    assert calls == {"init": 1, "array": 1, "worklist": reports[0].sweeps - 1}
    assert reports[0].sweeps == 39

    calls.update(init=0, array=0, worklist=0)
    g, ranks = colocated_instance()
    reports = matching.run(g, ranks)[1]
    assert calls["init"] == 1
    assert calls["array"] >= 2
    assert calls["array"] + calls["worklist"] == reports[0].sweeps


def test_stage1_kernel_covers_nine_thousand_points(monkeypatch):
    # Stage 1 selects without find_chains on up to _MAX_KERNEL_POINTS
    # points, and its first sweep selects what the generic path does.
    g, ranks = line_instance(4500, 19)
    assert g.n_points == 9000 <= matching._MAX_KERNEL_POINTS
    first = matching._Stage1(g, fresh(g), ranks).select()
    assert [c.points for c in first] == generic_selection(g, fresh(g), ranks)

    def no_search(*args, **kwargs):
        raise AssertionError("stage 1 called find_chains")

    monkeypatch.setattr(matching, "find_chains", no_search)
    m = matching.run(g, ranks, max_stage=1)[0]
    m.assert_valid()


def test_chain_longer_than_the_recursion_limit():
    # The last chain has 2n - 1 edges: a DFS that recursed once per
    # chain step would overflow Python's default limit of 1000 frames.
    g, ranks = long_path(1200)
    m = matching.run(g, ranks)[0]
    m.assert_valid()
    assert m.size == matching.hopcroft_karp(g)[0] == 1200


def test_vacuous_stages_run_no_certificate(monkeypatch):
    # One certificate per matching state: the empty matching, then one
    # per sweep; a stage that cannot search (no chain shorter than 4n)
    # must not run one.
    calls = []
    certify = matching.shortest_chain_length

    def counted(g, m):
        calls.append(1)
        return certify(g, m)

    monkeypatch.setattr(matching, "shortest_chain_length", counted)
    g, ranks = long_path(60)
    m, reports, _ = matching.run(g, ranks)
    assert m.size == 60
    sweeps = sum(r.sweeps for r in reports)
    assert sweeps == 60
    assert len(calls) == sweeps + 1

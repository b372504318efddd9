"""Engine tests: chain discovery, minimal selection, flips, stages.

The little deterministic instances pin down the selection semantics the
statistics depend on; the randomized blocks cross-check the staged
engine against Hopcroft-Karp, the fast stage-1 sweep, fresh and kept
across sweeps, against the generic sweep, and the engine against
relabelled copies of its input.
"""

import hashlib

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


def copied(m):
    out = fresh(m.g)
    out.matchL[:], out.matchR[:] = m.matchL, m.matchR
    return out


def pairs(m):
    return m.matchL.tolist(), m.matchR.tolist()


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
    # The key reads a chain from its endpoint of smaller rank, whichever
    # end its tuple starts from.
    g = bipartite.graph_from_point_edges([0, 1], [0, 1], [(0, 0), (1, 0), (1, 1)])
    ranks = index_ranks(g)
    assert matching.chain_key((3, 1, 2, 0), ranks) == (0, 3, 2, 1)
    assert matching.chain_key((0, 2, 1, 3), ranks) == (0, 3, 2, 1)
    assert matching.chain_key((3, 0), ranks) == matching.chain_key((0, 3), ranks)


def test_chain_key_is_endpoint_first():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    short = (0, 2)  # L0-R0
    assert matching.chain_key(short, ranks) == (0, 1)
    # The length-3 detour L0-R1-L1-R0 shares endpoints 0..R0 only if
    # matched edges exist; here test pure key shape on a 1-edge chain.
    cross = (0, 3)
    assert matching.chain_key(cross, ranks) == (0, 3)
    assert matching.chain_key(short, ranks) < matching.chain_key(cross, ranks)


def test_find_chains_initial_singles():
    g = two_pair_trace()
    m = fresh(g)
    chains = matching.find_chains(g, m, 4)
    # All three edges are length-1 chains.
    assert sorted(chains) == [(0, 2), (0, 3), (1, 3)]


def test_select_minimal_blocks_overlaps():
    g = two_pair_trace()
    ranks = matching.point_order(g, np.arange(2, dtype=np.int64))
    m = fresh(g)
    chains = matching.find_chains(g, m, 4)
    picked = matching.select_minimal(chains, ranks)
    # (L0,R0) has the least key and blocks both other chains at shared
    # points; nothing else is locally minimal everywhere.
    assert picked == [(0, 2)]


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
    m = fresh(g)
    c = (0, 2)
    matching.flip(m, c)
    assert m.matchL[0] == 0
    with pytest.raises(ContractViolationError):
        matching.flip(m, c)  # endpoints now matched: stale chain
    bad = (1, 2)
    with pytest.raises(ContractViolationError):
        matching.flip(m, bad)  # R0 is matched


def test_flip_rejects_repeated_points():
    g = bipartite.graph_from_point_edges([0, 1, 2], [0, 1, 2], [(0, 0)])
    m = fresh(g)
    dup = (0, 3, 0, 4)
    with pytest.raises(ContractViolationError):
        matching.flip(m, dup)


def test_flip_unmakes_the_matched_edge_of_a_longer_chain():
    g = bipartite.graph_from_point_edges([0, 1], [0, 1], [(0, 0), (0, 1), (1, 1)])
    m = fresh(g)
    matching.flip(m, (0, 3))  # L0-R1
    # L1-R1-L0-R0: L0-R1 is unmade, L1-R1 and L0-R0 are made.
    matching.flip(m, (1, 3, 0, 2))
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
    matching.flip(m2, (1, 2))  # L1-R0
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
    # Both searches read each chain from its unmatched left end.
    g = random_instance(seed, 12, 12, edge_prob=0.3)
    m = fresh(g)
    edges = [(i, int(j)) for i in range(g.n_left) for j in g.right_neighbors(i)]
    for k in np.random.default_rng(seed).permutation(len(edges)):
        i, j = edges[k]
        if m.matchL[i] == -1 and m.matchR[j] == -1:
            m.matchL[i], m.matchR[j] = j, i
    found = matching.find_chains(g, m, max_len)
    expected = exhaustive_chains_below(g, m, max_len)
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
    with pytest.raises(
        ResourceError, match=r"more than 3 chains \(matcher\.chain_cap\)"
    ):
        matching.find_chains(g, m, 4, cap=3)


def test_run_sweep_cap_diverges():
    # Selection is never empty when chains exist, so force divergence
    # via the sweep cap: stage 1 needs more than one sweep here.
    g = random_instance(derive("div"), 12, 12, edge_prob=0.4)
    with pytest.raises(
        StageDivergenceError, match="stage 1: exceeded 1 sweeps"
    ) as err:
        matching.run(g, index_ranks(g), max_stage=1, sweep_cap=1)
    assert "(matcher.sweep_cap)" in str(err.value)


def test_run_sweep_cap_names_its_key_on_the_generic_path(monkeypatch):
    # Stage 1 sweeps through find_chains above _MAX_KERNEL_POINTS, and
    # every later stage always does.
    monkeypatch.setattr(matching, "_MAX_KERNEL_POINTS", 0)
    g = random_instance(derive("div"), 12, 12, edge_prob=0.4)
    with pytest.raises(
        StageDivergenceError,
        match=r"stage 1: exceeded 1 sweeps \(matcher\.sweep_cap\)",
    ):
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
    chains = matching.find_chains(g, m, 4)
    return matching.select_minimal(chains, ranks)


def generic_sweep(m, ranks):
    """A copy of m after the generic stage-1 sweep, and how many chains
    that sweep flipped.  Flipping disjoint chains changes exactly the
    pairs along them, so the matching after the sweep determines the
    chain set."""
    out = copied(m)
    chains = generic_selection(m.g, out, ranks)
    for c in chains:
        matching.flip(out, c)
    return out, len(chains)


@settings(max_examples=40, deadline=None)
@given(st.builds(
    seeded_instance, st.integers(0, 10**9), st.integers(1, 36),
    st.integers(1, 36), st.floats(0.05, 0.6),
))
@example(long_path(40))
def test_kernel_sweep_matches_generic_selection(instance):
    # Sweep until nothing is flipped; from each state a fresh stage-1
    # object (one array sweep) and the generic sweep must flip as many
    # chains and leave the same matching.
    g, ranks = instance
    m = fresh(g)
    while True:
        expected, n_chains = generic_sweep(m, ranks)
        flipped = matching._Stage1(g, m, ranks).sweep()
        assert flipped == n_chains
        assert pairs(m) == pairs(expected)
        if not flipped:
            break


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
    # keeps it, must flip at every sweep what a fresh object and the
    # generic sweep flip.  The fallback cutoff is a speed choice, so with
    # it at 0 every sweep after the first takes the worklist.
    g, ranks = instance
    m = fresh(g)
    kept = matching._Stage1(g, m, ranks)
    if worklist_only:
        kept._FALLBACK = 0
    while True:
        expected, n_chains = generic_sweep(m, ranks)
        once = copied(m)
        assert matching._Stage1(g, once, ranks).sweep() == n_chains
        flipped = kept.sweep()
        assert flipped == n_chains
        assert pairs(m) == pairs(once) == pairs(expected)
        if not flipped:
            break


def test_run_keeps_one_stage1_state_and_takes_both_updates(monkeypatch):
    # `run` builds one stage-1 object per run.  On the long path every
    # selection after the first follows one flipped chain of low degree
    # and takes the worklist; on the co-located instance the flipped
    # points carry many edges and the array pass runs again.  The stage
    # selects once more than it sweeps: its last selection is empty.
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
    assert calls == {"init": 1, "array": 1, "worklist": reports[0].sweeps}
    assert reports[0].sweeps == 39

    calls.update(init=0, array=0, worklist=0)
    g, ranks = colocated_instance()
    reports = matching.run(g, ranks)[1]
    assert calls["init"] == 1
    assert calls["array"] >= 2
    assert calls["array"] + calls["worklist"] == reports[0].sweeps + 1


def test_stage1_kernel_covers_nine_thousand_points(monkeypatch):
    # Stage 1 sweeps without find_chains on up to _MAX_KERNEL_POINTS
    # points, and its first sweep flips what the generic path does; at
    # 35,000 points the ranks need more than 15 bits.
    def no_search(*args, **kwargs):
        raise AssertionError("stage 1 called find_chains")

    for per_side in (4500, 17_500):
        g, ranks = line_instance(per_side, 19)
        assert g.n_points == 2 * per_side <= matching._MAX_KERNEL_POINTS
        m = fresh(g)
        expected, n_chains = generic_sweep(m, ranks)
        assert matching._Stage1(g, m, ranks).sweep() == n_chains
        assert pairs(m) == pairs(expected)
        with monkeypatch.context() as patch:
            patch.setattr(matching, "find_chains", no_search)
            matching.run(g, ranks, max_stage=1)[0].assert_valid()


def test_stage1_above_the_kernel_limit_matches_the_kernel(monkeypatch):
    # Above _MAX_KERNEL_POINTS `run` sends stage 1 to find_chains; on
    # line graphs like the benchmark's and on the long path it must give
    # the matching and the report counts of the kernel run.
    def counts(reports):
        return [
            (r.stage, r.sweeps, r.flips, r.unmatched_left, r.unmatched_right,
             r.shortest_chain)
            for r in reports
        ]

    real, labels = matching.find_chains, []

    def spy(*args, **kwargs):
        labels.append(kwargs["stage_label"])
        return real(*args, **kwargs)

    for g, ranks in (
        line_instance(200, 5), line_instance(300, 7), line_instance(150, 9, 2.5),
        long_path(60),
    ):
        m, reports, _ = matching.run(g, ranks)
        labels.clear()
        with monkeypatch.context() as patch:
            patch.setattr(matching, "_MAX_KERNEL_POINTS", 0)
            patch.setattr(matching, "find_chains", spy)
            m_generic, reports_generic, _ = matching.run(g, ranks)
        assert "stage 1" in labels
        assert m_generic.matchL.tolist() == m.matchL.tolist()
        assert counts(reports_generic) == counts(reports)


def test_chain_longer_than_the_recursion_limit():
    # The last chain has 2n - 1 edges: a DFS that recursed once per
    # chain step would overflow Python's default limit of 1000 frames.
    g, ranks = long_path(1200)
    m = matching.run(g, ranks)[0]
    m.assert_valid()
    assert m.size == matching.hopcroft_karp(g)[0] == 1200


def test_vacuous_stages_run_no_certificate(monkeypatch):
    # One certificate for the empty matching, then one per stage that
    # swept; a stage that cannot search (no chain shorter than 4n) must
    # not run one.
    calls = []
    certify = matching.shortest_chain_length

    def counted(g, m):
        calls.append(1)
        return certify(g, m)

    monkeypatch.setattr(matching, "shortest_chain_length", counted)
    g, ranks = long_path(60)
    m, reports, _ = matching.run(g, ranks)
    assert m.size == 60
    assert sum(r.sweeps for r in reports) == 60
    swept = sum(1 for r in reports if r.sweeps)
    assert swept == 2
    assert len(calls) == swept + 1


def test_run_checks_the_whole_matching_once_per_stage_that_swept(
    monkeypatch,
):
    calls = []
    check = matching.Matching.assert_valid

    def counted(m):
        calls.append(1)
        check(m)

    monkeypatch.setattr(matching.Matching, "assert_valid", counted)
    g, ranks = long_path(1200)
    reports = matching.run(g, ranks)[1]
    assert sum(r.sweeps for r in reports) == 1200
    assert len(calls) == sum(1 for r in reports if r.sweeps) == 2


def test_run_rejects_a_flip_that_unmatches_a_chain_point(monkeypatch):
    # A flip writes only its chain's points, so the sweep checks them in
    # matchL and matchR.  The first sweep of the long path writes in
    # arrays; the second takes the worklist, whose writer here clears a
    # pair in the matching behind the kernel's partner list.
    real, flips = matching._Stage1._write_chain, []

    def clears_its_pair(self, c):
        real(self, c)
        flips.append(c)
        i, j = sorted(c[:2])
        self.m.matchL[i] = self.m.matchR[j - self.n_left] = -1

    monkeypatch.setattr(matching._Stage1, "_write_chain", clears_its_pair)
    g, ranks = long_path(40)
    with pytest.raises(
        ContractViolationError,
        match="stage 1: a matched point became unmatched",
    ):
        matching.run(g, ranks, max_stage=1)
    assert len(flips) == 1


def test_run_rejects_a_matched_non_edge_at_the_end_of_its_stage(
    monkeypatch,
):
    # The patched array pass crosses the two edges into L0-R1 and L1-R0,
    # which keeps every point matched and both indexes symmetric; the
    # next pass selects nothing.
    passes, searches = [], []

    def crossed(self):
        passes.append(1)
        none = np.empty(0, dtype=np.int64)
        if len(passes) > 1:
            return (none,) * 6
        return np.array([0, 1]), np.array([3, 2]), none, none, none, none

    def no_search(*args, **kwargs):
        searches.append(args)
        return []

    monkeypatch.setattr(matching._Stage1, "_array_pass", crossed)
    monkeypatch.setattr(matching, "find_chains", no_search)
    g = bipartite.graph_from_point_edges([0, 10], [0, 10], [(0, 0), (1, 1)])
    ranks = matching.point_order(g, np.arange(11, dtype=np.int64))
    with pytest.raises(ContractViolationError, match=r"matched non-edge \(0,1\)"):
        matching.run(g, ranks, max_stage=2)
    assert not searches  # stage 2 never began


def test_run_diverges_when_chains_remain_but_none_is_selected(monkeypatch):
    # Stage 1 selects through _Stage1, so only stages 2 on see the patch;
    # stage 1 leaves one chain of 7 edges.
    monkeypatch.setattr(matching, "select_minimal", lambda chains, ranks: [])
    g, ranks = long_path(4)
    with pytest.raises(
        StageDivergenceError,
        match=r"stage 2: chains of length \d+ exist but none selected",
    ):
        matching.run(g, ranks)


def test_select_minimal_rejects_duplicate_chains():
    g = two_pair_trace()
    ranks = index_ranks(g)
    # The same chain read from either end has one key.
    with pytest.raises(ContractViolationError, match="duplicate chain keys"):
        matching.select_minimal([(0, 2), (2, 0)], ranks)


def test_flip_rejects_a_step_that_stays_on_one_side():
    g = bipartite.graph_from_point_edges([0, 1, 2], [0, 1, 2], [(0, 0)])
    m = fresh(g)
    with pytest.raises(ContractViolationError, match="stays on one side"):
        matching.flip(m, (0, 1))
    assert (m.matchL == -1).all() and (m.matchR == -1).all()


@pytest.mark.parametrize("selection, message", [
    # Single edges (p, y), then 3-chains (x, b, a, z): p, y, x, b, a, z.
    (([1, 1], [4, 5], [], [], [], []), "chain repeats a point"),
    (([1], [2], [], [], [], []), "chain step stays on one side"),
    (([1], [3], [], [], [], []), "chain endpoint already matched"),
    (([], [], [1], [5], [0], [4]), "stale chain: expected a matched edge"),
], ids=["overlap", "same-side", "matched-endpoint", "stale-pair"])
def test_array_sweep_checks_its_selection_before_writing(
    monkeypatch, selection, message,
):
    # L0-R0 is matched (R0 is point 3); every other point is free.
    g = bipartite.graph_from_point_edges(
        [0, 1, 2], [0, 1, 2], [(0, 0), (1, 1), (2, 2)]
    )
    m = fresh(g)
    matching.flip(m, (0, 3))
    before = pairs(m)
    monkeypatch.setattr(
        matching._Stage1, "_array_pass",
        lambda self: tuple(np.array(a, dtype=np.int64) for a in selection),
    )
    with pytest.raises(ContractViolationError, match=message):
        matching._Stage1(g, m, index_ranks(g)).sweep()
    assert pairs(m) == before


@pytest.mark.parametrize("chain, message", [
    ((1, 4, 1, 5), "chain repeats a point"),
    ((1, 2), "chain step stays on one side"),
    ((1, 3), "chain endpoint already matched"),
    ((1, 5, 0, 4), "stale chain: expected a matched edge"),
], ids=["overlap", "same-side", "matched-endpoint", "stale-pair"])
def test_worklist_sweep_checks_each_chain_before_writing(
    monkeypatch, chain, message,
):
    # The graph and matching of the array-sweep cases: L0-R0 is matched
    # (R0 is point 3), every other point is free.  The kernel's next
    # sweep takes the worklist, which here selects one bad chain.
    g = bipartite.graph_from_point_edges(
        [0, 1, 2], [0, 1, 2], [(0, 0), (1, 1), (2, 2)]
    )
    m = fresh(g)
    matching.flip(m, (0, 3))
    before = pairs(m)
    kernel = matching._Stage1(g, m, index_ranks(g))
    kernel._array_pass()
    kernel._flipped = ([], [])
    real = matching._Stage1._worklist

    def selects_the_bad_chain(self, flipped):
        real(self, flipped)  # takes the kernel's state over as lists
        return [chain]

    monkeypatch.setattr(matching._Stage1, "_worklist", selects_the_bad_chain)
    with pytest.raises(ContractViolationError, match=message):
        kernel.sweep()
    assert pairs(m) == before
    assert kernel._lists[0] == [3, -1, -1, 0, -1, -1]


def test_run_searches_each_matching_once(monkeypatch):
    # The backwards BFS depends only on the matching, so one run computes
    # it once per matching: a stage's closing certificate, its empty last
    # search and the next stage's first search share one result.  The
    # long path needs it once, after stage 1, for the one search of the
    # stage that flips the whole path.
    real, seen = matching._steps_to_ends, []

    def spy(g, partner, ends):
        seen.append(partner.tobytes())
        return real(g, partner, ends)

    monkeypatch.setattr(matching, "_steps_to_ends", spy)
    matching.run(*long_path(60))
    assert len(seen) == 1
    for g, ranks in (
        line_instance(2800, 1), line_instance(150, 9, 2.5),
        colocated_instance(),
        *(seeded_instance(seed, 30, 30, 0.1) for seed in range(4)),
    ):
        seen.clear()
        matching.run(g, ranks)
        assert len(seen) == len(set(seen))


def relabelled(g, ranks, rng):
    """g with left ids permuted by pi_l and right ids by pi_r, the ranks
    carried along, and pi_l, pi_r."""
    pi_l, pi_r = rng.permutation(g.n_left), rng.permutation(g.n_right)
    edges = [
        (int(pi_l[i]), int(pi_r[j]))
        for i in range(g.n_left) for j in g.right_neighbors(i)
    ]
    left = np.empty(g.n_left, dtype=np.int64)
    right = np.empty(g.n_right, dtype=np.int64)
    left[pi_l], right[pi_r] = g.left_vertex, g.right_vertex
    image = bipartite.graph_from_point_edges(left, right, edges)
    moved = np.empty_like(ranks)
    moved[np.concatenate((pi_l, g.n_left + pi_r))] = ranks
    return image, moved, pi_l, pi_r


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(
        seeded_instance, st.integers(0, 10**9), st.integers(1, 30),
        st.integers(1, 30), st.floats(0.02, 0.6),
    ),
    st.builds(long_path, st.integers(1, 60)),
    st.builds(
        line_instance, st.integers(2, 300), st.integers(0, 10**9),
        st.floats(0.5, 4.0),
    ),
), st.integers(0, 10**9))
@example(long_path(40), 1)
@example(colocated_instance(), 2)
@example(line_instance(27, 1, 2.0), 0)
def test_run_is_equivariant_under_relabelling(instance, seed):
    # The engine reads point ids only through the ranks: relabelling the
    # left and the right points and carrying the ranks along must map the
    # matching onto its image and leave every report count alone.
    def counts(reports):
        return [
            (r.stage, r.sweeps, r.flips, r.unmatched_left, r.unmatched_right,
             r.shortest_chain)
            for r in reports
        ]

    g, ranks = instance
    image, moved, pi_l, pi_r = relabelled(
        g, ranks, np.random.default_rng(seed)
    )
    m, reports, _ = matching.run(g, ranks)
    m_image, reports_image, _ = matching.run(image, moved)
    expected = np.full(g.n_left, -1, dtype=np.int64)
    matched = m.matchL >= 0
    expected[pi_l[matched]] = pi_r[m.matchL[matched]]
    assert m_image.matchL.tolist() == expected.tolist()
    assert counts(reports_image) == counts(reports)


def test_matcher_outputs_are_pinned():
    # One sha256 over matchL, every report field but wall_s and every
    # snapshot of `run`, on the long paths, line graphs of the benchmark's
    # shape (2,800 points a side, reach 1.5) and smaller random instances.
    # The size check against Hopcroft-Karp allows any maximum matching;
    # this pins which one the engine returns.
    instances = [long_path(400), long_path(1200), colocated_instance()]
    instances += [line_instance(2800, seed) for seed in (1, 2, 3)]
    instances += [line_instance(300, 7, 2.5)]
    instances += [seeded_instance(seed, 30, 30, 0.15) for seed in range(6)]
    h = hashlib.sha256()
    for g, ranks in instances:
        m, reports, snapshots = matching.run(g, ranks)
        h.update(m.matchL.astype("<i8").tobytes())
        for r in reports:
            h.update(repr(r._replace(wall_s=0.0)).encode())
        for snap in snapshots:
            h.update(snap.astype("<i8").tobytes())
    assert h.hexdigest() == (
        "fd601f2cf59c1eabc802a2f228cf7f39db871b63d44642cbbe3b9fbb9b0ea515"
    )

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmatch import processes, radii
from ppmatch.enumeration import connected_subsets_containing
from ppmatch.errors import ConfigurationError, ContractViolationError
from ppmatch.graphs import (
    GapComponents, GraphFamily, GraphWindow, build_window, parse_adjacency_text,
)
from conftest import (
    attach_tree_adjacency, bfs_oracle, derive, graphs, window_adjacency,
)


def v_set(window):
    return processes.multiset_from_counts(np.ones(window.n, dtype=np.int64))


def empty_set(window):
    return processes.multiset_from_counts(np.zeros(window.n, dtype=np.int64))


def test_bad_set_empty_for_vertex_set(tree3_d8):
    bad = radii.compute_bad_set(v_set(tree3_d8), tree3_d8, 4)
    # One point everywhere: every complete half-ball holds b_2 = 10
    # points, above 0.9 * 10.
    assert not bad.any()
    unknown = ~tree3_d8.ball_ok(2)
    assert unknown.sum() > 0  # the depth > 6 shell
    assert (unknown == (tree3_d8.depth_from_root + 2 > 8)).all()


def test_bad_set_flags_empty_process(tree3_d8):
    bad = radii.compute_bad_set(empty_set(tree3_d8), tree3_d8, 4)
    assert (bad == tree3_d8.ball_ok(2)).all()
    assert not bad.flags.writeable


def test_bad_set_threshold_is_exact_rational(tree3_d8):
    # 9 points in a 10-vertex half-ball sits exactly on the 0.9 boundary
    # and must count as bad (the rule is <=).
    counts = np.ones(tree3_d8.n, dtype=np.int64)
    ball, _ = tree3_d8.ball(0, 2)
    counts[int(ball[0])] = 0
    pm = processes.multiset_from_counts(counts)
    assert radii.compute_bad_set(pm, tree3_d8, 4)[0]


def test_bad_set_guards():
    w = build_window(GraphFamily.regular_tree(3), 4, 2)
    with pytest.raises(ConfigurationError):
        radii.compute_bad_set(v_set(w), w, 3)
    with pytest.raises(ConfigurationError):
        radii.compute_bad_set(v_set(w), w, 0)


def test_degenerate_field_is_r0_on_interior(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4)
    # Undecidability spreads half a radius inward from the bad-set
    # censoring shell (depth > 6), so the decided interior is depth <= 4,
    # which with margin 4 is exactly the core.
    interior = tree3_d8.depth_from_root <= 4
    assert (fld.values[interior] == 4).all()
    assert (fld.clause[interior] == 1).all()
    assert (fld.censored == ~interior).all()
    assert fld.n_censored == int((~interior).sum())


def test_field_arrays_are_write_locked(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4)
    for a in (fld.values, fld.clause, fld.censored):
        with pytest.raises(ValueError):
            a[0] = 1


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_radius_values_determine_clause(tree3_d5, ladder_d10):
    # Every value is CENSORED, r0 (clause 1) or in (r0, radius_cap]
    # (clause 2), so the value alone gives the clause and the censoring.
    cases = [(tree3_d5, 2), (tree3_d5, 4), (ladder_d10, 2)] + [
        (build_window(parse_adjacency_text((GOLDEN / name).read_text()), 0, 0), 2)
        for name in ("explicit12.adj", "cycles60x5.adj")
    ]
    clause2 = 0
    for w, r0 in cases:
        for s in range(2):
            own = processes.sample(
                processes.ProcessSpec.poisson(), w, derive("own", s)
            )
            other = processes.sample(
                processes.ProcessSpec.poisson(), w, derive("oth", s)
            )
            for mode, size_cap in ((radii.SUPPORT, None), (radii.EXACT, 3)):
                fld = radii.compute_radius_field(
                    own, other, w, r0, mode, size_cap=size_cap
                )
                vals = fld.values
                cens = vals == radii.CENSORED
                one = vals == r0
                two = (vals > r0) & (vals <= r0 + 8)
                assert (cens | one | two).all()
                assert fld.clause.dtype == np.int8
                assert fld.clause.tolist() == (one + 2 * two).tolist()
                assert (fld.censored == cens).all()
                assert fld.n_censored == int(cens.sum())
                clause2 += int(two.sum())
    assert clause2 > 0


def test_radius_field_rejects_a_value_below_r0():
    values = np.array([radii.CENSORED, 4, 5, 4], dtype=np.int32)
    assert radii.RadiusField(values, 4, radii.SUPPORT).clause.tolist() == [
        0, 1, 2, 1
    ]
    for low in (0, 3):
        values = np.array([radii.CENSORED, 4, low], dtype=np.int32)
        with pytest.raises(ContractViolationError, match="below r0"):
            radii.RadiusField(values, 4, radii.SUPPORT)


def test_clause2_triggers_on_crowded_vertex(tree3_d8):
    # A pile of points at the root (own support = just the root) fails
    # clause 1 there; clause 2 resolves at the least r with b_r >= 5r.
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 5
    own = processes.multiset_from_counts(counts)
    fld = radii.compute_radius_field(own, v_set(tree3_d8), tree3_d8, 4)
    assert not fld.censored[0]
    assert fld.clause[0] == 2
    assert fld.values[0] == 5  # b_5 = 94 >= 25


def test_constraint_holds_vacuous_and_violated():
    fam = GraphFamily.explicit(
        [[1], [0, 2], [1, 3], [2, 4], [3]]
    )
    w = build_window(fam, 0, 0)
    own = processes.multiset_from_counts([0, 0, 3, 0, 0])
    other = empty_set(w)
    assert not radii.constraint_holds(own, other, w, 2, 1, size_cap=5)
    # No own points anywhere: every set is vacuous.
    assert radii.constraint_holds(empty_set(w), other, w, 2, 1, size_cap=5)
    # The same vacuous family cut off at 2 members is not exhausted.
    assert not radii.constraint_holds(empty_set(w), other, w, 2, 1, size_cap=2)
    with pytest.raises(ConfigurationError):
        radii.constraint_holds(own, other, w, 2, 0)


def path_window(n):
    adj = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    return build_window(GraphFamily.explicit(adj), 0, 0)


def spy_on_sets(monkeypatch):
    """Record every set `constraint_holds` draws from the enumeration."""
    drawn = []

    def spy(*args, **kwargs):
        for u_set in connected_subsets_containing(*args, **kwargs):
            drawn.append(u_set)
            yield u_set

    monkeypatch.setattr(radii, "connected_subsets_containing", spy)
    return drawn


def test_exact_mode_enumerates_all_gap_connected_sets(monkeypatch):
    # On the 13-path at r = 1 (gap 4), vertices 0, 4, 8 and 12 form a
    # 4-path of the proximity graph: among them, the sets through 4 that
    # exact mode checks are the six intervals through 4.
    w = path_window(13)
    drawn = spy_on_sets(monkeypatch)
    assert radii.constraint_holds(empty_set(w), empty_set(w), w, 4, 1)
    assert len(drawn) == len(set(drawn))
    spaced = [sorted(u) for u in drawn if u <= {0, 4, 8, 12}]
    assert sorted(spaced) == [
        [0, 4], [0, 4, 8], [0, 4, 8, 12], [4], [4, 8], [4, 8, 12]
    ]


def test_exact_mode_stops_at_the_first_failing_set(monkeypatch):
    # Five own points at 4 and no opposite points: {4} fails, and no
    # further set is drawn.
    w = path_window(9)
    own = processes.multiset_from_counts([0, 0, 0, 0, 5, 0, 0, 0, 0])
    drawn = spy_on_sets(monkeypatch)
    assert not radii.constraint_holds(own, empty_set(w), w, 4, 1)
    assert drawn == [frozenset({4})]


def test_exact_mode_count_cap(monkeypatch):
    # With no own points every set holds, so only the count can cut the
    # family, and it is cut at set COUNT_CAP + 1.  At gap 4 every pair
    # of vertices of a short path is near: 4 sets contain vertex 0 of
    # the 3-path, 8 that of the 4-path.
    monkeypatch.setattr(radii, "COUNT_CAP", 4)
    drawn = spy_on_sets(monkeypatch)
    w = path_window(3)
    assert radii.constraint_holds(empty_set(w), empty_set(w), w, 0, 1)
    assert len(drawn) == 4
    drawn.clear()
    w = path_window(4)
    assert not radii.constraint_holds(empty_set(w), empty_set(w), w, 0, 1)
    assert len(drawn) == 5


def test_exact_mode_resolves_clause2_above_r0():
    # A pile of 5 own points mid-path, 3 other points everywhere: clause
    # 1 fails only at the pile, and exact mode must find the least r with
    # every 4r-connected set through it dominated.  At r = 3 the set {4}
    # has 7 * 3 = 21 >= 15 other points in its 3-ball; larger sets add
    # vertices with no own points.
    w = path_window(9)
    own = processes.multiset_from_counts([0, 0, 0, 0, 5, 0, 0, 0, 0])
    other = processes.multiset_from_counts([3] * 9)
    fld = radii.compute_radius_field(own, other, w, 2, mode=radii.EXACT)
    assert fld.clause.tolist() == [1, 1, 1, 1, 2, 1, 1, 1, 1]
    assert fld.values[4] == 3
    assert not fld.censored.any()


def test_unknown_mode_is_rejected(tree3_d8):
    with pytest.raises(ConfigurationError, match="unknown radius mode"):
        radii.compute_radius_field(
            v_set(tree3_d8), v_set(tree3_d8), tree3_d8, 4, mode="nope"
        )


def test_support_never_exceeds_exact_small_instances():
    # The support component is one of the sets exact mode checks, so
    # exact holding at r implies support holding at r.
    for s in range(6):
        fam = GraphFamily.explicit(attach_tree_adjacency(11, derive("mode", s)))
        w = build_window(fam, 0, 0)
        own = processes.sample(processes.ProcessSpec.poisson(), w, derive("own", s))
        other = processes.sample(processes.ProcessSpec.poisson(), w, derive("oth", s))
        f_sup = radii.compute_radius_field(
            own, other, w, 2, mode=radii.SUPPORT, size_cap=None
        )
        f_ex = radii.compute_radius_field(
            own, other, w, 2, mode=radii.EXACT, size_cap=None
        )
        for v in range(w.n):
            if not f_ex.censored[v]:
                assert not f_sup.censored[v]
                assert f_sup.values[v] <= f_ex.values[v]


def oracle_support_field(adj, own, other, r0, cap, depth=None):
    """(R_v, clause) per vertex by the two-clause rule in support mode,
    from all-pairs BFS distances alone.  With `depth`, the graph is a
    window of that depth around vertex 0 and B_r(v) is complete when
    d(0, v) + r <= depth; without it the graph is a complete world."""
    n = len(adj)
    dist = bfs_oracle(adj)

    def near(a, b, r):
        return dist[a][b] is not None and dist[a][b] <= r

    def ball(v, r):
        return [u for u in range(n) if near(v, u, r)]

    def complete(v, r):
        return depth is None or dist[0][v] + r <= depth

    half = r0 // 2
    # A complete half-ball is the infinite-graph ball, so its size is
    # the expected count.
    bad = [
        complete(v, half)
        and 10 * sum(other[u] for u in ball(v, half)) <= 9 * len(ball(v, half))
        for v in range(n)
    ]
    supp = [u for u in range(n) if own[u] > 0]
    out = []
    for v in range(n):
        hb = ball(v, half)
        if not any(bad[u] for u in hb):
            if not all(complete(u, half) for u in hb):
                out.append((radii.CENSORED, 0))
                continue
            if own[v] <= r0:
                out.append((r0, 1))
                continue
        for r in range(r0 + 1, cap + 1):
            # v's component in the gap-4r proximity graph on supp + {v}
            comp, todo = {v}, [v]
            while todo:
                a = todo.pop()
                for b in supp:
                    if b not in comp and near(a, b, 4 * r):
                        comp.add(b)
                        todo.append(b)
            own_u = sum(own[u] for u in comp)
            grown = {u for c in comp for u in ball(c, r)}
            if own_u == 0 or (
                all(complete(u, r) for u in comp)
                and sum(other[u] for u in grown) >= r * own_u
            ):
                out.append((r, 2))
                break
        else:
            out.append((radii.CENSORED, 0))
    return out


@st.composite
def stringy_graphs(draw):
    """Paths cut into pieces, with a few chords: long distances, so
    that gap-4r components split and balls reach past the support."""
    n = draw(st.integers(2, 40))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    adj = [set() for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1) if not cuts[i]]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return [sorted(ns) for ns in adj]


def field_lists(fld):
    got = list(zip(fld.values.tolist(), fld.clause.tolist()))
    assert fld.censored.tolist() == [c == 0 for _, c in got]
    return got


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(graphs(), stringy_graphs()),
    st.data(),
    st.sampled_from([2, 4]),
    st.integers(1, 6),
)
def test_support_field_matches_oracle(adj, data, r0, extra):
    # Sparse own counts and dense other counts make clause 2 fire; sparse
    # other counts make deficient vertices that hold clause 1 back and
    # verdicts that turn on a few points.  Dense own counts against
    # sparse other counts make sets outnumbered at some radius, where
    # the field's search stops while the oracle walks on to the cap.
    n = len(adj)
    if data.draw(st.booleans()):
        own = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=n, max_size=n))
        top = data.draw(st.sampled_from([1, 2, 6]))
        other = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    else:
        own = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 8]), min_size=n, max_size=n))
        other = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 9]), min_size=n, max_size=n))
    w = build_window(GraphFamily.explicit(adj), 0, 0)
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, r0, radius_cap=r0 + extra,
    )
    assert field_lists(fld) == oracle_support_field(adj, own, other, r0, r0 + extra)


@pytest.mark.parametrize("n, own, other", [
    # Pending off-support vertex 0 whose nearest own point lies at
    # exactly 4r = 12.
    (14, {12: 3}, {}),
    # Off-support vertex 2 holds at r = 3 only through the point at 0,
    # which is within r of 2 but not of the support.
    (10, {6: 1}, {0: 3}),
    # The point at 4 is within r of both 2 and the support: it counts once.
    (10, {6: 2}, {4: 3}),
    # No own points: no component, and every pending vertex holds at r0+1.
    (10, {}, {0: 3}),
])
def test_support_field_matches_oracle_at_boundaries(n, own, other):
    adj = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    own = [own.get(v, 0) for v in range(n)]
    other = [other.get(v, 0) for v in range(n)]
    w = build_window(GraphFamily.explicit(adj), 0, 0)
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=3,
    )
    assert field_lists(fld) == oracle_support_field(adj, own, other, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_support_field_matches_oracle_on_tree_window(tree3_d5, data, extra):
    # Own points near the root keep some components' enlargements inside
    # the window; one far point makes its component's incomplete.  Piles
    # at depth <= 3 meet the window edge, are outnumbered, or hold after
    # failing at smaller radii.
    w = tree3_d5
    own = [0] * w.n
    for v in data.draw(st.sets(st.integers(0, 21), max_size=4)):
        own[v] = data.draw(st.sampled_from([1, 2, 3, 6, 10, 20]))
    for v in data.draw(st.sets(st.integers(22, w.n - 1), max_size=1)):
        own[v] = 1
    top = data.draw(st.sampled_from([3, 6]))
    other = data.draw(st.lists(st.integers(0, top), min_size=w.n, max_size=w.n))
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=2 + extra,
    )
    adj = window_adjacency(w)
    assert field_lists(fld) == oracle_support_field(adj, own, other, 2, 2 + extra, w.depth)


def spy_on_tables(monkeypatch):
    """Record the gap of every component table a support field builds."""
    gaps = []
    labels = GapComponents.labels

    def spy(self, gap):
        gaps.append(gap)
        return labels(self, gap)

    monkeypatch.setattr(GapComponents, "labels", spy)
    return gaps


def tree_case(w):
    # Own points at a depth-3 vertex, whose 3-ball leaves the depth-5
    # window: exit (i) at r = 3.
    v = int(np.nonzero(w.depth_from_root == 3)[0][0])
    own = [0] * w.n
    own[v] = 3
    return w, own, [6] * w.n, {v: (radii.CENSORED, 0)}


def path_case(n, own, other):
    adj = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    w = build_window(GraphFamily.explicit(adj), 0, 0)
    return w, [own.get(v, 0) for v in range(n)], [other.get(v, 0) for v in range(n)]


@pytest.mark.parametrize("case, gaps", [
    ("window_edge", [12]),
    # Five own points at 4 against one other point: 3 * 5 > 1 (exit
    # ii), for 4 and for every off-support vertex, all within 12 of 4.
    ("outnumbered", [12]),
    # No other points: every vertex is deficient.  Vertices 0..12 see
    # the point at 0 and are outnumbered; from 13 on, no own point lies
    # within 12, so own(U) = 0 and the vertex holds at r = 3.
    ("own_free", [12]),
    # Ten own points at the root with one other point per vertex: the
    # 3-ball holds 22 < 30 points, the 4-ball 46 >= 40.
    ("after_a_failing_radius", [12, 16]),
])
def test_support_exits(case, gaps, tree3_d5, monkeypatch):
    if case == "window_edge":
        w, own, other, want = tree_case(tree3_d5)
    elif case == "outnumbered":
        w, own, other = path_case(9, {4: 5}, {0: 1})
        want = {v: (radii.CENSORED, 0) for v in range(9)}
    elif case == "own_free":
        w, own, other = path_case(30, {0: 1}, {})
        want = {v: (radii.CENSORED, 0) if v <= 12 else (3, 2) for v in range(30)}
    else:
        w, own, other = tree3_d5, [10] + [0] * (tree3_d5.n - 1), [1] * tree3_d5.n
        want = {0: (4, 2)}
    drawn = spy_on_tables(monkeypatch)
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=6,
    )
    assert drawn == gaps
    got = field_lists(fld)
    assert {v: got[v] for v in want} == want
    adj = window_adjacency(w)
    depth = w.depth if w is tree3_d5 else None
    assert got == oracle_support_field(adj, own, other, 2, 6, depth)


def test_support_field_builds_tables_only_for_open_vertices(tree3_d5, monkeypatch):
    # Every pending vertex exits at r0 + 1: one table, however large the
    # cap.  A field with no pending vertex builds none.
    w, own, other, _ = tree_case(tree3_d5)
    drawn = spy_on_tables(monkeypatch)
    radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=40,
    )
    assert drawn == [12]
    drawn.clear()
    radii.compute_radius_field(v_set(w), v_set(w), w, 2, radius_cap=40)
    assert drawn == []


def two_components_case():
    # Own points at 2 and 24 stay apart up to gap 20 and join at 24.  At
    # r = 3 off-support vertex 13 lies 11 from both: own(U) = 2 against
    # 3 + 2 opposite points on the two enlargements and 2 at 14, outside
    # both but within r of 13, so it holds only when all three count.
    # Vertex 49 meets neither component and holds with own(U) = 0.
    # Vertices 18..36 fail at every radius they reach and end censored.
    return path_case(50, {2: 1, 24: 1}, {4: 3, 14: 2, 26: 2})


def test_support_field_off_support_vertex_meets_two_components():
    w, own, other = two_components_case()
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=6,
    )
    got = field_lists(fld)
    assert got[13] == got[49] == (3, 2)
    adj = window_adjacency(w)
    assert got == oracle_support_field(adj, own, other, 2, 6)


def spy_on_distances(monkeypatch):
    """Record (sources, limit) of every `dist_from` call and the sources
    of every `dist_row` call a window answers."""
    calls = {"dist_from": [], "dist_row": []}
    dist_from, dist_row = GraphWindow.dist_from, GraphWindow.dist_row

    def spy_from(self, sources, limit=None):
        calls["dist_from"].append((np.ravel(sources).tolist(), limit))
        return dist_from(self, sources, limit)

    def spy_row(self, v, limit=None):
        calls["dist_row"].append(np.ravel(v).tolist())
        return dist_row(self, v, limit)

    monkeypatch.setattr(GraphWindow, "dist_from", spy_from)
    monkeypatch.setattr(GraphWindow, "dist_row", spy_row)
    return calls


def test_support_field_takes_one_bfs_per_component(tree3_d5, monkeypatch):
    # Off-support vertices are open at r = 3..6: two components at gaps
    # 12, 16 and 20, one at 24.  No distance row is drawn.
    w, own, other = two_components_case()
    calls = spy_on_distances(monkeypatch)
    radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=6,
    )
    assert calls == {
        "dist_from": [
            ([2], 12), ([24], 12), ([2], 16), ([24], 16),
            ([2], 20), ([24], 20), ([2, 24], 24),
        ],
        "dist_row": [],
    }
    # No off-support vertex is pending in the tree case or in a field
    # of one point per vertex: no distance query at all.
    for got in calls.values():
        got.clear()
    w, own, other, _ = tree_case(tree3_d5)
    radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=6,
    )
    radii.compute_radius_field(v_set(w), v_set(w), w, 2, radius_cap=6)
    assert calls == {"dist_from": [], "dist_row": []}


def test_radius_cap_censors_unresolved(tree3_d8):
    # Own side crowded at the root, other side empty: clause 2 can never
    # hold, so the root must come out censored rather than silently r0.
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 6
    own = processes.multiset_from_counts(counts)
    fld = radii.compute_radius_field(
        own, empty_set(tree3_d8), tree3_d8, 4, radius_cap=6
    )
    assert fld.censored[0]
    assert fld.values[0] == radii.CENSORED


def test_radius_cap_guard(tree3_d8):
    with pytest.raises(ConfigurationError):
        radii.compute_radius_field(
            v_set(tree3_d8), v_set(tree3_d8), tree3_d8, 4,
            radius_cap=4,
        )


def test_components_above_empty_and_degenerate(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4)
    comps = radii.components_above(fld, tree3_d8, 4)
    # Only the censored boundary shell is above r0; it is 16-connected.
    assert len(comps) == 1
    assert comps[0].n_censored == comps[0].size
    high = radii.components_above(fld, tree3_d8, 10)
    assert all(c.n_censored == c.size for c in high)


def test_components_above_separates_distant_pockets():
    fam = GraphFamily.explicit(
        [[j for j in (i - 1, i + 1) if 0 <= j < 30] for i in range(30)]
    )
    w = build_window(fam, 0, 0)
    values = np.full(30, 2, dtype=np.int32)
    values[0] = 9
    values[29] = 9
    fld = radii.RadiusField(values, 2, radii.SUPPORT)
    comps = radii.components_above(fld, w, 2)
    # gap 8 < 29: the two pockets stay separate components.
    assert [c.vertices for c in comps] == [(0,), (29,)]


def test_dump_radius_field_format(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4)
    lines = radii.dump_radius_field(fld)
    assert len(lines) == tree3_d8.n + 1
    assert lines[:2] == ["vertex,R,mode,flags", "0,4,support,clause1"]
    assert any(line.endswith(",censored") for line in lines)

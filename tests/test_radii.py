import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmatch import processes, radii
from ppmatch.enumeration import connected_subsets_containing
from ppmatch.errors import ConfigurationError
from ppmatch.graphs import GraphFamily, build_window
from conftest import attach_tree_adjacency, bfs_oracle, derive, graphs


def v_set(window):
    return processes.multiset_from_counts(np.ones(window.n, dtype=np.int64))


def empty_set(window):
    return processes.multiset_from_counts(np.zeros(window.n, dtype=np.int64))


def test_bad_set_empty_for_vertex_set(tree3_d8):
    bad = radii.compute_bad_set(v_set(tree3_d8), tree3_d8, 4)
    # One point everywhere: every complete half-ball holds b_2 = 10
    # points, above 0.9 * 10.
    assert bad.count == 0
    assert bad.censored.sum() > 0  # the depth > 6 shell
    assert (bad.censored == (tree3_d8.depth_from_root + 2 > 8)).all()


def test_bad_set_flags_empty_process(tree3_d8):
    bad = radii.compute_bad_set(empty_set(tree3_d8), tree3_d8, 4)
    member = ~bad.censored
    assert (bad.member == member).all()


def test_bad_set_threshold_is_exact_rational(tree3_d8):
    # 9 points in a 10-vertex half-ball sits exactly on the 0.9 boundary
    # and must count as bad (the rule is <=).
    counts = np.ones(tree3_d8.n, dtype=np.int64)
    ball, _ = tree3_d8.ball(0, 2)
    counts[int(ball[0])] = 0
    pm = processes.multiset_from_counts(counts)
    bad = radii.compute_bad_set(pm, tree3_d8, 4)
    assert bool(bad.member[0])


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
    with pytest.raises(ValueError):
        fld.values[0] = 99


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


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(graphs(), stringy_graphs()),
    st.data(),
    st.sampled_from([2, 4]),
    st.integers(1, 4),
)
def test_support_field_matches_oracle(adj, data, r0, extra):
    # Sparse own counts and dense other counts make clause 2 fire; sparse
    # other counts make deficient vertices that hold clause 1 back and
    # verdicts that turn on a few points.
    n = len(adj)
    own = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=n, max_size=n))
    top = data.draw(st.sampled_from([1, 2, 6]))
    other = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_support_field_matches_oracle_on_tree_window(tree3_d5, data):
    # Own points near the root keep some components' enlargements inside
    # the window; one far point makes its component's incomplete.
    w = tree3_d5
    own = [0] * w.n
    for v in data.draw(st.sets(st.integers(0, 9), max_size=3)):
        own[v] = data.draw(st.integers(1, 3))
    for v in data.draw(st.sets(st.integers(10, w.n - 1), max_size=1)):
        own[v] = 1
    other = data.draw(st.lists(st.integers(0, 6), min_size=w.n, max_size=w.n))
    fld = radii.compute_radius_field(
        processes.multiset_from_counts(own), processes.multiset_from_counts(other),
        w, 2, radius_cap=4,
    )
    adj = [ns.tolist() for ns in w.neighbors]
    assert field_lists(fld) == oracle_support_field(adj, own, other, 2, 4, w.depth)


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
    fld = radii.RadiusField(
        values, np.zeros(30, bool), np.full(30, 2, np.int8), radii.SUPPORT
    )
    comps = radii.components_above(fld, w, 2)
    # gap 8 < 29: the two pockets stay separate components.
    assert [c.vertices for c in comps] == [(0,), (29,)]


def test_dump_radius_field_format(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4)
    lines = radii.dump_radius_field(fld)
    assert len(lines) == tree3_d8.n
    assert lines[0] == "0 4 support clause1"
    assert any(line.endswith("censored") for line in lines)

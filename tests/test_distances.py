"""Window distance primitives against a plain all-pairs BFS oracle.

The oracle (`conftest.bfs_oracle`) shares nothing with the library: it
runs one textbook breadth-first search per vertex over adjacency lists.
Graphs come from hypothesis and include disconnected ones and isolated
vertices, which is where an "unreachable" marker can leak into ball
tests.
"""

from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from ppmatch import experiments, processes
from ppmatch.graphs import (
    ROW_ENTRIES, UNREACHABLE, GapComponents, GraphFamily, build_window,
    parse_adjacency_text,
)
from conftest import bfs_oracle, graphs


def oracle_partition(dist, members, gap):
    """Single-linkage classes of `members` at `gap`, by repeated merging."""
    classes = [{m} for m in members]
    merged = True
    while merged:
        merged = False
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if any(
                    dist[a][b] is not None and dist[a][b] <= gap
                    for a in classes[i] for b in classes[j]
                ):
                    classes[i] |= classes.pop(j)
                    merged = True
                    break
            if merged:
                break
    return {frozenset(c) for c in classes}


def window_of(adj):
    return build_window(GraphFamily.explicit(adj), 0, 0)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.sampled_from([None, 0, 1, 2, 3]))
def test_truncated_rows(adj, limit):
    w = window_of(adj)
    dist = bfs_oracle(adj)
    for v in range(w.n):
        want = [
            d if d is not None and (limit is None or d <= limit) else UNREACHABLE
            for d in dist[v]
        ]
        assert w.dist_row(v, limit).tolist() == want
    full = [[UNREACHABLE if d is None else d for d in row] for row in dist]
    assert w.distance_matrix().tolist() == full


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data(), st.integers(0, 3))
def test_pairs_within(adj, data, limit):
    # One (k, u, d) triple per vertex u within the limit of sources[k],
    # in (k, u) order: for no source, one source, and sources spanning
    # several blocks of rows as well as one.
    w = window_of(adj)
    dist = bfs_oracle(adj)
    many = data.draw(
        st.lists(st.integers(0, w.n - 1), min_size=4, max_size=4 + 2 * w.n)
    )
    per_block = data.draw(st.integers(1, 3))
    for sources in ([], many[:1], many):
        want = [
            (k, u, d)
            for k, s in enumerate(sources)
            for u, d in enumerate(dist[s])
            if d is not None and d <= limit
        ]
        for entries in (per_block * w.n, ROW_ENTRIES):
            with mock.patch("ppmatch.graphs.ROW_ENTRIES", entries):
                got = w.pairs_within(sources, limit)
            assert [a.dtype for a in got] == [np.int64] * 3
            assert list(zip(*(a.tolist() for a in got))) == want


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data(), st.integers(0, 3))
def test_enlargement_masks(adj, data, r):
    w = window_of(adj)
    dist = bfs_oracle(adj)
    sources = data.draw(st.sets(st.integers(0, w.n - 1)))
    got = w.dist_from(sorted(sources), r)
    for u in range(w.n):
        near = [dist[s][u] for s in sources if dist[s][u] is not None]
        best = min(near) if near else None
        if best is None or best > r:
            assert got[u] == UNREACHABLE
        else:
            assert got[u] == best
    mask = got <= r
    assert mask.tolist() == [
        any(dist[s][u] is not None and dist[s][u] <= r for s in sources)
        for u in range(w.n)
    ]


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data(), st.integers(0, 4))
def test_ball_counts(adj, data, r):
    w = window_of(adj)
    dist = bfs_oracle(adj)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=w.n, max_size=w.n))
    want = [
        sum(weights[u] for u in range(w.n)
            if dist[v][u] is not None and dist[v][u] <= r)
        for v in range(w.n)
    ]
    assert w.ball_counts(np.asarray(weights), r).tolist() == want


def test_ball_counts_keep_no_relation_past_the_diameter():
    # Past the diameter every within-r relation is the whole graph, so a
    # radius of 10**4 keeps at most diameter + 1 of them.
    path = Path(__file__).resolve().parent / "golden" / "explicit12.adj"
    w = build_window(parse_adjacency_text(path.read_text()), 0, 0)
    adj = [list(ns) for ns in w.family.adjacency]
    dist = bfs_oracle(adj)
    diameter = max(max(row) for row in dist)
    ones = np.ones(w.n, dtype=np.int64)
    for r in (1, 10**4, 3):
        want = [sum(d <= r for d in row) for row in dist]
        assert w.ball_counts(ones, r).tolist() == want
    assert len(w._reach) <= diameter + 1


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_gap_components(adj, data):
    w = window_of(adj)
    dist = bfs_oracle(adj)
    members = sorted(data.draw(st.sets(st.integers(0, w.n - 1))))
    comps = GapComponents(w, members)
    for gap in range(0, 6):
        lab = comps.labels(gap)
        got = {
            frozenset(int(m) for m, c in zip(members, lab) if c == cid)
            for cid in set(lab.tolist())
        }
        assert got == oracle_partition(dist, members, gap)
        # ids number the components in order of their first member
        firsts = [int(lab[0])] if len(lab) else []
        for c in lab[1:]:
            if c not in firsts:
                firsts.append(int(c))
        assert firsts == list(range(len(firsts)))
    # The Voronoi BFS: distance to and position of a nearest member.
    for u in range(w.n):
        reach = [dist[m][u] for m in members if dist[m][u] is not None]
        if reach:
            assert comps.near[u] == min(reach)
            assert dist[members[comps.cell[u]]][u] == min(reach)
        else:
            assert comps.near[u] == UNREACHABLE
            assert comps.cell[u] == -1


def two_cycles():
    """Two disjoint 6-cycles: vertices 0..5 and 6..11."""
    adj = [[(i - 1) % 6 + 6 * c, (i + 1) % 6 + 6 * c]
           for c in range(2) for i in range(6)]
    return build_window(GraphFamily.explicit(adj), 0, 2)


def test_unreachable_vertices_lie_outside_every_ball():
    w = two_cycles()
    curve = experiments.curve_from_rows(
        [(np.array([0.5, 0.3, 0.1]), 12)], w, [0, 1, 2]
    )
    assert curve.ball_sizes == (1.0, 3.0, 5.0)
    assert experiments.set_distance(w, [0], [7]) == UNREACHABLE
    assert not experiments.is_rconnected(w, [0, 7], 11)
    poisson = processes.ProcessSpec.poisson()
    res = experiments.run_matching_pipeline(
        w, poisson, poisson, 3, experiments.PipelineConfig(r0=2)
    )
    res.matching.assert_valid()
    i, e = res.matching.matched_edges()
    assert len(i) == res.matching.size
    j = res.graph.indices_left[e]
    assert ((res.graph.left_vertex[i] < 6)
            == (res.graph.right_vertex[j] < 6)).all()
    assert (res.left_distance[res.left_distance >= 0] <= 10).all()

import numpy as np

from ppmatch import bipartite, processes, radii


def make_fields(window, own, other, r0=4):
    fl = radii.compute_radius_field(own, other, window, r0)
    fr = radii.compute_radius_field(other, own, window, r0)
    return fl, fr


def test_degenerate_graph_structure(tree3_d8):
    v = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    fl, fr = make_fields(tree3_d8, v, v)
    g = bipartite.build_match_graph(v, v, fl, fr, tree3_d8)
    # 46 decided vertices on each side, all points kept.
    assert g.n_left == g.n_right == 46
    assert g.censor.left_points_dropped == g.censor.right_points_dropped == 766 - 46
    # Reach r0 = 4 around a depth <= 4 vertex never leaves the decided
    # region entirely, so every kept pair within distance 4 is an edge.
    for i in range(g.n_left):
        for j in range(g.n_right):
            d = tree3_d8.distance(int(g.left_vertex[i]), int(g.right_vertex[j]))
            assert (j in g.right_neighbors(i)) == (d <= 4)


def test_edge_rule_uses_max_of_the_two_radii():
    # Hand-built fields on a 7-path: left point reaches 1, right reaches
    # 3; the pair at distance 3 must still be connected (max rule).
    from ppmatch.graphs import GraphFamily, build_window

    fam = GraphFamily.explicit(
        [[j for j in (i - 1, i + 1) if 0 <= j < 7] for i in range(7)]
    )
    w = build_window(fam, 0, 0)
    left = processes.multiset_from_counts([1, 0, 0, 0, 0, 0, 0])
    right = processes.multiset_from_counts([0, 0, 0, 1, 0, 0, 0])

    def field(values):
        vals = np.asarray(values, dtype=np.int32)
        return radii.RadiusField(
            vals, np.zeros(7, bool), np.full(7, 1, np.int8), radii.SUPPORT
        )

    g = bipartite.build_match_graph(
        left, right, field([1] * 7), field([3] * 7), w
    )
    assert g.n_edges == 1
    assert g.tags_left[0] == bipartite.TAG_FROM_RIGHT
    g2 = bipartite.build_match_graph(
        left, right, field([1] * 7), field([2] * 7), w
    )
    assert g2.n_edges == 0


def test_multiplicity_expands_to_point_pairs(tree3_d8):
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 2
    left = processes.multiset_from_counts(counts)
    counts2 = np.zeros(tree3_d8.n, dtype=np.int64)
    counts2[1] = 3
    right = processes.multiset_from_counts(counts2)
    v = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    fl, fr = make_fields(tree3_d8, v, v)
    g = bipartite.build_match_graph(left, right, fl, fr, tree3_d8)
    assert g.n_left == 2 and g.n_right == 3
    assert g.n_edges == 6  # complete bipartite between the two piles
    assert list(g.left_slot) == [1, 2]
    assert list(g.right_slot) == [1, 2, 3]
    assert (g.right_vertex[2], g.right_slot[2]) == (1, 3)


def test_censored_points_are_dropped_and_counted(tree3_d8):
    v = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    fl, fr = make_fields(tree3_d8, v, v)
    g = bipartite.build_match_graph(v, v, fl, fr, tree3_d8)
    deep = tree3_d8.depth_from_root > 4
    assert g.censor.left_points_dropped == int(deep.sum())
    # One point per vertex: the kept points are those at shallow vertices.
    assert g.left_vertex.tolist() == np.nonzero(~deep)[0].tolist()


def test_graph_from_point_edges_and_neighborhood():
    g = bipartite.graph_from_point_edges(
        [0, 0, 5], [1, 2], [(0, 0), (1, 0), (2, 1)]
    )
    assert g.n_left == 3 and g.n_right == 2
    assert list(g.left_slot) == [1, 2, 1]
    assert list(g.right_neighbors(0)) == [0]
    assert list(g.left_neighbors(0)) == [0, 1]
    np.testing.assert_array_equal(
        bipartite.neighborhood(g, [0, 1]), np.array([0])
    )
    np.testing.assert_array_equal(
        bipartite.neighborhood(g, []), np.empty(0, dtype=np.int64)
    )


def test_dump_graph_lines(tree3_d8):
    v = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    fl, fr = make_fields(tree3_d8, v, v)
    g = bipartite.build_match_graph(v, v, fl, fr, tree3_d8)
    lines = bipartite.dump_graph(g)
    assert len(lines) == g.n_edges
    assert lines[0] == "L 0 1 | R 0 1"


def test_edges_on_a_cycle_longer_than_a_row_block():
    # More kept left vertices than one block of distance rows: every
    # edge, tag and distance still follows the rule, against cycle
    # distances.
    from ppmatch.graphs import ROW_BLOCK, GraphFamily, build_window

    n = ROW_BLOCK + 64
    w = build_window(
        GraphFamily.explicit([[(i - 1) % n, (i + 1) % n] for i in range(n)]), 0, 0
    )
    rng = np.random.default_rng(3)
    left = processes.multiset_from_counts(rng.integers(1, 3, n))
    right = processes.multiset_from_counts(rng.integers(0, 2, n))

    def field(values, censored):
        return radii.RadiusField(
            np.where(censored, radii.CENSORED, values).astype(np.int32),
            censored, np.where(censored, 0, 1).astype(np.int8), radii.SUPPORT,
        )

    fl = field(rng.integers(2, 5, n), rng.random(n) < 0.1)
    fr = field(rng.integers(2, 5, n), rng.random(n) < 0.1)
    g = bipartite.build_match_graph(left, right, fl, fr, w)
    assert len(set(g.left_vertex.tolist())) > ROW_BLOCK
    want = {}
    for i, u in enumerate(g.left_vertex.tolist()):
        for j, v in enumerate(g.right_vertex.tolist()):
            d = min(abs(u - v), n - abs(u - v))
            by_l, by_r = d <= fl.values[u], d <= fr.values[v]
            if by_l or by_r:
                want[i, j] = (
                    bipartite.TAG_BOTH if by_l and by_r
                    else bipartite.TAG_FROM_LEFT if by_l
                    else bipartite.TAG_FROM_RIGHT,
                    d,
                )
    got = {
        (i, int(j)): (int(t), int(d))
        for i in range(g.n_left)
        for j, t, d in zip(
            g.right_neighbors(i),
            g.tags_left[g.indptr_left[i] : g.indptr_left[i + 1]],
            g.distances_left[g.indptr_left[i] : g.indptr_left[i + 1]],
        )
    }
    assert got == want

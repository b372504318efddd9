"""The matching is a factor: relabelling the graph relabels the output.

Each case presents one graph twice, the second time under a vertex
permutation pi with the point counts moved along, and runs the library
from `multiset_from_counts` to `matching.run` on both.  Both radius
fields, the order signatures and the `fallback` flags must be pi-images.
The multiset of matched (left vertex, right vertex) pairs must be the
pi-image whenever no vertex that holds a point of the match graph is
flagged `fallback`: a fallback breaks a signature tie by window index,
the one declared place where the numbering may enter.  Right points
count too: two tied vertices that hold only right points swap ranks
under pi, and a left point between them can take either.
"""

from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ppmatch import bipartite, matching, order, processes, radii
from ppmatch.graphs import GraphFamily, build_window, parse_adjacency_text
from conftest import derive

EXPLICIT12 = parse_adjacency_text(
    (Path(__file__).resolve().parent / "golden" / "explicit12.adj").read_text()
).adjacency
R0 = 2


def cycle(n):
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def torus(a, b):
    return [
        sorted({((x + dx) % a) * b + (y + dy) % b
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))})
        for x in range(a) for y in range(b)
    ]


def random_regular(n, d, rng):
    """A simple d-regular graph on n vertices from the pairing model,
    redrawn until no loop or double edge remains."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
        edges = {tuple(sorted(map(int, e))) for e in stubs}
        if len(edges) == len(stubs) and all(a != b for a, b in edges):
            adj = [[] for _ in range(n)]
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            return [sorted(ns) for ns in adj]


def factor(window, left_counts, right_counts, r_max):
    """(left field, right field, order, matched vertex pairs, the
    vertices of the match graph's points)."""
    left = processes.multiset_from_counts(left_counts)
    right = processes.multiset_from_counts(right_counts)
    fl = radii.compute_radius_field(left, right, window, R0)
    fr = radii.compute_radius_field(right, left, window, R0)
    g = bipartite.build_match_graph(left, right, fl, fr, window)
    of = order.build_order(left, window, r_max)
    m = matching.run(g, matching.point_order(g, of.vertex_rank))[0]
    i, e = m.matched_edges()
    pairs = Counter(zip(
        g.left_vertex[i].tolist(), g.right_vertex[g.indices_left[e]].tolist()
    ))
    return fl, fr, of, pairs, np.concatenate((g.left_vertex, g.right_vertex))


def check_image(window, image, pi, left_counts, right_counts, r_max):
    """Run the factor on (window, counts) and on (image, counts moved by
    pi), and compare; True when the matched pairs were compared."""
    moved_l = np.empty_like(left_counts)
    moved_r = np.empty_like(right_counts)
    moved_l[pi], moved_r[pi] = left_counts, right_counts
    fl, fr, of, pairs, occupied = factor(window, left_counts, right_counts, r_max)
    fl2, fr2, of2, pairs2, _ = factor(image, moved_l, moved_r, r_max)
    assert fl2.values[pi].tolist() == fl.values.tolist()
    assert fr2.values[pi].tolist() == fr.values.tolist()
    assert of2.counts[pi].tolist() == of.counts.tolist()
    assert of2.fallback[pi].tolist() == of.fallback.tolist()
    if of.fallback[occupied].any():
        return False
    assert pairs2 == Counter({(pi[a], pi[b]): k for (a, b), k in pairs.items()})
    return True


def graph_cases():
    return st.one_of(
        st.builds(cycle, st.integers(3, 24)),
        st.builds(torus, st.integers(3, 7), st.integers(3, 7)),
        st.just(EXPLICIT12),
        st.builds(
            random_regular, st.integers(4, 9).map(lambda k: 2 * k),
            st.sampled_from([3, 4]),
            st.integers(0, 2**32 - 1).map(np.random.default_rng),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(graph_cases(), st.integers(0, 2**32 - 1), st.sampled_from([1, 3]))
def test_factor_is_equivariant_on_explicit_graphs(adj, seed, r_max):
    n = len(adj)
    rng = np.random.default_rng(seed)
    pi = rng.permutation(n)
    moved = [[] for _ in range(n)]
    for v in range(n):
        moved[pi[v]] = sorted(int(pi[u]) for u in adj[v])
    window = build_window(GraphFamily.explicit(adj), 0, 0)
    image = build_window(GraphFamily.explicit(moved), 0, 0)
    left_counts, right_counts = rng.poisson(1.0, (2, n))
    check_image(window, image, pi, left_counts, right_counts, r_max)


def test_factor_is_equivariant_under_a_swap_of_root_subtrees():
    # Swapping the subtrees of the root's first two children is an
    # automorphism of the window, so the window stays and only the
    # counts move.  With every point at a fallback vertex the pair check
    # would say nothing; some trial must make it.
    window = build_window(GraphFamily.regular_tree(3), 5, 2)
    pi = np.array([
        window.label_to_index[(lab[0] ^ (lab[0] < 2),) + lab[1:] if lab else lab]
        for lab in window.labels
    ])
    compared = 0
    for t in range(6):
        rng = np.random.default_rng(derive("swap", t))
        left_counts, right_counts = rng.poisson(1.0, (2, window.n))
        compared += check_image(window, window, pi, left_counts, right_counts, 2)
    assert compared

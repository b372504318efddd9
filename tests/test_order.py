from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmatch import order, processes
from ppmatch.graphs import GraphFamily, build_window
from conftest import bfs_oracle, derive, graphs, psi_decode, window_adjacency


def test_psi_frozen_values():
    assert order.psi((0, 0, 0)) == Fraction(0)
    assert order.psi((1, 0, 0)) == Fraction(1, 2)
    assert order.psi((2, 0)) == Fraction(3, 4)
    assert order.psi(()) == Fraction(0)
    assert order.psi((1,)) == Fraction(1, 2)
    assert order.psi((0, 1)) == Fraction(1, 4)
    assert order.psi((2, 1)) == Fraction(3, 4) + Fraction(1, 16)
    with pytest.raises(ValueError):
        order.psi((-1,))


def test_psi_decode_roundtrip_edges():
    assert psi_decode(Fraction(0), 3) == (0, 0, 0)
    assert psi_decode(Fraction(1, 2), 3) == (1, 0, 0)
    assert psi_decode(Fraction(3, 4), 2) == (2, 0)
    with pytest.raises(ValueError):
        psi_decode(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        psi_decode(Fraction(3, 2), 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=8))
def test_psi_roundtrip(sig):
    val = order.psi(sig)
    assert 0 <= val < 1
    assert psi_decode(val, len(sig)) == tuple(sig)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
        )
    )
)
def test_psi_order_matches_lexicographic(pair):
    a, b = pair
    va, vb = order.psi(a), order.psi(b)
    if tuple(a) == tuple(b):
        assert va == vb
    elif tuple(a) < tuple(b):
        assert va < vb
    else:
        assert va > vb


def test_sphere_signature_counts_and_prefix(tree3_d8):
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 2
    ball1, _ = tree3_d8.ball(0, 1)
    for v in ball1:
        if v != 0:
            counts[v] += 1
    pm = processes.multiset_from_counts(counts)
    of = order.build_order(pm, tree3_d8, 3)
    assert of.signature(0) == (2, 3, 0, 0)
    assert list(of.counts[0]) == [2, 3, 0, 0]
    # A depth-7 vertex only sees radius <= 1 inside the window; the
    # radii past the complete prefix read -1, below every count.
    v7 = int(np.nonzero(tree3_d8.depth_from_root == 7)[0][0])
    assert len(of.signature(v7)) == 2
    assert list(of.counts[v7, 2:]) == [-1, -1]


def test_signature_is_local(tree3_d8, tree3_d5):
    # Same process restricted to a smaller window gives the same
    # signature wherever the sphere prefix is complete in both.
    pm8 = processes.sample(processes.ProcessSpec.poisson(), tree3_d8, derive("loc"))
    pm5 = processes.multiset_from_counts(
        np.array(
            [pm8.counts[tree3_d8.label_to_index[lab]] for lab in tree3_d5.labels]
        )
    )
    of5 = order.build_order(pm5, tree3_d5, 2)
    of8 = order.build_order(pm8, tree3_d8, 2)
    for v5, lab in enumerate(tree3_d5.labels):
        if tree3_d5.depth_from_root[v5] + 2 > 5:
            continue
        v8 = tree3_d8.label_to_index[lab]
        assert of5.signature(v5) == of8.signature(v8)


def test_build_order_ranks_and_fallback(tree3_d8):
    pm = processes.sample(processes.ProcessSpec.poisson(), tree3_d8, derive("ord"))
    of = order.build_order(pm, tree3_d8, 2)
    n = tree3_d8.n
    assert sorted(of.vertex_rank) == list(range(n))
    # Ranks realize the documented key order.
    by_rank = np.argsort(of.vertex_rank)
    keys = [(of.signature(int(v)), int(v)) for v in by_rank]
    assert keys == sorted(keys)
    # A vertex carries the fallback flag exactly when another vertex
    # shares its signature.
    sigs = Counter(of.signature(v) for v in range(n))
    flagged = {v for v in range(n) if sigs[of.signature(v)] > 1}
    assert flagged == set(np.nonzero(of.fallback)[0])
    assert of.n_collisions == len(flagged)


def test_degenerate_order_collides_by_depth_profile(tree3_d8):
    pm = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    of = order.build_order(pm, tree3_d8, 2)
    # One point everywhere: the signature only sees the local sphere
    # sizes, so every vertex collides with its depth-profile class.
    assert of.n_collisions == tree3_d8.n
    # Core vertices (complete spheres, 3-regular) all share (1, 3, 6).
    for v in tree3_d8.core:
        assert of.signature(int(v)) == (1, 3, 6)
        assert of.fallback[v]


def test_poisson_core_order_is_nearly_collision_free():
    w = build_window(GraphFamily.regular_tree(3), 10, 6)
    pm = processes.sample(processes.ProcessSpec.poisson(), w, derive("big"))
    of = order.build_order(pm, w, 6)
    assert not of.fallback[w.core].any()


def test_mirrored_ladder_always_collides(ladder_d10):
    w = ladder_d10
    pm0 = processes.sample(processes.ProcessSpec.poisson(), w, derive("lad"))
    counts = pm0.counts.copy()
    for i, (n, z) in enumerate(w.labels):
        if z == 1:
            counts[i] = counts[w.label_to_index[(n, 0)]]
    pm = processes.multiset_from_counts(counts)
    of = order.build_order(pm, w, 3)
    # The flip automorphism preserves distances and the mirrored counts,
    # so each vertical pair shares its signature and must fall back.
    for n, z in w.labels:
        a = w.label_to_index[(n, 0)]
        b = w.label_to_index[(n, 1)]
        assert of.signature(a) == of.signature(b)
        assert of.fallback[a] and of.fallback[b]


def test_dump_order_format(tree3_d8):
    pm = processes.multiset_from_counts(np.ones(tree3_d8.n, dtype=np.int64))
    of = order.build_order(pm, tree3_d8, 2)
    lines = order.dump_order(of)
    assert len(lines) == tree3_d8.n
    # vertex 0: counts (1, 3, 6) -> psi = 0.1011101111110 in binary
    v, csv, num, den, flag = lines[0].split()
    assert (v, csv, flag) == ("0", "1,3,6", "1")
    assert Fraction(int(num), int(den)) == order.psi((1, 3, 6))


def order_oracle(adj, counts, r_max, complete_radius):
    """Plain-Python order: sphere counts from BFS distances, each prefix
    cut at the first radius whose ball leaves the window, tuples sorted
    with the index as tiebreak, and a vertex flagged when another has
    its tuple.
    complete_radius[v] is the largest radius whose ball around v is
    complete."""
    n = len(adj)
    dist = bfs_oracle(adj)
    sigs = []
    for v in range(n):
        keep = min(r_max, complete_radius[v]) + 1
        sigs.append(tuple(
            sum(counts[t] for t in range(n) if dist[v][t] == r)
            for r in range(keep)
        ))
    rank = [0] * n
    for pos, v in enumerate(sorted(range(n), key=lambda v: (sigs[v], v))):
        rank[v] = pos
    fallback = [sigs.count(sig) > 1 for sig in sigs]
    return sigs, rank, fallback


def assert_order_matches_oracle(window, adj, counts, r_max, complete_radius):
    pm = processes.multiset_from_counts(np.asarray(counts, dtype=np.int64))
    of = order.build_order(pm, window, r_max)
    sigs, rank, fallback = order_oracle(adj, counts, r_max, complete_radius)
    # The dump's second field is the signature.
    assert [line.split(" ")[1] for line in order.dump_order(of)] == [
        ",".join(str(c) for c in sig) for sig in sigs
    ]
    assert of.vertex_rank.tolist() == rank
    assert of.fallback.tolist() == fallback


@settings(max_examples=60, deadline=None)
@given(data=st.data(), adj=graphs(), r_max=st.integers(0, 4))
def test_build_order_matches_oracle_on_explicit_graphs(data, adj, r_max):
    w = build_window(GraphFamily.explicit(adj), 0)
    counts = data.draw(st.lists(st.integers(0, 3), min_size=w.n, max_size=w.n))
    # An explicit graph is a complete world: every prefix is kept whole.
    assert_order_matches_oracle(w, adj, counts, r_max, [r_max] * w.n)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), r_max=st.integers(0, 4))
def test_build_order_matches_oracle_on_tree_window(tree3_d5, data, r_max):
    w = tree3_d5
    adj = window_adjacency(w)
    counts = data.draw(st.lists(st.integers(0, 2), min_size=w.n, max_size=w.n))
    complete_radius = [w.depth - int(d) for d in w.depth_from_root]
    assert_order_matches_oracle(w, adj, counts, r_max, complete_radius)

from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ppmatch import bipartite
from ppmatch.graphs import (
    EXPLICIT, LADDER_GENERATORS, REGULAR_TREE, UNREACHABLE, GraphFamily,
    build_window,
)
from ppmatch.seeds import derive_seed, uniform_stream


@pytest.fixture(scope="session")
def tree3_d8():
    return build_window(GraphFamily.regular_tree(3), 8, 4)


@pytest.fixture(scope="session")
def tree3_d5():
    return build_window(GraphFamily.regular_tree(3), 5, 2)


@pytest.fixture(scope="session")
def ladder_d10():
    return build_window(GraphFamily.ladder_diagonal(), 10, 3)


def random_instance(seed, max_left, max_right, edge_prob=0.18):
    """A seeded synthetic bipartite instance with collider vertex ids.

    Points sit on arbitrary integer vertices (several per vertex to
    exercise slot handling); edges are iid with the given density.
    """
    u = uniform_stream(seed, 4, "shape")
    nl = 1 + int(u[0] * max_left)
    nr = 1 + int(u[1] * max_right)
    lv = (uniform_stream(seed, nl, "lv") * max(2, nl // 2)).astype(int)
    rv = (uniform_stream(seed, nr, "rv") * max(2, nr // 2)).astype(int)
    flat = uniform_stream(seed, nl * nr, "edges")
    edges = [
        (i, j)
        for i in range(nl)
        for j in range(nr)
        if flat[i * nr + j] < edge_prob
    ]
    return bipartite.graph_from_point_edges(lv, rv, edges)


def exhaustive_max_matching(g):
    """Third oracle: branch on each left point (skip or take any free
    right neighbor).  Only for tiny instances."""

    def best(i, used):
        if i == g.n_left:
            return 0
        top = best(i + 1, used)
        for j in g.right_neighbors(i):
            if int(j) not in used:
                used.add(int(j))
                top = max(top, 1 + best(i + 1, used))
                used.discard(int(j))
        return top

    return best(0, set())


def exhaustive_chains_below(g, m, max_len):
    """Independent alternating-path search, deliberately naive.

    Yields every simple alternating path with both endpoints unmatched,
    odd edge count < max_len, starting from unmatched left points.  The
    engine under test never sees this code path.
    """
    found = []

    def walk(path, at_right):
        if len(path) >= 2 and len(path) % 2 == 0:
            j = path[-1] - g.n_left
            if m.matchR[j] == -1:
                found.append(tuple(path))
        if len(path) >= max_len:
            return
        if at_right:
            j = path[-1] - g.n_left
            i = m.matchR[j]
            if i >= 0 and i not in path:
                walk(path + [int(i)], False)
        else:
            i = path[-1]
            for j in g.right_neighbors(i):
                gj = g.n_left + int(j)
                if gj not in path and m.matchL[i] != j:
                    walk(path + [gj], True)

    for i in range(g.n_left):
        if m.matchL[i] == -1:
            walk([i], False)
    return found


def seeded_ranks(g, seed):
    """A deterministic random total order on the points of g."""
    u = uniform_stream(seed, g.n_points, "ranks")
    ranks = np.empty(g.n_points, dtype=np.int64)
    ranks[np.argsort(u, kind="stable")] = np.arange(g.n_points)
    return ranks


def index_ranks(g):
    return np.arange(g.n_points, dtype=np.int64)


def attach_tree_adjacency(n, seed, max_depth=5):
    """Random recursive tree on n vertices with root depth <= max_depth."""
    us = uniform_stream(seed, n, "attach")
    depth = [0] * n
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        pool = [u for u in range(v) if depth[u] < max_depth]
        u = pool[int(us[v] * len(pool))]
        depth[v] = depth[u] + 1
        adj[v].append(u)
        adj[u].append(v)
    return adj


def derive(*parts):
    return derive_seed(20260825, *parts)


def bfs_from(adj, s):
    """dist[t] from s for every t, None when t is unreachable."""
    dist = [None] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def bfs_oracle(adj):
    """dist[s][t] for every pair, None when t is unreachable from s."""
    return [bfs_from(adj, s) for s in range(len(adj))]


def greedy_rescan_oracle(sets, path, dist, r):
    """The greedy subfamily by rescanning: keep the largest path set
    (the earliest on the path on a tie) that lies more than r from every
    set kept so far, until none is left; the kept sets in path order.
    `dist` is bfs_oracle's matrix."""
    def apart(a, b):
        return min(dist[x][y] for x in sets[a] for y in sets[b]) > r

    selected = []
    remaining = list(path)
    while True:
        candidates = [
            i for i in remaining if all(apart(i, j) for j in selected)
        ]
        if not candidates:
            break
        best = max(candidates, key=lambda i: (len(sets[i]), -path.index(i)))
        selected.append(best)
        remaining.remove(best)
    return tuple(sorted(selected, key=path.index))


def window_adjacency(w):
    """The neighbour lists of a window, read off its CSR adjacency."""
    return [ns.tolist() for ns in np.split(w._adj.indices, w._adj.indptr[1:-1])]


def window_oracle(family, depth):
    """A window built as Python lists by breadth-first search from the
    root: (labels, sorted neighbour lists, depth of each vertex), the
    depth UNREACHABLE for a vertex the root does not reach."""
    if family.kind == EXPLICIT:
        labels = list(range(len(family.adjacency)))
        adj = [list(ns) for ns in family.adjacency]
    elif family.kind == REGULAR_TREE:
        d = family.degree
        labels = [()]
        adj = [[]]
        frontier = [0]
        for _ in range(depth):
            nxt = []
            for v in frontier:
                for c in range(d if v == 0 else d - 1):
                    w = len(labels)
                    labels.append(labels[v] + (c,))
                    adj.append([v])
                    adj[v].append(w)
                    nxt.append(w)
            frontier = nxt
    else:
        root = (0, 0)
        labels = [root]
        index = {root: 0}
        dist = {root: 0}
        q = deque([root])
        while q:
            lab = q.popleft()
            if dist[lab] == depth:
                continue
            for dn, dz in LADDER_GENERATORS:
                nb = (lab[0] + dn, (lab[1] + dz) % 2)
                if nb not in index:
                    index[nb] = len(labels)
                    labels.append(nb)
                    dist[nb] = dist[lab] + 1
                    q.append(nb)
        adj = [[] for _ in labels]
        for i, (n0, z0) in enumerate(labels):
            for dn, dz in LADDER_GENERATORS:
                j = index.get((n0 + dn, (z0 + dz) % 2))
                if j is not None and j not in adj[i]:
                    adj[i].append(j)
    depth_from_root = [
        UNREACHABLE if x is None else x for x in bfs_from(adj, 0)
    ]
    return labels, [sorted(ns) for ns in adj], depth_from_root


def tree_distance(a, b):
    """Regular-tree distance between two root-path labels: both climb to
    their longest common prefix."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return (len(a) - k) + (len(b) - k)


def ladder_distance(a, b):
    """Diagonal-ladder distance between labels (n, z): a rung change
    rides along any level step, and costs one step on its own."""
    dn = abs(a[0] - b[0])
    if a[1] == b[1]:
        return dn
    return max(dn, 1)


def psi_decode(value, n_entries):
    """Invert order.psi given the entry count (trailing zero entries
    carry no binary digits, so the length cannot be inferred from the
    value)."""
    f = Fraction(value)
    if not (0 <= f < 1):
        raise ValueError("psi values lie in [0, 1)")
    entries = []
    run = 0
    while f:
        f *= 2
        if f >= 1:
            f -= 1
            run += 1
        else:
            entries.append(run)
            run = 0
    if run:
        entries.append(run)
    if len(entries) > n_entries:
        raise ValueError("value encodes more entries than stated")
    entries.extend([0] * (n_entries - len(entries)))
    return tuple(entries)


@st.composite
def graphs(draw):
    """Adjacency lists of small simple graphs, often disconnected, with
    isolated vertices."""
    n = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    adj = [set() for _ in range(n)]
    for a, b in chosen:
        adj[a].add(b)
        adj[b].add(a)
    return [sorted(ns) for ns in adj]

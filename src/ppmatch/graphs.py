"""Finite windows of transitive graph families.

A window is the ball of a chosen depth around a root vertex, with a
deterministic breadth-first vertex indexing.  Three families are
supported:

* ``regular_tree``  -- the d-regular infinite tree, d >= 3 (non-amenable);
* ``ladder_diagonal`` -- the Cayley graph of Z x Z_2 with generators
  (+-1, 0), (0, 1), (+-1, 1), a 5-regular amenable graph used as a
  counterexample family;
* ``explicit`` -- a finite graph given by its adjacency list, treated as
  a complete world (no boundary censoring).

Windows answer metric queries (distance, balls, spheres, completeness
flags).  The module also gives the infinite graphs' sphere and ball
sizes and the regular tree's spectral radius in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, identity
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ConfigurationError, ResourceError
from .seeds import part_key

#: Distance reported for a vertex out of a query's reach; larger than
#: every radius, so no ball test ``dist <= r`` admits it.
UNREACHABLE = np.iinfo(np.int32).max
#: Most distance entries one `GraphWindow.pairs_within` block holds.
ROW_ENTRIES = 1 << 21
#: Most vertices `build_window` materializes.
MAX_WINDOW_VERTICES = 200_000

REGULAR_TREE = "regular_tree"
LADDER_DIAGONAL = "ladder_diagonal"
EXPLICIT = "explicit"

#: Generator order of the ladder family; determines BFS tie-breaking.
LADDER_GENERATORS = ((-1, 0), (1, 0), (0, 1), (-1, 1), (1, 1))


@dataclass(frozen=True)
class GraphFamily:
    """A graph family descriptor.

    For ``regular_tree`` the relevant field is ``degree``; for
    ``explicit`` it is ``adjacency`` (a tuple of sorted neighbor tuples).
    """

    kind: str
    degree: int = 0
    adjacency: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def regular_tree(degree: int) -> "GraphFamily":
        if degree < 3:
            raise ConfigurationError(
                f"regular_tree requires degree >= 3, got {degree}"
            )
        return GraphFamily(REGULAR_TREE, degree=degree)

    @staticmethod
    def ladder_diagonal() -> "GraphFamily":
        return GraphFamily(LADDER_DIAGONAL, degree=5)

    @staticmethod
    def explicit(adjacency: Sequence[Iterable[int]]) -> "GraphFamily":
        n = len(adjacency)
        cleaned = []
        for v, nbrs in enumerate(adjacency):
            ns = sorted(set(int(w) for w in nbrs))
            for w in ns:
                if w < 0 or w >= n:
                    raise ConfigurationError(
                        f"vertex {v} lists out-of-range neighbor {w}"
                    )
                if w == v:
                    raise ConfigurationError(f"self-loop at vertex {v}")
            cleaned.append(tuple(ns))
        for v, ns in enumerate(cleaned):
            for w in ns:
                if v not in cleaned[w]:
                    raise ConfigurationError(
                        f"adjacency not symmetric: {v}->{w} but not {w}->{v}"
                    )
        return GraphFamily(EXPLICIT, adjacency=tuple(cleaned))

    @property
    def amenable(self) -> bool:
        """Known amenability of the infinite family (explicit graphs are
        finite, hence flagged amenable)."""
        return self.kind != REGULAR_TREE


def parse_adjacency_text(text: str) -> GraphFamily:
    """Parse an explicit graph from lines of the form ``id: n1 n2 n3``."""
    rows: dict[int, list[int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        try:
            rows[int(head)] = [int(tok) for tok in rest.split()]
        except ValueError:
            raise ConfigurationError(
                f"adjacency line {raw!r} is not 'id: n1 n2 ...'"
            ) from None
    if not rows:
        raise ConfigurationError("empty adjacency text")
    n = max(rows) + 1
    if sorted(rows) != list(range(n)):
        raise ConfigurationError("adjacency text must cover ids 0..n-1")
    return GraphFamily.explicit([rows[v] for v in range(n)])


# ---------------------------------------------------------------------------
# Infinite-graph label arithmetic
# ---------------------------------------------------------------------------
# Regular tree labels are root paths: the root is (), the root's children
# are (0,) .. (d-1,), every other vertex has d-1 children indexed 0..d-2.
# Ladder labels are pairs (n, z) with z in {0, 1}.


def sphere_size_infinite(family: GraphFamily, r: int) -> int:
    """Size of a radius-r sphere in the infinite graph of the family."""
    if r < 0:
        raise ConfigurationError("radius must be >= 0")
    if r == 0:
        return 1
    if family.kind == REGULAR_TREE:
        d = family.degree
        return d * (d - 1) ** (r - 1)
    if family.kind == LADDER_DIAGONAL:
        return 5 if r == 1 else 4
    raise ConfigurationError(
        "infinite sphere size undefined for explicit graphs"
    )


def ball_size_infinite(family: GraphFamily, r: int) -> int:
    return sum(sphere_size_infinite(family, k) for k in range(r + 1))


def sphere_point(family: GraphFamily, label, r: int, j: int):
    """The j-th point of the radius-r sphere around `label`, canonically.

    The indexing is a fixed bijection from {0 .. sphere_size-1} onto the
    infinite-graph sphere, independent of any window, so that landing
    positions of displaced points do not depend on the window size.
    """
    size = sphere_size_infinite(family, r)
    if not 0 <= j < size:
        raise ConfigurationError(f"sphere index {j} out of range {size}")
    if r == 0:
        return label

    if family.kind == LADDER_DIAGONAL:
        n, z = label
        if r == 1:
            opts = [(n - 1, z), (n + 1, z), (n, 1 - z), (n - 1, 1 - z), (n + 1, 1 - z)]
        else:
            opts = [(n - r, z), (n + r, z), (n - r, 1 - z), (n + r, 1 - z)]
        return opts[j]

    if family.kind != REGULAR_TREE:
        raise ConfigurationError("sphere_point defined for transitive families")

    d = family.degree
    # Decode j as a non-backtracking walk of length r: the first move has
    # d options, each later move d-1 options.
    digits = []
    rest = j
    for _ in range(r - 1):
        digits.append(rest % (d - 1))
        rest //= d - 1
    first = rest
    digits.reverse()

    pos = list(label)
    # Apply the first move.  Non-root: option 0 is "up", options 1..d-1
    # descend to children 0..d-2.  Root: options 0..d-1 descend.
    came_up_from: int | None = None
    if pos:
        if first == 0:
            came_up_from = pos.pop()
        else:
            pos.append(first - 1)
    else:
        pos.append(first)

    for digit in digits:
        if came_up_from is None:
            # Arrived from the parent; the d-1 remaining moves descend.
            pos.append(digit)
        else:
            # Arrived from child `came_up_from`; remaining moves are "up"
            # (when not at the root) plus the other children.
            if pos:
                options = [-1] + [c for c in range(d - 1) if c != came_up_from]
            else:
                options = [c for c in range(d) if c != came_up_from]
            move = options[digit]
            if move == -1:
                came_up_from = pos.pop()
                continue
            pos.append(move)
        came_up_from = None
    return tuple(pos)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


class GraphWindow:
    """A depth-L ball around a root with deterministic BFS indexing.

    Vertices are integer indices 0..n-1 in BFS discovery order; the root
    is index 0.  ``labels[i]`` is the canonical infinite-graph label of
    vertex i (a path tuple for trees, an (n, z) pair for the ladder, the
    original id for explicit graphs).

    Distance queries run on one sparse adjacency and touch only the part
    of the graph within their limit (``dist_row``, ``dist_from``,
    ``pairs_within``, ``ball_counts``, ``GapComponents``).  A vertex
    beyond the limit or unreachable is at distance UNREACHABLE: outside
    every ball.
    """

    def __init__(
        self,
        family: GraphFamily,
        depth: int,
        core_margin: int,
        labels: Sequence,
        indptr: np.ndarray,
        indices: np.ndarray,
        depth_from_root: np.ndarray | None = None,
    ):
        """`indptr` and `indices` are the CSR adjacency, each row sorted.
        `depth_from_root` defaults to one BFS from vertex 0."""
        self.family = family
        self.depth = depth
        self.core_margin = core_margin
        self.labels = tuple(labels)
        self.n = len(self.labels)
        # Unit weights in float64, the dtype csgraph works in, so that no
        # query converts the matrix.
        self._adj = csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(self.n, self.n)
        )
        self._reach: list[csr_matrix] = []  # _reach[r]: pairs within r
        self._reach_closed = False  # every later relation is _reach[-1]
        if depth_from_root is None:
            depth_from_root = (
                self.dist_row(0) if self.n else np.empty(0, np.int32)
            )
        self.depth_from_root = depth_from_root

    # -- construction ------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"GraphWindow({self.family.kind}, depth={self.depth}, "
            f"margin={self.core_margin}, n={self.n})"
        )

    @cached_property
    def label_keys(self) -> tuple[bytes, ...]:
        """Each label encoded as a hash part (`seeds.part_key`), built on
        first use (tree windows fill it in as they are built).  The bytes
        do not depend on the seed, so a window reused across trials
        encodes its labels once."""
        return tuple(map(part_key, self.labels))

    @cached_property
    def label_to_index(self) -> dict:
        """Window index of each label, built on first use."""
        return {lab: i for i, lab in enumerate(self.labels)}

    # -- metric queries ----------------------------------------------------

    def dist_from(self, sources, limit: float | None = None) -> np.ndarray:
        """Distance from every window vertex to its nearest source.

        Vertices farther than `limit` from every source, or unreachable,
        get UNREACHABLE.  One multi-source BFS that stops at `limit`: it
        visits only the vertices within `limit` of the sources.
        """
        sources = np.asarray(sources, dtype=np.int32).reshape(-1)
        if len(sources) == 0:
            return np.full(self.n, UNREACHABLE, dtype=np.int32)
        dist = dijkstra(
            self._adj, indices=sources, min_only=True,
            limit=np.inf if limit is None else limit,
        )
        return np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int32)

    def dist_row(self, v: int, limit: float | None = None) -> np.ndarray:
        """Distances from vertex v (see dist_from)."""
        return self.dist_from([v], limit)

    def pairs_within(self, sources, limit: int) -> tuple[np.ndarray, ...]:
        """Int64 arrays (k, u, d), one entry per window vertex u at
        distance d <= `limit` from sources[k], ordered by k then u.  The
        truncated BFS runs on max(1, ROW_ENTRIES // n) sources at a time,
        so its dense scratch stays below ROW_ENTRIES distances."""
        step = max(1, ROW_ENTRIES // max(self.n, 1))
        parts = [(np.empty(0, dtype=np.int64),) * 3]
        for s in range(0, len(sources), step):
            dist = dijkstra(self._adj, indices=sources[s : s + step], limit=limit)
            k, u = np.nonzero(dist <= limit)
            parts.append((k + s, u, dist[k, u].astype(np.int64)))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def distance(self, u: int, v: int) -> int:
        return int(self.dist_row(u)[v])

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distances, computed afresh on every call: an n^2
        reference for tests, used by no library code."""
        return np.stack([self.dist_row(v) for v in range(self.n)])

    def ball_counts(self, weights: np.ndarray, r: int) -> np.ndarray:
        """weights summed over B_r(v), for every window vertex v.  It
        keeps the within-k relation B_k for k = 0 .. r, whose pairs are
        the sum of all radius-k ball sizes, but adds none after the
        first that stops growing: B_{k+1} = B_k (A + I) contains B_k,
        so one equal to B_k equals every later one."""
        reach = self._reach
        if len(reach) <= r and not self._reach_closed:
            closed = identity(self.n, dtype=bool, format="csr")
            if not reach:
                reach.append(closed)
            step = (self._adj + closed).astype(bool)
            while len(reach) <= r:
                grown = reach[-1] @ step
                if grown.nnz == reach[-1].nnz:
                    self._reach_closed = True
                    break
                reach.append(grown)
        weights = np.asarray(weights, dtype=np.int64)
        return reach[min(r, len(reach) - 1)] @ weights

    def ball(self, v: int, r: int) -> tuple[np.ndarray, bool]:
        """Indices within distance r of v, and a completeness flag.

        The flag is True when the window provably contains the whole
        infinite-graph ball (always, for explicit graphs).
        """
        idx = np.nonzero(self.dist_row(v, r) <= r)[0]
        return idx, self.ball_complete(v, r)

    def sphere(self, v: int, r: int) -> tuple[np.ndarray, bool]:
        idx = np.nonzero(self.dist_row(v, r) == r)[0]
        return idx, self.ball_complete(v, r)

    def ball_ok(self, r: int) -> np.ndarray:
        """Per vertex v, whether B_r(v) lies fully inside the window:
        every window test of completeness reads this rule."""
        if self.family.kind == EXPLICIT:
            return np.ones(self.n, dtype=bool)
        return self.depth_from_root <= self.depth - r

    def ball_complete(self, v, r: int) -> bool:
        """Whether B_r(v) lies fully inside the window; for an index
        array v, whether every such ball does."""
        return bool(self.ball_ok(r)[v].all())

    @property
    def core(self) -> np.ndarray:
        """Vertices whose core_margin-ball lies inside the window."""
        return np.nonzero(self.ball_ok(self.core_margin))[0]


class GapComponents:
    """Components of a vertex set under gap-proximity, for every gap.

    Members at distance <= g are joined at gap g (single linkage).  One
    multi-source BFS assigns each vertex to its nearest member, its
    graph-Voronoi cell.  A window edge (u, w) between the cells of s and
    t offers the weight d(s, u) + 1 + d(w, t); the minimum spanning tree
    of these boundary edges is one of the members' distance graph
    (Mehlhorn, IPL 27, 1988).  Cutting a graph's edges at g leaves the
    same components as cutting its minimum spanning tree at g (Gower &
    Ross, Applied Statistics 18, 1969), so the components at g are those
    of the boundary edges of weight <= g.  The vertices must be distinct.

    The BFS is kept: ``near[u]`` is the distance from window vertex u to
    its nearest member (UNREACHABLE: none reachable), ``cell[u]`` that
    member's position in ``vertices`` (-1: none).
    """

    def __init__(self, window: GraphWindow, vertices):
        self.vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        k, adj = len(self.vertices), window._adj
        # Boundary edges (cell a, cell b, weight d(s, u) + 1 + d(w, t)).
        self._edges = (np.empty(0, dtype=np.int64),) * 3
        self.near = np.full(window.n, UNREACHABLE, dtype=np.int32)
        self.cell = np.full(window.n, -1, dtype=np.int64)
        if k == 0:
            return
        dist, _, nearest = dijkstra(
            adj, indices=self.vertices, min_only=True, return_predecessors=True
        )
        # nearest[u] is the member whose cell holds u (< 0: none reached).
        pos = np.full(window.n, -1, dtype=np.int64)
        pos[self.vertices] = np.arange(k)
        reached = nearest >= 0
        self.near[reached] = dist[reached]
        self.cell[reached] = pos[nearest[reached]]
        u = np.repeat(np.arange(window.n), np.diff(adj.indptr))
        w = adj.indices
        cross = (u < w) & (nearest[u] != nearest[w])
        u, w = u[cross], w[cross]
        self._edges = (pos[nearest[u]], pos[nearest[w]], dist[u] + 1 + dist[w])

    def labels(self, gap: int) -> np.ndarray:
        """Component id of each member (aligned with ``vertices``) at
        `gap`; ids number the components in order of their first member."""
        a, b, weight = self._edges
        keep = weight <= gap
        k = len(self.vertices)
        links = coo_matrix(
            (np.ones(np.count_nonzero(keep)), (a[keep], b[keep])),
            shape=(k, k),
        )
        return connected_components(links, directed=False)[1]


def _csr(n: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the arcs rows[k] -> cols[k] on n
    vertices, each row's neighbours in increasing order."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _tree_window(
    family: GraphFamily, depth: int, core_margin: int
) -> GraphWindow:
    """The depth-L regular-tree window, from index arithmetic.

    BFS order numbers the root's d children 1..d, then gives every later
    vertex d-1 consecutive children, so vertex w >= 1 has parent 0 and
    child digit w-1 when w <= d, else parent 1 + (w-1-d)//(d-1) and
    digit (w-1-d) % (d-1).
    """
    d = family.degree
    sizes = [sphere_size_infinite(family, k) for k in range(depth + 1)]
    n = sum(sizes)
    child = np.arange(1, n)
    below = child - 1 - d
    parent = np.where(below < 0, 0, 1 + below // (d - 1))
    digit = np.where(below < 0, child - 1, below % (d - 1))
    indptr, indices = _csr(n, np.r_[parent, child], np.r_[child, parent])

    # keys[v] is part_key(labels[v]): the label's repr, then 0x1f.  A
    # child's repr is its parent's with ", c)" for the closing ")", but
    # for the root's children ("(c,)") and theirs ("(a,)" -> "(a, c)").
    labels: list[tuple[int, ...]] = [()]
    keys = [b"()\x1f"]
    tails = [b", %d)\x1f" % c for c in range(d)]
    for p, c in zip(parent.tolist(), digit.tolist()):
        labels.append(labels[p] + (c,))
        if p == 0:
            keys.append(b"(%d,)\x1f" % c)
        else:
            keys.append(keys[p][: -3 if p <= d else -2] + tails[c])
    window = GraphWindow(
        family, depth, core_margin, labels, indptr, indices,
        np.repeat(np.arange(depth + 1, dtype=np.int32), sizes),
    )
    window.__dict__["label_keys"] = tuple(keys)  # fills the cached property
    return window


def build_window(
    family: GraphFamily, depth: int, core_margin: int = 0
) -> GraphWindow:
    """Materialize the depth-L window of a family around its root.

    For explicit graphs the whole given graph is the window and `depth`
    is ignored.  Raises ResourceError when the vertex count would exceed
    MAX_WINDOW_VERTICES.
    """
    if core_margin < 0:
        raise ConfigurationError("core_margin must be >= 0")
    if family.kind == EXPLICIT:
        adj = family.adjacency
        n = len(adj)
        if n > MAX_WINDOW_VERTICES:
            raise ResourceError(
                f"explicit graph has {n} > {MAX_WINDOW_VERTICES} vertices"
            )
        rows = np.repeat(np.arange(n), [len(ns) for ns in adj])
        indptr, indices = _csr(n, rows, [w for ns in adj for w in ns])
        return GraphWindow(
            family, depth, core_margin, range(n), indptr, indices
        )

    if depth < 0:
        raise ConfigurationError("depth must be >= 0")
    if core_margin > depth:
        raise ConfigurationError("core_margin cannot exceed depth")

    if family.kind == REGULAR_TREE:
        # Level by level, so that a deep window stops at the cap.
        n = 0
        for k in range(depth + 1):
            n += sphere_size_infinite(family, k)
            if n > MAX_WINDOW_VERTICES:
                raise ResourceError(
                    f"tree window of depth {depth} exceeds "
                    f"{MAX_WINDOW_VERTICES} vertices"
                )
        return _tree_window(family, depth, core_margin)

    if family.kind == LADDER_DIAGONAL:
        root = (0, 0)
        labels = [root]
        index = {root: 0}
        level = [0]
        for lab, lev in zip(labels, level):  # both grow: a BFS queue
            if lev == depth:
                continue
            n0, z0 = lab
            for dn, dz in LADDER_GENERATORS:
                nb = (n0 + dn, (z0 + dz) % 2)
                if nb not in index:
                    if len(labels) >= MAX_WINDOW_VERTICES:
                        raise ResourceError("ladder window exceeds vertex cap")
                    index[nb] = len(labels)
                    labels.append(nb)
                    level.append(lev + 1)
        # The five generators reach five distinct neighbours.
        rows, cols = [], []
        for i, (n0, z0) in enumerate(labels):
            for dn, dz in LADDER_GENERATORS:
                j = index.get((n0 + dn, (z0 + dz) % 2))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        indptr, indices = _csr(len(labels), rows, cols)
        return GraphWindow(
            family, depth, core_margin, labels, indptr, indices,
            np.asarray(level, dtype=np.int32),
        )

    raise ConfigurationError(f"unknown family kind {family.kind!r}")


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def spectral_radius(family: GraphFamily) -> float:
    """Spectral radius 2*sqrt(d-1)/d of simple random walk on the
    d-regular tree (Kesten 1959).

    Only the non-amenable regular trees have a radius below 1; any other
    family raises ConfigurationError.
    """
    if family.kind != REGULAR_TREE:
        raise ConfigurationError(
            f"spectral radius is known in closed form only for "
            f"{REGULAR_TREE}, not {family.kind}"
        )
    d = family.degree
    return 2.0 * math.sqrt(d - 1) / d

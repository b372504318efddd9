"""The bipartite proximity graph between two point multisets.

Points of the left multiset and points of the right multiset share an
undirected edge whenever their vertex distance is within reach of
either side's radius field.  The direction that generated an edge
(left reach, right reach, or both) is tagged for diagnostics; the
matching engine consumes only the undirected view.

Points sitting at censored vertices of the corresponding radius field
never enter the graph; they are dropped and counted in the censoring
report carried by the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError
from .graphs import ROW_BLOCK, GraphWindow
from .processes import PointMultiset
from .radii import RadiusField

LEFT = 0
RIGHT = 1

TAG_FROM_LEFT = 1
TAG_FROM_RIGHT = 2
TAG_BOTH = 3


@dataclass(frozen=True)
class CensorReport:
    """Points excluded from the graph because their vertex was censored."""

    left_points_dropped: int
    right_points_dropped: int


class MatchGraph:
    """CSR adjacency between left point ids 0..nL-1 and right ids 0..nR-1.

    Globally a right point j is addressed as nL + j where a single id
    space is needed (chains, ranks).  The edges come as three aligned
    arrays (left id, right id, tag) and, for graphs built on a window,
    a fourth with each edge's vertex distance; ``distances_left`` keeps
    it aligned with ``indices_left`` (None for synthetic graphs), and
    ``owner_left`` holds the left point of each of its entries.
    """

    def __init__(
        self,
        left_vertex: np.ndarray,
        left_slot: np.ndarray,
        right_vertex: np.ndarray,
        right_slot: np.ndarray,
        edge_left: np.ndarray,
        edge_right: np.ndarray,
        edge_tag: np.ndarray,
        edge_distance: np.ndarray | None = None,
        censor: CensorReport | None = None,
    ):
        self.left_vertex = np.asarray(left_vertex, dtype=np.int64)
        self.left_slot = np.asarray(left_slot, dtype=np.int64)
        self.right_vertex = np.asarray(right_vertex, dtype=np.int64)
        self.right_slot = np.asarray(right_slot, dtype=np.int64)
        self.n_left = len(self.left_vertex)
        self.n_right = len(self.right_vertex)
        self.censor = censor or CensorReport(0, 0)

        ei = np.asarray(edge_left, dtype=np.int64)
        ej = np.asarray(edge_right, dtype=np.int64)
        order = np.lexsort((ej, ei))
        self.n_edges = len(order)
        self.indptr_left = np.zeros(self.n_left + 1, dtype=np.int64)
        np.cumsum(np.bincount(ei, minlength=self.n_left), out=self.indptr_left[1:])
        self.indices_left = ej[order]
        self.owner_left = ei[order]
        self.tags_left = np.asarray(edge_tag, dtype=np.int8)[order]
        self.distances_left = (
            None if edge_distance is None
            else np.asarray(edge_distance, dtype=np.int64)[order]
        )

        order_r = np.lexsort((ei, ej))
        self.indptr_right = np.zeros(self.n_right + 1, dtype=np.int64)
        np.cumsum(np.bincount(ej, minlength=self.n_right), out=self.indptr_right[1:])
        self.indices_right = ei[order_r]
        for a in (
            self.left_vertex, self.left_slot, self.right_vertex,
            self.right_slot, self.indptr_left, self.indices_left,
            self.owner_left, self.tags_left, self.distances_left,
            self.indptr_right, self.indices_right,
        ):
            if a is not None:
                a.setflags(write=False)

    def __repr__(self) -> str:
        return (
            f"MatchGraph(nL={self.n_left}, nR={self.n_right}, "
            f"edges={self.n_edges})"
        )

    @property
    def n_points(self) -> int:
        return self.n_left + self.n_right

    def right_neighbors(self, i: int) -> np.ndarray:
        return self.indices_left[self.indptr_left[i] : self.indptr_left[i + 1]]

    def left_neighbors(self, j: int) -> np.ndarray:
        return self.indices_right[self.indptr_right[j] : self.indptr_right[j + 1]]


def build_match_graph(
    left: PointMultiset,
    right: PointMultiset,
    field_left: RadiusField,
    field_right: RadiusField,
    window: GraphWindow,
) -> MatchGraph:
    """Materialize the undirected proximity graph from the radius fields.

    An edge {x, x'} exists iff dist(x, x') <= max(R_x, R'_x'); the tag
    records which of the two reach clauses produced it, and the edge
    keeps that distance.  Points at censored vertices are excluded from
    both sides.
    """
    keep_l = ~field_left.censored
    keep_r = ~field_right.censored
    occ_l = np.nonzero((left.counts > 0) & keep_l)[0]
    occ_r = np.nonzero((right.counts > 0) & keep_r)[0]
    censor = CensorReport(
        int(left.counts[~keep_l].sum()), int(right.counts[~keep_r].sum())
    )

    # The kept points, in the multisets' own vertex-then-slot order.
    kept_l = keep_l[left.point_vertex]
    kept_r = keep_r[right.point_vertex]
    left_vertex, left_slot = left.point_vertex[kept_l], left.point_slot[kept_l]
    right_vertex, right_slot = right.point_vertex[kept_r], right.point_slot[kept_r]

    # Point count at each occupied vertex, and the id of its first point.
    count_l, count_r = left.counts[occ_l], right.counts[occ_r]
    start_l = np.cumsum(count_l) - count_l
    start_r = np.cumsum(count_r) - count_r

    r_left = field_left.values[occ_l]
    r_right = field_right.values[occ_r]
    # No edge is longer than the largest radius on either side.
    limit = int(max(r_left.max(initial=0), r_right.max(initial=0)))
    # Per block: (index into occ_l, index into occ_r, tag, distance).
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty, empty, empty, empty)]
    for s in range(0, len(occ_l), ROW_BLOCK):
        rows = window.dist_row(occ_l[s : s + ROW_BLOCK], limit)[:, occ_r]
        reach_l = rows <= r_left[s : s + ROW_BLOCK, None]
        reach_r = rows <= r_right
        a, b = np.nonzero(reach_l | reach_r)
        tag = TAG_FROM_LEFT * reach_l[a, b] + TAG_FROM_RIGHT * reach_r[a, b]
        blocks.append((a + s, b, tag, rows[a, b]))
    a, b, tag, dist = (np.concatenate(col) for col in zip(*blocks))

    # Each vertex pair (a, b) stands for every pair of their points.
    pair, i = _expand(start_l[a], count_l[a])
    pair_j, j = _expand(start_r[b[pair]], count_r[b[pair]])
    pair = pair[pair_j]
    return MatchGraph(
        left_vertex, left_slot, right_vertex, right_slot,
        i[pair_j], j, tag[pair], dist[pair], censor=censor,
    )


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry k repeated count[k] times, with the point ids start[k],
    start[k] + 1, ... that the repeats stand for."""
    owner = np.repeat(np.arange(len(count)), count)
    first = np.cumsum(count) - count
    return owner, start[owner] + np.arange(len(owner)) - first[owner]


def graph_from_point_edges(
    left_vertex: Sequence[int],
    right_vertex: Sequence[int],
    edges: Iterable[tuple[int, int]],
) -> MatchGraph:
    """Synthetic constructor for tests and oracles: explicit point lists
    and undirected (left id, right id) pairs, all tagged both-ways and
    carrying no distances."""
    lv = np.asarray(left_vertex, dtype=np.int64)
    rv = np.asarray(right_vertex, dtype=np.int64)
    ls = _slots_from_vertices(lv)
    rs = _slots_from_vertices(rv)
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    tags = np.full(len(pairs), TAG_BOTH, dtype=np.int8)
    return MatchGraph(lv, ls, rv, rs, pairs[:, 0], pairs[:, 1], tags)


def _slots_from_vertices(vertex: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}
    out = np.empty(len(vertex), dtype=np.int64)
    for p, v in enumerate(vertex):
        seen[int(v)] = seen.get(int(v), 0) + 1
        out[p] = seen[int(v)]
    return out


def neighborhood(g: MatchGraph, pids: Iterable[int]) -> np.ndarray:
    """Union of undirected adjacencies of same-side points, as the
    opposite side's local ids (sorted)."""
    ids = sorted(set(int(p) for p in pids))
    if not ids:
        return np.empty(0, dtype=np.int64)
    sides = {LEFT if p < g.n_left else RIGHT for p in ids}
    if len(sides) > 1:
        raise ContractViolationError("neighborhood input mixes sides")
    out: set[int] = set()
    if sides == {LEFT}:
        for i in ids:
            out.update(int(j) for j in g.right_neighbors(i))
    else:
        for p in ids:
            out.update(int(i) for i in g.left_neighbors(p - g.n_left))
    return np.asarray(sorted(out), dtype=np.int64)


def dump_graph(g: MatchGraph) -> list[str]:
    """Lines "L vertex index | R vertex index" per undirected edge."""
    lines = []
    for i in range(g.n_left):
        for j in g.right_neighbors(i):
            lines.append(
                f"L {int(g.left_vertex[i])} {int(g.left_slot[i])} | "
                f"R {int(g.right_vertex[j])} {int(g.right_slot[j])}"
            )
    return lines

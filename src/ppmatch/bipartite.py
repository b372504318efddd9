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
from .graphs import GraphWindow
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
    space is needed (chains, ranks).
    """

    def __init__(
        self,
        left_vertex: np.ndarray,
        left_slot: np.ndarray,
        right_vertex: np.ndarray,
        right_slot: np.ndarray,
        edges: Sequence[tuple[int, int, int]],
        window: GraphWindow | None = None,
        censor: CensorReport | None = None,
    ):
        self.left_vertex = np.asarray(left_vertex, dtype=np.int64)
        self.left_slot = np.asarray(left_slot, dtype=np.int64)
        self.right_vertex = np.asarray(right_vertex, dtype=np.int64)
        self.right_slot = np.asarray(right_slot, dtype=np.int64)
        self.n_left = len(self.left_vertex)
        self.n_right = len(self.right_vertex)
        self.window = window
        self.censor = censor or CensorReport(0, 0)

        if edges:
            arr = np.asarray(edges, dtype=np.int64)
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
        else:
            arr = np.empty((0, 3), dtype=np.int64)
        self.n_edges = len(arr)
        self.indptr_left = np.zeros(self.n_left + 1, dtype=np.int64)
        np.add.at(self.indptr_left, arr[:, 0] + 1, 1)
        np.cumsum(self.indptr_left, out=self.indptr_left)
        self.indices_left = arr[:, 1].copy()
        self.tags_left = arr[:, 2].astype(np.int8)

        order_r = np.lexsort((arr[:, 0], arr[:, 1]))
        arr_r = arr[order_r]
        self.indptr_right = np.zeros(self.n_right + 1, dtype=np.int64)
        np.add.at(self.indptr_right, arr_r[:, 1] + 1, 1)
        np.cumsum(self.indptr_right, out=self.indptr_right)
        self.indices_right = arr_r[:, 0].copy()
        for a in (
            self.left_vertex, self.left_slot, self.right_vertex,
            self.right_slot, self.indptr_left, self.indices_left,
            self.tags_left, self.indptr_right, self.indices_right,
        ):
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
    records which of the two reach clauses produced it.  Points at
    censored vertices are excluded from both sides.
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

    # Point id of the first point at each occupied vertex.
    start_l = np.concatenate(([0], np.cumsum(left.counts[occ_l])))
    start_r = np.concatenate(([0], np.cumsum(right.counts[occ_r])))

    r_right = field_right.values[occ_r]
    reach_max = int(r_right.max()) if len(occ_r) else 0
    edges: list[tuple[int, int, int]] = []
    for a, v in enumerate(occ_l):
        rv = int(field_left.values[v])
        row = window.dist_row(int(v), max(rv, reach_max))[occ_r]
        reach_l = row <= rv
        reach_r = row <= r_right
        hit = np.nonzero(reach_l | reach_r)[0]
        if len(hit) == 0:
            continue
        tags = np.where(
            reach_l[hit] & reach_r[hit],
            TAG_BOTH,
            np.where(reach_l[hit], TAG_FROM_LEFT, TAG_FROM_RIGHT),
        )
        for b, tag in zip(hit, tags):
            for i in range(start_l[a], start_l[a + 1]):
                for j in range(start_r[b], start_r[b + 1]):
                    edges.append((int(i), int(j), int(tag)))

    return MatchGraph(
        left_vertex, left_slot, right_vertex, right_slot, edges,
        window=window, censor=censor,
    )


def graph_from_point_edges(
    left_vertex: Sequence[int],
    right_vertex: Sequence[int],
    edges: Iterable[tuple[int, int]],
    window: GraphWindow | None = None,
) -> MatchGraph:
    """Synthetic constructor for tests and oracles: explicit point lists
    and undirected (left id, right id) pairs, all tagged both-ways."""
    lv = np.asarray(left_vertex, dtype=np.int64)
    rv = np.asarray(right_vertex, dtype=np.int64)
    ls = _slots_from_vertices(lv)
    rs = _slots_from_vertices(rv)
    tagged = [(int(i), int(j), TAG_BOTH) for i, j in edges]
    return MatchGraph(lv, ls, rv, rs, tagged, window=window)


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

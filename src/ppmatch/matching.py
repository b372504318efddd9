"""Staged chain-flipping matching engine.

A chain is a simple alternating path joining two unmatched points; its
edge count is odd, and flipping it (remove the matched edges, insert the
others) matches both endpoints and leaves every other point's state
untouched.  Stage n repeatedly finds all chains shorter than 4n, keeps
those that are minimal for every point they touch, and flips the kept
chains simultaneously, until none remain.

One certificate decides when a stage is done: s, the length of the
shortest chain (None when there is none), from a layered alternating
BFS (Hopcroft & Karp 1973).  A stage sweeps while s < 4n; `run` carries
s from stage to stage, so a stage with s >= 4n searches nothing and gets
a zero-sweep report.  The chain search cuts every branch that the
reverse BFS from the chain ends shows cannot finish below 4n edges.

Chains are compared by an endpoint-first key: the ranks of the two
endpoints (smaller first), then the ranks of the interior points read
from the smaller endpoint.  A shorter chain with the same endpoints
precedes any longer one, which is what lets co-located pairs win over
detours and makes the degenerate pipeline settle in one stage.

Point ranks extend a total order on vertices to points with
multiplicity: points sort by (vertex order rank, index at the vertex,
side), left before right.

A Hopcroft-Karp maximum-matching oracle, written against the raw
adjacency arrays and sharing no code with the staged engine, verifies
final sizes.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .bipartite import MatchGraph
from .errors import (
    ConfigurationError,
    ContractViolationError,
    ResourceError,
    StageDivergenceError,
)

INF_KEY = np.iinfo(np.int64).max

_FIELD_BITS = 13
_MAX_KERNEL_POINTS = (1 << _FIELD_BITS) - 3  # ranks + offset interiors must fit


def point_order(g: MatchGraph, vertex_rank: np.ndarray) -> np.ndarray:
    """Global point ranks from a per-vertex total order.

    Returns rank[pid] for pid in [0, nL + nR): the position of the point
    under (vertex rank, slot, side), with left points before co-located
    right points.
    """
    vr = np.asarray(vertex_rank, dtype=np.int64)
    keys_vertex = np.concatenate((vr[g.left_vertex], vr[g.right_vertex]))
    keys_slot = np.concatenate((g.left_slot, g.right_slot))
    keys_side = np.concatenate(
        (np.zeros(g.n_left, dtype=np.int64), np.ones(g.n_right, dtype=np.int64))
    )
    order = np.lexsort((keys_side, keys_slot, keys_vertex))
    rank = np.empty(g.n_points, dtype=np.int64)
    rank[order] = np.arange(g.n_points, dtype=np.int64)
    return rank


class Matching:
    """A partial injective pairing of left and right points.

    matchL[i] is the right local id matched to left i, or -1; matchR is
    the reverse index.
    """

    def __init__(self, g: MatchGraph):
        self.g = g
        self.matchL = np.full(g.n_left, -1, dtype=np.int64)
        self.matchR = np.full(g.n_right, -1, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.matchL >= 0))

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, int(j)) for i, j in enumerate(self.matchL) if j >= 0
        ]

    def matched_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(left point, position in the graph's left CSR arrays) of each
        matched pair that is an edge, in left-point order."""
        g = self.g
        owner = np.repeat(np.arange(g.n_left), np.diff(g.indptr_left))
        e = np.flatnonzero(g.indices_left == self.matchL[owner])
        return owner[e], e

    def assert_valid(self) -> None:
        """Raise ContractViolationError on the first matched left point
        whose pair is asymmetric or not an edge, or when the two match
        indexes hold different numbers of pairs."""
        g = self.g
        i = np.flatnonzero(self.matchL >= 0)
        j = self.matchL[i]
        on_edge = np.zeros(g.n_left, dtype=bool)
        on_edge[self.matched_edges()[0]] = True
        asym = self.matchR[j] != i
        bad = np.flatnonzero(asym | ~on_edge[i])
        if len(bad):
            k = bad[0]
            kind = "asymmetric pair" if asym[k] else "matched non-edge"
            raise ContractViolationError(f"{kind} ({i[k]},{j[k]})")
        if np.count_nonzero(self.matchR >= 0) != len(i):
            raise ContractViolationError("match index counts disagree")


@dataclass(frozen=True)
class Chain:
    """A simple alternating path, stored in canonical orientation.

    points are global pids (right local j appears as nL + j); the stored
    orientation begins at the endpoint of smaller rank.
    """

    points: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.points) - 1

    @staticmethod
    def canonical(path: list[int], ranks: np.ndarray) -> "Chain":
        if ranks[path[0]] <= ranks[path[-1]]:
            return Chain(tuple(path))
        return Chain(tuple(reversed(path)))


def chain_key(c: Chain, ranks: np.ndarray) -> tuple[int, ...]:
    """Endpoint-first comparison key; tuples compare lexicographically,
    so equal-endpoint shorter chains sort first."""
    pts = c.points
    return (
        int(ranks[pts[0]]),
        int(ranks[pts[-1]]),
        *(int(ranks[p]) for p in pts[1:-1]),
    )


def find_chains(
    g: MatchGraph,
    m: Matching,
    max_len: int,
    ranks: np.ndarray,
    *,
    cap: int = 1_000_000,
    stage_label: str = "chain search",
) -> list[Chain]:
    """Every chain with fewer than max_len edges, each exactly once.

    Depth-bounded alternating DFS from each unmatched left point, cut
    where no chain can finish below max_len edges; a chain has a unique
    unmatched left endpoint, so no deduplication is needed.  Exceeding
    `cap` chains raises ResourceError.  The DFS keeps its own stack, one
    neighbor iterator per left point on the path, so chain length is not
    bounded by Python's recursion limit.
    """
    if max_len < 2:
        return []
    max_edges = max_len - 1 if max_len % 2 == 0 else max_len - 2
    max_points = max_edges + 1
    n_left = g.n_left
    chains: list[Chain] = []
    partners, ends = _chain_ends(g, m)
    if not ends.any():
        return chains
    # to_end[p] bounds every completion through left p from below, so the
    # DFS enters no branch that cannot finish within max_points.
    to_end = _steps_to_ends(g, partners, ends).tolist()

    for root in range(n_left):
        if m.matchL[root] != -1 or 2 * to_end[root] + 2 > max_points:
            continue
        path, onpath = [root], {root}
        stack = [iter(g.right_neighbors(root))]
        while stack:
            i = path[-1]
            for j in stack[-1]:
                jg = n_left + int(j)
                if jg in onpath or m.matchL[i] == j:
                    continue
                partner = int(m.matchR[j])
                if partner == -1:
                    chains.append(Chain.canonical(path + [jg], ranks))
                    if len(chains) > cap:
                        raise ResourceError(
                            f"{stage_label}: more than {cap} chains"
                        )
                elif (
                    len(path) + 3 + 2 * to_end[partner] <= max_points
                    and partner not in onpath
                ):
                    path += [jg, partner]
                    onpath.update((jg, partner))
                    stack.append(iter(g.right_neighbors(partner)))
                    break
            else:
                stack.pop()
                if stack:
                    onpath.difference_update((path.pop(), path.pop()))
    return chains


def select_minimal(chains: list[Chain], ranks: np.ndarray) -> list[Chain]:
    """Chains that are smallest among all found chains touching any of
    their points; the result is pairwise point-disjoint."""
    keyed = [(chain_key(c, ranks), c) for c in chains]
    if len({k for k, _ in keyed}) != len(keyed):
        raise ContractViolationError("duplicate chain keys")
    best: dict[int, tuple[int, ...]] = {}
    for k, c in keyed:
        for p in c.points:
            cur = best.get(p)
            if cur is None or k < cur:
                best[p] = k
    out = [
        (k, c)
        for k, c in keyed
        if all(best[p] == k for p in c.points)
    ]
    out.sort(key=lambda kc: kc[0])
    return [c for _, c in out]


def flip(m: Matching, c: Chain) -> None:
    """Apply a chain: matched edges leave, the others enter.

    Validates alternation against the current matching; a stale chain is
    a contract violation.
    """
    pts = c.points
    if len(pts) < 2 or len(pts) % 2 != 0:
        raise ContractViolationError("chain must have an odd edge count")
    n_left = m.g.n_left

    def as_pair(p: int, q: int) -> tuple[int, int]:
        if p < n_left:
            return p, q - n_left
        return q, p - n_left

    head, tail = pts[0], pts[-1]
    for endpoint in (head, tail):
        if endpoint < n_left:
            if m.matchL[endpoint] != -1:
                raise ContractViolationError("chain endpoint already matched")
        elif m.matchR[endpoint - n_left] != -1:
            raise ContractViolationError("chain endpoint already matched")
    if len(set(pts)) != len(pts):
        raise ContractViolationError("chain repeats a point")

    edges = [as_pair(pts[k], pts[k + 1]) for k in range(len(pts) - 1)]
    for k, (i, j) in enumerate(edges):
        is_matched = m.matchL[i] == j
        if k % 2 == 0 and is_matched:
            raise ContractViolationError("stale chain: matched edge out of place")
        if k % 2 == 1 and not is_matched:
            raise ContractViolationError("stale chain: expected a matched edge")
    for k, (i, j) in enumerate(edges):
        if k % 2 == 1:
            m.matchL[i] = -1
            m.matchR[j] = -1
    for k, (i, j) in enumerate(edges):
        if k % 2 == 0:
            m.matchL[i] = j
            m.matchR[j] = i


def _chain_ends(g: MatchGraph, m: Matching) -> tuple[np.ndarray, np.ndarray]:
    """(partner, ends): partner[e] is the left partner of the right end of
    left-CSR edge e (-1 when unmatched); ends marks the left points with
    an unmatched right neighbor, where a chain can end."""
    partner = m.matchR[g.indices_left]
    free = np.concatenate(([0], np.cumsum(partner == -1)))
    return partner, free[g.indptr_left[1:]] > free[g.indptr_left[:-1]]


def _steps_to_ends(
    g: MatchGraph, partner: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Fewest steps from each left point to a chain end (inf when none),
    where left i steps to the partner of each matched right neighbor: a
    layered alternating BFS (csgraph's unweighted Dijkstra) backwards
    from the ends."""
    matched = np.concatenate(([0], np.cumsum(partner >= 0)))
    steps = csr_matrix(
        (np.ones(matched[-1]), partner[partner >= 0], matched[g.indptr_left]),
        shape=(g.n_left, g.n_left),
    )
    return dijkstra(
        steps.T, indices=np.flatnonzero(ends), min_only=True, unweighted=True
    )


def shortest_chain_length(g: MatchGraph, m: Matching) -> int | None:
    """Edge count of the shortest chain, or None when no chain exists:
    2d + 1 for the fewest steps d from an unmatched left point to a chain
    end.  Shortest alternating walks are simple paths, so the shortest
    such walk is the shortest chain.
    """
    sources = m.matchL == -1
    partner, ends = _chain_ends(g, m)
    # The two cheap answers skip the BFS.
    if not (sources.any() and ends.any()):
        return None
    if ends[sources].any():
        return 1
    d = _steps_to_ends(g, partner, ends)[sources].min()
    return 2 * int(d) + 1 if np.isfinite(d) else None


# ---------------------------------------------------------------------------
# Vectorized sweep for stage 1
# ---------------------------------------------------------------------------


def _row_min(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-CSR-row minimum with INF_KEY for empty rows."""
    nrows = len(indptr) - 1
    out = np.full(nrows, INF_KEY, dtype=np.int64)
    nonempty = indptr[1:] > indptr[:-1]
    if values.size and nonempty.any():
        out[nonempty] = np.minimum.reduceat(values, indptr[:-1][nonempty])
    return out


def _pack(s, e, i1, i2):
    return (
        (s << (3 * _FIELD_BITS))
        | (e << (2 * _FIELD_BITS))
        | (i1 << _FIELD_BITS)
        | i2
    )


def _kernel_sweep_select(
    g: MatchGraph, m: Matching, ranks: np.ndarray
) -> list[Chain]:
    """Selected chains for one stage-1 sweep, computed in O(edges).

    In stage 1 the only chains are single edges between unmatched points
    and length-3 chains threading one matched pair.  For a fixed matched
    pair, the smallest chain through it uses the smallest-rank unmatched
    neighbors on both sides, so per-point minima over the full chain set
    reduce to row minima over the adjacency, and the selection rule can
    be evaluated without materializing chains.
    """
    n_left, n_right = g.n_left, g.n_right
    rank_l = ranks[:n_left]
    rank_r = ranks[n_left:]
    rank_to_pid = np.empty(g.n_points, dtype=np.int64)
    rank_to_pid[ranks] = np.arange(g.n_points, dtype=np.int64)

    idxL = g.indices_left
    idxR = g.indices_right
    un_l = m.matchL == -1
    un_r = m.matchR == -1

    # Smallest unmatched-neighbor rank per row, both directions.
    vals = np.where(un_r[idxL], rank_r[idxL], INF_KEY)
    min_ur = _row_min(vals, g.indptr_left)  # per left point
    vals = np.where(un_l[idxR], rank_l[idxR], INF_KEY)
    min_ul = _row_min(vals, g.indptr_right)  # per right point

    # Pair candidate key per matched left a (partner b = matchL[a]).
    a_ids = np.nonzero(~un_l)[0]
    key_pair = np.full(n_left, INF_KEY, dtype=np.int64)
    if len(a_ids):
        b_of_a = m.matchL[a_ids]
        xv = min_ul[b_of_a]
        yv = min_ur[a_ids]
        ok = (xv < INF_KEY) & (yv < INF_KEY)
        aa, bb = a_ids[ok], b_of_a[ok]
        xa, ya = xv[ok], yv[ok]
        ra, rb = rank_l[aa], rank_r[bb]
        s = np.minimum(xa, ya)
        e = np.maximum(xa, ya)
        i1 = np.where(xa < ya, rb, ra) + 1
        i2 = np.where(xa < ya, ra, rb) + 1
        key_pair[aa] = _pack(s, e, i1, i2)

    # Single-edge candidate key per unmatched point.
    key1_l = np.full(n_left, INF_KEY, dtype=np.int64)
    cand = un_l & (min_ur < INF_KEY)
    if cand.any():
        r_i = rank_l[cand]
        jv = min_ur[cand]
        key1_l[cand] = _pack(np.minimum(r_i, jv), np.maximum(r_i, jv), 0, 0)
    key1_r = np.full(n_right, INF_KEY, dtype=np.int64)
    cand_r = un_r & (min_ul < INF_KEY)
    if cand_r.any():
        r_j = rank_r[cand_r]
        iv = min_ul[cand_r]
        key1_r[cand_r] = _pack(np.minimum(iv, r_j), np.maximum(iv, r_j), 0, 0)

    # Length-3 keys per edge incident to an unmatched endpoint.
    owner_l = np.repeat(
        np.arange(n_left, dtype=np.int64), np.diff(g.indptr_left)
    )
    b_edge = idxL
    a_edge = m.matchR[b_edge]
    live = (a_edge >= 0) & un_l[owner_l]
    key3_l_vals = np.full(len(idxL), INF_KEY, dtype=np.int64)
    if live.any():
        yv = min_ur[a_edge[live]]
        r_x = rank_l[owner_l[live]]
        usable = yv < INF_KEY
        sub = np.nonzero(live)[0][usable]
        yvu = yv[usable]
        r_xu = r_x[usable]
        rb = rank_r[b_edge[sub]]
        ra = rank_l[a_edge[sub]]
        s = np.minimum(r_xu, yvu)
        e = np.maximum(r_xu, yvu)
        i1 = np.where(r_xu < yvu, rb, ra) + 1
        i2 = np.where(r_xu < yvu, ra, rb) + 1
        key3_l_vals[sub] = _pack(s, e, i1, i2)
    key3_l = _row_min(key3_l_vals, g.indptr_left)

    owner_r = np.repeat(
        np.arange(n_right, dtype=np.int64), np.diff(g.indptr_right)
    )
    a_edge_r = idxR
    b_edge_r = m.matchL[a_edge_r]
    live_r = (b_edge_r >= 0) & un_r[owner_r]
    key3_r_vals = np.full(len(idxR), INF_KEY, dtype=np.int64)
    if live_r.any():
        xv = min_ul[b_edge_r[live_r]]
        r_y = rank_r[owner_r[live_r]]
        usable = xv < INF_KEY
        sub = np.nonzero(live_r)[0][usable]
        xvu = xv[usable]
        r_yu = r_y[usable]
        rb = rank_r[b_edge_r[live_r]][usable]
        ra = rank_l[a_edge_r[live_r]][usable]
        s = np.minimum(xvu, r_yu)
        e = np.maximum(xvu, r_yu)
        i1 = np.where(xvu < r_yu, rb, ra) + 1
        i2 = np.where(xvu < r_yu, ra, rb) + 1
        key3_r_vals[sub] = _pack(s, e, i1, i2)
    key3_r = _row_min(key3_r_vals, g.indptr_right)

    # Per-point minima over every stage-1 chain containing the point.
    min_l = np.where(un_l, np.minimum(key1_l, key3_l), key_pair)
    key_pair_r = np.full(n_right, INF_KEY, dtype=np.int64)
    matched_r = np.nonzero(~un_r)[0]
    if len(matched_r):
        key_pair_r[matched_r] = key_pair[m.matchR[matched_r]]
    min_r = np.where(un_r, np.minimum(key1_r, key3_r), key_pair_r)

    selected: list[tuple[int, Chain]] = []

    pick1 = np.nonzero(un_l & (key1_l < INF_KEY) & (key1_l == min_l))[0]
    for i in pick1:
        i = int(i)
        jv = int(min_ur[i])
        j = int(rank_to_pid[jv]) - n_left
        k = int(key1_l[i])
        if key1_r[j] == k and min_r[j] == k:
            path = [i, n_left + j]
            selected.append((k, Chain.canonical(path, ranks)))

    pick3 = np.nonzero(key_pair < INF_KEY)[0]
    for a in pick3:
        a = int(a)
        k = int(key_pair[a])
        b = int(m.matchL[a])
        xv = int(min_ul[b])
        yv = int(min_ur[a])
        x = int(rank_to_pid[xv])
        y = int(rank_to_pid[yv]) - n_left
        if min_l[x] == k and min_r[y] == k and min_l[a] == k and min_r[b] == k:
            path = [x, n_left + b, a, n_left + y]
            selected.append((k, Chain.canonical(path, ranks)))

    selected.sort(key=lambda kc: kc[0])
    return [c for _, c in selected]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    """shortest_chain: the certificate the stage ended with."""

    stage: int
    sweeps: int
    flips: int
    unmatched_left: int
    unmatched_right: int
    p_left: float
    p_right: float
    wall_s: float
    shortest_chain: int | None = None


def _report(
    stage: int, sweeps: int, flips: int, m: Matching, wall: float, s: int | None
) -> StageReport:
    ul = int(np.count_nonzero(m.matchL == -1))
    ur = int(np.count_nonzero(m.matchR == -1))
    return StageReport(
        stage,
        sweeps,
        flips,
        ul,
        ur,
        ul / m.g.n_left if m.g.n_left else 0.0,
        ur / m.g.n_right if m.g.n_right else 0.0,
        wall,
        s,
    )


def run_stage(
    g: MatchGraph,
    m: Matching,
    n: int,
    ranks: np.ndarray,
    *,
    sweep_cap: int = 10_000,
    chain_cap: int = 1_000_000,
) -> StageReport:
    """Exhaust all chains shorter than 4n by minimal-chain sweeps.

    Mutates m in place.  Each sweep flips the selected chains, checks the
    matching and that no matched point became unmatched, and renews the
    certificate; the stage ends when it certifies that no chain shorter
    than 4n remains, and the report carries that certificate.
    """
    if n < 1:
        raise ContractViolationError("stage index must be >= 1")
    t0 = time.perf_counter()
    max_len = 4 * n
    use_kernel = n == 1 and g.n_points <= _MAX_KERNEL_POINTS
    sweeps = 0
    flips = 0
    s = shortest_chain_length(g, m)
    while s is not None and s < max_len:
        if use_kernel:
            selected = _kernel_sweep_select(g, m, ranks)
        else:
            chains = find_chains(
                g, m, max_len, ranks,
                cap=chain_cap, stage_label=f"stage {n}",
            )
            selected = select_minimal(chains, ranks)
        if not selected:
            raise StageDivergenceError(
                f"stage {n}: chains of length {s} exist but none selected"
            )
        before_l, before_r = m.matchL >= 0, m.matchR >= 0
        for c in selected:
            flip(m, c)
        m.assert_valid()
        if (before_l & (m.matchL < 0)).any() or (before_r & (m.matchR < 0)).any():
            raise ContractViolationError(f"stage {n}: a matched point became unmatched")
        flips += len(selected)
        sweeps += 1
        if sweeps > sweep_cap:
            raise StageDivergenceError(f"stage {n}: exceeded {sweep_cap} sweeps")
        s = shortest_chain_length(g, m)
    return _report(n, sweeps, flips, m, time.perf_counter() - t0, s)


def run(
    g: MatchGraph,
    ranks: np.ndarray,
    max_stage: int | None = None,
    *,
    sweep_cap: int = 10_000,
    chain_cap: int = 1_000_000,
) -> tuple[Matching, list[StageReport], list[np.ndarray]]:
    """Stages 1..max_stage; with the default max_stage the result is a
    maximum matching (no augmenting path of any length can survive).

    The certificate s is carried from each stage's report to the next
    stage; a stage with s >= 4n (or no chain at all) is vacuous, and its
    report is synthesized with zero sweeps and zero wall time.  The third
    return value holds a read-only copy of matchL after each stage, for
    diagnostic replay; a vacuous stage shares the copy before it.
    """
    if max_stage is None:
        max_stage = max(1, math.ceil(g.n_points / 4) + 1)
    if max_stage < 1:
        raise ConfigurationError("max_stage must be >= 1")
    m = Matching(g)
    reports: list[StageReport] = []
    snapshots: list[np.ndarray] = []
    s = shortest_chain_length(g, m)
    rep = _report(0, 0, 0, m, 0.0, s)
    snap = m.matchL.copy()
    for n in range(1, max_stage + 1):
        if s is not None and s < 4 * n:
            rep = run_stage(
                g, m, n, ranks, sweep_cap=sweep_cap, chain_cap=chain_cap
            )
            s = rep.shortest_chain
            snap = m.matchL.copy()
        else:
            rep = replace(rep, stage=n, sweeps=0, flips=0, wall_s=0.0)
        snap.flags.writeable = False
        reports.append(rep)
        snapshots.append(snap)
    return m, reports, snapshots


def stage_reports_csv(reports: list[StageReport]) -> list[str]:
    lines = ["stage,sweeps,flips,p_n_left,p_n_right"]
    for r in reports:
        lines.append(
            f"{r.stage},{r.sweeps},{r.flips},{r.p_left:.10g},{r.p_right:.10g}"
        )
    return lines


def dump_matching(m: Matching, g: MatchGraph) -> list[str]:
    """Lines "Lvertex Lindex Rvertex Rindex distance" per matched pair,
    the distance read off the pair's edge."""
    if g.distances_left is None:
        raise ContractViolationError("matching dump needs edge distances")
    i, e = m.matched_edges()
    j = g.indices_left[e]
    cols = zip(
        g.left_vertex[i].tolist(), g.left_slot[i].tolist(),
        g.right_vertex[j].tolist(), g.right_slot[j].tolist(),
        g.distances_left[e].tolist(),
    )
    return [f"{lv} {ls} {rv} {rs} {d}" for lv, ls, rv, rs, d in cols]


# ---------------------------------------------------------------------------
# Independent maximum-matching oracle
# ---------------------------------------------------------------------------


def hopcroft_karp(g: MatchGraph) -> tuple[int, np.ndarray]:
    """Maximum matching size and one maximum matching (left -> right).

    Textbook Hopcroft-Karp over the raw adjacency arrays; shares no
    state or helpers with the staged engine.
    """
    n_left, n_right = g.n_left, g.n_right
    pair_u = np.full(n_left, -1, dtype=np.int64)
    pair_v = np.full(n_right, -1, dtype=np.int64)
    INF = np.iinfo(np.int64).max
    dist = np.empty(n_left, dtype=np.int64)

    def bfs() -> bool:
        q: deque[int] = deque()
        for u in range(n_left):
            if pair_u[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in g.right_neighbors(u):
                w = int(pair_v[v])
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int) -> bool:
        """Augment along a layered path from root, on an explicit stack
        of (left vertex, neighbor iterator); via[k] leads to stack[k+1]."""
        stack = [(root, iter(g.right_neighbors(root)))]
        via: list[int] = []
        while stack:
            u, nbrs = stack[-1]
            for v in nbrs:
                w = int(pair_v[v])
                if w == -1:
                    for (x, _), y in zip(stack, via + [v]):
                        pair_u[x] = y
                        pair_v[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(g.right_neighbors(w))))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_u[u] == -1 and dfs(u):
                size += 1
    return size, pair_u

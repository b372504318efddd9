"""Staged chain-flipping matching engine.

A chain is a simple alternating path joining two unmatched points, held
as the tuple of its point ids read from the endpoint of smaller rank; its
edge count is odd, and flipping it (remove the matched edges, insert the
others) matches both endpoints and leaves every other point's state
untouched.  Stage n repeatedly finds all chains shorter than 4n, keeps
those that are minimal for every point they touch, and flips the kept
chains simultaneously, until none remain.

`run` is the one loop over stages and sweeps.  A sweep only selects and
flips; a stage sweeps until its selection comes back empty, then checks
the whole matching once and renews the certificate s, the length of the
shortest chain (None when there is none), from a layered alternating
BFS (Hopcroft & Karp 1973).  s is computed once for the empty matching
and once per stage that swept; a stage with s >= 4n searches nothing and
gets a zero-sweep report.  The chain search cuts every branch that the
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
from typing import NamedTuple

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

_FIELD_BITS = 21
_MAX_KERNEL_POINTS = (1 << _FIELD_BITS) - 3  # ranks + offset interiors must fit
#: Most stages `run` accepts as an explicit max_stage: each stage, vacuous
#: or not, keeps a report and a snapshot.
MAX_STAGE_CAP = 100_000
#: Default caps of `run`: sweeps per stage, and chains per search.
SWEEP_CAP = 10_000
CHAIN_CAP = 1_000_000


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

    def matched_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(left point, position in the graph's left CSR arrays) of each
        matched pair that is an edge, in left-point order."""
        g = self.g
        e = np.flatnonzero(g.indices_left == self.matchL[g.owner_left])
        return g.owner_left[e], e

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


def canonical(path: list[int], ranks: np.ndarray) -> tuple[int, ...]:
    """A chain as the tuple of its global pids (right local j is nL + j),
    read from the endpoint of smaller rank."""
    if ranks[path[0]] <= ranks[path[-1]]:
        return tuple(path)
    return tuple(reversed(path))


def chain_key(c: tuple[int, ...], ranks: np.ndarray) -> tuple[int, ...]:
    """Endpoint-first comparison key; tuples compare lexicographically,
    so equal-endpoint shorter chains sort first."""
    return (
        int(ranks[c[0]]),
        int(ranks[c[-1]]),
        *(int(ranks[p]) for p in c[1:-1]),
    )


def find_chains(
    g: MatchGraph,
    m: Matching,
    max_len: int,
    ranks: np.ndarray,
    *,
    cap: int = CHAIN_CAP,
    stage_label: str = "chain search",
) -> list[tuple[int, ...]]:
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
    chains: list[tuple[int, ...]] = []
    partners, ends = _chain_ends(g, m)
    if not ends.any():
        return chains
    # to_end[p] bounds every completion through left p from below, so the
    # DFS enters no branch that cannot finish within max_points.
    to_end = _steps_to_ends(g, partners, ends).tolist()
    match_l, match_r = m.matchL.tolist(), m.matchR.tolist()

    for root in np.flatnonzero(m.matchL == -1).tolist():
        if 2 * to_end[root] + 2 > max_points:
            continue
        path, onpath = [root], {root}
        stack = [iter(g.right_neighbors(root).tolist())]
        while stack:
            i = path[-1]
            for j in stack[-1]:
                jg = n_left + j
                if jg in onpath or match_l[i] == j:
                    continue
                partner = match_r[j]
                if partner == -1:
                    chains.append(canonical(path + [jg], ranks))
                    if len(chains) > cap:
                        raise ResourceError(
                            f"{stage_label}: more than {cap} chains"
                            " (matcher.chain_cap)"
                        )
                elif (
                    len(path) + 3 + 2 * to_end[partner] <= max_points
                    and partner not in onpath
                ):
                    path += [jg, partner]
                    onpath.update((jg, partner))
                    stack.append(iter(g.right_neighbors(partner).tolist()))
                    break
            else:
                stack.pop()
                if stack:
                    onpath.difference_update((path.pop(), path.pop()))
    return chains


def select_minimal(
    chains: list[tuple[int, ...]], ranks: np.ndarray
) -> list[tuple[int, ...]]:
    """Chains that are smallest among all found chains touching any of
    their points, in key order; the result is pairwise point-disjoint.
    Chains are compared by their position in key order, so each point
    costs one integer comparison."""
    keys = [chain_key(c, ranks) for c in chains]
    order = sorted(range(len(chains)), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
        raise ContractViolationError("duplicate chain keys")
    best: dict[int, int] = {}
    for pos, i in enumerate(order):
        for p in chains[i]:
            best.setdefault(p, pos)
    return [
        chains[i]
        for pos, i in enumerate(order)
        if all(best[p] == pos for p in chains[i])
    ]


def flip(m: Matching, c: tuple[int, ...]) -> None:
    """Apply a chain: matched edges leave, the others enter.

    Validates the chain against the current matching before writing
    anything; a stale or malformed chain is a contract violation.
    """
    if len(c) < 2 or len(c) % 2 != 0:
        raise ContractViolationError("chain must have an odd edge count")
    n_left = m.g.n_left
    if any((p < n_left) == (q < n_left) for p, q in zip(c, c[1:])):
        raise ContractViolationError("chain step stays on one side")

    def as_pair(p: int, q: int) -> tuple[int, int]:
        if p < n_left:
            return p, q - n_left
        return q, p - n_left

    for p in (c[0], c[-1]):
        if (m.matchL[p] if p < n_left else m.matchR[p - n_left]) != -1:
            raise ContractViolationError("chain endpoint already matched")
    if len(set(c)) != len(c):
        raise ContractViolationError("chain repeats a point")

    edges = [as_pair(c[k], c[k + 1]) for k in range(len(c) - 1)]
    for k, (i, j) in enumerate(edges):
        is_matched = m.matchL[i] == j
        if k % 2 == 0 and is_matched:
            raise ContractViolationError("stale chain: matched edge out of place")
        if k % 2 == 1 and not is_matched:
            raise ContractViolationError("stale chain: expected a matched edge")
    for i, j in edges[1::2]:
        m.matchL[i] = m.matchR[j] = -1
    for i, j in edges[0::2]:
        m.matchL[i], m.matchR[j] = j, i


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
# Stage-1 selection
# ---------------------------------------------------------------------------


def _row_min(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-row minimum of `values`, whose row ids `rows` never decrease;
    INF_KEY for rows with no value."""
    out = np.full(n_rows, INF_KEY, dtype=np.int64)
    if len(rows):
        start = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        out[rows[start]] = np.minimum.reduceat(values, start)
    return out


def _key(u, i, j, w):
    """Packed endpoint-first key of the path u-i-j-w from its point
    ranks (i = j = -1 for the single edge u-w): the endpoint ranks,
    smaller first, then the rank plus one of the interior point next to
    the smaller endpoint.  The other interior point is its partner, so
    it never decides between two chains.  INF_KEY where an endpoint rank
    is INF_KEY."""
    e = np.maximum(u, w)
    packed = (
        (np.minimum(u, w) << (2 * _FIELD_BITS))
        | (e << _FIELD_BITS)
        | (np.where(u < w, i, j) + 1)
    )
    return np.where(e < INF_KEY, packed, INF_KEY)


def _pack(u: int, i: int, j: int, w: int) -> int:
    """`_key` of one path, on Python ints."""
    if u > w:
        u, i, w = w, j, u
    if w == INF_KEY:
        return INF_KEY
    return (u << (2 * _FIELD_BITS)) | (w << _FIELD_BITS) | (i + 1)


def _flip_each(m: Matching, chains: list, stage: int) -> None:
    """Flip point-disjoint chains one at a time, then check that their
    points are matched: flip writes no other point."""
    for c in chains:
        flip(m, c)
    n_left, match_l, match_r = m.g.n_left, m.matchL, m.matchR
    if any(
        (match_l[p] if p < n_left else match_r[p - n_left]) < 0
        for c in chains for p in c
    ):
        raise ContractViolationError(
            f"stage {stage}: a matched point became unmatched"
        )


class _Stage1:
    """The stage-1 sweeps of one run, with the per-point state kept from
    one sweep to the next.

    In stage 1 the only chains are single edges between unmatched points
    and length-3 chains threading one matched pair.  For a fixed matched
    pair, the smallest chain through it uses the smallest-rank unmatched
    neighbors on both sides, so per-point minima over the full chain set
    reduce to row minima over the adjacency, and the selection rule can
    be evaluated without materializing chains.  Both sides share one
    CSR over the global point ids, built once; entries a mask rules out
    may hold keys of no chain.

    `sweep` selects the current matching's chains and flips them.  The
    first sweep selects by one array pass over the whole graph, then
    checks and writes the selection as index arrays.  Each later sweep
    assumes that only the sweep before it changed the matching, and
    recomputes the state only on the points those flips can reach; in
    stage 1 a matched point never becomes free, so every other point's
    inputs are unchanged.  It flips its few chains through `flip`.  When
    the flipped points carry many edges, the array pass runs again
    instead.
    """

    #: The array pass reruns when _FALLBACK * sum(deg**2) over the
    #: flipped points exceeds the CSR's entry count: the worklist touches
    #: about deg**2 points per flipped point, at Python speed.
    _FALLBACK = 8

    def __init__(self, g: MatchGraph, m: Matching, ranks: np.ndarray):
        n_left, n = g.n_left, g.n_points
        self.n_left, self.m, self.ranks = n_left, m, ranks
        ptr = np.concatenate(
            (g.indptr_left, g.indptr_right[1:] + len(g.indices_left))
        )
        self.nbr = np.concatenate((g.indices_left + n_left, g.indices_right))
        self.deg = np.diff(ptr)
        self.owner = np.concatenate(
            (g.owner_left, np.repeat(np.arange(n_left, n), self.deg[n_left:]))
        )
        self.rank_nbr = ranks[self.nbr]
        self.rank_to_pid = np.empty(n, dtype=np.int64)
        self.rank_to_pid[ranks] = np.arange(n, dtype=np.int64)
        # The points the last sweep flipped; None: the array pass is next.
        self._flipped: list[int] | None = None
        # Per-point state (partner, ext, key1, key_pair, key3, best): as
        # arrays right after an array pass, as lists once a worklist
        # update has taken them over.
        self._arrays: tuple[np.ndarray, ...] | None = None
        self._lists: list[list[int]] | None = None
        self._graph_lists = tuple(
            a.tolist() for a in (ptr, self.nbr, ranks, self.rank_to_pid)
        )
        self._deg = self.deg.tolist()

    def sweep(self) -> int:
        """Select the current matching's chains and flip them; returns
        how many were flipped."""
        if self._flipped is None:
            selection = self._array_pass()
            self._write(*selection)
            points = np.concatenate(selection)
            d = self.deg[points]
            n_chains = len(selection[0]) + len(selection[4])
            cost, flipped = int(d @ d), points.tolist()
        else:
            chains = self._worklist(self._flipped)
            _flip_each(self.m, chains, 1)
            deg = self._deg
            flipped = [p for c in chains for p in c]
            n_chains, cost = len(chains), sum(deg[p] ** 2 for p in flipped)
        self._flipped = (
            None if self._FALLBACK * cost > len(self.nbr) else flipped
        )
        return n_chains

    def _array_pass(self) -> tuple[np.ndarray, ...]:
        """Every point's state and the selection, one array expression
        per rule: the single edges p-y and the 3-chains x-b-a-z, left
        p, x and a, as index arrays (p, y, x, b, a, z)."""
        m, ranks = self.m, self.ranks
        n_left = self.n_left
        partner = np.concatenate(
            (np.where(m.matchL >= 0, m.matchL + n_left, -1), m.matchR)
        )
        free = partner < 0
        via = partner[self.nbr]
        # ext[p]: the smallest rank among p's unmatched neighbors.
        i = np.flatnonzero(via < 0)
        ext = _row_min(self.rank_nbr[i], self.owner[i], len(partner))
        key1 = _key(ranks, -1, -1, ext)
        # The chain ext[q]-q-p-ext[p] through each matched pair (p, q): the
        # same key from both members.
        key_pair = _key(ext[partner], ranks[partner], ranks, ext)
        # The chain p-q-partner[q]-ext[partner[q]] from each unmatched p
        # through each matched neighbor q, minimized per row.
        i = np.flatnonzero(free[self.owner] & (via >= 0))
        o, v = self.owner[i], via[i]
        key3 = _row_min(
            _key(ranks[o], self.rank_nbr[i], ranks[v], ext[v]), o, len(partner)
        )
        best = np.where(free, np.minimum(key1, key3), key_pair)
        self._arrays = (partner, ext, key1, key_pair, key3, best)

        rank_to_pid = self.rank_to_pid
        # A single edge is listed from its left end, a 3-chain from its left
        # interior point; either is kept when it is every point's best.
        p = np.flatnonzero((free & (key1 < INF_KEY) & (best == key1))[:n_left])
        k1 = key1[p]
        y = rank_to_pid[ext[p]]
        one = best[y] == k1
        a = np.flatnonzero((~free & (key_pair < INF_KEY))[:n_left])
        k3 = key_pair[a]
        b = partner[a]
        x, z = rank_to_pid[ext[b]], rank_to_pid[ext[a]]
        three = (best[x] == k3) & (best[z] == k3)
        return p[one], y[one], x[three], b[three], a[three], z[three]

    def _write(self, p, y, x, b, a, z) -> None:
        """Flip the chains p-y and x-b-a-z of one array pass at once,
        after the checks `flip` makes on each chain."""
        m, n_left = self.m, self.n_left
        left, right = np.concatenate((p, x, a)), np.concatenate((y, b, z))
        points = np.concatenate((left, right))
        if len(np.unique(points)) < len(points):
            raise ContractViolationError("chain repeats a point")
        if (left >= n_left).any() or (right < n_left).any():
            raise ContractViolationError("chain step stays on one side")
        right -= n_left
        if (m.matchL[np.concatenate((p, x))] != -1).any() or (
            m.matchR[np.concatenate((y, z)) - n_left] != -1
        ).any():
            raise ContractViolationError("chain endpoint already matched")
        if (m.matchL[a] != b - n_left).any():
            raise ContractViolationError(
                "stale chain: expected a matched edge"
            )
        m.matchL[left] = right
        m.matchR[right] = left
        if (m.matchL[left] < 0).any() or (m.matchR[right] < 0).any():
            raise ContractViolationError(
                "stage 1: a matched point became unmatched"
            )

    def _worklist(self, flipped: list[int]) -> list[tuple[int, ...]]:
        """The state and the selection refreshed after flipping the points
        `flipped`, over Python lists; the chains in no particular order.

        With E the flipped points that were free before the flip, N the
        neighbors and P the partners: partner changes on the flipped
        points; ext and key1 on N(E); key_pair on the flipped points,
        N(E) and P(N(E)); key3 of a free point on N(flipped + P(N(E))).
        D, the points whose state changed, is their union, and only a
        chain listed from a left point of D + N(D) + P(N(D)) can read
        any of it.
        """
        if self._arrays is not None:
            self._lists = [a.tolist() for a in self._arrays]
            self._arrays = None
        partner, ext, key1, key_pair, key3, best = self._lists
        ptr, nbr, rank, rank_to_pid = self._graph_lists
        n_left = self.n_left
        match_l, match_r = self.m.matchL, self.m.matchR

        newly = [p for p in flipped if partner[p] < 0]
        for p in flipped:
            if p < n_left:
                q = int(match_l[p])
                partner[p] = q + n_left if q >= 0 else -1
            else:
                partner[p] = int(match_r[p - n_left])
        near = set()
        for p in newly:
            near.update(nbr[ptr[p]:ptr[p + 1]])
        for p in near:
            ext[p] = min(
                (rank[q] for q in nbr[ptr[p]:ptr[p + 1]] if partner[q] < 0),
                default=INF_KEY,
            )
            key1[p] = _pack(rank[p], -1, -1, ext[p])
        near_partners = {partner[p] for p in near if partner[p] >= 0}
        changed = set(flipped) | near | near_partners
        for p in changed:
            q = partner[p]
            if q >= 0:
                key_pair[p] = _pack(ext[q], rank[q], rank[p], ext[p])
        rows = set()
        for q in set(flipped) | near_partners:
            rows.update(nbr[ptr[q]:ptr[q + 1]])
        for p in rows:
            if partner[p] < 0:
                key3[p] = min(
                    (_pack(rank[p], rank[q], rank[v], ext[v])
                     for q in nbr[ptr[p]:ptr[p + 1]]
                     if (v := partner[q]) >= 0),
                    default=INF_KEY,
                )
                changed.add(p)
        for p in changed:
            best[p] = (
                key_pair[p] if partner[p] >= 0 else min(key1[p], key3[p])
            )

        listed = set(changed)
        for p in changed:
            for q in nbr[ptr[p]:ptr[p + 1]]:
                listed.add(q)
                if partner[q] >= 0:
                    listed.add(partner[q])
        found = []
        for p in listed:
            if p >= n_left:
                continue
            b = partner[p]
            if b < 0:
                k = key1[p]
                if k < INF_KEY and best[p] == k:
                    y = rank_to_pid[ext[p]]
                    if best[y] == k:
                        found.append((p, y))
            else:
                k = key_pair[p]
                if k < INF_KEY:
                    x, z = rank_to_pid[ext[b]], rank_to_pid[ext[p]]
                    if best[x] == k and best[z] == k:
                        found.append((x, b, p, z))
        return found


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class StageReport(NamedTuple):
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


def run(
    g: MatchGraph,
    ranks: np.ndarray,
    max_stage: int | None = None,
    *,
    sweep_cap: int = SWEEP_CAP,
    chain_cap: int = CHAIN_CAP,
) -> tuple[Matching, list[StageReport], list[np.ndarray]]:
    """Stages 1..max_stage; with the default max_stage the result is a
    maximum matching (no augmenting path of any length can survive).

    Stage n exhausts the chains shorter than 4n by minimal-chain sweeps:
    each sweep flips the selected chains and checks that their points
    are matched, until a selection comes back empty.  The stage then
    checks the whole matching and renews the certificate s, which must
    be at least 4n and carries over to the next stage.  On at most
    _MAX_KERNEL_POINTS points, stage 1 sweeps through one `_Stage1`,
    kept across its sweeps.  A stage with s >= 4n (or no chain at all)
    sweeps nothing and keeps the counts before it, with zero wall time.
    The third return value holds a read-only copy of matchL after each
    stage, for diagnostic replay; a stage without a sweep shares the
    copy before it.  An explicit max_stage above MAX_STAGE_CAP raises
    ResourceError.
    """
    if max_stage is None:
        max_stage = max(1, math.ceil(g.n_points / 4) + 1)
    elif max_stage > MAX_STAGE_CAP:
        raise ResourceError(
            f"max_stage {max_stage} exceeds the cap of {MAX_STAGE_CAP} stages"
        )
    if max_stage < 1:
        raise ConfigurationError("max_stage must be >= 1")
    m = Matching(g)
    match_l, match_r = m.matchL, m.matchR
    reports: list[StageReport] = []
    snapshots: list[np.ndarray] = []
    s = shortest_chain_length(g, m)
    ul, ur = g.n_left, g.n_right
    snap = m.matchL.copy()
    snap.flags.writeable = False
    for n in range(1, max_stage + 1):
        sweeps = flips = 0
        wall = 0.0
        if s is not None and s < 4 * n:
            t0 = time.perf_counter()
            kernel = (
                _Stage1(g, m, ranks)
                if n == 1 and g.n_points <= _MAX_KERNEL_POINTS else None
            )
            while True:
                if kernel is not None:
                    n_flipped = kernel.sweep()
                else:
                    chains = find_chains(
                        g, m, 4 * n, ranks,
                        cap=chain_cap, stage_label=f"stage {n}",
                    )
                    selected = select_minimal(chains, ranks)
                    _flip_each(m, selected, n)
                    n_flipped = len(selected)
                if not n_flipped:
                    break
                flips += n_flipped
                sweeps += 1
                if sweeps > sweep_cap:
                    raise StageDivergenceError(
                        f"stage {n}: exceeded {sweep_cap} sweeps"
                        " (matcher.sweep_cap)"
                    )
            m.assert_valid()
            s = shortest_chain_length(g, m)
            if s is not None and s < 4 * n:
                raise StageDivergenceError(
                    f"stage {n}: chains of length {s} exist but none selected"
                )
            ul = int(np.count_nonzero(match_l == -1))
            ur = int(np.count_nonzero(match_r == -1))
            wall = time.perf_counter() - t0
            snap = match_l.copy()
            snap.flags.writeable = False
        reports.append(StageReport(
            n, sweeps, flips, ul, ur,
            ul / g.n_left if g.n_left else 0.0,
            ur / g.n_right if g.n_right else 0.0,
            wall, s,
        ))
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

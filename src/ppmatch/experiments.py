"""Statistical harness over the matching pipeline.

Bundles the end-to-end pipeline runner, and `run_trials`, the one loop
that runs it over trial seeds, with the verification suites:
matching-distance tails against ball sizes, per-realization tail/hole
dominance, the neighborhood-density inequalities, exact independence of
unmatched point sets, the count-discrepancy frequency, the greedy sparse
subpath construction, and unmatched-density decay across stages.

Two tiers throughout: statements that hold per realization (chain
absence, independence, greedy conditions, tail monotonicity) are exact
assertions; distributional statements are measured and reported with
trial counts and standard errors, never asserted.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import bipartite, matching as matching_mod, order as order_mod
from . import processes, radii
from .errors import CensoringError, ConfigurationError, ContractViolationError
from .graphs import (
    GapComponents, GraphWindow, ball_size_infinite, build_window,
    spectral_radius,
)
from .seeds import derive_seed, hash_u64, uniform_stream


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one sample -> radii -> graph -> order -> match run."""

    r0: int
    mode: str = radii.SUPPORT
    radius_cap: int | None = None
    size_cap: int = 6
    order_r_max: int | None = None
    max_stage: int | None = None
    sweep_cap: int = matching_mod.SWEEP_CAP
    chain_cap: int = matching_mod.CHAIN_CAP

    def resolved_order_r_max(self, core_margin: int) -> int:
        """order_r_max, by default the largest radius whose signature
        balls around core vertices stay inside the window."""
        if self.order_r_max is not None:
            return self.order_r_max
        return max(0, core_margin - self.r0)


@dataclass
class PipelineResult:
    window: GraphWindow
    left: processes.PointMultiset
    right: processes.PointMultiset
    field_left: radii.RadiusField
    field_right: radii.RadiusField
    graph: bipartite.MatchGraph
    order: order_mod.OrderFactor
    ranks: np.ndarray
    matching: matching_mod.Matching
    reports: list[matching_mod.StageReport]
    snapshots: list[np.ndarray]
    left_distance: np.ndarray

    @property
    def live_vertices(self) -> np.ndarray:
        return ~(self.field_left.censored | self.field_right.censored)

    @cached_property
    def censor_free_core(self) -> np.ndarray:
        """The core vertices of uncensored left radius: the base that
        tail and hole averages share."""
        w = self.window
        return w.ball_ok(w.core_margin) & ~self.field_left.censored


def sample_radius_fields(
    window: GraphWindow,
    spec_left: processes.ProcessSpec,
    spec_right: processes.ProcessSpec,
    seed: int,
    cfg: PipelineConfig,
) -> tuple[processes.PointMultiset, processes.PointMultiset,
           radii.RadiusField, radii.RadiusField]:
    """The first half of a pipeline run: both samples and both radius
    fields, (left, right, field_left, field_right)."""
    left = processes.sample(spec_left, window, derive_seed(seed, "left"))
    right = processes.sample(spec_right, window, derive_seed(seed, "right"))
    field_left = radii.compute_radius_field(
        left, right, window, cfg.r0, mode=cfg.mode,
        radius_cap=cfg.radius_cap, size_cap=cfg.size_cap,
    )
    field_right = radii.compute_radius_field(
        right, left, window, cfg.r0, mode=cfg.mode,
        radius_cap=cfg.radius_cap, size_cap=cfg.size_cap,
    )
    return left, right, field_left, field_right


def run_matching_pipeline(
    window: GraphWindow,
    spec_left: processes.ProcessSpec,
    spec_right: processes.ProcessSpec,
    seed: int,
    cfg: PipelineConfig,
) -> PipelineResult:
    left, right, field_left, field_right = sample_radius_fields(
        window, spec_left, spec_right, seed, cfg
    )
    g = bipartite.build_match_graph(left, right, field_left, field_right, window)
    of = order_mod.build_order(
        left, window, cfg.resolved_order_r_max(window.core_margin)
    )
    ranks = matching_mod.point_order(g, of.vertex_rank)
    m, reports, snapshots = matching_mod.run(
        g, ranks, cfg.max_stage,
        sweep_cap=cfg.sweep_cap, chain_cap=cfg.chain_cap,
    )
    left_distance = np.full(g.n_left, -1, dtype=np.int64)
    i, e = m.matched_edges()
    left_distance[i] = g.distances_left[e]
    return PipelineResult(
        window=window, left=left, right=right,
        field_left=field_left, field_right=field_right,
        graph=g, order=of, ranks=ranks, matching=m,
        reports=reports, snapshots=snapshots,
        left_distance=left_distance,
    )


# Worker processes rebuild the window (cheaper than pickling it) and
# keep it here with the trial arguments.
_WORKER: dict = {}


def _worker_init(family, depth, core_margin, args) -> None:
    _WORKER["window"] = build_window(family, depth, core_margin)
    _WORKER["args"] = args


def _run_trial(window, spec_left, spec_right, cfg, seed, parts, reduce, t):
    res = run_matching_pipeline(
        window, spec_left, spec_right, derive_seed(seed, *parts, t), cfg
    )
    return reduce(res)


def _worker_trial(t: int):
    return _run_trial(_WORKER["window"], *_WORKER["args"], t)


def run_trials(
    window: GraphWindow,
    spec_left: processes.ProcessSpec,
    spec_right: processes.ProcessSpec,
    cfg: PipelineConfig,
    trials: int,
    seed: int,
    *parts,
    reduce: Callable[[PipelineResult], object],
    workers: int = 1,
) -> list:
    """reduce(run) for trials t = 0 .. trials-1, in trial order, where
    trial t runs the pipeline on derive_seed(seed, *parts, t).

    The pool has min(workers, trials, CPU count) processes; at one, the
    trials run in this process.  Each trial is reduced in the process
    that ran it, so with a pool only the reductions travel back; reduce
    must then pickle (a module-level function or a functools.partial of
    one).  The results do not depend on the number of workers.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    args = (spec_left, spec_right, cfg, seed, parts, reduce)
    pool_size = min(workers, trials, os.cpu_count() or 1)
    if pool_size <= 1:
        return [_run_trial(window, *args, t) for t in range(trials)]
    import multiprocessing  # here, so that one-process runs never load it

    with multiprocessing.Pool(
        pool_size, initializer=_worker_init,
        initargs=(window.family, window.depth, window.core_margin, args),
    ) as pool:
        return pool.map(_worker_trial, range(trials))


# ---------------------------------------------------------------------------
# Matching-distance tail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailCurve:
    """Mean number of points per core vertex matched at distance >= r.

    The r = 0 entry is the mean per-vertex count of matched points at
    censor-free core vertices; the curve never increases in r.
    """

    radii: tuple[int, ...]
    ball_sizes: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    n_trials: int

    def __post_init__(self):
        est = self.estimates
        if any(est[k + 1] > est[k] + 1e-12 for k in range(len(est) - 1)):
            raise ContractViolationError("tail curve must be nonincreasing")


def tail_row(
    res: PipelineResult,
    radii_list: list[int],
    *,
    unmatched_as_infinite: bool = False,
) -> tuple[np.ndarray, int]:
    """Per-trial spatial tail averages and the base vertex count.

    The average of #{left points at v matched at distance >= r} over the
    censor-free core vertices v.  With unmatched_as_infinite, points that
    stayed unmatched count at every radius; the default counts matched
    points only.
    """
    dist, vert = res.left_distance, res.graph.left_vertex
    core_ok = res.censor_free_core
    n_base = int(core_ok.sum())
    if n_base == 0:
        return np.zeros(len(radii_list)), 0
    on_base = core_ok[vert]
    matched = dist >= 0
    out = np.empty(len(radii_list))
    for k, r in enumerate(radii_list):
        hits = on_base & matched & (dist >= r)
        if unmatched_as_infinite:
            hits |= on_base & ~matched
        out[k] = hits.sum() / n_base
    return out, n_base


def tail_trial(res: PipelineResult, radii_list: list[int]):
    """One tail trial reduced to tail_row's (vals, base) and the stage
    reports: what curve_from_rows and stage_means read."""
    return tail_row(res, radii_list), res.reports


def curve_from_rows(
    rows: list[tuple[np.ndarray, int]],
    window: GraphWindow,
    radii_list: list[int],
) -> TailCurve:
    """Assemble a TailCurve from the (vals, base) pairs of tail_row,
    leaving out the trials without a base vertex."""
    rows = _censor_free(
        [vals if base else None for vals, base in rows],
        "every core vertex was censored in every trial",
    )
    mat = np.vstack(rows)
    est = mat.mean(axis=0)
    if len(rows) > 1:
        se = mat.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        se = np.zeros(len(radii_list))
    if window.family.kind == "explicit":
        # Mean core ball sizes from each core vertex's pairs within the
        # largest radius, one vertex at a time (the whole core's pairs
        # grow as core size times ball size); the counts are divided once.
        limit = max(radii_list)
        core = window.core
        counts = sum(
            np.bincount(window.pairs_within([v], limit)[2], minlength=limit + 1)
            for v in core
        )
        within = np.cumsum(counts).tolist()
        b = [within[r] / len(core) for r in radii_list]
    else:
        b = [float(ball_size_infinite(window.family, r)) for r in radii_list]
    return TailCurve(
        radii=tuple(radii_list),
        ball_sizes=tuple(b),
        estimates=tuple(float(x) for x in est),
        stderrs=tuple(float(x) for x in se),
        slope=_log_slope(b, est),
        n_trials=len(rows),
    )


def _log_slope(x, y) -> float:
    """Least-squares slope of log y against x over the points with
    y > 0; nan with fewer than two such points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pos = y > 0
    if pos.sum() < 2:
        return float("nan")
    return float(np.polyfit(x[pos], np.log(y[pos]), 1)[0])


def tail_csv(curve: TailCurve) -> list[str]:
    lines = ["r,b_r,estimate,stderr"]
    for r, b, e, s in zip(
        curve.radii, curve.ball_sizes, curve.estimates, curve.stderrs
    ):
        lines.append(f"{r},{b:.10g},{e:.10g},{s:.10g}")
    return lines


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Per-trial two-sided comparison with exact violation accounting."""

    lemma_id: str
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    violations: int
    stderr: float
    extras: dict = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        return len(self.lhs)

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(a - b for a, b in zip(self.lhs, self.rhs))


def _make_report(lemma_id, lhs, rhs, extras=None) -> LemmaReport:
    lhs = [float(x) for x in lhs]
    rhs = [float(x) for x in rhs]
    margins = np.array([a - b for a, b in zip(lhs, rhs)])
    violations = int((margins < 0).sum())
    se = float(margins.std(ddof=1) / math.sqrt(len(margins))) if len(margins) > 1 else 0.0
    return LemmaReport(
        lemma_id=lemma_id,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        violations=violations,
        stderr=se,
        extras=extras or {},
    )


def _censor_free(runs: list, message: str) -> list:
    """The runs that are not None; CensoringError(message) when every
    run is None.  A fully censored trial makes its comparison vacuous,
    so it is skipped, and the caller counts what was skipped."""
    kept = [run for run in runs if run is not None]
    if not kept:
        raise CensoringError(message)
    return kept


def lemma_report_csv(rep: LemmaReport) -> list[str]:
    lines = ["trial,lhs,rhs,margin"]
    for t, (a, b) in enumerate(zip(rep.lhs, rep.rhs)):
        lines.append(f"{t},{a:.10g},{b:.10g},{a - b:.10g}")
    return lines


# ---------------------------------------------------------------------------
# Tail vs hole dominance (vertex-set versus second process)
# ---------------------------------------------------------------------------


def _dominance_trial(res: PipelineResult, radii_list: list[int]):
    """(tails, holes) at each radius of radii_list over the censor-free
    core vertices of the left field, or None when there are none.  The
    hole frequency at r is the share of those vertices whose radius-r
    ball holds no right point: one BFS cut at the largest radius gives
    every distance below the cut exactly."""
    tails, n_base = tail_row(res, radii_list, unmatched_as_infinite=True)
    if not n_base:
        return None
    base = res.censor_free_core
    near = res.window.dist_from(res.right.support, max(radii_list))[base]
    holes = [int(np.count_nonzero(near > r)) / n_base for r in radii_list]
    return tails, holes


def tail_hole_dominance(
    window: GraphWindow,
    spec_right: processes.ProcessSpec,
    cfg: PipelineConfig,
    radii_list: list[int],
    trials: int,
    seed: int,
) -> LemmaReport:
    """Per-trial check that the matching-distance tail of the one-point-
    per-vertex process dominates the hole frequency of the other side.

    A censor-free core vertex whose radius-r ball misses the right
    process entirely cannot be matched within r, so its (unique) point
    contributes to the tail at r; unmatched points count at every
    radius.  The inequality holds realization by realization; violations
    would indicate an engine bug.
    """
    runs = run_trials(
        window, processes.ProcessSpec.degenerate(), spec_right, cfg,
        trials, seed, "trial",
        reduce=partial(_dominance_trial, radii_list=radii_list),
    )
    # Both sides average over the same base, so the comparison is
    # vacuous on a fully censored trial.
    kept = _censor_free(runs, "degenerate side fully censored in every trial")
    return _make_report(
        "tail_hole_dominance",
        [x for tails, _ in kept for x in tails],
        [h for _, holes in kept for h in holes],
        extras={"skipped_trials": trials - len(kept)},
    )


# ---------------------------------------------------------------------------
# Neighborhood density inequalities
# ---------------------------------------------------------------------------


def verify_chebyshev(
    window: GraphWindow,
    trials: int,
    seed: int,
) -> LemmaReport:
    """Neighborhood density versus p/(rho^2 (1-p) + p) on non-amenable
    transitive families; densities measured over the core.

    A is the set of vertices occupied by a Poisson sample, one sample per
    trial.  N(A) is the strict graph neighborhood: vertices with at least
    one neighbor in A.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    fam = window.family
    if fam.amenable:
        raise ConfigurationError(
            "density boost needs a non-amenable family (spectral radius < 1)"
        )
    rho = spectral_radius(fam)
    rho2 = rho * rho
    core_ids = window.core
    if len(core_ids) == 0:
        raise ConfigurationError("window has no core")
    lhs = []
    rhs = []
    p_hats = []
    for t in range(trials):
        pm = processes.sample(
            processes.ProcessSpec.poisson(), window, derive_seed(seed, "cheb", t)
        )
        in_a = pm.counts >= 1
        in_na = window.ball_counts(in_a, 1) > in_a
        p_hat = float(in_a[core_ids].mean())
        p_prime = float(in_na[core_ids].mean())
        denom = rho2 * (1.0 - p_hat) + p_hat
        bound = p_hat / denom if denom > 0 else 0.0
        lhs.append(p_prime)
        rhs.append(bound)
        p_hats.append(p_hat)
    return _make_report(
        "chebyshev_density_boost", lhs, rhs,
        extras={"p_hat_mean": float(np.mean(p_hats))},
    )


def _hall_trial(res: PipelineResult) -> tuple[float, float] | None:
    """(p(N(A)), min(2 p(A), 4/5)) in one realization, or None when no
    vertex is censor-free."""
    base = int(res.live_vertices.sum())
    if base == 0:
        return None
    g = res.graph
    # A is every left point, so N(A) is every right point with an edge.
    p_a = g.n_left / base
    p_n = int(np.count_nonzero(np.diff(g.indptr_right))) / base
    return p_n, min(2.0 * p_a, 0.8)


def verify_boosted_hall(
    window: GraphWindow,
    spec_left: processes.ProcessSpec,
    spec_right: processes.ProcessSpec,
    cfg: PipelineConfig,
    trials: int,
    seed: int,
) -> LemmaReport:
    """p(N(A)) versus min(2 p(A), 4/5) over the match graph, A the set of
    all left points of the graph; densities are counts per censor-free
    vertex.

    Diagnostic only: the statement is about invariant densities on the
    infinite graph, and finite windows can legitimately miss it, so
    violations are counted and reported, never asserted.
    """
    runs = run_trials(
        window, spec_left, spec_right, cfg, trials, seed, "hall",
        reduce=_hall_trial,
    )
    # Densities per censor-free vertex are undefined on a fully censored
    # trial.
    kept = _censor_free(runs, "no censor-free vertices in any trial")
    lhs, rhs = zip(*kept)
    return _make_report(
        "boosted_hall", lhs, rhs, extras={"skipped_trials": trials - len(kept)}
    )


# ---------------------------------------------------------------------------
# Independence of unmatched sets
# ---------------------------------------------------------------------------


def alternating_even_reachable(
    g: bipartite.MatchGraph, matchL: np.ndarray, max_even: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points reachable from an unmatched point of their own side by an
    alternating path of even length <= max_even (origins included).

    Even alternating paths start with a non-matching edge and end with a
    matching edge, so they stay on the origin's side every two steps.
    """
    matchR = np.full(g.n_right, -1, dtype=np.int64)
    matched = np.flatnonzero(matchL >= 0)
    matchR[matchL[matched]] = matched

    def reach(match_own, match_other, neighbors) -> np.ndarray:
        """Even-reachable points of the side that match_own indexes."""
        dist = np.full(len(match_own), -1, dtype=np.int64)
        q = deque()
        for p in np.nonzero(match_own == -1)[0]:
            dist[int(p)] = 0
            q.append(int(p))
        while q:
            p = q.popleft()
            if 2 * (dist[p] + 1) > max_even:
                continue
            for other in neighbors(p):
                if match_own[p] == other:
                    continue
                nxt = int(match_other[other])
                if nxt != -1 and dist[nxt] == -1:
                    dist[nxt] = dist[p] + 1
                    q.append(nxt)
        return dist >= 0

    return (
        reach(matchL, matchR, g.right_neighbors),
        reach(matchR, matchL, g.left_neighbors),
    )


def verify_indep_set(res: PipelineResult) -> LemmaReport:
    """After stage n, the set of points reachable from unmatched points
    by even alternating paths of length <= 2(n-1) must be independent in
    the match graph: an edge inside it splices into a chain shorter than
    4n, which stage n exhausted.  The check is exact; a failure is an
    engine bug.  Min side-density against 1/3 is reported, not asserted.
    """
    g = res.graph
    base = int(res.live_vertices.sum())
    lhs = []
    rhs = []
    for idx, snap in enumerate(res.snapshots):
        n = idx + 1
        in_l, in_r = alternating_even_reachable(g, snap, 2 * (n - 1))
        bad = np.flatnonzero(in_l[g.owner_left] & in_r[g.indices_left])
        if len(bad):
            e = bad[0]
            raise ContractViolationError(
                f"stage {n}: unflipped short chain between left "
                f"{int(g.owner_left[e])} and right {int(g.indices_left[e])}"
            )
        p_l = in_l.sum() / base if base else 0.0
        p_r = in_r.sum() / base if base else 0.0
        lhs.append(1.0 / 3.0)
        rhs.append(min(p_l, p_r))
    return _make_report("independent_unmatched", lhs, rhs)


# ---------------------------------------------------------------------------
# Count discrepancy on connected sets
# ---------------------------------------------------------------------------


def _grow_rconnected(
    window: GraphWindow, start: int, target: int, r: int, seed: int
) -> list[int]:
    """An r-connected set of up to `target` vertices grown from start:
    each step adds a vertex within r of the set, picked from the sorted
    candidates by the seed's "grow" stream."""
    members = {start}
    us = uniform_stream(seed, max(0, target - 1), "grow")
    for step in range(target - 1):
        near = window.dist_from(sorted(members), r) <= r
        frontier = sorted({int(x) for x in np.nonzero(near)[0]} - members)
        if not frontier:
            break
        members.add(frontier[int(us[step] * len(frontier)) % len(frontier)])
    return sorted(members)


def verify_discrepancy(
    window: GraphWindow,
    spec_left: processes.ProcessSpec,
    spec_right: processes.ProcessSpec,
    r: int,
    trials: int,
    seed: int,
    max_size: int = 4,
) -> LemmaReport:
    """Frequency of |right on U^{+r}| < r * |left on U| over random
    connected core sets U, with a log-frequency slope against |U^{+r}|.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    core_ids = window.core
    if len(core_ids) == 0:
        raise ConfigurationError("window has no core")
    lhs, rhs, sizes = [], [], []
    for t in range(trials):
        ts = derive_seed(seed, "disc", t)
        pm_l = processes.sample(spec_left, window, derive_seed(ts, "l"))
        pm_r = processes.sample(spec_right, window, derive_seed(ts, "r"))
        start = int(core_ids[hash_u64(ts, "start") % len(core_ids)])
        target = 1 + int(hash_u64(ts, "size") % max_size)
        u_set = _grow_rconnected(window, start, target, 1, ts)
        grown = window.dist_from(u_set, r) <= r
        own = int(pm_l.counts[u_set].sum())
        other = int(pm_r.counts[grown].sum())
        lhs.append(other)
        rhs.append(r * own)
        sizes.append(int(grown.sum()))
    sizes_arr = np.asarray(sizes)
    viol = np.asarray(lhs) < np.asarray(rhs)
    freq_by_size = {
        int(s): float(viol[sizes_arr == s].mean()) for s in np.unique(sizes_arr)
    }
    return _make_report(
        "count_discrepancy", lhs, rhs,
        extras={
            "log_freq_slope": _log_slope(
                list(freq_by_size), list(freq_by_size.values())
            ),
            "sizes": freq_by_size,
        },
    )


# ---------------------------------------------------------------------------
# Greedy sparse subpath
# ---------------------------------------------------------------------------


def is_rconnected(window: GraphWindow, vertices, r: int) -> bool:
    """Connectivity of the proximity graph joining members at distance
    <= r."""
    verts = sorted(int(v) for v in set(vertices))
    if not verts:
        return False
    return not GapComponents(window, verts).labels(r).any()


@dataclass(frozen=True)
class GreedySubpath:
    path_indices: tuple[int, ...]
    selected: tuple[int, ...]
    pairwise_ok: bool
    gap_ok: bool
    endpoint_ok: bool
    bound_ok: bool
    distance_uv: int
    bound_value: int


def greedy_sparse_subpath(
    window: GraphWindow,
    sets: list,
    u: int,
    v: int,
    r: int,
) -> GreedySubpath:
    """Shortest path in the proximity graph over the sets, then a
    greedy largest-first subfamily at pairwise distance > r.

    Checks, exactly: selected sets pairwise more than r apart;
    consecutive selected sets within |U_j| + |U_k| + 3r; endpoints
    within |U| + r of the first and last selected set; and
    dist(u, v) <= 3 r n + 3 sum |U_j|.
    """
    sets = [sorted(int(x) for x in s) for s in sets]
    if not sets or any(not s for s in sets):
        raise ContractViolationError("sets must be nonempty")
    for s in sets:
        if not is_rconnected(window, s, r):
            raise ContractViolationError("every set must be r-connected")
    union = sorted({x for s in sets for x in s})
    if not is_rconnected(window, union, r):
        raise ContractViolationError("union of the family must be r-connected")
    if u not in union or v not in union:
        raise ContractViolationError("endpoints must lie in the union")

    n_sets = len(sets)
    # dmat[a, b]: the least distance between sets a and b, from one
    # multi-source row per set.
    rows = [window.dist_from(s) for s in sets]
    dmat = np.array([[row[s].min() for s in sets] for row in rows], np.int64)

    starts = [i for i, s in enumerate(sets) if u in s]
    goals = {i for i, s in enumerate(sets) if v in s}
    prev = {i: None for i in starts}
    q = deque(starts)
    goal = None
    while q:
        i = q.popleft()
        if i in goals:
            goal = i
            break
        for j in range(n_sets):
            if j not in prev and dmat[i, j] <= r:
                prev[j] = i
                q.append(j)
    if goal is None:
        raise ContractViolationError("no proximity path between endpoint sets")
    path = []
    cur = goal
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()

    # Largest first, earlier on the path on a tie (the sort is stable):
    # the candidates only shrink as sets are kept, so one pass picks what
    # rescanning for the best candidate would.
    selected: list[int] = []
    for i in sorted(path, key=lambda i: -len(sets[i])):
        if all(dmat[i, j] > r for j in selected):
            selected.append(i)
    selected.sort(key=path.index)
    if not selected:
        raise ContractViolationError("greedy selection came up empty")

    pairwise_ok = all(
        dmat[a, b] > r
        for x, a in enumerate(selected)
        for b in selected[x + 1:]
    )
    gap_ok = all(
        dmat[a, b] <= len(sets[a]) + len(sets[b]) + 3 * r
        for a, b in zip(selected, selected[1:])
    )
    first, last = selected[0], selected[-1]
    endpoint_ok = bool(
        rows[first][u] <= len(sets[first]) + r
        and rows[last][v] <= len(sets[last]) + r
    )
    duv = int(window.distance(u, v))
    bound = 3 * r * len(selected) + 3 * sum(len(sets[i]) for i in selected)
    return GreedySubpath(
        path_indices=tuple(path),
        selected=tuple(selected),
        pairwise_ok=pairwise_ok,
        gap_ok=gap_ok,
        endpoint_ok=endpoint_ok,
        bound_ok=duv <= bound,
        distance_uv=duv,
        bound_value=bound,
    )


def verify_greedy(window: GraphWindow, trials: int, seed: int) -> LemmaReport:
    """Greedy sparse subpath conditions on random families of four
    1-connected sets of up to four vertices; a violation is a trial in
    which any of the exact conditions fails."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    runs = []
    for t in range(trials):
        sets, u, v = sample_rconnected_family(
            window, 1, 4, 4, derive_seed(seed, "greedy", t)
        )
        runs.append(greedy_sparse_subpath(window, sets, u, v, 1))
    fails = sum(
        not (g.pairwise_ok and g.gap_ok and g.endpoint_ok and g.bound_ok)
        for g in runs
    )
    return LemmaReport(
        lemma_id="greedy_subpath",
        lhs=tuple(float(g.bound_value) for g in runs),
        rhs=tuple(float(g.distance_uv) for g in runs),
        violations=fails,
        stderr=0.0,
    )


def sample_rconnected_family(
    window: GraphWindow,
    r: int,
    n_sets: int,
    max_size: int,
    seed: int,
) -> tuple[list[list[int]], int, int]:
    """Random family of r-connected sets whose union is r-connected,
    plus two far-apart endpoints inside the union."""
    n = window.n
    sets: list[list[int]] = []
    union: set[int] = set()
    for k in range(n_sets):
        ks = derive_seed(seed, "set", k)
        if not union:
            start = int(hash_u64(ks, "start") % n)
        else:
            pool = sorted(union)
            anchor = pool[hash_u64(ks, "anchor") % len(pool)]
            near = np.nonzero(window.dist_row(anchor, r) <= r)[0]
            start = int(near[hash_u64(ks, "start") % len(near)])
        target = 1 + int(hash_u64(ks, "size") % max_size)
        members = _grow_rconnected(window, start, target, r, ks)
        sets.append(members)
        union.update(members)
    # The farthest pair, the first in row-major order on a tie.
    pool = sorted(union)
    dist = np.array([window.dist_row(v)[pool] for v in pool])
    a, b = np.unravel_index(np.argmax(dist), dist.shape)
    return sets, int(pool[a]), int(pool[b])


# ---------------------------------------------------------------------------
# Unmatched density decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PnDecay:
    stages: tuple[int, ...]
    p_left: tuple[float, ...]
    p_right: tuple[float, ...]
    fitted_ratio: float


def stage_means(
    trial_reports: list[list[matching_mod.StageReport]],
) -> list[tuple[float, float, int]]:
    """Per stage: the mean p_left and mean p_right over the trials that
    reached it, and the number of those trials.  Trials can stop at
    different stages."""
    out = []
    for k in range(max(len(reports) for reports in trial_reports)):
        reached = [reports[k] for reports in trial_reports if len(reports) > k]
        out.append((
            float(np.mean([s.p_left for s in reached])),
            float(np.mean([s.p_right for s in reached])),
            len(reached),
        ))
    return out


def pn_decay(reports: list[matching_mod.StageReport]) -> PnDecay:
    """Decay table of unmatched densities across stages.

    Monotone nonincreasing is exact (matched points never unmatch) and
    asserted; the comparison against 2^-n is reported only.
    """
    if len(reports) < 3:
        raise ConfigurationError(
            f"a p_n decay table needs at least 3 stages, got {len(reports)}; "
            "raise max_stage to 3 or more"
        )
    p_l = [r.p_left for r in reports]
    p_r = [r.p_right for r in reports]
    for seq in (p_l, p_r):
        for a, b in zip(seq, seq[1:]):
            if b > a + 1e-12:
                raise ContractViolationError("unmatched density increased")
    slope = _log_slope(range(1, len(p_l) + 1), p_l)
    return PnDecay(
        stages=tuple(r.stage for r in reports),
        p_left=tuple(p_l),
        p_right=tuple(p_r),
        fitted_ratio=0.0 if math.isnan(slope) else math.exp(slope),
    )

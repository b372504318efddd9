"""Seeded point processes on graph windows.

Two process kinds are supported: unit-intensity Poisson counts per
vertex, and perturbed vertex sets where every window vertex emits one
point that is displaced by an i.i.d. distance law and lands uniformly
on the corresponding sphere.

All randomness derives from per-vertex hash streams keyed by the
canonical vertex label, so counts at a shared vertex do not depend on
the window size, and resampling with the same seed is bit-for-bit
reproducible.  Each stream is drawn for all its vertices in one batched
call (`seeds.hash_u64_many` over `GraphWindow.label_keys`): Poisson
counts take one "count" draw, a perturbed set one "disp" draw for every
vertex and one "land" draw for the displaced ones, and a law with only
distance 0 draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import pdtr

from .errors import CensoringError, ConfigurationError
from .graphs import (
    EXPLICIT,
    GraphWindow,
    sphere_point,
    sphere_size_infinite,
)
from .seeds import (
    derive_seed, hash_u64_many, uniform_stream, unit_uniform_many,
)

POISSON = "poisson"
PERTURBED = "perturbed"

_POISSON_KMAX = 35
_POISSON_CDF: np.ndarray | None = None


def _poisson_cdf() -> np.ndarray:
    """CDF table of Poisson(1); the tail mass beyond the table is below
    the resolution of a 64-bit uniform, so inversion never overflows it."""
    global _POISSON_CDF
    if _POISSON_CDF is None:
        table = pdtr(np.arange(_POISSON_KMAX + 1), 1.0)
        table.setflags(write=False)
        _POISSON_CDF = table
    return _POISSON_CDF


@dataclass(frozen=True)
class ProcessSpec:
    """Either unit-intensity Poisson counts or a perturbed vertex set.

    ``distance_law`` is a probability mass function over displacement
    distances with finite support; it is only meaningful for the
    perturbed kind.
    """

    kind: str
    distance_law: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def poisson() -> "ProcessSpec":
        return ProcessSpec(POISSON)

    @staticmethod
    def perturbed(law: Mapping[int, float]) -> "ProcessSpec":
        if not law:
            raise ConfigurationError("perturbed process needs a distance law")
        items = []
        total = 0.0
        for dist in sorted(law):
            w = float(law[dist])
            if dist < 0 or int(dist) != dist:
                raise ConfigurationError(f"distance {dist!r} is not a natural number")
            if w < 0 or not math.isfinite(w):
                raise ConfigurationError(f"weight {w!r} at distance {dist} invalid")
            if w > 0.0:
                items.append((int(dist), w))
                total += w
        if not items:
            raise ConfigurationError("distance law has no positive mass")
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"distance law sums to {total}, expected 1")
        return ProcessSpec(PERTURBED, tuple(items))

    @staticmethod
    def degenerate() -> "ProcessSpec":
        """The identity perturbation: every point stays at its vertex."""
        return ProcessSpec.perturbed({0: 1.0})

    @property
    def max_displacement(self) -> int:
        if self.kind != PERTURBED:
            return 0
        return self.distance_law[-1][0]

    @property
    def is_degenerate(self) -> bool:
        """Whether every point stays at its vertex: the law's only
        distance is 0, whatever its float weight."""
        return self.kind == PERTURBED and self.max_displacement == 0


@dataclass(frozen=True)
class PointMultiset:
    """An immutable multiset of points on a window.

    counts[v] is the number of points at vertex v.  Points are listed
    grouped by vertex in ascending vertex order; ``point_slot`` carries
    the 1-based index of a point within its vertex, so a point is the
    pair (point_vertex[p], point_slot[p]).  For perturbed sets
    ``origin_vertex`` records where each point was emitted; it is None
    for Poisson samples.
    """

    counts: np.ndarray
    point_vertex: np.ndarray
    point_slot: np.ndarray
    origin_vertex: np.ndarray | None = None
    discarded: int = 0

    @property
    def total(self) -> int:
        return int(len(self.point_vertex))

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.counts)[0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _from_counts(
    counts: np.ndarray,
    origin_vertex: np.ndarray | None = None,
    discarded: int = 0,
) -> PointMultiset:
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    point_vertex = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    slot = np.arange(len(point_vertex), dtype=np.int64) - offsets[point_vertex] + 1
    return PointMultiset(
        counts=_freeze(counts.astype(np.int64)),
        point_vertex=_freeze(point_vertex),
        point_slot=_freeze(slot),
        origin_vertex=None if origin_vertex is None else _freeze(origin_vertex),
        discarded=discarded,
    )


def multiset_from_counts(
    counts: np.ndarray | list[int],
    origin_vertex: np.ndarray | None = None,
    discarded: int = 0,
) -> PointMultiset:
    """Build a multiset directly from per-vertex counts."""
    arr = np.asarray(counts, dtype=np.int64).copy()
    if arr.ndim != 1 or (arr < 0).any():
        raise ValueError("counts must be a 1-d nonnegative array")
    return _from_counts(arr, origin_vertex=origin_vertex, discarded=discarded)


def _landing(spec: ProcessSpec, window: GraphWindow):
    """land(seed, origins): for each window vertex in the int64 array
    `origins`, the window vertex where the point it emits lands under
    the rule described in `sample`, or -1 when the point is discarded.
    `sample` and `hole_probability` share it.

    A law with only distance 0 keeps every point at its origin and
    draws nothing.  Otherwise one batched "disp" draw picks each
    origin's distance, and only displaced origins draw "land" and walk
    to their sphere point.
    """
    if spec.is_degenerate:
        return lambda seed, origins: origins
    distances = np.array([d for d, _ in spec.distance_law], dtype=np.int64)
    cum = np.cumsum([w for _, w in spec.distance_law])
    cum[-1] = 1.0
    explicit = window.family.kind == EXPLICIT
    spheres: dict[tuple[int, int], np.ndarray] = {}

    def land(seed: int, origins: np.ndarray) -> np.ndarray:
        keys, at = window.label_keys, origins.tolist()
        origin_keys = [keys[i] for i in at]
        u = unit_uniform_many(seed, "disp", origin_keys)
        dist = distances[np.searchsorted(cum, u, side="right")]
        moved = np.nonzero(dist)[0].tolist()
        hashes = hash_u64_many(seed, "land", [origin_keys[k] for k in moved])
        target = origins.copy()
        for k, d, h in zip(moved, dist[moved].tolist(), hashes.tolist()):
            i = at[k]
            if explicit:
                members = spheres.get((i, d))
                if members is None:
                    members = spheres[(i, d)] = window.sphere(i, d)[0]
                target[k] = members[h % len(members)] if len(members) else -1
                continue
            j = h % sphere_size_infinite(window.family, d)
            lab = sphere_point(window.family, window.labels[i], d, j)
            target[k] = window.label_to_index.get(lab, -1)
        return target

    return land


def sample(spec: ProcessSpec, window: GraphWindow, seed: int) -> PointMultiset:
    """Sample a process on a window, deterministically in (spec, seed).

    Poisson counts come from one uniform per vertex inverted through the
    Poisson(1) CDF.  Perturbed sets emit one point per window vertex,
    draw a displacement distance from the law, and land uniformly on the
    infinite-graph sphere at that distance (the exact in-graph sphere
    for explicit families); landings outside the window are discarded
    and counted, which keeps core counts unbiased as long as the core
    margin is at least the maximum displacement.  Every per-vertex draw
    is one batched call over the window's label keys.
    """
    if spec.kind == POISSON:
        u = unit_uniform_many(seed, "count", window.label_keys)
        counts = np.searchsorted(_poisson_cdf(), u, side="right")
        return _from_counts(counts)

    if spec.kind != PERTURBED:
        raise ConfigurationError(f"unknown process kind {spec.kind!r}")
    if spec.max_displacement > window.core_margin:
        raise ConfigurationError(
            f"max displacement {spec.max_displacement} exceeds core margin "
            f"{window.core_margin}: core counts would be biased"
        )

    target = _landing(spec, window)(seed, np.arange(window.n, dtype=np.int64))
    origins = np.nonzero(target >= 0)[0]
    landed = target[origins]
    order = np.argsort(landed, kind="stable")
    counts = np.bincount(landed, minlength=window.n)
    discarded = window.n - len(origins)
    return _from_counts(counts, origin_vertex=origins[order], discarded=discarded)


def count_in(pm: PointMultiset, vertex_set) -> int:
    """Number of points of pm on the given window vertices."""
    idx = np.asarray(vertex_set, dtype=np.int64)
    if idx.size == 0:
        return 0
    return int(pm.counts[idx].sum())


def poisson_count_samples(seed: int, trials: int, *parts) -> np.ndarray:
    """A block of independent Poisson(1) counts from one derived stream."""
    u = uniform_stream(seed, trials, *parts)
    return np.searchsorted(_poisson_cdf(), u, side="right").astype(np.int64)


@dataclass(frozen=True)
class HoleEstimate:
    """Empirical probability that B_r(probe) contains no points."""

    value: float
    stderr: float
    trials: int
    analytic: float | None


def hole_probability(
    spec: ProcessSpec,
    window: GraphWindow,
    r: int,
    trials: int,
    seed: int,
) -> HoleEstimate:
    """Monte Carlo hole probability at the window root.

    For Poisson input the analytic value exp(-b_r) is attached and the
    trials use one blocked uniform stream per ball vertex.  For
    perturbed input each trial replays the displacement of every origin
    close enough to reach the probe ball.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if r > window.core_margin and window.family.kind != EXPLICIT:
        raise CensoringError(
            f"hole radius {r} exceeds core margin {window.core_margin}"
        )
    if not window.ball_complete(0, r):
        raise CensoringError(f"probe ball of radius {r} is incomplete")
    ball_idx, _ = window.ball(0, r)

    if spec.kind == POISSON:
        total = np.zeros(trials, dtype=np.int64)
        for i in ball_idx:
            lab = window.labels[int(i)]
            total += poisson_count_samples(seed, trials, "hole", lab)
        hits = int(np.count_nonzero(total == 0))
        p = hits / trials
        se = math.sqrt(p * (1.0 - p) / trials)
        return HoleEstimate(p, se, trials, math.exp(-len(ball_idx)))

    dmax = spec.max_displacement
    if not window.ball_complete(0, r + dmax):
        raise CensoringError(
            f"origins within {r + dmax} of the probe do not all fit in the window"
        )
    relevant, _ = window.ball(0, r + dmax)
    root_dist = window.dist_row(0, r)
    land = _landing(spec, window)
    hits = 0
    for t in range(trials):
        target = land(derive_seed(seed, "hole", t), relevant)
        if not (root_dist[target[target >= 0]] <= r).any():
            hits += 1
    p = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    analytic = 0.0 if spec.is_degenerate else None
    return HoleEstimate(p, se, trials, analytic)


# ---------------------------------------------------------------------------
# Dump
# ---------------------------------------------------------------------------

ORIGIN_HEADER = "[origins]"


def dump_multiset(pm: PointMultiset) -> list[str]:
    """Lines "vertex_id count", then origin/landing pairs for perturbed sets."""
    lines = [f"{v} {int(c)}" for v, c in enumerate(pm.counts)]
    if pm.origin_vertex is not None:
        lines.append(ORIGIN_HEADER)
        for p in range(pm.total):
            lines.append(f"{int(pm.origin_vertex[p])} {int(pm.point_vertex[p])}")
    return lines

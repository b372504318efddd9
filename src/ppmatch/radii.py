"""Reach radii: the deficiency set, the per-vertex radius fields, and
connected-component analysis of high-radius sets.

The radius of a vertex is defined by a two-clause rule.  A vertex whose
neighborhood is free of deficient vertices and carries few own points
gets the base radius.  Every other vertex searches for the smallest
radius r at which the opposite process dominates the own process over
an enumerated family of 4r-connected vertex sets containing it.

Enumeration runs in one of two modes.  Exact mode walks every
4r-connected subset of the window containing the vertex (the per-vertex
test oracle, exponential).  Support mode checks only the connected
component of the vertex in the 4r-proximity graph on the occupied
vertices, a documented under-approximation that can only lower the
resulting radius; its fields take one vectorised pass per radius.

Any quantity whose value would depend on data outside the window is
explicitly censored, never silently defaulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .enumeration import connected_subsets_containing
from .errors import ConfigurationError
from .graphs import GapComponents, GraphWindow
from .processes import PointMultiset, count_in

CENSORED = -1

HOLDS = "holds"
VIOLATED = "violated"
TRUNCATED = "truncated"
CENSORED_STATUS = "censored"

EXACT = "exact"
SUPPORT = "support"


def _as_fraction(threshold) -> Fraction:
    if isinstance(threshold, Fraction):
        return threshold
    # Decimal-string round trip keeps 0.9 meaning 9/10, not the binary float.
    return Fraction(str(threshold))


# ---------------------------------------------------------------------------
# Deficiency set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BadSet:
    """Vertices whose half-radius ball is underpopulated by the opposite
    process.  Membership is only evaluated where the ball is complete;
    elsewhere the vertex is flagged censored."""

    member: np.ndarray
    censored: np.ndarray
    r0: int
    threshold: Fraction

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.member))


def compute_bad_set(
    other: PointMultiset,
    window: GraphWindow,
    r0: int,
    threshold=Fraction(9, 10),
) -> BadSet:
    if r0 < 2 or r0 % 2 != 0:
        raise ConfigurationError(f"r0 must be an even integer >= 2, got {r0}")
    thr = _as_fraction(threshold)
    half = r0 // 2
    ball = window.ball_counts(other.counts, half)
    # A half-ball inside the window is the whole infinite-graph ball, so
    # its window size is the expected count; other vertices are censored.
    expected = window.ball_counts(np.ones(window.n, dtype=np.int64), half)
    censored = ~window.ball_ok(half)
    member = (~censored) & (ball * thr.denominator <= thr.numerator * expected)
    member.setflags(write=False)
    censored.setflags(write=False)
    return BadSet(member, censored, r0, thr)


# ---------------------------------------------------------------------------
# Connected-set enumeration over the proximity graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectedSetQuery:
    """Enumeration parameters: center vertex, connectivity gap, caps."""

    center: int
    gap: int
    size_cap: int
    count_cap: int = 200_000

    def __post_init__(self):
        if self.gap < 1:
            raise ConfigurationError("connectivity gap must be >= 1")
        if self.count_cap < 1:
            raise ConfigurationError("caps must be positive")


def enumerate_rconnected(
    pm: PointMultiset | None,
    window: GraphWindow,
    q: ConnectedSetQuery,
    mode: str = SUPPORT,
) -> tuple[list[frozenset[int]], bool]:
    """Candidate vertex sets containing q.center, per the chosen mode.

    Exact mode yields every gap-connected subset of the window containing
    the center, up to q.size_cap members, each exactly once; hitting
    q.count_cap abandons the stream with truncated=True.  Support mode
    yields the single component of the center in the gap-proximity graph
    on supp(pm) + {center}.
    """
    if mode == EXACT:
        if q.size_cap < 1:
            return [], True

        # The enumeration asks for the same vertex's proximity list once
        # per extension; one truncated row per vertex serves them all.
        near_of: dict[int, list[int]] = {}

        def prox(u: int) -> list[int]:
            got = near_of.get(u)
            if got is None:
                near = np.nonzero(window.dist_row(u, q.gap) <= q.gap)[0]
                got = near_of[u] = [int(w) for w in near if w != u]
            return got

        return connected_subsets_containing(
            q.center, prox, max_size=q.size_cap,
            cap=q.count_cap, cap_mode="truncate",
        )
    if mode != SUPPORT:
        raise ConfigurationError(f"unknown enumeration mode {mode!r}")
    if pm is None:
        raise ConfigurationError("support mode needs the own-side multiset")
    verts = np.union1d(pm.support, [q.center])
    lab = GapComponents(window, verts).labels(q.gap)
    comp = verts[lab == lab[np.searchsorted(verts, q.center)]]
    return [frozenset(int(u) for u in comp)], False


# ---------------------------------------------------------------------------
# The domination constraint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintResult:
    status: str
    witness: frozenset[int] | None = None
    sets_checked: int = 0


def _holds(complete, own_count, other_count, r: int):
    """The domination rule, on scalars or elementwise on arrays: a set
    with no own points holds wherever it lies; any other set needs a
    complete r-enlargement carrying at least r times its own count."""
    return (own_count == 0) | (complete & (other_count >= r * own_count))


def constraint_holds(
    own: PointMultiset,
    other: PointMultiset,
    window: GraphWindow,
    v: int,
    r: int,
    mode: str = SUPPORT,
    *,
    size_cap: int | None = None,
    count_cap: int = 200_000,
) -> ConstraintResult:
    """Check that the opposite process dominates over every enumerated
    4r-connected set containing v: |other on U^{+r}| >= r * |own on U|.

    A set whose right-hand side is zero holds regardless of window
    boundaries; any other set whose r-enlargement leaves the window makes
    the result censored.  A definite violation (complete enlargement,
    counts fail) short-circuits with the witness set.
    """
    if r < 1:
        raise ConfigurationError("constraint radius must be >= 1")
    gap = 4 * r
    cap = size_cap if size_cap is not None else window.n
    q = ConnectedSetQuery(v, gap, cap, count_cap)

    sets, truncated = enumerate_rconnected(own, window, q, mode)
    censored_any = False
    checked = 0
    for u_set in sets:
        checked += 1
        members = np.fromiter(u_set, dtype=np.int64)
        complete = window.ball_complete(members, r)
        own_count = count_in(own, members)
        other_count = int(other.counts[window.dist_from(members, r) <= r].sum())
        if _holds(complete, own_count, other_count, r):
            continue
        if not complete:
            censored_any = True
        else:
            return ConstraintResult(VIOLATED, u_set, checked)
    if censored_any:
        return ConstraintResult(CENSORED_STATUS, None, checked)
    if truncated:
        return ConstraintResult(TRUNCATED, None, checked)
    return ConstraintResult(HOLDS, None, checked)


# ---------------------------------------------------------------------------
# Radius fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusField:
    """Per-vertex reach radii with explicit censoring.

    values[v] is the radius, or CENSORED (-1).  clause[v] records which
    rule produced the value: 1 for the quiet-neighborhood base radius,
    2 for the domination search, 0 for censored vertices.
    """

    values: np.ndarray
    censored: np.ndarray
    clause: np.ndarray
    side: str
    mode: str
    r0: int
    radius_cap: int
    size_cap: int | None
    bad: BadSet

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.censored))


def compute_radius_field(
    own: PointMultiset,
    other: PointMultiset,
    window: GraphWindow,
    r0: int,
    mode: str = SUPPORT,
    *,
    radius_cap: int | None = None,
    size_cap: int | None = None,
    threshold=Fraction(9, 10),
    count_cap: int = 200_000,
    side: str = "left",
) -> RadiusField:
    """Apply the two-clause radius rule to every window vertex.

    Clause 1 gives the base radius r0 where the half-ball around the
    vertex is deficiency-free and the own count is at most r0.  Clause 2
    searches r = r0+1, r0+2, ... for the least radius whose domination
    constraint holds under the configured mode; vertices unresolved at
    radius_cap are censored.
    """
    if r0 < 2 or r0 % 2 != 0:
        raise ConfigurationError(f"r0 must be an even integer >= 2, got {r0}")
    cap = radius_cap if radius_cap is not None else r0 + 8
    if cap <= r0:
        raise ConfigurationError("radius_cap must exceed r0")
    bad = compute_bad_set(other, window, r0, threshold)
    half = r0 // 2

    bad_near = window.ball_counts(bad.member, half) > 0
    # Also set where v's own half-ball leaves the window: v lies in it.
    cens_near = window.ball_counts(bad.censored, half) > 0

    values = np.full(window.n, CENSORED, dtype=np.int32)
    clause = np.zeros(window.n, dtype=np.int8)
    censored = np.zeros(window.n, dtype=bool)

    clause1 = ~bad_near & ~cens_near & (own.counts <= r0)
    # A definite deficient vertex nearby settles clause 1 negatively even
    # when parts of the ball are censored.
    undecidable = ~bad_near & cens_near
    values[clause1] = r0
    clause[clause1] = 1
    censored[undecidable] = True

    pending = np.nonzero(~clause1 & ~undecidable)[0]
    if mode == SUPPORT:
        found = _support_radii(own, other, window, pending, r0, cap)
    else:
        found = np.zeros(len(pending), dtype=np.int32)
        for k, v in enumerate(pending):
            for r in range(r0 + 1, cap + 1):
                status = constraint_holds(
                    own, other, window, int(v), r, mode,
                    size_cap=size_cap, count_cap=count_cap,
                ).status
                if status == HOLDS:
                    found[k] = r
                    break
    settled = found > 0
    values[pending[settled]] = found[settled]
    clause[pending[settled]] = 2
    censored[pending[~settled]] = True

    for a in (values, clause, censored):
        a.setflags(write=False)
    return RadiusField(
        values, censored, clause, side, mode, r0, cap, size_cap, bad
    )


def _support_radii(
    own: PointMultiset, other: PointMultiset, window: GraphWindow,
    pending: np.ndarray, r0: int, cap: int,
) -> np.ndarray:
    """The least r in r0+1..cap at which the support-mode constraint
    holds, per pending vertex (0 where none does).

    At radius r the set of a support vertex is its gap-4r component.
    Such components are more than 4r apart, so their r-enlargements are
    disjoint, and a vertex within r of the support lies only in that of
    its nearest member's component.  An off-support vertex v joins the
    components within 4r of it; no other enlargement meets B_r(v).
    """
    supp = own.support
    comps = GapComponents(window, supp)
    found = np.zeros(len(pending), dtype=np.int32)
    on = np.nonzero(np.isin(pending, supp))[0]
    member = np.searchsorted(supp, pending[on])
    tables = []
    for r in range(r0 + 1, cap + 1):
        lab = comps.labels(4 * r)
        ok = window.ball_ok(r)
        within = comps.near <= r
        # Per component: complete, own count, other count on C^{+r}.
        table = (
            np.bincount(lab, ~ok[supp]) == 0,
            np.bincount(lab, own.counts[supp]),
            np.bincount(lab[comps.cell[within]], other.counts[within]),
        )
        tables.append((r, lab, ok, table))
        holds = _holds(*table, r)[lab[member]]
        found[on[holds & (found[on] == 0)]] = r

    for k in np.setdiff1d(np.arange(len(pending)), on):
        v = int(pending[k])
        row = window.dist_row(v, 4 * cap)
        for r, lab, ok, (complete, own_c, other_c) in tables:
            ids = np.unique(lab[row[supp] <= 4 * r])
            bare = (row <= r) & (comps.near > r)
            if _holds(
                ok[v] & complete[ids].all(),
                own_c[ids].sum(),
                other_c[ids].sum() + other.counts[bare].sum(),
                r,
            ):
                found[k] = r
                break
    return found


# ---------------------------------------------------------------------------
# Components of high-radius sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    size: int
    diameter: int
    n_censored: int


def components_above(
    field: RadiusField,
    window: GraphWindow,
    r: int,
) -> list[Component]:
    """4r-connected components of {v : R_v > r}, censored vertices
    included pessimistically (their count is reported per component)."""
    members = np.nonzero((field.values > r) | field.censored)[0]
    if len(members) == 0:
        return []
    gap = 4 * r
    lab = GapComponents(window, members).labels(gap)
    out = []
    for cid in range(int(lab.max()) + 1):
        verts = members[lab == cid]
        # Members of a gap-connected set lie within (size - 1) * gap.
        limit = (len(verts) - 1) * gap
        diam = max(int(window.dist_row(int(u), limit)[verts].max()) for u in verts)
        out.append(
            Component(
                tuple(int(v) for v in verts),
                len(verts),
                diam,
                int(np.count_nonzero(field.censored[verts])),
            )
        )
    out.sort(key=lambda c: c.vertices[0])
    return out


def dump_radius_field(fieldobj: RadiusField) -> list[str]:
    """Lines "vertex_id R_v mode flags"."""
    flag_names = {0: "censored", 1: "clause1", 2: "clause2"}
    return [
        f"{v} {int(fieldobj.values[v])} {fieldobj.mode} "
        f"{flag_names[int(fieldobj.clause[v])]}"
        for v in range(len(fieldobj.values))
    ]

"""Reach radii: the deficiency set, the per-vertex radius fields, and
connected-component analysis of high-radius sets.

The radius of a vertex is defined by a two-clause rule.  A vertex whose
neighborhood is free of deficient vertices and carries few own points
gets the base radius.  Every other vertex searches for the smallest
radius r at which the opposite process dominates the own process over
an enumerated family of 4r-connected vertex sets containing it.

Clause 2 runs in one of two modes.  Exact mode asks the yes/no check
`constraint_holds` per vertex and radius; it draws the 4r-connected
subsets of the window containing the vertex one at a time, cut at a
size and a count cap, and stops at the first that decides (the
per-vertex test oracle, exponential).  Support mode checks only the
connected component of the vertex in the 4r-proximity graph on the
occupied vertices, a documented under-approximation that can only lower
the resulting radius; its fields take one vectorised pass per radius.

Any quantity whose value would depend on data outside the window is
explicitly censored, never silently defaulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enumeration import connected_subsets_containing
from .errors import ConfigurationError
from .graphs import GapComponents, GraphWindow
from .processes import PointMultiset, count_in

CENSORED = -1

EXACT = "exact"
SUPPORT = "support"

# A vertex is deficient when its half-ball holds at most this fraction
# of the expected opposite count.
DEFICIENCY = Fraction(9, 10)
# Exact mode answers no for a vertex and radius with more than this
# many candidate sets.
COUNT_CAP = 200_000


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

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.member))


def compute_bad_set(other: PointMultiset, window: GraphWindow, r0: int) -> BadSet:
    if r0 < 2 or r0 % 2 != 0:
        raise ConfigurationError(f"r0 must be an even integer >= 2, got {r0}")
    half = r0 // 2
    ball = window.ball_counts(other.counts, half)
    # A half-ball inside the window is the whole infinite-graph ball, so
    # its window size is the expected count; other vertices are censored.
    expected = window.ball_counts(np.ones(window.n, dtype=np.int64), half)
    censored = ~window.ball_ok(half)
    member = (~censored) & (
        ball * DEFICIENCY.denominator <= DEFICIENCY.numerator * expected
    )
    member.setflags(write=False)
    censored.setflags(write=False)
    return BadSet(member, censored)


# ---------------------------------------------------------------------------
# The domination constraint
# ---------------------------------------------------------------------------


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
    *,
    size_cap: int | None = None,
) -> bool:
    """Exact mode's check: the opposite process dominates over every
    4r-connected vertex set U containing v, |other on U^{+r}| >= r *
    |own on U|, by the rule of `_holds`.

    The sets are drawn lazily, and the answer is False at the first one
    that decides it: a set that fails (including a set with own points
    whose r-enlargement leaves the window), a set of more than size_cap
    members (window.n when None), or set number COUNT_CAP + 1.  A cut
    leaves sets unchecked, so it answers no.  True only when the whole
    family was drawn and held.
    """
    if r < 1:
        raise ConfigurationError("constraint radius must be >= 1")
    gap = 4 * r

    # The enumeration asks for the same vertex's proximity list once per
    # extension; one truncated row per vertex serves them all.
    near_of: dict[int, list[int]] = {}

    def prox(u: int) -> list[int]:
        got = near_of.get(u)
        if got is None:
            near = np.nonzero(window.dist_row(u, gap) <= gap)[0]
            got = near_of[u] = [int(w) for w in near if w != u]
        return got

    limit = size_cap if size_cap is not None else window.n
    # A set of limit + 1 members exists exactly when the family of sets
    # up to limit members is cut at that size.
    sets = connected_subsets_containing(v, prox, max_size=limit + 1)
    for count, u_set in enumerate(sets, 1):
        if len(u_set) > limit or count > COUNT_CAP:
            return False
        members = np.fromiter(u_set, dtype=np.int64)
        other_count = int(other.counts[window.dist_from(members, r) <= r].sum())
        if not _holds(
            window.ball_complete(members, r), count_in(own, members),
            other_count, r,
        ):
            return False
    return True


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
    mode: str

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
) -> RadiusField:
    """Apply the two-clause radius rule to every window vertex.

    Clause 1 gives the base radius r0 where the half-ball around the
    vertex is deficiency-free and the own count is at most r0.  Clause 2
    searches r = r0+1, r0+2, ... for the least radius whose domination
    constraint holds under the configured mode; vertices unresolved at
    radius_cap are censored.  size_cap bounds exact mode's sets.
    """
    if r0 < 2 or r0 % 2 != 0:
        raise ConfigurationError(f"r0 must be an even integer >= 2, got {r0}")
    if mode not in (EXACT, SUPPORT):
        raise ConfigurationError(f"unknown radius mode {mode!r}")
    cap = radius_cap if radius_cap is not None else r0 + 8
    if cap <= r0:
        raise ConfigurationError("radius_cap must exceed r0")
    bad = compute_bad_set(other, window, r0)
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
                if constraint_holds(
                    own, other, window, int(v), r, size_cap=size_cap
                ):
                    found[k] = r
                    break
    settled = found > 0
    values[pending[settled]] = found[settled]
    clause[pending[settled]] = 2
    censored[pending[~settled]] = True

    for a in (values, clause, censored):
        a.setflags(write=False)
    return RadiusField(values, censored, clause, mode)


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
    lab = GapComponents(window, members).labels(4 * r)
    out = []
    for cid in range(int(lab.max()) + 1):
        verts = members[lab == cid]
        out.append(
            Component(
                tuple(int(v) for v in verts),
                len(verts),
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

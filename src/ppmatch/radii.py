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
from functools import cached_property

import numpy as np

from .enumeration import connected_subsets_containing
from .errors import ConfigurationError, ContractViolationError
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


def compute_bad_set(
    other: PointMultiset, window: GraphWindow, r0: int
) -> np.ndarray:
    """Read-only mask of the vertices whose complete half-ball (radius
    r0 // 2) holds at most DEFICIENCY of the expected opposite count;
    False wherever ~window.ball_ok(r0 // 2)."""
    if r0 < 2 or r0 % 2 != 0:
        raise ConfigurationError(f"r0 must be an even integer >= 2, got {r0}")
    half = r0 // 2
    ball = window.ball_counts(other.counts, half)
    # A half-ball inside the window is the whole infinite-graph ball, so
    # its window size is the expected count.
    expected = window.ball_counts(np.ones(window.n, dtype=np.int64), half)
    member = window.ball_ok(half) & (
        ball * DEFICIENCY.denominator <= DEFICIENCY.numerator * expected
    )
    member.setflags(write=False)
    return member


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

    values[v] is the radius, or CENSORED (-1); no other value lies
    below r0.  The read-only view clause[v] (int8) says which rule
    produced it: 1 for the quiet-neighborhood base radius r0, 2 for the
    domination search (which starts at r0 + 1), 0 for censored vertices.
    """

    values: np.ndarray
    r0: int
    mode: str

    def __post_init__(self):
        if ((self.values != CENSORED) & (self.values < self.r0)).any():
            raise ContractViolationError(
                f"radius field holds a value below r0 = {self.r0}"
            )

    @cached_property
    def clause(self) -> np.ndarray:
        out = (self.values >= self.r0).astype(np.int8)
        out += self.values > self.r0
        out.setflags(write=False)
        return out

    @cached_property
    def censored(self) -> np.ndarray:
        out = self.values == CENSORED
        out.setflags(write=False)
        return out

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
    half = r0 // 2
    bad_near = window.ball_counts(compute_bad_set(other, window, r0), half) > 0
    # Also set where v's own half-ball leaves the window: v lies in it.
    cens_near = window.ball_counts(~window.ball_ok(half), half) > 0

    values = np.full(window.n, CENSORED, dtype=np.int32)
    clause1 = ~bad_near & ~cens_near & (own.counts <= r0)
    # A definite deficient vertex nearby settles clause 1 negatively even
    # when parts of the ball are censored.
    undecidable = ~bad_near & cens_near
    values[clause1] = r0

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
    values.setflags(write=False)
    return RadiusField(values, r0, mode)


def _support_radii(
    own: PointMultiset, other: PointMultiset, window: GraphWindow,
    pending: np.ndarray, r0: int, cap: int,
) -> np.ndarray:
    """The least r in r0+1..cap at which the support-mode constraint
    holds, per pending vertex (0 where none does).

    At radius r the set U of a support vertex is its gap-4r component.
    Such components are more than 4r apart, so their r-enlargements are
    disjoint, and a vertex within r of the support lies only in that of
    its nearest member's component.  An off-support vertex v joins the
    components within 4r of it; no other enlargement meets B_r(v).

    U only grows with r and ball_ok(r) only shrinks, so two failures
    are final: own points in U with an r-enlargement that leaves the
    window (the window edge), and r * own(U) above the window's whole
    opposite count (outnumbered).  A vertex is done at its first hold
    or exit, and no radius is evaluated once every vertex is done.
    """
    found = np.zeros(len(pending), dtype=np.int32)
    if len(pending) == 0:
        return found
    open_ = np.ones(len(pending), dtype=bool)
    supp = own.support
    comps = GapComponents(window, supp)
    on = own.counts[pending] > 0
    member = np.searchsorted(supp, pending)
    for r in range(r0 + 1, cap + 1):
        if not open_.any():
            break
        lab = comps.labels(4 * r)
        ok = window.ball_ok(r)
        within = comps.near <= r
        # Per component: complete, own count, other count on C^{+r}.
        complete = np.bincount(lab, ~ok[supp]) == 0
        own_c = np.bincount(lab, own.counts[supp])
        other_c = np.bincount(lab[comps.cell[within]], other.counts[within])

        k = np.nonzero(open_ & on)[0]
        ids = lab[member[k]]
        settle = [(k, complete[ids], own_c[ids], other_c[ids])]

        # Off-support vertices join the components within 4r of them:
        # one bounded BFS per component, read at the open vertices, and
        # one ball count of the opposite points outside every
        # enlargement.
        k = np.nonzero(open_ & ~on)[0]
        if len(k):
            at = pending[k]
            own_u = np.zeros(len(k))
            other_u = window.ball_counts(
                np.where(within, 0, other.counts), r
            )[at].astype(float)
            incomplete = ~ok[at]
            # Members grouped by component; with no component the one
            # empty group meets no counts in the zip below.
            groups = np.split(
                supp[np.argsort(lab, kind="stable")],
                np.cumsum(np.bincount(lab))[:-1],
            )
            for members, own_k, other_k, complete_k in zip(
                groups, own_c, other_c, complete
            ):
                hit = window.dist_from(members, 4 * r)[at] <= 4 * r
                own_u += own_k * hit
                other_u += other_k * hit
                incomplete |= hit & ~complete_k
            settle.append((k, ~incomplete, own_u, other_u))

        for k, complete_u, own_u, other_u in settle:
            holds = _holds(complete_u, own_u, other_u, r)
            found[k[holds]] = r
            open_[k] = ~holds & complete_u & (r * own_u <= other.total)
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
    """CSV lines: the header "vertex,R,mode,flags", then one line per
    vertex."""
    flag_names = {0: "censored", 1: "clause1", 2: "clause2"}
    return ["vertex,R,mode,flags"] + [
        f"{v},{int(fieldobj.values[v])},{fieldobj.mode},"
        f"{flag_names[int(fieldobj.clause[v])]}"
        for v in range(len(fieldobj.values))
    ]

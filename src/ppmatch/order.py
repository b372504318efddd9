"""Total order on vertices built from local point-count fingerprints.

Each vertex gets a signature: the point counts on the spheres of radius
0..r_max around it, truncated to the radii whose spheres are complete in
the window.  Vertices are compared lexicographically by signature, with
the window vertex index as a deterministic tiebreak; ties are collisions
and are reported, not hidden.  The psi value encodes a signature as an
exact dyadic rational (a_1 one-digits, a zero, a_2 ones, a zero, ...)
and is exported for conformance checks; comparing signatures directly is
equivalent and avoids any floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import GraphWindow
from .processes import PointMultiset


@dataclass(frozen=True)
class SphereSignature:
    """Sphere point counts around one vertex.

    counts[r] is the number of points at distance exactly r, recorded
    only for the prefix of radii whose spheres lie fully inside the
    window; complete[r] says whether radius r made it in.  Absent radii
    are absent, not zero.
    """

    vertex: int
    counts: tuple[int, ...]
    complete: tuple[bool, ...]

    @property
    def r_max(self) -> int:
        return len(self.complete) - 1

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative sphere count")
        if len(self.counts) > len(self.complete):
            raise ValueError("more counts than radii")
        for r, flag in enumerate(self.complete):
            if flag != (r < len(self.counts)):
                raise ValueError("complete flags must mark a prefix")


def sphere_signature(
    pm: PointMultiset, window: GraphWindow, v: int, r_max: int
) -> SphereSignature:
    return _signature(window, v, _sphere_counts(pm, window, r_max)[:, v], r_max)


def _sphere_counts(pm: PointMultiset, window: GraphWindow, r_max: int) -> np.ndarray:
    """Point counts on the radius-r spheres of every vertex, r = 0..r_max
    (one row per r), as differences of ball counts."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    balls = np.stack([window.ball_counts(pm.counts, r) for r in range(r_max + 1)])
    return np.diff(balls, axis=0, prepend=0)


def _signature(
    window: GraphWindow, v: int, counts: np.ndarray, r_max: int
) -> SphereSignature:
    complete = [window.ball_complete(v, r) for r in range(r_max + 1)]
    n_keep = complete.index(False) if False in complete else len(complete)
    return SphereSignature(
        vertex=int(v),
        counts=tuple(int(c) for c in counts[:n_keep]),
        complete=tuple(complete),
    )


def psi(sig: Sequence[int]) -> Fraction:
    """Exact dyadic value of the unary-with-separator digit string.

    Entry a contributes a one-digits followed by a zero; the value is
    sum(d_k 2^-k).  Injective for a fixed number of entries.
    """
    num = 0
    total = 0
    for a in sig:
        a = int(a)
        if a < 0:
            raise ValueError("signature entries must be nonnegative")
        num = (num << (a + 1)) | (((1 << a) - 1) << 1)
        total += a + 1
    if total == 0:
        return Fraction(0)
    return Fraction(num, 1 << total)


def psi_decode(value: Fraction, n_entries: int) -> tuple[int, ...]:
    """Invert psi given the entry count (trailing zero entries carry no
    binary digits, so the length cannot be inferred from the value)."""
    f = Fraction(value)
    if not (0 <= f < 1):
        raise ValueError("psi values lie in [0, 1)")
    entries: list[int] = []
    run = 0
    while f:
        f *= 2
        if f >= 1:
            f -= 1
            run += 1
        else:
            entries.append(run)
            run = 0
    if run:
        entries.append(run)
    if len(entries) > n_entries:
        raise ValueError("value encodes more entries than stated")
    entries.extend([0] * (n_entries - len(entries)))
    return tuple(entries)


@dataclass(frozen=True)
class OrderFactor:
    """Total order over the window's vertices.

    vertex_rank[v] is the position of v when vertices sort by
    (signature, vertex index).  fallback[v] marks vertices whose
    signature ties at least one other vertex, so the index decided.
    collision_groups lists every tied signature class of size >= 2.
    """

    signatures: tuple[SphereSignature, ...]
    vertex_rank: np.ndarray
    fallback: np.ndarray
    collision_groups: tuple[tuple[int, ...], ...]
    r_max: int

    @property
    def n_collisions(self) -> int:
        return int(self.fallback.sum())

    def key(self, v: int) -> tuple:
        return (self.signatures[v].counts, v)


def build_order(
    pm: PointMultiset, window: GraphWindow, r_max: int
) -> OrderFactor:
    n = window.n
    spheres = _sphere_counts(pm, window, r_max)
    sigs = tuple(_signature(window, v, spheres[:, v], r_max) for v in range(n))
    order = sorted(range(n), key=lambda v: (sigs[v].counts, v))
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)

    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        groups.setdefault(sigs[v].counts, []).append(v)
    fallback = np.zeros(n, dtype=bool)
    collision_groups = []
    for sig_counts in sorted(groups):
        members = groups[sig_counts]
        if len(members) > 1:
            collision_groups.append(tuple(members))
            fallback[members] = True
    rank.setflags(write=False)
    fallback.setflags(write=False)
    return OrderFactor(
        signatures=sigs,
        vertex_rank=rank,
        fallback=fallback,
        collision_groups=tuple(collision_groups),
        r_max=r_max,
    )


def dump_order(of: OrderFactor) -> list[str]:
    """Lines "vertex_id signature_csv psi_numerator psi_denominator
    fallback_flag"."""
    lines = []
    for v, sig in enumerate(of.signatures):
        val = psi(sig.counts)
        csv = ",".join(str(c) for c in sig.counts)
        lines.append(
            f"{v} {csv} {val.numerator} {val.denominator} "
            f"{int(bool(of.fallback[v]))}"
        )
    return lines

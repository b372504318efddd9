"""Total order on vertices built from local point-count fingerprints.

Each vertex gets a signature: the point counts on the spheres of radius
0..r_max around it, truncated to the radii whose balls are complete in
the window.  The signatures are held as one integer matrix, one row per
vertex, whose entries past the complete prefix are -1; since -1 lies
below every count, comparing rows compares signatures the way tuples
compare (a proper prefix first).  Vertices sort by signature, with the
window vertex index as a deterministic tiebreak; ties are collisions
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


@dataclass(frozen=True)
class OrderFactor:
    """Total order over the window's vertices.

    counts[v] is the signature row of v (see the module docstring);
    signature(v) is its complete prefix.  vertex_rank[v] is the position
    of v when vertices sort by (signature, vertex index).  fallback[v]
    marks vertices whose signature ties at least one other vertex, so
    the index decided.
    """

    counts: np.ndarray
    vertex_rank: np.ndarray
    fallback: np.ndarray

    @property
    def n_collisions(self) -> int:
        return int(self.fallback.sum())

    def signature(self, v: int) -> tuple[int, ...]:
        row = self.counts[v]
        return tuple(int(c) for c in row[row >= 0])


def build_order(
    pm: PointMultiset, window: GraphWindow, r_max: int
) -> OrderFactor:
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    # Sphere counts as differences of ball counts, -1 from the first
    # radius whose ball leaves the window (a prefix: balls only grow).
    radii = range(r_max + 1)
    balls = np.stack([window.ball_counts(pm.counts, r) for r in radii], axis=1)
    counts = np.diff(balls, axis=1, prepend=0)
    counts[~np.stack([window.ball_ok(r) for r in radii], axis=1)] = -1
    n = window.n
    # lexsort takes its primary key last: columns r_max..0, then index.
    order = np.lexsort((np.arange(n),) + tuple(counts.T[::-1]))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)

    # Tied rows sit next to each other in sorted order.
    ranked = counts[order]
    tie = (ranked[1:] == ranked[:-1]).all(axis=1)
    tied = np.r_[tie, False] | np.r_[False, tie]
    fallback = tied[rank]

    for a in (counts, rank, fallback):
        a.setflags(write=False)
    return OrderFactor(counts=counts, vertex_rank=rank, fallback=fallback)


def dump_order(of: OrderFactor) -> list[str]:
    """Lines "vertex_id signature_csv psi_numerator psi_denominator
    fallback_flag"."""
    lines = []
    for v in range(len(of.counts)):
        sig = of.signature(v)
        val = psi(sig)
        lines.append(
            f"{v} {','.join(map(str, sig))} {val.numerator} "
            f"{val.denominator} {int(of.fallback[v])}"
        )
    return lines

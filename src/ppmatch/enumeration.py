"""Enumeration of connected vertex subsets of a graph.

Used by exact radius mode's `radii.constraint_holds`, where connectivity
is taken in a proximity graph and the sets are drawn lazily, one at a
time, until one of them decides the check.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator


def connected_subsets_containing(
    root: int,
    neighbors: Callable[[int], Iterable[int]],
    *,
    max_size: int,
) -> Iterator[frozenset[int]]:
    """Yield every connected subset containing `root` with at most
    `max_size` vertices, each exactly once, in depth-first order.

    Connectivity is with respect to the `neighbors` oracle, which is
    asked about a vertex only when a set containing it is extended.  The
    walk keeps its own stack, one frame per member of the current set,
    so set size is not bounded by Python's recursion limit.
    """
    if max_size < 1:
        return
    current: set[int] = set()

    def fresh(v: int, seen: set[int]) -> list[int]:
        return sorted(w for w in neighbors(v) if w not in current and w not in seen)

    # Frames are (member, candidates, iterator over them, ruled out); the
    # walk starts from a frame whose only candidate is the root.
    stack = [(None, [root], enumerate([root]), set())]
    while stack:
        _, cand, it, banned = stack[-1]
        for i, w in it:
            current.add(w)
            yield frozenset(current)
            if len(current) < max_size:
                rest = cand[i + 1 :]
                child = rest + fresh(w, {*rest, *banned})
                stack.append((w, child, enumerate(child), set(banned)))
                break
            current.remove(w)
            banned.add(w)
        else:
            w = stack.pop()[0]
            if stack:
                current.remove(w)
                stack[-1][3].add(w)

"""Enumeration of connected vertex subsets of a graph.

Used by exact radius mode's `radii.constraint_holds`, where connectivity
is taken in a proximity graph and the stream is cut at a size and a
count cap.
"""

from __future__ import annotations

from typing import Callable, Iterable


def connected_subsets_containing(
    root: int,
    neighbors: Callable[[int], Iterable[int]],
    *,
    max_size: int,
    cap: int = 2_000_000,
) -> tuple[list[frozenset[int]], bool]:
    """All connected subsets containing `root`, up to `max_size` vertices.

    Connectivity is with respect to the `neighbors` oracle.  Each subset
    is produced exactly once.  Returns (subsets, truncated) where
    `truncated` is True when the family was cut off rather than
    exhausted: some subset of maximal size still had an unexplored
    extension, or the stream was abandoned after `cap` subsets.
    """
    if max_size < 1:
        return [], True

    results: list[frozenset[int]] = []
    truncated = False
    stopped = False

    def fresh_neighbors(v: int, used: set[int], seen: set[int]) -> list[int]:
        return sorted(w for w in neighbors(v) if w not in used and w not in seen)

    def rec(current: set[int], cand: list[int], banned: set[int]) -> None:
        nonlocal truncated, stopped
        if stopped:
            return
        if len(results) >= cap:
            truncated = True
            stopped = True
            return
        results.append(frozenset(current))
        if len(current) == max_size:
            if cand:
                truncated = True
            return
        local_banned = set(banned)
        for i, w in enumerate(cand):
            if stopped:
                return
            rest = cand[i + 1 :]
            seen = set(rest) | local_banned | {w}
            grown = fresh_neighbors(w, current, seen)
            current.add(w)
            rec(current, rest + grown, local_banned)
            current.remove(w)
            local_banned.add(w)

    first = fresh_neighbors(root, {root}, set())
    rec({root}, first, set())
    return results, truncated

"""Enumeration of connected vertex subsets of a graph.

Used by the exact reach-radius mode, where connectivity is taken in a
proximity graph.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import ResourceError


def connected_subsets_containing(
    root: int,
    neighbors: Callable[[int], Iterable[int]],
    *,
    allowed: Callable[[int], bool] = lambda v: True,
    max_size: int,
    cap: int = 2_000_000,
    cap_mode: str = "raise",
) -> tuple[list[frozenset[int]], bool]:
    """All connected subsets containing `root`, up to `max_size` vertices.

    Connectivity is with respect to the `neighbors` oracle restricted to
    vertices accepted by `allowed`.  Each subset is produced exactly once.
    Returns (subsets, truncated) where `truncated` is True when some
    enumerated subset of maximal size still had an unexplored extension,
    i.e. the family was cut off by `max_size` rather than exhausted.

    Exceeding `cap` subsets raises ResourceError, or, with
    cap_mode="truncate", abandons the stream and reports truncated=True.
    """
    if max_size < 1:
        return [], True
    if not allowed(root):
        raise ValueError("root is not an allowed vertex")

    results: list[frozenset[int]] = []
    truncated = False
    stopped = False

    def fresh_neighbors(v: int, used: set[int], seen: set[int]) -> list[int]:
        out = []
        for w in neighbors(v):
            if w not in used and w not in seen and allowed(w):
                out.append(w)
        return sorted(out)

    def rec(current: set[int], cand: list[int], banned: set[int]) -> None:
        nonlocal truncated, stopped
        if stopped:
            return
        if len(results) >= cap:
            if cap_mode == "raise":
                raise ResourceError(
                    f"connected-subset enumeration exceeded cap={cap}"
                )
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

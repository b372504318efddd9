from itertools import combinations

from ppmatch.enumeration import connected_subsets_containing


def path_neighbors(n):
    def nbrs(v):
        return [w for w in (v - 1, v + 1) if 0 <= w < n]

    return nbrs


def grid_neighbors(w, h):
    def nbrs(v):
        x, y = v % w, v // w
        out = []
        if x > 0:
            out.append(v - 1)
        if x < w - 1:
            out.append(v + 1)
        if y > 0:
            out.append(v - w)
        if y < h - 1:
            out.append(v + w)
        return out

    return nbrs


def brute_connected_sets(n, nbrs, root, max_size):
    found = []
    for k in range(1, max_size + 1):
        for combo in combinations(range(n), k):
            if root not in combo:
                continue
            s = set(combo)
            stack = [root]
            seen = {root}
            while stack:
                v = stack.pop()
                for u in nbrs(v):
                    if u in s and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == s:
                found.append(frozenset(combo))
    return found


def test_path_counts_match_brute_force():
    nbrs = path_neighbors(6)
    for root in range(6):
        for k in (1, 2, 3, 6):
            got, truncated = connected_subsets_containing(
                root, nbrs, max_size=k
            )
            want = brute_connected_sets(6, nbrs, root, k)
            assert sorted(got, key=sorted) == sorted(want, key=sorted)
            # Intervals through `root` of length <= k
            assert len(got) == len(want)
    full, truncated = connected_subsets_containing(0, nbrs, max_size=6)
    assert not truncated


def test_no_duplicates_on_grid():
    nbrs = grid_neighbors(3, 3)
    got, truncated = connected_subsets_containing(4, nbrs, max_size=4)
    assert len(got) == len(set(got))
    want = brute_connected_sets(9, nbrs, 4, 4)
    assert set(got) == set(want)
    assert truncated  # size-4 sets still extend inside the grid


def test_truncation_flag_vs_exhaustion():
    nbrs = path_neighbors(4)
    got, truncated = connected_subsets_containing(0, nbrs, max_size=4)
    assert not truncated
    assert len(got) == 4  # the 4 prefixes
    got, truncated = connected_subsets_containing(0, nbrs, max_size=3)
    assert truncated


def test_cap_raises_or_truncates():
    # Past `cap` subsets the stream is abandoned and reported truncated.
    nbrs = grid_neighbors(4, 4)
    got, truncated = connected_subsets_containing(0, nbrs, max_size=16, cap=50)
    assert truncated and len(got) == 50

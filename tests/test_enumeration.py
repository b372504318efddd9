from itertools import combinations, islice

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


def subsets(root, nbrs, max_size):
    return list(connected_subsets_containing(root, nbrs, max_size=max_size))


def test_path_counts_match_brute_force():
    nbrs = path_neighbors(6)
    for root in range(6):
        for k in (1, 2, 3, 6):
            got = subsets(root, nbrs, k)
            want = brute_connected_sets(6, nbrs, root, k)
            assert sorted(got, key=sorted) == sorted(want, key=sorted)
            # Intervals through `root` of length <= k
            assert len(got) == len(want)
    # The whole path is one of the sets, so nothing lies beyond size 6.
    assert max(map(len, subsets(0, nbrs, 7))) == 6


def test_no_duplicates_on_grid():
    nbrs = grid_neighbors(3, 3)
    got = subsets(4, nbrs, 4)
    assert len(got) == len(set(got))
    want = brute_connected_sets(9, nbrs, 4, 4)
    assert set(got) == set(want)
    # Size-4 sets still extend inside the grid.
    assert any(len(u) == 5 for u in subsets(4, nbrs, 5))


def test_sets_beyond_max_size_exist_only_before_exhaustion():
    nbrs = path_neighbors(4)
    got = subsets(0, nbrs, 5)
    assert len(got) == 4  # the 4 prefixes
    assert max(map(len, got)) == 4
    assert any(len(u) == 4 for u in subsets(0, nbrs, 4))


def test_stream_is_lazy_and_depth_first():
    asked = []

    def nbrs(v):
        asked.append(v)
        return path_neighbors(10)(v)

    stream = connected_subsets_containing(0, nbrs, max_size=10)
    assert next(stream) == {0}
    assert asked == []
    assert [sorted(next(stream)) for _ in range(2)] == [[0, 1], [0, 1, 2]]
    assert asked == [0, 1]


def test_no_recursion_limit():
    stream = connected_subsets_containing(0, path_neighbors(3000), max_size=3000)
    *_, last = islice(stream, 2500)
    assert last == frozenset(range(2500))


def test_max_size_below_one_yields_nothing():
    assert subsets(0, path_neighbors(3), 0) == []

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmatch import processes
from ppmatch.errors import CensoringError, ConfigurationError
from ppmatch.graphs import (
    EXPLICIT, GraphFamily, build_window, sphere_point, sphere_size_infinite,
)
from ppmatch.seeds import hash_u64, unit_uniform
from conftest import derive


def test_spec_constructors_and_validation():
    poi = processes.ProcessSpec.poisson()
    assert poi.kind == "poisson" and poi.max_displacement == 0
    deg = processes.ProcessSpec.degenerate()
    assert deg.is_degenerate and deg.max_displacement == 0
    pert = processes.ProcessSpec.perturbed({0: 0.5, 2: 0.5})
    assert pert.max_displacement == 2
    with pytest.raises(ConfigurationError):
        processes.ProcessSpec.perturbed({})
    with pytest.raises(ConfigurationError):
        processes.ProcessSpec.perturbed({1: 0.4})
    with pytest.raises(ConfigurationError):
        processes.ProcessSpec.perturbed({-1: 1.0})
    with pytest.raises(ConfigurationError):
        processes.ProcessSpec.perturbed({0: 0.5, 1: -0.5})


def test_sampling_is_deterministic_and_label_keyed(tree3_d8, tree3_d5):
    poi = processes.ProcessSpec.poisson()
    a = processes.sample(poi, tree3_d8, derive("det"))
    b = processes.sample(poi, tree3_d8, derive("det"))
    np.testing.assert_array_equal(a.counts, b.counts)
    # Counts key on canonical labels, so shared vertices agree across
    # windows of different depth.
    small = processes.sample(poi, tree3_d5, derive("det"))
    for i, lab in enumerate(tree3_d5.labels):
        assert small.counts[i] == a.counts[tree3_d8.label_to_index[lab]]


def test_poisson_moments(tree3_d8):
    pm = processes.sample(processes.ProcessSpec.poisson(), tree3_d8, derive("mom"))
    mean = pm.counts.mean()
    assert abs(mean - 1.0) < 4.0 / math.sqrt(tree3_d8.n)
    assert pm.origin_vertex is None and pm.discarded == 0


def test_poisson_cdf_table_matches_scipy_stats():
    from scipy import stats

    assert np.array_equal(
        processes._POISSON_CDF, stats.poisson.cdf(np.arange(36), 1.0)
    )


def test_poisson_cdf_literals_are_pdtr_bit_for_bit():
    from scipy.special import pdtr

    table = pdtr(np.arange(36), 1.0)
    assert processes._POISSON_CDF.tobytes() == table.tobytes()
    assert not processes._POISSON_CDF.flags.writeable


def test_degenerate_sample_is_vertex_set(tree3_d8):
    pm = processes.sample(processes.ProcessSpec.degenerate(), tree3_d8, derive("deg"))
    np.testing.assert_array_equal(pm.counts, np.ones(tree3_d8.n, dtype=np.int64))
    np.testing.assert_array_equal(pm.origin_vertex, np.arange(tree3_d8.n))
    assert pm.discarded == 0


def test_perturbed_core_counts_unbiased(tree3_d8):
    spec = processes.ProcessSpec.perturbed({1: 1.0})
    pm = processes.sample(spec, tree3_d8, derive("pert"))
    # One point per vertex, displaced exactly 1: totals are conserved up
    # to discards off the window boundary.
    assert pm.total + pm.discarded == tree3_d8.n
    assert pm.discarded > 0
    # Every landing is adjacent to its origin.
    for p in range(pm.total):
        o, v = int(pm.origin_vertex[p]), int(pm.point_vertex[p])
        assert tree3_d8.distance(o, v) == 1


def reference_sample(spec, window, seed):
    """The sampling rule one vertex at a time, with scalar hashes: an
    oracle that shares no batching with `processes.sample`.  Returns
    (counts, origin of each point in landing order, discarded)."""
    if spec.kind == "poisson":
        cdf = processes._POISSON_CDF
        counts = [
            int(np.searchsorted(cdf, unit_uniform(seed, "count", lab), side="right"))
            for lab in window.labels
        ]
        return counts, None, 0
    cum = np.cumsum([w for _, w in spec.distance_law])
    cum[-1] = 1.0
    pairs = []  # (landing, origin)
    for i, lab in enumerate(window.labels):
        k = int(np.searchsorted(cum, unit_uniform(seed, "disp", lab), side="right"))
        d = spec.distance_law[k][0]
        if d == 0:
            pairs.append((i, i))
            continue
        h = hash_u64(seed, "land", lab)
        if window.family.kind == EXPLICIT:
            members = window.sphere(i, d)[0]
            if len(members):
                pairs.append((int(members[h % len(members)]), i))
            continue
        j = h % sphere_size_infinite(window.family, d)
        target = window.label_to_index.get(sphere_point(window.family, lab, d, j))
        if target is not None:
            pairs.append((target, i))
    pairs.sort()  # by landing, then origin: the stable order of origins
    counts = np.bincount([t for t, _ in pairs], minlength=window.n).tolist()
    return counts, [o for _, o in pairs], window.n - len(pairs)


_CYCLE12 = [[(i - 1) % 12, (i + 1) % 12] for i in range(12)]
# An isolated vertex, two edges and a path of three: every point of the
# edges displaced by 2, and any displaced point of vertex 4, has an empty
# sphere and is discarded.
_SPLIT = [[1], [0], [3], [2], [], [6], [5, 7], [6]]


@pytest.mark.parametrize("spec", [
    processes.ProcessSpec.poisson(),
    processes.ProcessSpec.degenerate(),
    processes.ProcessSpec.perturbed({0: 0.5, 1: 0.3, 2: 0.2}),
], ids=["poisson", "degenerate", "mixed"])
def test_sample_matches_per_vertex_reference(spec, tree3_d8, ladder_d10):
    windows = [
        tree3_d8, ladder_d10,
        build_window(GraphFamily.explicit(_CYCLE12), 0, 2),
        build_window(GraphFamily.explicit(_SPLIT), 0, 2),
    ]
    discarded = 0
    for w in windows:
        for s in range(4):
            seed = derive("ref", s)
            pm = processes.sample(spec, w, seed)
            counts, origins, dropped = reference_sample(spec, w, seed)
            assert pm.counts.tolist() == counts
            expect = np.repeat(np.arange(w.n), counts)
            np.testing.assert_array_equal(pm.point_vertex, expect)
            slots = [k for c in counts for k in range(1, c + 1)]
            assert pm.point_slot.tolist() == slots
            if origins is None:
                assert pm.origin_vertex is None
            else:
                assert pm.origin_vertex.tolist() == origins
            assert pm.discarded == dropped
            if w.family.kind == EXPLICIT:
                discarded += dropped
    if spec.max_displacement > 0:
        assert discarded > 0  # the empty-sphere branch was exercised


def test_zero_displacement_law_draws_nothing(tree3_d8, monkeypatch):
    # Every law whose only distance is 0 is the identity, whatever its
    # float weight; its sample and hole estimate hash nothing.
    def no_draw(*args):
        raise AssertionError("a zero-displacement law drew a hash")

    monkeypatch.setattr(processes, "hash_u64_many", no_draw)
    monkeypatch.setattr(processes, "unit_uniform_many", no_draw)
    for spec in (
        processes.ProcessSpec.degenerate(),
        processes.ProcessSpec.perturbed({0: 0.9999999999}),
    ):
        assert spec.is_degenerate
        pm = processes.sample(spec, tree3_d8, derive("zero"))
        assert pm.counts.tolist() == [1] * tree3_d8.n
        np.testing.assert_array_equal(pm.origin_vertex, np.arange(tree3_d8.n))
        est = processes.hole_probability(spec, tree3_d8, 1, 20, derive("zh"))
        assert est.value == 0.0 and est.analytic == 0.0


def test_displacement_respects_core_margin():
    w = build_window(GraphFamily.regular_tree(3), 4, 1)
    with pytest.raises(ConfigurationError):
        processes.sample(processes.ProcessSpec.perturbed({2: 1.0}), w, 1)


def test_point_listing_invariants(tree3_d8):
    pm = processes.sample(processes.ProcessSpec.poisson(), tree3_d8, derive("pts"))
    assert pm.total == int(pm.counts.sum())
    assert (np.diff(pm.point_vertex) >= 0).all()
    # The points at each vertex carry slots 1..counts[v].
    for v in range(tree3_d8.n):
        slots = pm.point_slot[pm.point_vertex == v].tolist()
        assert slots == list(range(1, int(pm.counts[v]) + 1))


def test_multiset_from_counts_validation():
    pm = processes.multiset_from_counts([0, 2, 1])
    assert pm.total == 3
    assert list(pm.point_vertex) == [1, 1, 2]
    with pytest.raises(ValueError):
        processes.multiset_from_counts([[1, 2]])
    with pytest.raises(ValueError):
        processes.multiset_from_counts([1, -1])


def test_count_in(tree3_d8):
    pm = processes.multiset_from_counts(
        np.bincount([0, 0, 5], minlength=tree3_d8.n)
    )
    assert processes.count_in(pm, [0]) == 2
    assert processes.count_in(pm, [0, 5]) == 3
    assert processes.count_in(pm, []) == 0


def test_hole_probability_poisson_matches_analytic(tree3_d8):
    est = processes.hole_probability(
        processes.ProcessSpec.poisson(), tree3_d8, 1, 40_000, derive("hole")
    )
    assert est.analytic == pytest.approx(math.exp(-4.0))
    assert abs(est.value - est.analytic) <= 3.5 * max(est.stderr, 1e-9)


def test_hole_probability_degenerate_is_zero(tree3_d8):
    est = processes.hole_probability(
        processes.ProcessSpec.degenerate(), tree3_d8, 2, 50, derive("hole0")
    )
    assert est.value == 0.0 and est.analytic == 0.0


def test_hole_probability_censoring_guard(tree3_d5):
    with pytest.raises(CensoringError):
        processes.hole_probability(
            processes.ProcessSpec.poisson(), tree3_d5, 3, 10, 1
        )


def test_hole_probability_on_explicit_window_ignores_depth():
    # On an 8-cycle every point moves one step; the root is a hole when
    # neither neighbour's point lands on it: probability 1/4.  Explicit
    # windows are the whole graph whatever depth they were built with.
    cycle = GraphFamily.explicit([[(i - 1) % 8, (i + 1) % 8] for i in range(8)])
    spec = processes.ProcessSpec.perturbed({1: 1.0})
    values = {
        processes.hole_probability(
            spec, build_window(cycle, depth, 0), 0, 4000, 3
        ).value
        for depth in (0, 1, 8)
    }
    assert len(values) == 1
    assert abs(values.pop() - 0.25) < 0.03


def test_dump_multiset_lines(tree3_d8):
    for spec in (
        processes.ProcessSpec.poisson(),
        processes.ProcessSpec.perturbed({0: 0.5, 1: 0.5}),
    ):
        pm = processes.sample(spec, tree3_d8, derive("dump"))
        lines = processes.dump_multiset(pm)
        counts = [tuple(map(int, line.split())) for line in lines[: tree3_d8.n]]
        assert counts == list(enumerate(pm.counts.tolist()))
        assert sum(c for _, c in counts) == pm.total
        if pm.origin_vertex is None:
            assert len(lines) == tree3_d8.n
            continue
        assert lines[tree3_d8.n] == processes.ORIGIN_HEADER
        pairs = np.array([line.split() for line in lines[tree3_d8.n + 1 :]], int)
        # One (origin, landing) pair per point, grouped by landing vertex.
        assert (np.diff(pairs[:, 1]) >= 0).all()
        np.testing.assert_array_equal(
            np.bincount(pairs[:, 1], minlength=tree3_d8.n), pm.counts
        )
        np.testing.assert_array_equal(pairs[:, 0], pm.origin_vertex)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_poisson_count_samples_are_counts(seed):
    xs = processes.poisson_count_samples(seed, 64, "t")
    assert xs.min() >= 0
    assert xs.max() < 40

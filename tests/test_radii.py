from fractions import Fraction

import numpy as np
import pytest

from ppmatch import processes, radii
from ppmatch.errors import ConfigurationError
from ppmatch.graphs import GraphFamily, build_window
from conftest import attach_tree_adjacency, derive


def v_set(window):
    return processes.multiset_from_counts(np.ones(window.n, dtype=np.int64))


def empty_set(window):
    return processes.multiset_from_counts(np.zeros(window.n, dtype=np.int64))


def test_bad_set_empty_for_vertex_set(tree3_d8):
    bad = radii.compute_bad_set(v_set(tree3_d8), tree3_d8, 4)
    # One point everywhere: every complete half-ball holds b_2 = 10
    # points, above 0.9 * 10.
    assert bad.count == 0
    assert bad.censored.sum() > 0  # the depth > 6 shell
    assert (bad.censored == (tree3_d8.depth_from_root + 2 > 8)).all()


def test_bad_set_flags_empty_process(tree3_d8):
    bad = radii.compute_bad_set(empty_set(tree3_d8), tree3_d8, 4)
    member = ~bad.censored
    assert (bad.member == member).all()


def test_bad_set_threshold_is_exact_rational(tree3_d8):
    # 9 points in a 10-vertex half-ball sits exactly on the 0.9 boundary
    # and must count as bad (the rule is <=).
    counts = np.ones(tree3_d8.n, dtype=np.int64)
    ball, _ = tree3_d8.ball(0, 2)
    counts[int(ball[0])] = 0
    pm = processes.multiset_from_counts(counts)
    bad = radii.compute_bad_set(pm, tree3_d8, 4)
    assert bool(bad.member[0])
    assert bad.threshold == Fraction(9, 10)


def test_bad_set_guards():
    w = build_window(GraphFamily.regular_tree(3), 4, 2)
    with pytest.raises(ConfigurationError):
        radii.compute_bad_set(v_set(w), w, 3)
    with pytest.raises(ConfigurationError):
        radii.compute_bad_set(v_set(w), w, 0)


def test_degenerate_field_is_r0_on_interior(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4, side="left")
    # Undecidability spreads half a radius inward from the bad-set
    # censoring shell (depth > 6), so the decided interior is depth <= 4,
    # which with margin 4 is exactly the core.
    interior = tree3_d8.depth_from_root <= 4
    assert (fld.values[interior] == 4).all()
    assert (fld.clause[interior] == 1).all()
    assert (fld.censored == ~interior).all()
    assert fld.n_censored == int((~interior).sum())


def test_field_arrays_are_write_locked(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4, side="left")
    with pytest.raises(ValueError):
        fld.values[0] = 99


def test_clause2_triggers_on_crowded_vertex(tree3_d8):
    # A pile of points at the root (own support = just the root) fails
    # clause 1 there; clause 2 resolves at the least r with b_r >= 5r.
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 5
    own = processes.multiset_from_counts(counts)
    fld = radii.compute_radius_field(own, v_set(tree3_d8), tree3_d8, 4, side="left")
    assert not fld.censored[0]
    assert fld.clause[0] == 2
    assert fld.values[0] == 5  # b_5 = 94 >= 25


def test_constraint_holds_vacuous_and_violated():
    fam = parse = GraphFamily.explicit(
        [[1], [0, 2], [1, 3], [2, 4], [3]]
    )
    w = build_window(fam, 0, 0)
    own = processes.multiset_from_counts([0, 0, 3, 0, 0])
    other = empty_set(w)
    res = radii.constraint_holds(own, other, w, 2, 1, mode=radii.EXACT, size_cap=5)
    assert res.status == radii.VIOLATED
    assert 2 in res.witness
    res_s = radii.constraint_holds(own, other, w, 2, 1, mode=radii.SUPPORT)
    assert res_s.status == radii.VIOLATED
    assert res_s.witness == frozenset({2})
    # No own points anywhere: every set is vacuous.
    res2 = radii.constraint_holds(empty_set(w), other, w, 2, 1, mode=radii.EXACT, size_cap=5)
    assert res2.status == radii.HOLDS
    with pytest.raises(ConfigurationError):
        radii.constraint_holds(own, other, w, 2, 0)


def test_support_mode_checks_single_component():
    fam = GraphFamily.explicit(
        [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7]]
    )
    w = build_window(fam, 0, 0)
    own = processes.multiset_from_counts([1, 0, 0, 0, 0, 0, 0, 0, 1])
    other = v_set(w)
    q = radii.ConnectedSetQuery(0, 4, 9)
    sets, truncated = radii.enumerate_rconnected(own, w, q, mode=radii.SUPPORT)
    assert not truncated
    assert len(sets) == 1
    # gap 4 < dist(0, 8) = 8: the far point is not in 0's component
    assert sets[0] == frozenset({0})


def test_exact_mode_enumerates_all_gap_connected_sets():
    fam = GraphFamily.explicit([[1], [0, 2], [1, 3], [2]])
    w = build_window(fam, 0, 0)
    q = radii.ConnectedSetQuery(1, 1, 4)
    sets, truncated = radii.enumerate_rconnected(None, w, q, mode=radii.EXACT)
    assert not truncated
    # Intervals of the 4-path through vertex 1
    assert len(sets) == 6


def test_support_never_exceeds_exact_small_instances():
    # The support component is one of the sets exact mode checks, so
    # exact holding at r implies support holding at r.
    for s in range(6):
        fam = GraphFamily.explicit(attach_tree_adjacency(11, derive("mode", s)))
        w = build_window(fam, 0, 0)
        own = processes.sample(processes.ProcessSpec.poisson(), w, derive("own", s))
        other = processes.sample(processes.ProcessSpec.poisson(), w, derive("oth", s))
        f_sup = radii.compute_radius_field(
            own, other, w, 2, mode=radii.SUPPORT, size_cap=None, side="left"
        )
        f_ex = radii.compute_radius_field(
            own, other, w, 2, mode=radii.EXACT, size_cap=None, side="left"
        )
        for v in range(w.n):
            if not f_ex.censored[v]:
                assert not f_sup.censored[v]
                assert f_sup.values[v] <= f_ex.values[v]


def test_radius_cap_censors_unresolved(tree3_d8):
    # Own side crowded at the root, other side empty: clause 2 can never
    # hold, so the root must come out censored rather than silently r0.
    counts = np.zeros(tree3_d8.n, dtype=np.int64)
    counts[0] = 6
    own = processes.multiset_from_counts(counts)
    fld = radii.compute_radius_field(
        own, empty_set(tree3_d8), tree3_d8, 4, radius_cap=6, side="left"
    )
    assert fld.censored[0]
    assert fld.values[0] == radii.CENSORED


def test_radius_cap_guard(tree3_d8):
    with pytest.raises(ConfigurationError):
        radii.compute_radius_field(
            v_set(tree3_d8), v_set(tree3_d8), tree3_d8, 4,
            radius_cap=4, side="left",
        )


def test_components_above_empty_and_degenerate(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4, side="left")
    comps = radii.components_above(fld, tree3_d8, 4)
    # Only the censored boundary shell is above r0; it is 16-connected.
    assert len(comps) == 1
    assert comps[0].n_censored == comps[0].size
    high = radii.components_above(fld, tree3_d8, 10)
    assert all(c.n_censored == c.size for c in high)


def test_components_above_separates_distant_pockets():
    fam = GraphFamily.explicit(
        [[j for j in (i - 1, i + 1) if 0 <= j < 30] for i in range(30)]
    )
    w = build_window(fam, 0, 0)
    values = np.full(30, 2, dtype=np.int32)
    values[0] = 9
    values[29] = 9
    fld = radii.RadiusField(
        values, np.zeros(30, bool), np.full(30, 2, np.int8),
        "left", radii.SUPPORT, 2, 10, None,
        radii.compute_bad_set(v_set(w), w, 2),
    )
    comps = radii.components_above(fld, w, 2)
    # gap 8 < 29: the two pockets stay separate components.
    assert [c.vertices for c in comps] == [(0,), (29,)]
    assert all(c.diameter == 0 for c in comps)


def test_dump_radius_field_format(tree3_d8):
    own = v_set(tree3_d8)
    fld = radii.compute_radius_field(own, own, tree3_d8, 4, side="left")
    lines = radii.dump_radius_field(fld)
    assert len(lines) == tree3_d8.n
    assert lines[0] == "0 4 support clause1"
    assert any(line.endswith("censored") for line in lines)

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmatch.errors import ConfigurationError, ResourceError
from ppmatch.graphs import (
    GraphFamily,
    ball_size_infinite,
    build_window,
    parse_adjacency_text,
    spectral_radius,
    sphere_size_infinite,
)
from ppmatch.seeds import part_key
from conftest import ladder_distance, tree_distance, window_oracle

EXPLICIT12 = Path(__file__).resolve().parent / "golden" / "explicit12.adj"


def test_tree_ball_sizes_closed_form():
    fam = GraphFamily.regular_tree(3)
    # b_r = 1 + d((d-1)^r - 1)/(d-2)
    assert [ball_size_infinite(fam, r) for r in range(5)] == [1, 4, 10, 22, 46]
    fam4 = GraphFamily.regular_tree(4)
    assert [ball_size_infinite(fam4, r) for r in range(4)] == [1, 5, 17, 53]
    assert sphere_size_infinite(fam, 3) == 12


def test_tree_window_vertex_count_and_core(tree3_d8):
    w = tree3_d8
    assert w.n == ball_size_infinite(GraphFamily.regular_tree(3), 8) == 766
    core = w.core
    assert len(core) == 46  # depth-4 ball
    assert (w.depth_from_root[core] <= 4).all()
    assert w.ball_complete(0, w.core_margin)
    assert not w.ball_complete(
        int(np.nonzero(w.depth_from_root == 5)[0][0]), w.core_margin
    )


def test_tree_degrees(tree3_d8):
    w = tree3_d8
    degs = np.diff(w._adj.indptr)
    inner = w.depth_from_root < w.depth
    assert (degs[inner] == 3).all()
    assert (degs[~inner] == 1).all()


def test_ball_completeness_and_distance(tree3_d8):
    w = tree3_d8
    assert w.ball_complete(0, 8)
    assert not w.ball_complete(0, 9)
    leaf = int(np.nonzero(w.depth_from_root == 8)[0][0])
    assert not w.ball_complete(leaf, 1)
    idx, complete = w.ball(0, 2)
    assert len(idx) == 10 and complete
    assert w.distance(0, leaf) == 8


def test_tree_distance_label_arithmetic():
    assert tree_distance((), ()) == 0
    assert tree_distance((0,), (1,)) == 2
    assert tree_distance((0, 1), (0,)) == 1
    assert tree_distance((0, 1, 0), (1,)) == 4


def test_window_distances_agree_with_label_metric():
    w = build_window(GraphFamily.regular_tree(3), 5, 0)
    dm = w.distance_matrix()
    for i in range(0, w.n, 7):
        for j in range(0, w.n, 11):
            assert dm[i, j] == tree_distance(w.labels[i], w.labels[j])


def test_ladder_window_and_flip_symmetry(ladder_d10):
    w = ladder_d10
    # (n, z) and (n, 1-z) are at the same distance from any (m, y) pair
    # up to the flip, so the window must contain both or neither.
    for n, z in w.labels:
        assert (n, 1 - z) in w.label_to_index
    a = w.label_to_index[(3, 0)]
    b = w.label_to_index[(3, 1)]
    np.testing.assert_array_equal(
        np.sort(w.dist_row(a)), np.sort(w.dist_row(b))
    )


def test_ladder_distance_formula(ladder_d10):
    w = ladder_d10
    assert ladder_distance((0, 0), (4, 0)) == 4
    assert ladder_distance((0, 0), (0, 1)) == 1
    assert ladder_distance((0, 0), (4, 1)) == 4
    assert ladder_distance((0, 0), (1, 1)) == 1
    for lab in [(2, 1), (-5, 0), (7, 1)]:
        v = w.label_to_index[lab]
        assert w.distance(0, v) == ladder_distance((0, 0), lab)


def test_ladder_ball_sizes():
    fam = GraphFamily.ladder_diagonal()
    # B_r = levels -r..r on both rails: 2(2r+1) vertices for r >= 1
    assert ball_size_infinite(fam, 0) == 1
    assert ball_size_infinite(fam, 1) == 6
    assert ball_size_infinite(fam, 2) == 10
    assert ball_size_infinite(fam, 3) == 14


def test_explicit_family_validation():
    fam = GraphFamily.explicit([[1], [0, 2], [1]])
    assert fam.kind == "explicit"
    with pytest.raises(ConfigurationError):
        GraphFamily.explicit([[1], []])  # asymmetric
    with pytest.raises(ConfigurationError):
        GraphFamily.explicit([[0]])  # self loop
    with pytest.raises(ConfigurationError):
        GraphFamily.explicit([[5], [0]])  # out of range
    with pytest.raises(ConfigurationError):
        parse_adjacency_text("0: 1\n1: 0 x")  # not a vertex id


def test_parse_adjacency_text_roundtrip():
    text = """
    # a 4-cycle
    0: 1 3
    1: 0 2
    2: 1 3
    3: 2 0
    """
    fam = parse_adjacency_text(text)
    assert fam.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))
    w = build_window(fam, 0, 0)
    assert w.n == 4
    assert w.distance(0, 2) == 2
    assert w.ball_complete(2, 99)
    assert w.ball_complete(3, w.core_margin)


def test_explicit_window_is_complete_world():
    fam = parse_adjacency_text("0: 1\n1: 0 2\n2: 1")
    w = build_window(fam, 0, 0)
    assert list(w.core) == [0, 1, 2]


def test_build_window_guards():
    fam = GraphFamily.regular_tree(3)
    with pytest.raises(ConfigurationError):
        build_window(fam, 4, 5)
    with pytest.raises(ConfigurationError):
        build_window(fam, -1, 0)
    with pytest.raises(ResourceError):
        build_window(fam, 30, 0)
    with pytest.raises(ConfigurationError):
        GraphFamily.regular_tree(2)


def test_spectral_radius_closed_forms():
    t3 = spectral_radius(GraphFamily.regular_tree(3))
    assert t3 == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-15)
    t4 = spectral_radius(GraphFamily.regular_tree(4))
    assert t4 == pytest.approx(2.0 * math.sqrt(3.0) / 4.0, abs=1e-15)
    with pytest.raises(ConfigurationError):
        spectral_radius(GraphFamily.ladder_diagonal())


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(0, 4))
def test_window_size_matches_formula(degree, depth):
    fam = GraphFamily.regular_tree(degree)
    w = build_window(fam, depth, 0)
    assert w.n == ball_size_infinite(fam, depth)
    assert int((w.depth_from_root == depth).sum()) == sphere_size_infinite(
        fam, depth
    )


WINDOW_CASES = (
    [pytest.param(GraphFamily.regular_tree(d), depth, id=f"tree{d}-{depth}")
     for d in (3, 4, 5) for depth in range(7)]
    + [pytest.param(GraphFamily.ladder_diagonal(), depth, id=f"ladder-{depth}")
       for depth in range(6)]
    + [pytest.param(parse_adjacency_text(EXPLICIT12.read_text()), 0,
                    id="explicit12")]
)


@pytest.mark.parametrize("family, depth", WINDOW_CASES)
def test_build_window_matches_list_oracle(family, depth):
    w = build_window(family, depth)
    labels, adj, depth_from_root = window_oracle(family, depth)
    assert w.labels == tuple(labels)
    assert w.label_keys == tuple(part_key(lab) for lab in w.labels)
    indptr = np.cumsum([0] + [len(ns) for ns in adj])
    assert w._adj.indptr.tolist() == indptr.tolist()
    assert w._adj.indices.tolist() == [v for ns in adj for v in ns]
    assert w.depth_from_root.tolist() == depth_from_root
    assert w.label_to_index == {lab: i for i, lab in enumerate(labels)}

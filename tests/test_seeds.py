import numpy as np
import pytest
from hypothesis import given, strategies as st

from ppmatch import seeds
from ppmatch.errors import ConfigurationError


def test_hash_is_stable():
    # Frozen values: these must never change across releases, or every
    # seeded artifact changes under users' feet.
    assert seeds.hash_u64(1) == 2210062140993465007
    assert seeds.hash_u64(20260825, "count", (0, 1, 1)) == 7109367318237915828
    assert seeds.derive_seed(7, "left") == 681552877224816610
    assert seeds.derive_seed(7, "trial", 3) == 15536918471506376601
    assert seeds.unit_uniform(11, "disp", (4, 1)) == float.fromhex(
        "0x1.6c04939b5c282p-2"
    )
    assert [x.hex() for x in seeds.uniform_stream(5, 4, "demo")] == [
        "0x1.8855d02c28748p-1", "0x1.024534469881ap-2",
        "0x1.464d8a09a3058p-6", "0x1.a5fba3fd59cfcp-4",
    ]
    assert seeds.derive_seed(7, "left") != seeds.derive_seed(7, "right")
    assert seeds.derive_seed(7, "a", 1) != seeds.derive_seed(7, "a", 2)


def test_numpy_integer_parts_key_like_python_ints():
    assert seeds.derive_seed(7, "trial", np.int64(3)) == seeds.derive_seed(
        7, "trial", 3
    )
    assert seeds.hash_u64(5, (np.int32(0), np.int64(2))) == seeds.hash_u64(
        5, (0, 2)
    )
    np.testing.assert_array_equal(
        seeds.uniform_stream(5, 9, "p", np.uint8(4)),
        seeds.uniform_stream(5, 9, "p", 4),
    )


@pytest.mark.parametrize("part", [1.5, True, np.bool_(False), None, b"x", [1]])
def test_unsupported_seed_parts_are_rejected(part):
    with pytest.raises(ConfigurationError):
        seeds.derive_seed(7, "trial", part)


def test_unit_uniform_range():
    vals = [seeds.unit_uniform(s, "x") for s in range(200)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert np.std(vals) > 0.2


def test_uniform_stream_matches_scalar_derivation():
    s = seeds.uniform_stream(5, 16, "demo")
    assert s.shape == (16,)
    assert ((0 <= s) & (s < 1)).all()
    again = seeds.uniform_stream(5, 16, "demo")
    np.testing.assert_array_equal(s, again)


@given(st.integers(0, 2**63 - 1), st.text(max_size=8), st.integers(0, 100))
def test_derive_seed_in_u64_range(seed, label, k):
    d = seeds.derive_seed(seed, label, k)
    assert 0 <= d < 2**64


@given(st.integers(0, 2**31), st.integers(1, 64))
def test_stream_prefix_consistency(seed, n):
    long = seeds.uniform_stream(seed, 64, "p")
    short = seeds.uniform_stream(seed, n, "p")
    np.testing.assert_array_equal(long[:n], short)


_labels = st.one_of(
    st.lists(st.integers(0, 4), max_size=12).map(tuple),  # tree paths
    st.integers(-10**6, 10**6),  # explicit ids
    st.tuples(st.integers(-50, 50), st.integers(0, 1)),  # ladder pairs
    st.integers(0, 2**31 - 1).map(np.int64),
    st.tuples(st.integers(0, 3).map(np.int32), st.integers(0, 3)),
)


@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(["count", "disp", "land"]),
    st.lists(_labels, max_size=20),
)
def test_batched_hashes_match_scalar(seed, tag, labels):
    keys = [seeds.part_key(lab) for lab in labels]
    got = seeds.hash_u64_many(seed, tag, keys)
    assert got.dtype == np.uint64 and got.shape == (len(labels),)
    assert got.tolist() == [seeds.hash_u64(seed, tag, lab) for lab in labels]
    uni = seeds.unit_uniform_many(seed, tag, keys)
    assert uni.tolist() == [seeds.unit_uniform(seed, tag, lab) for lab in labels]


def test_batched_hashes_of_no_keys_are_empty():
    got = seeds.hash_u64_many(3, "count", [])
    assert got.dtype == np.uint64 and got.shape == (0,)

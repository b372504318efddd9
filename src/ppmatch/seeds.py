"""Stable keyed hashing for reproducible randomness.

Every random quantity in the package is a deterministic function of a
64-bit master seed and a tuple of context parts (stream tag, canonical
vertex label, trial index, ...).  This makes sampled configurations
independent of window size for shared vertices and byte-reproducible
across runs and worker pools.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ConfigurationError

MASK64 = (1 << 64) - 1
_INV_U64 = 1.0 / float(1 << 64)


def _hasher(seed: int, digest_size: int) -> "hashlib._Hash":
    key = (seed & MASK64).to_bytes(8, "little")
    return hashlib.blake2b(key=key, digest_size=digest_size)


def _canonical(part):
    """`part` with NumPy integers turned into Python ints, so that
    ``np.int64(3)`` keys the same stream as ``3``.  Parts are strings,
    integers and tuples of them; anything else is rejected."""
    kind = type(part)
    if kind is str or kind is int:
        return part
    if kind is tuple:  # vertex labels, the hot path, hold plain ints
        plain = set(map(type, part)) <= {int, str}
        return part if plain else tuple(map(_canonical, part))
    if isinstance(part, np.integer):
        return int(part)
    raise ConfigurationError(
        f"seed parts must be str, int or tuples of them, got {kind.__name__}"
    )


def part_key(part) -> bytes:
    """The bytes one context part feeds into a hash: ``repr`` of the
    canonical part, then the separator 0x1f."""
    return repr(_canonical(part)).encode("utf-8") + b"\x1f"


def _feed(h, parts) -> None:
    for part in parts:
        h.update(part_key(part))


def hash_u64(seed: int, *parts) -> int:
    """A 64-bit hash of (seed, parts), stable across runs and platforms."""
    h = _hasher(seed, 8)
    _feed(h, parts)
    return int.from_bytes(h.digest(), "little")


def hash_u64_many(seed: int, tag, keys) -> np.ndarray:
    """``hash_u64(seed, tag, part)`` for each part, as a uint64 array;
    `keys` holds the parts already encoded by `part_key`.

    The hasher keyed by the seed and fed the tag is built once and
    copied per key: blake2b keeps its state after a key and a prefix
    (RFC 7693), so each copy finishes the same hash a fresh one would.
    """
    prefix = _hasher(seed, 8)
    _feed(prefix, (tag,))
    copy = prefix.copy
    buf = bytearray()
    for key in keys:
        h = copy()
        h.update(key)
        buf += h.digest()
    return np.frombuffer(buf, dtype="<u8")


def unit_uniform_many(seed: int, tag, keys) -> np.ndarray:
    """``unit_uniform(seed, tag, part)`` for each encoded part in `keys`."""
    return hash_u64_many(seed, tag, keys) * _INV_U64


def derive_seed(seed: int, *parts) -> int:
    """Derive a child seed, e.g. per trial or per worker task."""
    return hash_u64(seed, "derive", *parts)


def unit_uniform(seed: int, *parts) -> float:
    """One uniform in [0, 1) keyed by (seed, parts)."""
    return hash_u64(seed, *parts) * _INV_U64


def uniform_stream(seed: int, count: int, *parts) -> np.ndarray:
    """`count` uniforms in [0, 1) keyed by (seed, parts), block-generated.

    Element i of the stream depends only on (seed, parts, i), so a prefix
    of a longer stream equals the shorter stream.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    blocks = math.ceil(count / 8)
    buf = bytearray()
    for b in range(blocks):
        h = _hasher(seed, 64)
        _feed(h, parts)
        h.update(b"#%d" % b)
        buf += h.digest()
    arr = np.frombuffer(bytes(buf), dtype="<u8")[:count]
    return arr * _INV_U64

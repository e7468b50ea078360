"""Deterministic substreams from a counter-based generator.

Every random quantity in the library is drawn from a Philox (counter-based,
splittable) stream keyed by a user seed plus a label path, so stream n is
independent of how many streams were requested and any prefix of an
experiment is reproducible bit-exactly.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


def _component_bytes(component) -> bytes:
    if isinstance(component, (bool, float)):
        raise TypeError(f"stream path components must be int or str, got {component!r}")
    if isinstance(component, (int, np.integer)):
        return b"i" + int(component).to_bytes(16, "little", signed=True)
    if isinstance(component, str):
        return b"s" + component.encode("utf-8") + b"\x00"
    raise TypeError(f"stream path components must be int or str, got {component!r}")


def stream_key(*path) -> int:
    """Stable 64-bit key for a label path (blake2b, platform independent)."""
    h = hashlib.blake2b(digest_size=8)
    for component in path:
        h.update(_component_bytes(component))
    return int.from_bytes(h.digest(), "little")


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path).

    The Philox key is (seed, hash(path)); identical inputs give identical
    streams on every platform and regardless of what other streams exist.
    """
    key = np.array([int(seed) & _MASK64, stream_key(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=None, typed=True)   # typed: True must not hit the entry for 1 and skip its TypeError
def _indexed_key(label, n: int) -> int:
    return stream_key(label, n)


def first_doubles(seed: int, label, count: int) -> list:
    """[substream(seed, label, n).random() for n in range(count)], from one Philox.

    One bit generator is re-keyed to (seed, stream_key(label, n)) for each
    n with its counter and buffer reset, which is the state a fresh
    Philox(key=...) starts from, so each double has the bits of its
    substream's first draw.  Building a Philox costs far more than one
    draw; the keys are kept per (label, n).
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = []
    for n in range(count):
        key[1] = _indexed_key(label, n)
        bitgen.state = state
        out.append(gen.random())
    return out

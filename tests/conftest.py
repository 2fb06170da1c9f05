"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import sys

from qqwalk import Coin, Quaternion
from qqwalk.coin import _flat, _split, _zeros

SQRT_HALF = 1.0 / math.sqrt(2.0)


def q(w=0.0, x=0.0, y=0.0, z=0.0) -> Quaternion:
    return Quaternion(w, x, y, z)


def unchecked_coin(matrix) -> Coin:
    """A coin over any ``QMatrix2``, unitary or not, stored as ``Coin`` stores it."""
    coin = object.__new__(Coin)
    coin.matrix, coin.flat = matrix, _flat(matrix)
    coin.flat_basis, coin.flat_zeros = _split(coin.flat), _zeros(coin.flat)
    return coin


def assert_qclose(actual: Quaternion, expected: Quaternion, tol: float = 1e-12):
    dev = actual.max_dev(expected)
    assert dev <= tol, f"{actual} != {expected} (dev {dev:.3e} > {tol:.1e})"


def assert_mclose(actual, expected, tol: float = 1e-12):
    dev = actual.max_dev(expected)
    assert dev <= tol, f"{actual} != {expected} (dev {dev:.3e} > {tol:.1e})"


def assert_dist_close(actual: dict, expected: dict, tol: float = 1e-12):
    for x in sorted(set(actual) | set(expected)):
        a, e = actual.get(x, 0.0), expected.get(x, 0.0)
        assert abs(a - e) <= tol, f"site {x}: {a} != {e} (tol {tol:.1e})"


def max_dist_dev(one: dict, other: dict) -> float:
    sites = set(one) | set(other)
    return max(abs(one.get(x, 0.0) - other.get(x, 0.0)) for x in sites)


#: Steps and bound of the memory probes, which sample
#: ``sys.getallocatedblocks()`` while the laws are taken.  A law has O(n)
#: sites, so a held series costs O(n^2) live blocks: at 200 steps it shows
#: 30000 to 51000 more blocks than before the walk, against 2400 to 4400
#: for one law at a time.
TRACED_STEPS = 200
HELD_BLOCKS = 10_000


def blocks_kept(call, calls: int = 500) -> int:
    """Blocks that ``calls`` calls of ``call`` leave allocated, after one warm-up call.

    A tuple built from an iterator is sized by resizing, so it is not
    taken from CPython's free list of its final size, yet freeing it joins
    that list: each call keeps one more block until the list holds 2000.
    The free lists of sizes 1 to 19 are emptied first, and kept empty by
    holding their tuples, so that lists filled by earlier code cannot hide
    the growth.
    """
    call()
    held = [tuple([size] * size) for size in range(1, 20) for _ in range(2000)]
    before = sys.getallocatedblocks()
    for _ in range(calls):
        call()
    kept = sys.getallocatedblocks() - before
    del held
    return kept

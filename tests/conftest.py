"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import tracemalloc

from qqwalk import Quaternion

SQRT_HALF = 1.0 / math.sqrt(2.0)


def q(w=0.0, x=0.0, y=0.0, z=0.0) -> Quaternion:
    return Quaternion(w, x, y, z)


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


#: Steps and bound of the traced memory tests.  A law has O(n) sites, so a
#: held series costs O(n^2): 1.65 MB at 200 steps, against 0.13 MB for one
#: law at a time.  tracemalloc slows the walk about 70-fold (4.6 s at 200
#: steps on a 2-vCPU host), and 400 steps would take four times as long.
TRACED_STEPS = 200
TRACED_PEAK_MB = 1.0


def traced_peak_mb(run) -> float:
    """Peak memory that ``run()`` allocates, in MB, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()

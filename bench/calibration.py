"""A fixed pure-Python kernel that measures how fast the host runs right now.

Run before the first timed op, after every timed op and in every set-up
interpreter.  ``run.py`` scales each measured time by ``REFERENCE_NS`` over
the kernel's time measured next to it, which reports it in reference-host
seconds.

Why: on a shared host, other tenants' load comes and goes for minutes at a
time and slowed every op of every workload by up to 2x while it lasted,
continuously, so that neither medians nor best times over a run held
still.  The kernel slows down with them, because it is the same kind of
code as the package: function calls, float arithmetic on small tuples,
tuple allocation and number formatting.  It uses the standard library
only, so a change to the package cannot change it.
"""

from __future__ import annotations

import gc
import math
import time

#: About the kernel's fastest time on the reference host, a 2-vCPU KVM guest
#: on an Intel Xeon (family 6, model 207) with CPython 3.11.7.  Its median
#: there ranged from about 4.5 ms when the host was quiet to 8 ms.
REFERENCE_NS = 4_400_000

ROUNDS = 60

_FACTORS = tuple((1.0 - k / 97, 0.25 * (k % 5), -0.125 * (k % 3), 0.5 + k / 211)
                 for k in range(48))


def _qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _kernel() -> list[str]:
    rows = []
    acc = (1.0, 0.0, 0.0, 0.0)
    for _ in range(ROUNDS):
        for factor in _FACTORS:
            acc = _qmul(acc, factor)
            norm = math.sqrt(sum(v * v for v in acc))
            acc = tuple(v / norm for v in acc)
        rows.append(",".join(f"{v:.17g}" for v in acc))
    return rows


def kernel_ns() -> int:
    """Wall time of one run of the kernel, in ns.

    The collector is paused while it runs: a full collection would scan
    the package's heap, and the kernel must not time the package.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()

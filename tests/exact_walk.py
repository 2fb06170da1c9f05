"""An exact walk for the tests: integer quaternions, and laws as ``Fraction``.

Take a coin ``M/sqrt(K)``, with an integer quaternion matrix ``M`` whose
rows satisfy ``M M* = K I``, and a spinor ``v/sqrt(S)``, with integer
quaternions ``v``.  One step sends ``psiL'(x) = a psiL(x+1) + b psiR(x+1)``
and ``psiR'(x) = c psiL(x-1) + d psiR(x-1)``, coin entries multiplying
from the left.  So at time t every amplitude is an integer quaternion over
``sqrt(S K^t)``, and the walk keeps those integers: nothing is rounded.
The law at time t is an integer over ``S K^t``, kept as a ``Fraction``.

Quaternions are 4-tuples ``(w, x, y, z)`` of ints.  Only the standard
library is used and nothing of the package is imported, so agreement with
it is evidence rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (0, 0, 0, 0)


def mul(p, q) -> tuple:
    """The Hamilton product ``p q``."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def add(p, q) -> tuple:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def row(p, left, q, right) -> tuple:
    """``p left + q right``, a coin row on a pair: ``add(mul(p, left), mul(q, right))``."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    lw, lx, ly, lz = left
    rw, rx, ry, rz = right
    return (pw * lw - px * lx - py * ly - pz * lz + qw * rw - qx * rx - qy * ry - qz * rz,
            pw * lx + px * lw + py * lz - pz * ly + qw * rx + qx * rw + qy * rz - qz * ry,
            pw * ly - px * lz + py * lw + pz * lx + qw * ry - qx * rz + qy * rw + qz * rx,
            pw * lz + px * ly - py * lx + pz * lw + qw * rz + qx * ry - qy * rx + qz * rw)


def conj(p) -> tuple:
    return (p[0], -p[1], -p[2], -p[3])


def norm_sq(p) -> int:
    return p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3]


def coin_scale(entries) -> int:
    """K of an integer coin ``(a, b, c, d)`` with ``M M* = K I``; ValueError if there is none."""
    a, b, c, d = entries
    k = norm_sq(a) + norm_sq(b)
    if not k or norm_sq(c) + norm_sq(d) != k or add(mul(a, conj(c)), mul(b, conj(d))) != ZERO:
        raise ValueError(f"M M* is not a positive multiple of I for {entries!r}")
    return k


def walk(entries, spinor, steps: int):
    """Yield the integer pairs at sites ``-t, -t + 2, ..., t`` for t = 0..steps.

    The amplitudes at time t are these pairs over ``sqrt(S K^t)``, with
    ``K = coin_scale(entries)`` and ``S`` the spinor's squared norm.
    """
    a, b, c, d = entries
    coin_scale(entries)
    sites = [tuple(spinor)]
    for t in range(steps + 1):
        yield sites
        if t < steps:
            # new site j takes its upper half from old site j, its lower one from old site j - 1
            upper = [row(a, left, b, right) for left, right in sites] + [ZERO]
            lower = [ZERO] + [row(c, left, d, right) for left, right in sites]
            sites = list(zip(upper, lower))


def laws(entries, spinor, steps: int):
    """Yield P(X_t = x) for t = 0..steps as ``{x: Fraction}``, zero sites omitted."""
    s, k = norm_sq(spinor[0]) + norm_sq(spinor[1]), coin_scale(entries)
    if not s:
        raise ValueError("the spinor is zero")
    for t, sites in enumerate(walk(entries, spinor, steps)):
        den = s * k ** t
        law = {}
        for x, (left, right) in zip(range(-t, t + 1, 2), sites):
            weight = norm_sq(left) + norm_sq(right)
            if weight:
                law[x] = Fraction(weight, den)
        yield law

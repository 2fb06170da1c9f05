"""The walk and the path sum against an exact integer walk.

``exact_walk`` steps a coin ``M/sqrt(K)``, with an integer quaternion
matrix ``M``, in integers and imports nothing from the package, so its
laws are exact ``Fraction``s at every t.  The float side is bounded by
a multiple of the step count times eps = 2^-52, with each c set from
measurements taken before these tests were written (Python 3.11.7):

- Laws, ``c (t + 1) eps`` at every t.  Over the four presets at t <= 200
  and twelve drawn rational coins of each kind at t <= 100, from four
  integer spinors, the largest gap over (t + 1) eps was 1.0.  It was
  reached at t <= 1, where the rounding of a spinor v/sqrt(S) with
  S = 18 is most of the gap.  At t = 200 the presets' gaps were at
  most 3.1e-15, 0.07 (t + 1) eps.  ``LAW_C`` is 2.
- ``path_sums``, ``c n eps`` on every entry.  The largest error over
  n eps was 0.19 at n = 20 and 0.11 at n = 200 on hadamard and
  example-ijk (4.9e-15 at n = 200), and at most 0.04 on twelve drawn
  rational coins at n = 100.  ``PATH_C`` is 0.25.

A gap is taken against the exact value rounded to the nearest float.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from fractions import Fraction
from random import Random

import pytest

from qqwalk import Coin, QMatrix2, Quaternion, distribution, distributions, path_sums, preset_coin
from qqwalk.coin import PRESET_NAMES

import exact_walk
from conftest import assert_dist_close

EPS = sys.float_info.epsilon
LAW_C = 2.0
PATH_C = 0.25

#: The presets as integer matrices M with M M* = K I; each is M/sqrt(K).
PRESETS = {
    "hadamard": ((1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0)),
    "example-ijk": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "flip": ((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
    "flip-neg": ((0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)),
}

UP = ((1, 0, 0, 0), (0, 0, 0, 0))
DOWN = ((0, 0, 0, 0), (1, 0, 0, 0))
#: ((1 + i + j + k) 3/10, 4k/5): every component of the left amplitude is nonzero
QUATERNION_SPINOR = ((3, 3, 3, 3), (0, 0, 0, 8))

# the Pythagorean rotation [[3, 4], [4, -3]]/5
_ROTATION = ((3, 0, 0, 0), (4, 0, 0, 0), (4, 0, 0, 0), (-3, 0, 0, 0))
# the denominators of g and h in diag(g1, g2) R diag(h1, h2), by kind of coin
_ROOTS = {"real": (1, 1), "complex": (5, 5), "quaternion": (3, 5)}


def _float_spinor(spinor):
    root = math.sqrt(exact_walk.norm_sq(spinor[0]) + exact_walk.norm_sq(spinor[1]))
    return tuple([Quaternion(*[c / root for c in amp]) for amp in spinor])


def _float_coin(entries) -> Coin:
    root = math.sqrt(exact_walk.coin_scale(entries))
    return Coin(QMatrix2(*[Quaternion(*[c / root for c in e]) for e in entries]))


def _units(root: int, kind: str) -> list:
    """Integer quaternions of norm root^2: real ones, ones in span(1, i), or any."""
    span = range(-root, root + 1)
    return [(w, x, y, z) for w in span for x in span for y in span for z in span
            if w * w + x * x + y * y + z * z == root * root
            and (kind == "quaternion" or not (y or z) and (kind == "complex" or not x))]


def _rational_coin(rng: Random, kind: str) -> tuple:
    """diag(g1, g2) R diag(h1, h2) as integer entries, g and h drawn rational units.

    ``real`` draws signs, ``complex`` draws g and h over 5 in span(1, i),
    and ``quaternion`` draws g over 3 and h over 5, such as (1+2j+2k)/3 and
    (3+4i)/5.  So K is 25, 15625 and 5625.
    """
    g_root, h_root = _ROOTS[kind]
    g1, g2 = rng.choice(_units(g_root, kind)), rng.choice(_units(g_root, kind))
    h1, h2 = rng.choice(_units(h_root, kind)), rng.choice(_units(h_root, kind))
    a, b, c, d = _ROTATION
    mul = exact_walk.mul
    return (mul(mul(g1, a), h1), mul(mul(g1, b), h2), mul(mul(g2, c), h1), mul(mul(g2, d), h2))


def _integer_spinor(rng: Random) -> tuple:
    while True:
        comps = [rng.randint(-3, 3) for _ in range(8)]
        if any(comps):
            return tuple(comps[:4]), tuple(comps[4:])


def _assert_laws_within_bound(coin: Coin, entries, spinor, steps: int) -> None:
    """Every exact law sums to 1, and every float law is within LAW_C (t + 1) eps of it."""
    floats = distributions(coin, _float_spinor(spinor), steps)
    t = -1
    for t, (law, exact) in enumerate(zip(floats, exact_walk.laws(entries, spinor, steps))):
        assert sum(exact.values()) == Fraction(1), t
        assert set(law) <= set(range(-t, t + 1, 2)), t
        gap = max([abs(law.get(x, 0.0) - float(exact.get(x, 0))) for x in range(-t, t + 1, 2)])
        assert gap <= LAW_C * (t + 1) * EPS, (t, gap)
    assert t == steps


def test_exact_row_is_two_hamilton_products():
    rng = Random(70)
    for _ in range(50):
        p, left, q, right = ([rng.randint(-9, 9) for _ in range(4)] for _ in range(4))
        assert exact_walk.row(p, left, q, right) == exact_walk.add(exact_walk.mul(p, left),
                                                                    exact_walk.mul(q, right))


def test_coin_scale_rejects_a_matrix_that_is_not_a_multiple_of_a_unitary():
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    assert exact_walk.coin_scale(PRESETS["example-ijk"]) == 2
    for entries in [((1, 0, 0, 0),) * 4, ((1, 0, 0, 0), i, j, (0, 0, 0, -1)), ((0,) * 4,) * 4]:
        with pytest.raises(ValueError):
            exact_walk.coin_scale(entries)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_integer_presets_are_the_package_presets(name):
    # the package's 1/sqrt(2) is 0.7071067811865475, which the float coin reproduces
    assert _float_coin(PRESETS[name]).flat == preset_coin(name).flat


def test_hadamard_three_step_law_from_up_is_exact():
    *_, exact = exact_walk.laws(PRESETS["hadamard"], UP, 3)
    assert exact == {-3: Fraction(1, 8), -1: Fraction(5, 8), 1: Fraction(1, 8), 3: Fraction(1, 8)}
    law = distribution(preset_coin("hadamard"), _float_spinor(UP), 3)
    assert_dist_close(law, {x: float(p) for x, p in exact.items()})


def test_hadamard_three_step_distribution_matches_the_exact_law():
    rng = Random(12)
    # the symmetric spinors (1, i)/sqrt(2) and (1, 1)/sqrt(2), then ten drawn ones
    spinors = [((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (1, 0, 0, 0))]
    spinors += [_integer_spinor(rng) for _ in range(10)]
    coin = preset_coin("hadamard")
    for spinor in spinors:
        *_, exact = exact_walk.laws(PRESETS["hadamard"], spinor, 3)
        assert sum(exact.values()) == Fraction(1)
        assert_dist_close(distribution(coin, _float_spinor(spinor), 3),
                          {x: float(p) for x, p in exact.items()})


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_float_laws_match_the_exact_laws_on_the_presets(name):
    _assert_laws_within_bound(preset_coin(name), PRESETS[name], QUATERNION_SPINOR, 200)


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_float_laws_match_the_exact_laws_on_rational_coins(kind):
    rng = Random(kind)
    entries = _rational_coin(rng, kind)
    _assert_laws_within_bound(_float_coin(entries), entries, _integer_spinor(rng), 100)


@pytest.mark.parametrize("name, n", [("hadamard", 200), ("quaternion", 100)])
def test_path_sums_forward_error_against_the_exact_walk(name, n):
    # column j of split l is the walk from the j-th unit spinor at site n - 2l,
    # and the exact walk's amplitudes there are integers over sqrt(K)^n = K^(n/2)
    if name == "hadamard":
        entries, coin = PRESETS[name], preset_coin(name)
    else:
        entries = _rational_coin(Random("path-sums"), name)
        coin = _float_coin(entries)
    den = exact_walk.coin_scale(entries) ** (n // 2)
    ups, downs = (deque(exact_walk.walk(entries, spinor, n), maxlen=1)[0] for spinor in (UP, DOWN))
    worst = Fraction(0)
    for l, xi in enumerate(path_sums(coin, n)):
        (e11, e21), (e12, e22) = ups[n - l], downs[n - l]
        for amp, exact in ((xi.e11, e11), (xi.e12, e12), (xi.e21, e21), (xi.e22, e22)):
            for value, numerator in zip(amp.components(), exact):
                worst = max(worst, abs(Fraction(value) - Fraction(numerator, den)))
    assert worst <= PATH_C * n * EPS, float(worst)

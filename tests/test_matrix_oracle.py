"""The walk, Theorem 1 and the path sum against an independent numpy walk.

``matrix_walk`` multiplies real 4x4 matrices and never the package's
quaternions, so these pins hold beyond the 2^n word cap, where
``path_sums`` is the walk itself.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from qqwalk import (
    PolarInitialState,
    QMatrix2,
    complexify_initial_state,
    distributions,
    path_sums,
    preset_coin,
    random_unit_pair,
    random_unitary_coin,
)

from matrix_walk import laws, lmat, walk

SITE_TOL = 1e-12


def _entries(coin):
    return [e.components() for e in (coin.a, coin.b, coin.c, coin.d)]


def _spinor(pair):
    return [amp.components() for amp in pair]


def _max_dev_from_oracle(coin, spinor, steps: int, oracle_spinor=None) -> float:
    """Largest |P - P_oracle| over every site and time 0..steps."""
    oracle = laws(_entries(coin), _spinor(oracle_spinor or spinor), steps)
    worst = 0.0
    for dist, law in zip(distributions(coin, spinor, steps), oracle):
        got = np.zeros_like(law)
        for x, p in dist.items():
            got[x + steps] = p
        worst = max(worst, float(np.abs(got - law).max()))
    return worst


def test_oracle_matrices_follow_the_hamilton_rules():
    one, i, j, k = np.eye(4)
    assert np.array_equal(lmat(i) @ lmat(j), lmat(k))
    assert np.array_equal(lmat(j) @ lmat(k), lmat(i))
    assert np.array_equal(lmat(k) @ lmat(i), lmat(j))
    for unit in (i, j, k):
        assert np.array_equal(lmat(unit) @ lmat(unit), -lmat(one))


@pytest.mark.parametrize("name, steps", [("example-ijk", 1000), ("hadamard", 300)])
def test_distributions_match_the_oracle_per_site(name, steps):
    spinor = random_unit_pair(Random(31))
    assert _max_dev_from_oracle(preset_coin(name), spinor, steps) <= SITE_TOL


def test_random_quaternion_coin_matches_the_oracle_per_site():
    rng = Random(32)
    coin = random_unitary_coin(rng)
    assert _max_dev_from_oracle(coin, random_unit_pair(rng), 300) <= SITE_TOL


def test_theorem1_complexified_spinor_has_the_same_law_at_300_steps():
    rng = Random(33)
    coin = random_unitary_coin(rng, entries="real")
    spinor = random_unit_pair(rng)
    twin = complexify_initial_state(PolarInitialState.from_pair(*spinor))
    assert all(amp.y == 0.0 and amp.z == 0.0 for amp in twin)
    # the oracle alone, then the package walk of the twin against the oracle
    for law, twin_law in zip(laws(_entries(coin), _spinor(spinor), 300),
                             laws(_entries(coin), _spinor(twin), 300)):
        assert float(np.abs(law - twin_law).max()) <= SITE_TOL
    assert _max_dev_from_oracle(coin, twin, 300, oracle_spinor=spinor) <= SITE_TOL


def test_path_sum_entries_match_the_oracle_propagation():
    coin = random_unitary_coin(Random(34))
    steps = 200
    finals = []
    for unit in ([(1, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (1, 0, 0, 0)]):
        *_, final = walk(_entries(coin), unit, steps)
        finals.append(final)
    (left1, right1), (left2, right2) = finals
    for l, xi in enumerate(path_sums(coin, steps)):
        row = 2 * (steps - l)  # site m - l = steps - 2 l, at row site + steps
        for entry, expected in ((xi.e11, left1[row]), (xi.e21, right1[row]),
                                (xi.e12, left2[row]), (xi.e22, right2[row])):
            assert float(np.abs(np.array(entry.components()) - expected).max()) <= SITE_TOL


@pytest.mark.parametrize("coin", [preset_coin("example-ijk"), random_unitary_coin(Random(35))],
                         ids=["example-ijk", "random-coin"])
def test_path_sums_at_200_steps_sum_to_the_identity(coin):
    # sum_l Xi_n(l, n - l)^dagger Xi_n(l, n - l) = I, every split from one call
    steps = 200
    total = QMatrix2.zeros()
    for xi in path_sums(coin, steps):
        total = total + xi.adjoint() @ xi
    assert total.max_dev(QMatrix2.identity()) <= SITE_TOL

    # the oracle's final states: entry (j, k) sums conj(psi_j) psi_k over
    # both components and every site, and conj(p) q = lmat(p)^T q
    columns = []
    for unit in ([(1, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (1, 0, 0, 0)]):
        *_, (left, right) = walk(_entries(coin), unit, steps)
        columns.append(np.concatenate([left, right]))
    for j, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        entry = sum(lmat(p).T @ r for p, r in zip(columns[j], columns[k]))
        expected = np.eye(4)[0] if j == k else np.zeros(4)
        assert float(np.abs(entry - expected).max()) <= SITE_TOL

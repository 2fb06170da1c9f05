"""Seeded verification suites behind the ``verify`` CLI subcommand.

Each suite returns a list of report dicts
``{"check": name, "pass": bool, "max_residual": float, "params": {...}}``
and is deterministic for a fixed seed.  Residuals the library measures
are read from it, not recomputed, and ``tol`` bounds them and nothing
else, so a looser ``tol`` never turns a pass into a fail.  Coin classes,
two-step invariance and the a0 witness's measure class are judged at
``DEFAULT_TOL``; ``b0-two-step-uniformity`` reports the worst measure
spread (max - min) of the states that stay invariant, and their count.
"""

from __future__ import annotations

from operator import sub
from random import Random

from .coin import Coin, QMatrix2, preset_coin, random_unitary_coin
from .pathsum import decompose_pqrs, path_sum_bruteforce, path_sum_reduced
from .quaternion import DEFAULT_TOL, ONE, ZERO, Quaternion, max_or_nan
from .stationary import (
    PolarInitialState,
    _report,
    _worst,
    build_eigenstate_flip,
    build_eigenstate_flipneg,
    check_two_step_uniformity,
    classify_measure,
    complexify_initial_state,
    quadratic_form_coefficients,
    right_eigen_check,
    stationary_residual,
)
from .walk import PeriodicState, _site_weights, distribution, random_unit_pair


def _random_direction(rng: Random) -> Quaternion:
    while True:
        q = Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)])
        norm = q.norm()
        if norm > 1e-6:
            return q / norm


def _random_imaginary_unit(rng: Random) -> Quaternion:
    while True:
        x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
        norm = (x * x + y * y + z * z) ** 0.5
        if norm > 1e-6:
            return Quaternion(0.0, x / norm, y / norm, z / norm)


def _row_residual(coin: Coin) -> float:
    """Worst deviation of the row inner products (M M* on and above the diagonal) from I.

    It multiplies with the scalar ``QMatrix2`` operators, not the flat
    kernel that ``Coin`` validates with, so the two unitarity checks of the
    suite do not share their arithmetic.
    """
    gram = coin.matrix @ coin.matrix.adjoint()
    return max_or_nan((gram.e11.max_dev(ONE), gram.e12.max_dev(ZERO), gram.e22.max_dev(ONE)))


def suite_unitary(seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    rng = Random(seed)
    coins = [random_unitary_coin(rng) for _ in range(50)]
    return [_worst("random-coin-unitarity", [coin.unitarity_residual for coin in coins],
                   tol, coins=len(coins), seed=seed),
            _worst("row-orthonormality", [_row_residual(coin) for coin in coins],
                   tol, coins=len(coins), seed=seed)]


def suite_pqrs(seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    rng = Random(seed)
    coins = [preset_coin("hadamard"), preset_coin("example-ijk")]
    coins += [random_unitary_coin(rng) for _ in range(10)]
    reports = [_worst("product-table", [coin.product_table().residual for coin in coins],
                      tol, coins=len(coins), seed=seed)]

    oracle_devs = []
    round_trips = []
    for coin in coins[:5]:
        for n in range(0, 7):
            for l in range(n + 1):
                brute = path_sum_bruteforce(coin, n, l, n - l)
                oracle_devs.append(brute.max_dev(path_sum_reduced(coin, n, l, n - l)))
                round_trips.append(decompose_pqrs(coin, brute).residual)
    reports.append(_worst("word-reduction-oracle", oracle_devs, tol,
                          coins=5, max_n=6, seed=seed))
    reports.append(_worst("pqrs-round-trip", round_trips, tol, coins=5, max_n=6, seed=seed))

    quat_coin = random_unitary_coin(rng)
    a, b, c = quat_coin.a, quat_coin.b, quat_coin.c
    deco = decompose_pqrs(quat_coin, path_sum_bruteforce(quat_coin, 4, 3, 1))
    coeff_devs = [deco.p.max_dev(a * b * c + b * c * a), deco.q.max_dev(ZERO),
                  deco.r.max_dev(a * a * b), deco.s.max_dev(c * a * a)]
    complex_coin = random_unitary_coin(rng, entries="complex")
    a, b, c = complex_coin.a, complex_coin.b, complex_coin.c
    deco = decompose_pqrs(complex_coin, path_sum_bruteforce(complex_coin, 4, 3, 1))
    coeff_devs.append(deco.p.max_dev(2.0 * (a * b * c)))
    reports.append(_worst("pqrs-known-coefficients", coeff_devs, tol, seed=seed))
    return reports


def _random_b0_coin(rng: Random) -> Coin:
    a = _random_direction(rng)
    d = _random_direction(rng)
    return Coin(QMatrix2(a, Quaternion(), Quaternion(), d))


def _random_b0_state(rng: Random) -> PeriodicState:
    period = rng.randint(1, 8)
    kind = rng.randrange(3)
    if kind == 0:
        # fully random amplitudes
        pairs = [(Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]),
                  Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]))
                 for _ in range(period)]
        return PeriodicState(pairs)
    if kind == 1:
        # uniform site norm with parity-constant |psiL|: genuinely invariant
        # (needs an even period so the parity pattern survives the wrap)
        period = 2 * rng.randint(1, 4)
        left_even, left_odd = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        pairs = []
        for site in range(period):
            level = left_even if site % 2 == 0 else left_odd
            left = _random_direction(rng) * level
            right = _random_direction(rng) * (1.0 - level * level) ** 0.5
            pairs.append((left, right))
        return PeriodicState(pairs)
    # non-constant measure: invariance is expected to fail
    pairs = [(Quaternion(float(site + 1)), Quaternion(0.5))
             for site in range(period)]
    return PeriodicState(pairs)


def suite_stationary(seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    rng = Random(seed)
    residuals = []
    for _ in range(20):
        coin = random_unitary_coin(rng)
        spinor = random_unit_pair(rng)
        residuals.append(stationary_residual(coin, PeriodicState.constant(spinor), 30))
    reports = [_worst("uniform-stationary", residuals, tol, coins=20, steps=30, seed=seed)]

    flip = preset_coin("flip")
    candidate = build_eigenstate_flip(-1, [(Quaternion(1), Quaternion(1)),
                                           (Quaternion(2), Quaternion(2))])
    witness_residual = stationary_residual(flip, candidate.state, 20)
    klass = classify_measure(candidate.state.measure(), window=8)
    witness_ok = witness_residual <= tol and klass.kind == "other"
    reports.append(_report("a0-witness", witness_ok, witness_residual,
                           coin="flip", kind=klass.kind, steps=20, tol=tol))

    samples = 200
    spreads = []
    for _ in range(samples):
        state = _random_b0_state(rng)
        report = check_two_step_uniformity(_random_b0_coin(rng), state)
        if report.measure_invariant:
            spreads.append(report.spread)
    reports.append(_worst("b0-two-step-uniformity", spreads, tol,
                          samples=samples, invariant=len(spreads), seed=seed))
    return reports


def suite_eigen(seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    rng = Random(seed)
    flip = preset_coin("flip")
    flip_neg = preset_coin("flip-neg")
    residuals = []
    for sign in (1, -1):
        coeffs = [(_random_direction(rng) * rng.uniform(0.5, 2.0),
                   _random_direction(rng) * rng.uniform(0.5, 2.0))
                  for _ in range(rng.randint(1, 3))]
        residuals.append(right_eigen_check(flip, build_eigenstate_flip(sign, coeffs)))
    for _ in range(3):
        lam = _random_imaginary_unit(rng)
        coeffs = [(_random_direction(rng), _random_direction(rng))
                  for _ in range(rng.randint(1, 3))]
        residuals.append(right_eigen_check(flip_neg, build_eigenstate_flipneg(lam, coeffs)))
    reports = [_worst("right-eigenpair", residuals, tol, seed=seed)]

    # the eigenvalue must act on the right; left action has to break for a
    # candidate whose amplitudes do not commute with lambda
    lam = Quaternion(0.0, 1.0, 0.0, 0.0)
    candidate = build_eigenstate_flipneg(lam, [(Quaternion(0, 0, 1), Quaternion(1))])
    right_dev = right_eigen_check(flip_neg, candidate)
    evolved = candidate.state.evolve(flip_neg)
    left_dev = max_or_nan(got.max_dev(lam * amp)
                          for pairs in zip(evolved.pairs, candidate.state.pairs)
                          for got, amp in zip(*pairs))
    guard_ok = right_dev <= tol and left_dev > 0.5
    reports.append(_report("right-vs-left-action", guard_ok, right_dev,
                           left_deviation=left_dev, tol=tol))
    return reports


def suite_theorem1(seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    rng = Random(seed)
    devs = []
    for _ in range(5):
        coin = random_unitary_coin(rng, entries="real")
        for _ in range(20):
            alpha, beta = random_unit_pair(rng)
            polar = PolarInitialState.from_pair(alpha, beta)
            twin = complexify_initial_state(polar)
            # both walks store the same sites, so the weights compare site by
            # site; a site zero in both laws adds a 0.0, which moves no maximum
            original = _site_weights(coin, (alpha, beta), 8)
            reduced = _site_weights(coin, twin, 8)
            for (_, wa), (_, wb) in zip(original, reduced):
                devs.extend(map(abs, map(sub, wa, wb)))
    reports = [_worst("complexified-distribution-equality", devs, tol,
                      coins=5, states=20, max_n=8, seed=seed)]

    law_devs = []
    for _ in range(5):
        coin = random_unitary_coin(rng, entries="real")
        alpha, beta = random_unit_pair(rng)
        dist = distribution(coin, (alpha, beta), 4)
        overlap = (alpha * beta.conj()).real
        for l in range(5):
            m = 4 - l
            a_coef, b_coef, c_coef = quadratic_form_coefficients(coin, 4, l, m)
            predicted = (a_coef * alpha.norm_sq() + b_coef * beta.norm_sq()
                         + c_coef * overlap)
            law_devs.append(abs(predicted - dist.get(m - l, 0.0)))
    reports.append(_worst("position-law-coefficients", law_devs, tol, coins=5, n=4, seed=seed))
    return reports


#: Every suite by name.  A suite added here runs under its own name only.
SUITES = {
    "unitary": suite_unitary,
    "pqrs": suite_pqrs,
    "stationary": suite_stationary,
    "eigen": suite_eigen,
    "theorem1": suite_theorem1,
}

# The suites ``all`` runs, in order; a fixed list, so that its reports keep their bits.
_ALL = ("unitary", "pqrs", "stationary", "eigen", "theorem1")


def run_suites(name: str, seed: int = 0, tol: float = DEFAULT_TOL) -> list[dict]:
    """Run one suite of ``SUITES`` by name, or the five of ``all`` in their order."""
    if name == "all":
        return [report for suite in _ALL for report in SUITES[suite](seed=seed, tol=tol)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"available: all, {', '.join(sorted(SUITES))}")
    return SUITES[name](seed=seed, tol=tol)

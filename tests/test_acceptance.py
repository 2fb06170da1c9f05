"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from random import Random

from qqwalk import (
    Coin,
    FiniteSupportState,
    PeriodicState,
    PolarInitialState,
    QMatrix2,
    Quaternion,
    build_eigenstate_flip,
    build_eigenstate_flipneg,
    check_two_step_uniformity,
    classify_measure,
    complexify_initial_state,
    decompose_pqrs,
    distribution,
    distributions,
    effective_phase_cosine,
    path_sum,
    path_sum_bruteforce,
    path_sum_reduced,
    preset_coin,
    quadratic_form_coefficients,
    random_unit_pair,
    random_unitary_coin,
    right_eigen_check,
    verify_stationary,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


def q(w=0.0, x=0.0, y=0.0, z=0.0) -> Quaternion:
    return Quaternion(w, x, y, z)


def symmetric_j_spinor():
    return (q(SQRT_HALF), q(0, 0, SQRT_HALF))


def dist_dev(actual: dict, expected: dict) -> float:
    sites = set(actual) | set(expected)
    return max(abs(actual.get(x, 0.0) - expected.get(x, 0.0)) for x in sites)


def test_criterion_01_golden_distributions():
    with criterion(1, "golden distributions"):
        start = time.perf_counter()
        coin = preset_coin("example-ijk")
        spinor = symmetric_j_spinor()
        three = distribution(coin, spinor, 3)
        four = distribution(coin, spinor, 4)
        assert dist_dev(three, {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}) <= 1e-12
        assert dist_dev(four, {-4: 1 / 16, -2: 6 / 16, 0: 2 / 16,
                               2: 6 / 16, 4: 1 / 16}) <= 1e-12
        assert time.perf_counter() - start < 1.0


GOLDEN_XI = {
    (3, 3, 0): [["1", "i"], ["0", "0"]],
    (3, 2, 1): [["2k", "0"], ["j", "-k"]],
    (3, 1, 2): [["1", "-i"], ["0", "2"]],
    (3, 0, 3): [["0", "0"], ["-j", "-k"]],
    (4, 4, 0): [["1", "i"], ["0", "0"]],
    (4, 3, 1): [["3k", "j"], ["j", "-k"]],
    (4, 2, 2): [["1", "i"], ["i", "1"]],
    (4, 1, 3): [["-k", "j"], ["j", "3k"]],
    (4, 0, 4): [["0", "0"], ["i", "1"]],
}

_SYMBOLS = {"0": q(), "1": q(1), "2": q(2), "i": q(0, 1), "-i": q(0, -1),
            "j": q(0, 0, 1), "-j": q(0, 0, -1), "k": q(0, 0, 0, 1),
            "-k": q(0, 0, 0, -1), "2k": q(0, 0, 0, 2), "3k": q(0, 0, 0, 3)}


def test_criterion_02_golden_xi_tables():
    with criterion(2, "golden path-sum tables"):
        coin = preset_coin("example-ijk")
        for (n, l, m), rows in GOLDEN_XI.items():
            scale = SQRT_HALF ** n
            expected = QMatrix2(*(scale * _SYMBOLS[sym]
                                  for row in rows for sym in row))
            for evaluate in (path_sum_bruteforce, path_sum_reduced, path_sum):
                assert evaluate(coin, n, l, m).max_dev(expected) <= 1e-12, \
                    f"{evaluate.__name__} at (n={n}, l={l}, m={m})"


def test_criterion_03_pqrs_algebra():
    with criterion(3, "split-basis product table and decomposition"):
        start = time.perf_counter()
        rng = Random(1003)
        coins = [preset_coin("hadamard"), preset_coin("example-ijk")]
        coins += [random_unitary_coin(rng) for _ in range(50)]
        for coin in coins:
            for (left, right), (coeff, basis) in coin.product_table().items():
                direct = coin.basis(left) @ coin.basis(right)
                assert (coeff * coin.basis(basis)).max_dev(direct) <= 1e-10

        quat_coin = random_unitary_coin(rng)
        a, b, c = quat_coin.a, quat_coin.b, quat_coin.c
        deco = decompose_pqrs(quat_coin, path_sum_bruteforce(quat_coin, 4, 3, 1))
        assert deco.p.max_dev(a * b * c + b * c * a) <= 1e-10
        assert deco.q.max_dev(q()) <= 1e-10
        assert deco.r.max_dev(a * a * b) <= 1e-10
        assert deco.s.max_dev(c * a * a) <= 1e-10

        complex_coin = random_unitary_coin(rng, entries="complex")
        a, b, c = complex_coin.a, complex_coin.b, complex_coin.c
        deco = decompose_pqrs(complex_coin,
                              path_sum_bruteforce(complex_coin, 4, 3, 1))
        assert deco.p.max_dev(2.0 * (a * b * c)) <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_04_quaternion_algebra():
    with criterion(4, "quaternion algebra randomized checks"):
        rng = Random(1004)
        for _ in range(10_000):
            a = Quaternion(*(rng.gauss(0, 1) for _ in range(4)))
            b = Quaternion(*(rng.gauss(0, 1) for _ in range(4)))
            c = Quaternion(*(rng.gauss(0, 1) for _ in range(4)))
            # square closed form
            closed = Quaternion(a.w * a.w - a.x * a.x - a.y * a.y - a.z * a.z,
                                2 * a.w * a.x, 2 * a.w * a.y, 2 * a.w * a.z)
            assert (a * a).max_dev(closed) <= 1e-12
            # associativity
            assert ((a * b) * c).max_dev(a * (b * c)) <= 1e-12
            # conjugation anti-homomorphism
            assert (a * b).conj().max_dev(b.conj() * a.conj()) <= 1e-12
            # norm multiplicativity (relative)
            rhs = a.norm() * b.norm()
            assert abs((a * b).norm() - rhs) <= 1e-10 * max(1.0, rhs)


def test_criterion_05_uniform_stationarity():
    with criterion(5, "uniform measures are stationary"):
        start = time.perf_counter()
        rng = Random(1005)
        for _ in range(50):
            coin = random_unitary_coin(rng)
            alpha, beta = random_unit_pair(rng)
            scale = rng.uniform(0.5, 2.0)
            state = PeriodicState.constant((alpha * scale, beta * scale))
            assert verify_stationary(coin, state, 50, 1e-10)
        assert time.perf_counter() - start < 5.0


def test_criterion_06_a0_eigenstate_witnesses():
    with criterion(6, "a=0 eigenstates and their stationary measures"):
        rng = Random(1006)
        flip = preset_coin("flip")
        flip_neg = preset_coin("flip-neg")

        def random_coeffs(count):
            return [(Quaternion(*(rng.gauss(0, 1) for _ in range(4))),
                     Quaternion(*(rng.gauss(0, 1) for _ in range(4))))
                    for _ in range(count)]

        candidates = []
        for sign in (1, -1):
            candidates.append((flip, build_eigenstate_flip(sign, random_coeffs(2))))
        for lam in (q(0, 1), q(0, 0, 0, 1),
                    Quaternion(0, 1, 1, 1) / math.sqrt(3)):
            candidates.append(
                (flip_neg, build_eigenstate_flipneg(lam, random_coeffs(2))))

        for coin, candidate in candidates:
            assert right_eigen_check(coin, candidate) <= 1e-12
            assert verify_stationary(coin, candidate.state, 20, 1e-10)

        # distinct pair moduli force a non-uniform, non-exponential measure
        witness = build_eigenstate_flip(-1, [(q(1), q(1)), (q(2), q(2))])
        klass = classify_measure(witness.state.measure(), window=8)
        assert klass.kind == "other"
        neg_witness = build_eigenstate_flipneg(q(0, 1), [(q(1), q(1)),
                                                         (q(0, 0, 3), q(2))])
        assert verify_stationary(flip_neg, neg_witness.state, 20, 1e-10)
        assert classify_measure(neg_witness.state.measure(), window=8).kind == "other"


def test_criterion_07_complexification_equivalence():
    with criterion(7, "complexified initial states and the position law"):
        rng = Random(1007)
        for _ in range(20):
            coin = random_unitary_coin(rng, entries="real")
            for _ in range(100):
                alpha, beta = random_unit_pair(rng)
                polar = PolarInitialState.from_pair(alpha, beta)
                assert abs(effective_phase_cosine(polar)) <= 1.0
                twin = complexify_initial_state(polar)
                original = distributions(coin, (alpha, beta), 10)
                reduced = distributions(coin, twin, 10)
                for one, other in zip(original, reduced):
                    assert dist_dev(one, other) <= 1e-12

        for _ in range(5):
            coin = random_unitary_coin(rng, entries="real")
            alpha, beta = random_unit_pair(rng)
            dist = distribution(coin, (alpha, beta), 5)
            overlap = (alpha * beta.conj()).real
            for l in range(6):
                m = 5 - l
                a_coef, b_coef, c_coef = quadratic_form_coefficients(coin, 5, l, m)
                predicted = (a_coef * alpha.norm_sq() + b_coef * beta.norm_sq()
                             + c_coef * overlap)
                assert abs(predicted - dist.get(m - l, 0.0)) <= 1e-10


def _asymmetry(dist: dict) -> float:
    return max(abs(dist.get(x, 0.0) - dist.get(-x, 0.0)) for x in dist)


def test_criterion_08_hadamard_symmetry_constraints():
    with criterion(8, "symmetric Hadamard measures and perturbations"):
        coin = preset_coin("hadamard")
        rng = Random(1008)

        def constrained_spinor():
            # Re(alpha conj(beta)) = 0 and |alpha| = |beta| = 1/sqrt(2)
            while True:
                alpha, beta = random_unit_pair(rng)
                shift = (alpha * beta.conj()).real / alpha.norm_sq()
                beta = beta - alpha * shift
                if alpha.norm() < 1e-3 or beta.norm() < 1e-3:
                    continue
                return (alpha * (SQRT_HALF / alpha.norm()),
                        beta * (SQRT_HALF / beta.norm()))

        for _ in range(20):
            alpha, beta = constrained_spinor()
            assert dist_dev(distribution(coin, (alpha, beta), 1),
                            {-1: 0.5, 1: 0.5}) <= 1e-12
            assert dist_dev(distribution(coin, (alpha, beta), 2),
                            {-2: 0.25, 0: 0.5, 2: 0.25}) <= 1e-12
            assert dist_dev(distribution(coin, (alpha, beta), 3),
                            {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}) <= 1e-12

            # overlap constraint perturbed to Re(alpha conj(beta)) = 0.05,
            # moduli kept: every step count turns detectably asymmetric
            t = math.asin(0.1)
            beta_tilted = beta * math.cos(t) + alpha * math.sin(t)
            overlap = (alpha * beta_tilted.conj()).real
            assert abs(overlap - 0.05) <= 1e-12
            for n in (1, 2, 3):
                asym = _asymmetry(distribution(coin, (alpha, beta_tilted), n))
                assert asym > 1e-3

            # modulus constraint perturbed to |alpha|^2 = 0.55, overlap kept
            # at zero: n = 1, 2 stay symmetric, n = 3 breaks
            alpha_heavy = alpha * (math.sqrt(0.55) / alpha.norm())
            beta_light = beta * (math.sqrt(0.45) / beta.norm())
            for n in (1, 2):
                asym = _asymmetry(distribution(coin, (alpha_heavy, beta_light), n))
                assert asym <= 1e-12
            asym = _asymmetry(distribution(coin, (alpha_heavy, beta_light), 3))
            assert asym > 1e-3


def test_criterion_09_b0_two_step_uniformity():
    with criterion(9, "b=0 two-step uniformity falsification sweep"):
        from qqwalk.verify import _random_b0_coin, _random_b0_state

        rng = Random(1009)
        invariant_seen = 0
        for _ in range(1000):
            coin = _random_b0_coin(rng)
            state = _random_b0_state(rng)
            report = check_two_step_uniformity(coin, state)
            assert report.implication_holds
            if report.measure_invariant:
                invariant_seen += 1
        # the sweep must exercise the implication non-vacuously
        assert invariant_seen > 100


def test_criterion_10_oracle_equivalence():
    with criterion(10, "path-sum oracle equivalence and walk consistency"):
        rng = Random(1010)
        for _ in range(20):
            coin = random_unitary_coin(rng)
            spinor = random_unit_pair(rng)
            state = FiniteSupportState.delta(spinor)
            for n in range(0, 9):
                for l in range(n + 1):
                    m = n - l
                    brute = path_sum_bruteforce(coin, n, l, m)
                    for evaluate in (path_sum_reduced, path_sum):
                        assert brute.max_dev(evaluate(coin, n, l, m)) <= 1e-10
                    expected = brute.apply(spinor)
                    actual = state.amplitude(m - l)
                    assert actual[0].max_dev(expected[0]) <= 1e-10
                    assert actual[1].max_dev(expected[1]) <= 1e-10
                state = state.evolve(coin)

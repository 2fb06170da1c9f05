"""Right eigenpairs, stationary measures, classification, complexification."""

from __future__ import annotations

import math
from random import Random

import pytest

from qqwalk import (
    DEFAULT_TOL,
    Coin,
    EigenCandidate,
    FiniteSupportState,
    Measure,
    NotImaginaryUnitError,
    NotNormalizedError,
    NotRealCoinError,
    PeriodicState,
    PolarInitialState,
    QMatrix2,
    Quaternion,
    WrongCoinClassError,
    ZeroCoefficientError,
    build_eigenstate_flip,
    build_eigenstate_flipneg,
    check_two_step_uniformity,
    classify_measure,
    complexify_initial_state,
    distribution,
    distributions,
    effective_phase_cosine,
    preset_coin,
    quadratic_form_coefficients,
    random_unit_pair,
    random_unitary_coin,
    right_eigen_check,
    stationary_residual,
    verify_stationary,
)

from qqwalk.quaternion import max_or_nan
from qqwalk.verify import _random_b0_coin, _random_b0_state

from conftest import SQRT_HALF, assert_qclose, max_dist_dev, q


def all_ones_state():
    return PeriodicState([(q(1), q(1))])


def test_all_ones_is_flip_eigenvector():
    residual = right_eigen_check(preset_coin("flip"), EigenCandidate(all_ones_state(), q(1)))
    assert residual == 0.0


def test_all_ones_is_not_hadamard_eigenvector():
    residual = right_eigen_check(
        preset_coin("hadamard"), EigenCandidate(all_ones_state(), q(1)))
    assert residual > 0.1


def test_flip_lambda_minus_one_with_j_coefficient():
    candidate = build_eigenstate_flip(-1, [(q(1), q(0, 0, 1))])
    residual = right_eigen_check(preset_coin("flip"), candidate)
    assert residual == 0.0


def test_flipneg_sphere_eigenvalue():
    lam = Quaternion(0, 1, 1, 1) / math.sqrt(3)
    candidate = build_eigenstate_flipneg(lam, [(q(1), q(1))])
    residual = right_eigen_check(preset_coin("flip-neg"), candidate)
    assert residual <= 1e-12


def test_eigenvalue_must_be_unimodular():
    with pytest.raises(ValueError):
        EigenCandidate(all_ones_state(), q(2))


def test_build_flip_all_ones():
    candidate = build_eigenstate_flip(1, [(q(1), q(1))])
    assert candidate.state.period == 2
    assert candidate.state.amplitude(0) == (q(1), q(1))
    assert candidate.state.amplitude(1) == (q(1), q(1))


def test_build_flip_measure_pattern():
    candidate = build_eigenstate_flip(-1, [(q(1), q(1)), (q(2), q(2))])
    mu = candidate.state.measure()
    assert mu.values == (2.0, 5.0, 8.0, 5.0)
    # mu(2x) = |a_2x|^2 + |b_2x|^2 and mu(2x+1) = |a_2x|^2 + |b_2x+2|^2
    assert mu.value(-1) == mu.value(1)


def test_build_flip_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficientError):
        build_eigenstate_flip(1, [(q(1), q())])


def test_build_flip_takes_tiny_coefficients():
    # 1e-200 squares to 0.0, but it is a nonzero coefficient
    candidate = build_eigenstate_flip(1, [(q(1e-200), q(0, 0, 1e-200))])
    assert right_eigen_check(preset_coin("flip"), candidate) == 0.0


def test_build_flipneg_examples():
    flip_neg = preset_coin("flip-neg")
    for lam, coeffs in [
        (q(0, 1), [(q(1), q(1))]),
        (q(0, 0, 0, 1), [(q(1), q(2))]),
        (Quaternion(0, 1, 1, 0) / math.sqrt(2), [(q(0, 1), q(1, 1))]),
    ]:
        candidate = build_eigenstate_flipneg(lam, coeffs)
        residual = right_eigen_check(flip_neg, candidate)
        assert residual <= DEFAULT_TOL, f"lambda {lam} residual {residual}"
        assert_qclose(lam.square(), q(-1))


def test_build_flipneg_rejects_non_imaginary():
    with pytest.raises(NotImaginaryUnitError):
        build_eigenstate_flipneg(q(1), [(q(1), q(1))])
    with pytest.raises(NotImaginaryUnitError):
        build_eigenstate_flipneg(q(0, 1, 1, 0), [(q(1), q(1))])  # norm sqrt(2)


def test_right_action_differs_from_left():
    # evolving a flip-neg eigenstate multiplies amplitudes by lambda on the
    # right; for j-valued amplitudes and lambda = i the left action differs
    lam = q(0, 1)
    candidate = build_eigenstate_flipneg(lam, [(q(0, 0, 1), q(1))])
    coin = preset_coin("flip-neg")
    evolved = candidate.state.evolve(coin)
    left_breaks = False
    for x in range(candidate.state.period):
        for idx in (0, 1):
            amp = candidate.state.amplitude(x)[idx]
            got = evolved.amplitude(x)[idx]
            assert got.max_dev(amp * lam) <= 1e-12
            if got.max_dev(lam * amp) > 1e-6:
                left_breaks = True
    assert left_breaks


def test_eigenstates_give_stationary_measures():
    flip = preset_coin("flip")
    flip_neg = preset_coin("flip-neg")
    rng = Random(41)
    for _ in range(5):
        coeffs = [(Quaternion(*(rng.gauss(0, 1) for _ in range(4))),
                   Quaternion(*(rng.gauss(0, 1) for _ in range(4))))
                  for _ in range(rng.randint(1, 3))]
        sign = rng.choice([1, -1])
        candidate = build_eigenstate_flip(sign, coeffs)
        assert verify_stationary(flip, candidate.state, 20, 1e-10)
        candidate = build_eigenstate_flipneg(q(0, 0, 1), coeffs)
        assert verify_stationary(flip_neg, candidate.state, 20, 1e-10)


def test_uniform_state_is_stationary():
    rng = Random(42)
    for _ in range(10):
        coin = random_unitary_coin(rng)
        state = PeriodicState.constant(random_unit_pair(rng))
        assert verify_stationary(coin, state, 50, 1e-10)


def test_delta_state_is_not_stationary():
    state = FiniteSupportState.delta((q(1), q()))
    assert not verify_stationary(preset_coin("hadamard"), state, 3, 1e-10)


def test_two_step_uniformity_reports():
    coin = Coin(QMatrix2(q(0, 1), q(), q(), q(0, 0, 0, 1)))
    constant = PeriodicState.constant((q(0.6), q(0, 0.8)))
    report = check_two_step_uniformity(coin, constant)
    assert report.measure_invariant and report.measure_uniform
    assert report.spread == 0.0
    assert report.implication_holds

    lopsided = PeriodicState([(q(1), q(0.5)), (q(2), q(0.5))])
    report = check_two_step_uniformity(coin, lopsided)
    assert not report.measure_invariant
    assert report.spread == 3.0 and not report.measure_uniform
    assert report.implication_holds  # vacuously


def test_two_step_uniformity_wrong_coin():
    with pytest.raises(WrongCoinClassError):
        check_two_step_uniformity(preset_coin("hadamard"),
                                  PeriodicState.constant((q(1), q())))


def test_classify_uniform():
    klass = classify_measure(Measure([2.0, 2.0, 2.0], periodic=True))
    assert klass.kind == "uniform"
    assert klass.uniform_value == pytest.approx(2.0)
    assert klass.symmetric


@pytest.mark.parametrize("values, c", [
    ([1.7e308], 1.7e308),
    ([1.7e308, 1.7e308, 1.7e308], 1.7e308),
    ([1.5e308, 1.7e308], 1.6e308),
])
def test_classify_uniform_constant_near_float_max_is_finite(values, c):
    # lo + hi overflows here, though their midpoint is a float
    klass = classify_measure(Measure(values, periodic=True), tol=1e308)
    assert klass.kind == "uniform"
    assert klass.uniform_value == c


def test_classify_uniform_midpoint_keeps_its_bits_where_the_sum_is_finite():
    for lo, hi in ((1.0, 1.0 + 2e-16), (0.1, 0.3), (5e-324, 5e-324), (8e307, 8.5e307)):
        klass = classify_measure(Measure([lo, hi], periodic=True), tol=1e308)
        assert klass.uniform_value == (lo + hi) / 2.0


def test_classify_exponential():
    values = [1.5 * 0.4 ** (-abs(x)) if x != 0 else 0.7 for x in range(-7, 8)]
    klass = classify_measure(Measure(values, offset=-7), window=7)
    assert klass.kind == "exponential"
    assert klass.gamma == pytest.approx(0.4, abs=1e-9)
    assert klass.c_plus == pytest.approx(1.5, abs=1e-9)
    assert klass.c_zero == pytest.approx(0.7)
    assert klass.symmetric


def test_classify_one_sided_profile_is_other():
    values = [2.0 ** abs(x) if x >= 1 else 1.0 for x in range(-5, 6)]
    klass = classify_measure(Measure(values, offset=-5), window=5)
    assert klass.kind == "other"
    assert not klass.symmetric


def test_classify_delta_mixture_symmetric():
    mu = Measure.from_sites({-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8})
    klass = classify_measure(mu, window=4)
    assert klass.kind == "other"
    assert klass.symmetric


def test_classify_eigenstate_measure():
    candidate = build_eigenstate_flip(-1, [(q(1), q(1)), (q(2), q(2))])
    klass = classify_measure(candidate.state.measure(), window=8)
    assert klass.kind == "other"


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_classify_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    for mu in (Measure([1.0, 2.0], offset=-1), Measure([1.0, 2.0], periodic=True)):
        with pytest.raises(ValueError, match="tol"):
            classify_measure(mu, window=4, tol=tol)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.5])
def test_classify_symmetry_equals_a_brute_force_scan(tol):
    # R is the largest |site| of a finite measure, or one period
    rng = Random(2026)
    for _ in range(300):
        size = rng.randint(1, 7)
        values = [rng.choice([0.0, 0.25, 1.0, 1.0 + 1e-11, rng.random()]) for _ in range(size)]
        values[rng.randrange(size)] = 1.0
        if rng.random() < 0.5:
            values = values + values[-2::-1]
        if rng.random() < 0.4:
            mu, radius = Measure(values, periodic=True), len(values)
        else:
            offset = rng.choice([-(len(values) // 2), rng.randint(-12, 12)])
            mu = Measure(values, offset=offset)
            radius = max(abs(offset), abs(offset + len(values) - 1))
        expected = all(abs(mu.value(x) - mu.value(-x)) <= tol
                       for x in range(-radius - 1, radius + 2))
        for window in (0, 3, 20):
            assert classify_measure(mu, window, tol).symmetric == expected


def test_polar_round_trip():
    rng = Random(43)
    for _ in range(50):
        alpha, beta = random_unit_pair(rng)
        polar = PolarInitialState.from_pair(alpha, beta)
        back_a, back_b = polar.to_pair()
        assert alpha.max_dev(back_a) <= 1e-12
        assert beta.max_dev(back_b) <= 1e-12


def test_phase_cosine_bounded():
    rng = Random(44)
    for _ in range(200):
        polar = PolarInitialState.from_pair(*random_unit_pair(rng))
        assert abs(effective_phase_cosine(polar)) <= 1.0


def test_phase_cosine_rejects_nan_phase():
    polar = PolarInitialState(math.nan, 0.0, 0.5, (0, 0, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        effective_phase_cosine(polar)


def test_complexify_j_spinor():
    polar = PolarInitialState.from_pair(q(SQRT_HALF), q(0, 0, SQRT_HALF))
    alpha, beta = complexify_initial_state(polar)
    assert alpha.max_dev(q(SQRT_HALF)) <= 1e-12
    assert beta.max_dev(q(0, -SQRT_HALF)) <= 1e-12
    coin = preset_coin("hadamard")
    original = distributions(coin, (q(SQRT_HALF), q(0, 0, SQRT_HALF)), 10)
    twin = distributions(coin, (alpha, beta), 10)
    assert max(max_dist_dev(a, b) for a, b in zip(original, twin)) <= 1e-12


def test_complexify_real_spinor_identity_law():
    polar = PolarInitialState.from_pair(q(-0.6), q(0.8))
    alpha, beta = complexify_initial_state(polar)
    assert alpha.y == alpha.z == beta.y == beta.z == 0.0
    coin = preset_coin("hadamard")
    original = distributions(coin, (q(-0.6), q(0.8)), 8)
    twin = distributions(coin, (alpha, beta), 8)
    assert max(max_dist_dev(a, b) for a, b in zip(original, twin)) <= 1e-12


def test_complexify_beta_zero():
    polar = PolarInitialState.from_pair(q(0, 0, 0, 1), q())
    alpha, beta = complexify_initial_state(polar)
    assert alpha.max_dev(q(1)) <= 1e-12
    assert beta.max_dev(q()) <= 1e-12


def test_complexified_distributions_match_for_real_coins():
    rng = Random(45)
    for _ in range(5):
        coin = random_unitary_coin(rng, entries="real")
        for _ in range(10):
            alpha, beta = random_unit_pair(rng)
            twin = complexify_initial_state(PolarInitialState.from_pair(alpha, beta))
            original = distributions(coin, (alpha, beta), 10)
            reduced = distributions(coin, twin, 10)
            assert max(max_dist_dev(a, b)
                       for a, b in zip(original, reduced)) <= 1e-12


def test_quadratic_form_hadamard_n1():
    a_coef, b_coef, c_coef = quadratic_form_coefficients(
        preset_coin("hadamard"), 1, 1, 0)
    assert a_coef == pytest.approx(0.5, abs=1e-12)
    assert b_coef == pytest.approx(0.5, abs=1e-12)
    assert c_coef == pytest.approx(1.0, abs=1e-12)


def test_quadratic_form_hadamard_n3_leftmost():
    # reproduces the |alpha + beta|^2 / 8 law at the leftmost site
    a_coef, b_coef, c_coef = quadratic_form_coefficients(
        preset_coin("hadamard"), 3, 3, 0)
    assert a_coef == pytest.approx(1 / 8, abs=1e-12)
    assert b_coef == pytest.approx(1 / 8, abs=1e-12)
    assert c_coef == pytest.approx(2 / 8, abs=1e-12)


def test_quadratic_form_matches_simulation():
    rng = Random(46)
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


def test_quadratic_form_rejects_quaternion_coin():
    with pytest.raises(NotRealCoinError):
        quadratic_form_coefficients(preset_coin("example-ijk"), 2, 1, 1)


def test_quadratic_form_beyond_the_word_cap():
    coin = random_unitary_coin(Random(47), entries="real")
    alpha, beta = random_unit_pair(Random(48))
    n = 100
    dist = distribution(coin, (alpha, beta), n)
    overlap = (alpha * beta.conj()).real
    for l in (0, 37, 50):
        m = n - l
        a_coef, b_coef, c_coef = quadratic_form_coefficients(coin, n, l, m)
        predicted = (a_coef * alpha.norm_sq() + b_coef * beta.norm_sq()
                     + c_coef * overlap)
        assert abs(predicted - dist.get(m - l, 0.0)) <= 1e-10


def test_right_eigen_check_fails_on_nan_amplitude():
    candidate = build_eigenstate_flip(1, [(q(math.nan), q(1))])
    assert math.isnan(right_eigen_check(preset_coin("flip"), candidate))


def test_stationary_residual():
    rng = Random(49)
    coin = random_unitary_coin(rng)
    uniform = PeriodicState.constant(random_unit_pair(rng))
    assert stationary_residual(coin, uniform, 10) <= 1e-12
    delta = FiniteSupportState.delta((q(1), q()))
    assert stationary_residual(preset_coin("hadamard"), delta, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stationary_residual(coin, uniform, 0)


def _measured_residual(coin, state, n_max):
    """``stationary_residual`` with one ``Measure`` per step, folded by ``max_or_nan``."""
    reference = state.measure()
    deviations = []
    for _ in range(n_max):
        state = state.evolve(coin)
        deviations.append(state.measure().max_dev(reference))
    return max_or_nan(deviations)


def _random_pair(rng):
    return (Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]),
            Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]))


@pytest.mark.parametrize("coins", ["quaternion", "b=0"])
def test_stationary_residual_keeps_the_bits_of_the_per_step_measure_fold(coins):
    rng = Random(coins)
    for period in range(1, 9):
        for _ in range(6):
            coin = random_unitary_coin(rng) if coins == "quaternion" else _random_b0_coin(rng)
            pairs = [_random_pair(rng) for _ in range(period)]
            if period > 2:  # a zero pair and a -0.0 one, which are computed with
                pairs[1:3] = [(q(), q()), (q(-0.0), q(0.0, -0.0))]
            states = [PeriodicState(pairs), PeriodicState.constant(pairs[0])]
            if coins == "b=0":
                states.append(_random_b0_state(rng))  # some of which stay invariant
            for state in states:
                n_max = rng.randint(1, 12)
                assert (stationary_residual(coin, state, n_max).hex()
                        == _measured_residual(coin, state, n_max).hex()), (period, n_max)


_REJECTED = "^measure values must be finite, nonnegative and not all zero$"


@pytest.mark.parametrize("case", ["overflow", "underflow"])
def test_a_step_whose_weights_the_measure_rejects_raises(case):
    # the start's weights are finite and not all zero; the first step's are not
    if case == "overflow":  # two weights of 1.69e308 step onto one site
        big = 1.3e154
        coin = preset_coin("flip")
        state = PeriodicState([(q(big), q()), (q(), q()), (q(), q(big))])
    else:  # a weight of 5e-324 spread over four components, each of which squares to 0.0
        half = q(0.5, 0.5, 0.5, 0.5)
        coin = Coin(QMatrix2(half, q(), q(), half))
        state = PeriodicState.constant((q(math.sqrt(5e-324)), q()))
    state.measure()
    with pytest.raises(ValueError, match=_REJECTED):
        state.evolve(coin).measure()
    with pytest.raises(ValueError, match=_REJECTED):
        stationary_residual(coin, state, 3)
    if case == "underflow":
        with pytest.raises(ValueError, match=_REJECTED):
            check_two_step_uniformity(coin, state)


def test_two_step_uniformity_rejects_a_state_the_measure_rejects():
    coin = Coin(QMatrix2(q(0, 1), q(), q(), q(0, 0, 0, 1)))
    for pairs in ([(q(1e200), q())], [(q(1), q()), (q(0, 1e155), q(1e155))]):
        with pytest.raises(ValueError, match=_REJECTED):
            check_two_step_uniformity(coin, PeriodicState(pairs))


def test_nan_eigenvalue_is_rejected():
    with pytest.raises(ValueError):
        EigenCandidate(all_ones_state(), Quaternion(math.nan))
    with pytest.raises(NotImaginaryUnitError):
        build_eigenstate_flipneg(q(0, math.nan), [(q(1), q(1))])


def test_polar_rejects_nan_spinor():
    with pytest.raises(NotNormalizedError):
        PolarInitialState.from_pair(Quaternion(math.nan), Quaternion())


def test_flipneg_odd_sites_are_exact_negations():
    lam = q(0, 0.6, 0, 0.8)
    coeffs = [(q(0.3, -0.2, 0.1, 0.5), q(-0.7, 0.4, 0.25, -0.1)),
              (q(1, 2, 3, 4), q(-0.1, 0.5, -1.5, 2))]
    state = build_eigenstate_flipneg(lam, coeffs).state
    for idx, (alpha, beta) in enumerate(coeffs):
        next_beta = coeffs[(idx + 1) % 2][1]
        assert state.pairs[2 * idx] == (alpha, beta)
        assert state.pairs[2 * idx + 1] == (-(next_beta * lam), alpha * lam)

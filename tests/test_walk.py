"""Walk engine: evolution, measures, and position distributions."""

from __future__ import annotations

import math
import sys
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qqwalk import (
    Coin,
    FiniteSupportState,
    Measure,
    NotNormalizedError,
    PeriodicState,
    QMatrix2,
    Quaternion,
    distribution,
    distributions,
    hadamard_three_step_distribution,
    measure_from_json,
    preset_coin,
    random_unit_pair,
    random_unitary_coin,
    state_from_json,
)
from qqwalk.coin import PRESET_NAMES
from qqwalk.walk import _step, _weights

from conftest import (
    SQRT_HALF,
    HELD_BLOCKS,
    TRACED_STEPS,
    assert_dist_close,
    assert_qclose,
    blocks_kept,
    max_dist_dev,
    q,
)


def up_spinor():
    return (q(1), q())


def symmetric_j_spinor():
    return (q(SQRT_HALF), q(0, 0, SQRT_HALF))


def symmetric_i_spinor():
    return (q(SQRT_HALF), q(0, SQRT_HALF))


def test_single_step_hadamard():
    state = FiniteSupportState.delta(up_spinor())
    out = state.evolve(preset_coin("hadamard"))
    assert out.sites() == range(-1, 2)
    left, right = out.amplitude(-1)
    assert_qclose(left, q(SQRT_HALF))
    assert_qclose(right, q())
    left, right = out.amplitude(1)
    assert_qclose(left, q())
    assert_qclose(right, q(SQRT_HALF))
    assert out.amplitude(0) == (q(), q())


def test_pure_left_mover():
    # b = 0 keeps the left component moving rigidly left
    coin = Coin(QMatrix2(q(0, 1), q(), q(), q(0, 0, 0, 1)))
    state = FiniteSupportState.delta(up_spinor())
    for _ in range(3):
        state = state.evolve(coin)
    mu = state.measure()
    assert abs(mu.value(-3) - 1.0) <= 1e-12
    assert mu.total() == pytest.approx(1.0, abs=1e-12)


def test_periodic_constant_single_step():
    coin = preset_coin("example-ijk")
    spinor = symmetric_j_spinor()
    state = PeriodicState.constant(spinor)
    out = state.evolve(coin)
    expected = coin.matrix.apply(spinor)
    assert_qclose(out.amplitude(0)[0], expected[0])
    assert_qclose(out.amplitude(5)[1], expected[1])
    assert out.period == 1


def test_measure_of_delta():
    mu = FiniteSupportState.delta(symmetric_j_spinor()).measure()
    assert mu.value(0) == pytest.approx(1.0, abs=1e-12)
    assert mu.value(3) == 0.0


def test_measure_of_uniform_state():
    spinor = (q(0.6), q(0, 0.8))
    mu = PeriodicState.constant(spinor).measure()
    assert mu.periodic
    assert mu.value(17) == pytest.approx(1.0, abs=1e-12)


def test_golden_distribution_n3():
    dist = distribution(preset_coin("example-ijk"), symmetric_j_spinor(), 3)
    assert_dist_close(dist, {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8})


def test_golden_distribution_n4():
    dist = distribution(preset_coin("example-ijk"), symmetric_j_spinor(), 4)
    assert_dist_close(dist, {-4: 1 / 16, -2: 6 / 16, 0: 2 / 16,
                             2: 6 / 16, 4: 1 / 16})


def test_hadamard_one_step_general():
    rng = Random(11)
    coin = preset_coin("hadamard")
    for _ in range(10):
        alpha, beta = random_unit_pair(rng)
        dist = distribution(coin, (alpha, beta), 1)
        assert_dist_close(dist, {-1: (alpha + beta).norm_sq() / 2,
                                 1: (alpha - beta).norm_sq() / 2})


def test_hadamard_symmetric_n3():
    dist = distribution(preset_coin("hadamard"), symmetric_i_spinor(), 3)
    assert_dist_close(dist, {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8})


def test_three_step_closed_form_up():
    law = hadamard_three_step_distribution(up_spinor())
    assert_dist_close(law, {-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8})


def test_three_step_closed_form_matches_simulation():
    rng = Random(12)
    coin = preset_coin("hadamard")
    spinors = [symmetric_i_spinor(), (q(SQRT_HALF), q(SQRT_HALF))]
    spinors += [random_unit_pair(rng) for _ in range(10)]
    for spinor in spinors:
        law = hadamard_three_step_distribution(spinor)
        assert_dist_close(law, distribution(coin, spinor, 3))


def test_rejects_unnormalized_spinor():
    with pytest.raises(NotNormalizedError):
        distribution(preset_coin("hadamard"), (q(1), q(1)), 2)
    with pytest.raises(NotNormalizedError):
        hadamard_three_step_distribution((q(0.5), q(0.5)))
    with pytest.raises(NotNormalizedError):
        distribution(preset_coin("hadamard"), (q(math.nan), q()), 2)


def test_norm_conservation_50_steps():
    rng = Random(13)
    coin = random_unitary_coin(rng)
    state = FiniteSupportState.delta(random_unit_pair(rng))
    for _ in range(50):
        state = state.evolve(coin)
        assert abs(state.norm_sq() - 1.0) <= 1e-10


def test_support_and_parity():
    rng = Random(14)
    coin = random_unitary_coin(rng)
    series = distributions(coin, random_unit_pair(rng), 9)
    for n, dist in enumerate(series):
        for x in dist:
            assert abs(x) <= n
            assert (x + n) % 2 == 0


def _projected_re_zero_pair(rng: Random):
    """Random spinor with Re(alpha conj(beta)) = 0."""
    while True:
        alpha, beta = random_unit_pair(rng)
        if alpha.norm_sq() < 1e-4:
            continue
        shift = (alpha * beta.conj()).real / alpha.norm_sq()
        beta = beta - alpha * shift
        if beta.norm_sq() < 1e-6:
            continue
        scale = 1.0 / math.sqrt(alpha.norm_sq() + beta.norm_sq())
        return alpha * scale, beta * scale


def _asymmetry(dist: dict) -> float:
    return max(abs(dist.get(x, 0.0) - dist.get(-x, 0.0)) for x in dist)


def test_hadamard_symmetry_condition_n1_n2():
    rng = Random(15)
    coin = preset_coin("hadamard")
    for _ in range(10):
        spinor = _projected_re_zero_pair(rng)
        for n in (1, 2):
            assert _asymmetry(distribution(coin, spinor, n)) <= 1e-12
    for _ in range(10):
        alpha, beta = random_unit_pair(rng)
        if abs((alpha * beta.conj()).real) < 0.05:
            continue
        for n in (1, 2):
            assert _asymmetry(distribution(coin, (alpha, beta), n)) > 1e-6


def test_hadamard_symmetry_condition_n3():
    rng = Random(16)
    coin = preset_coin("hadamard")
    for _ in range(10):
        alpha, beta = _projected_re_zero_pair(rng)
        # rescale to equal moduli: both constraints hold, n = 3 symmetric
        alpha_eq = alpha * (SQRT_HALF / alpha.norm())
        beta_eq = beta * (SQRT_HALF / beta.norm())
        assert _asymmetry(distribution(coin, (alpha_eq, beta_eq), 3)) <= 1e-12
        # orthogonality alone is not enough once the moduli differ
        if abs(alpha.norm_sq() - 0.5) > 0.05:
            assert _asymmetry(distribution(coin, (alpha, beta), 3)) > 1e-6


def test_no_real_spinor_satisfies_both_n3_constraints():
    # real alpha, beta with Re(alpha beta) = 0 forces one of them to be 0,
    # which contradicts |alpha| = |beta| = 1/sqrt(2)
    for t in range(1, 32):
        alpha = q(math.cos(t * 0.1))
        beta = q(math.sin(t * 0.1))
        both = (abs((alpha * beta.conj()).real) <= 1e-12
                and abs(alpha.norm() - SQRT_HALF) <= 1e-12
                and abs(beta.norm() - SQRT_HALF) <= 1e-12)
        assert not both


def test_example_walk_matches_symmetric_hadamard_up_to_n4():
    ijk = list(distributions(preset_coin("example-ijk"), symmetric_j_spinor(), 5))
    had = list(distributions(preset_coin("hadamard"), symmetric_i_spinor(), 5))
    for n in range(5):
        assert max_dist_dev(ijk[n], had[n]) <= 1e-12
    # n = 5 recorded but not asserted: equality is only claimed through n = 4
    assert sum(ijk[5].values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(had[5].values()) == pytest.approx(1.0, abs=1e-12)


def test_distributions_checks_its_arguments_on_the_call():
    # no law is taken: the checks must not wait for the first step
    coin = preset_coin("hadamard")
    with pytest.raises(ValueError, match="n_max"):
        distributions(coin, up_spinor(), -1)
    with pytest.raises(NotNormalizedError):
        distributions(coin, (q(1), q(1)), 2)


def test_distributions_hold_one_law_at_a_time():
    # a probe after each law: a held series is alive from the first law on
    start = peak = sys.getallocatedblocks()
    for _ in distributions(preset_coin("hadamard"), up_spinor(), TRACED_STEPS):
        peak = max(peak, sys.getallocatedblocks())
    assert peak - start < HELD_BLOCKS


def test_measure_keeps_no_blocks_across_calls():
    # every walk step builds a Measure: 500 blocks here when its values
    # tuple was built from an iterator
    assert blocks_kept(lambda: Measure([0.25, 0.5, 0.25])) < 100


def test_pairs_keep_no_blocks_across_calls():
    state = PeriodicState([(q(1), q(0, 1)), (q(0, 0, 1), q(1)), (q(1), q(1))])
    assert blocks_kept(lambda: state.pairs) < 100


def test_distribution_sums_to_one():
    rng = Random(17)
    coin = random_unitary_coin(rng)
    for n, dist in enumerate(distributions(coin, random_unit_pair(rng), 12)):
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_periodic_evolution_preserves_period():
    rng = Random(18)
    coin = random_unitary_coin(rng)
    pairs = [random_unit_pair(rng) for _ in range(5)]
    state = PeriodicState(pairs)
    assert state.evolve(coin).period == 5


def test_finite_state_rejects_zero():
    with pytest.raises(ValueError):
        FiniteSupportState(0, [(q(), q())])
    with pytest.raises(ValueError):
        PeriodicState([(q(-0.0), q()), (q(), q(0.0, -0.0))])


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_tiny_amplitudes_are_not_zero(tiny):
    # their squares underflow to 0.0, but the state is not the zero state
    for state in (FiniteSupportState(0, [(q(), q(0, 0, tiny))]),
                  PeriodicState([(q(tiny), q()), (q(), q())])):
        assert state.pairs[0] != (q(), q())


def test_state_json_round_trip():
    rng = Random(19)
    fin = FiniteSupportState(-2, [random_unit_pair(rng) for _ in range(4)])
    again = state_from_json(fin.to_json())
    assert isinstance(again, FiniteSupportState)
    assert again.offset == fin.offset
    assert again.pairs == fin.pairs

    per = PeriodicState([random_unit_pair(rng) for _ in range(3)])
    again = state_from_json(per.to_json())
    assert isinstance(again, PeriodicState)
    assert again.pairs == per.pairs

    # an interior zero pair passed in, and the unwritten wrong-parity site of a step
    zero = (q(), q())
    for fin in (FiniteSupportState(-3, [random_unit_pair(rng), zero, random_unit_pair(rng)]),
                FiniteSupportState(-1, [up_spinor()]).evolve(preset_coin("hadamard"))):
        data = fin.to_json()
        assert list(data) == ["kind", "offset", "amplitudes"] and data["offset"] < 0
        assert data["amplitudes"][1] == [[0.0] * 4] * 2
        assert state_from_json(data).to_json() == data

    data = {"kind": "periodic", "period": 2,
            "amplitudes": [[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                           [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]]}
    assert list(state_from_json(data).to_json().items()) == list(data.items())


def test_state_json_names_a_missing_amplitudes_array():
    with pytest.raises(ValueError, match="state amplitudes must be an array"):
        state_from_json({"kind": "periodic"})


def test_measure_json_round_trip():
    mu = Measure([0.5, 0.0, 1.5], offset=-1)
    again = measure_from_json(mu.to_json())
    assert again.values == mu.values and again.offset == -1 and not again.periodic

    mu = Measure([2.0, 5.0, 8.0, 5.0], periodic=True)
    again = measure_from_json(mu.to_json())
    assert again.periodic and again.values == mu.values

    data = {"kind": "periodic", "period": 3, "values": [1.0, 0.0, 2.0]}
    assert list(measure_from_json(data).to_json().items()) == list(data.items())
    data = {"kind": "finite", "offset": -4, "values": [0.25, 0.0, 0.0, 0.75]}
    assert list(measure_from_json(data).to_json().items()) == list(data.items())


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure([0.0, 0.0])
    with pytest.raises(ValueError):
        Measure([1.0, -0.5])
    with pytest.raises(ValueError):
        Measure([1.0, math.nan])
    with pytest.raises(ValueError):
        Measure([math.inf, 1.0, math.inf])


def _old_measure_checks_pass(values) -> bool:
    """The three separate checks ``Measure`` made before its single predicate."""
    vals = tuple(float(v) for v in values)
    return (bool(vals) and all(0.0 <= v < math.inf for v in vals)
            and not all(v == 0.0 for v in vals))


_measure_values = st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, 5e-324,
                     -5e-324, 2.2e-308]),
), max_size=8)


@given(values=_measure_values)
def test_measure_predicate_matches_the_old_checks(values):
    try:
        Measure(values)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == _old_measure_checks_pass(values)


def _outcome(build):
    """``("ok", value bits, offset, periodic)`` of a built measure, or ``("raises", message)``."""
    try:
        mu = build()
    except ValueError as exc:
        return ("raises", str(exc))
    return ("ok", [v.hex() for v in mu.values], mu.offset, mu.periodic)


_site_component = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-308,
                     1e-200, -1e-200, 1e154, -1e154, 1e200]))
_weight_sites = st.lists(st.one_of(st.none(), st.tuples(*[_site_component] * 8)),
                         min_size=1, max_size=6)


@given(sites=_weight_sites, offset=st.integers(-3, 3), periodic=st.booleans())
def test_weight_builder_decides_as_the_constructor(sites, offset, periodic):
    weights = _weights(sites)
    assert (_outcome(lambda: Measure._of_weights(weights, offset, periodic))
            == _outcome(lambda: Measure(weights, offset, periodic)))


def _states(*amplitudes):
    """A finite and a periodic state, one site per amplitude, in its left w component."""
    pairs = [(q(a), q()) for a in amplitudes]
    return FiniteSupportState(-1, pairs), PeriodicState(pairs)


def _constructor_measure(state) -> Measure:
    """What ``state.measure()`` built before it trusted its weights."""
    if isinstance(state, PeriodicState):
        return Measure(_weights(state._sites), periodic=True)
    return Measure(_weights(state._sites), offset=state.offset)


@pytest.mark.parametrize("amplitudes", [
    (1e200,),  # its weight is inf
    (0.5, 1e200),
    (1e-200, -1e-200),  # every weight underflows to 0.0
    (math.nan,),
    (1.0, math.nan),  # max() skips a NaN that is not first
], ids=["inf", "inf-second", "underflow", "nan", "nan-second"])
def test_state_measure_rejects_weights_the_constructor_rejects(amplitudes):
    for state in _states(*amplitudes):
        with pytest.raises(ValueError, match="finite, nonnegative and not all zero"):
            state.measure()
        assert _outcome(state.measure) == _outcome(lambda: _constructor_measure(state))


def test_state_measure_takes_weights_whose_sum_overflows():
    # each weight is about 1e308, and their sum is past the float max
    for state in _states(1e154, 1.3e154):
        assert sum(_weights(state._sites)) == math.inf
        assert _outcome(state.measure) == _outcome(lambda: _constructor_measure(state))
        assert state.measure().values == (1e154 * 1e154, 1.3e154 * 1.3e154)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "random-0", "random-1", "random-2"])
def test_point_started_walks_are_zero_off_the_live_parity(name):
    rng = Random(name)
    coin = random_unitary_coin(rng) if name.startswith("random") else preset_coin(name)
    spinor = random_unit_pair(rng)
    state = FiniteSupportState.delta(spinor)
    for t, law in enumerate(distributions(coin, spinor, 60)):
        values = state.measure().values
        assert state.offset == -t and len(values) == 2 * t + 1
        assert all(v.hex() == "0x0.0p+0" for v in values[1::2]), t
        assert list(law.items()) == [(x, p) for x, p in zip(state.sites(), values) if p != 0.0]
        state = state.evolve(coin)


def test_measure_comparison_across_offsets():
    one = Measure([0.0, 1.0, 0.0], offset=-1)
    other = Measure([1.0], offset=0)
    assert one.approx_eq(other, 1e-12)
    assert not one.approx_eq(Measure([1.0], offset=1), 1e-12)


def test_measure_max_dev():
    one = Measure([0.0, 1.0, 0.5], offset=-1)
    assert one.max_dev(Measure([1.0], offset=0)) == 0.5
    assert one.max_dev(one) == 0.0
    periodic = Measure([1.0, 2.0], periodic=True)
    assert periodic.max_dev(Measure([1.5, 1.0], periodic=True)) == 1.0
    with pytest.raises(ValueError):
        periodic.max_dev(one)
    with pytest.raises(ValueError):
        periodic.max_dev(Measure([1.0], periodic=True))


def test_periodic_and_finite_evolution_agree_on_interior():
    rng = Random(23)
    coin = random_unitary_coin(rng)
    periodic = PeriodicState([random_unit_pair(rng) for _ in range(3)])
    copies = 4
    finite = FiniteSupportState(0, list(periodic.pairs) * copies)
    periodic, finite = periodic.evolve(coin), finite.evolve(coin)
    for x in range(1, 3 * copies - 1):
        assert finite.amplitude(x) == periodic.amplitude(x)


def test_state_json_rejects_non_finite_amplitudes():
    for bad in (math.nan, math.inf):
        data = {"kind": "periodic", "amplitudes": [[[bad, 0, 0, 0], [1, 0, 0, 0]]]}
        with pytest.raises(ValueError, match="finite"):
            state_from_json(data)


def _scalar_step(coin, old: dict, positions) -> dict:
    """One step of the scalar reference ``coin.matrix.apply`` on a site -> pair map.

    ``psiL'(x)`` comes from the pair at x+1 and ``psiR'(x)`` from the pair at
    x-1.  A padded site (None, or absent) contributes a zero with no
    arithmetic, and a site whose neighbours are both padded stays None.
    """
    new = {}
    for x in positions:
        left, right = old.get(x - 1), old.get(x + 1)
        if left is None and right is None:
            new[x] = None
            continue
        top = q() if right is None else coin.matrix.apply(right)[0]
        bottom = q() if left is None else coin.matrix.apply(left)[1]
        new[x] = (top, bottom)
    return new


def _assert_bits(state, reference: dict) -> None:
    for x, pair in reference.items():
        want = (q(), q()) if pair is None else pair
        assert ([v.hex() for amp in state.amplitude(x) for v in amp.components()]
                == [v.hex() for amp in want for v in amp.components()]), x


@pytest.mark.parametrize("entries", ["real", "complex", "quaternion"])
def test_flat_walk_is_bit_identical_to_the_scalar_walk(entries):
    rng = Random(60)
    coin = random_unitary_coin(rng, entries)
    spinor = random_unit_pair(rng)
    finite = FiniteSupportState.delta(spinor)
    reference = {0: spinor}
    pairs = [random_unit_pair(rng) for _ in range(4)] + [(q(), q(0.0, -0.0))]
    periodic = PeriodicState(pairs)
    period = len(pairs)
    for t in range(1, 41):
        finite = finite.evolve(coin)
        assert finite.sites() == range(-t, t + 1)
        reference = _scalar_step(coin, reference, finite.sites())
        _assert_bits(finite, reference)

        periodic = periodic.evolve(coin)
        wrapped = {x: pairs[x % period] for x in range(-1, period + 1)}
        stepped = _scalar_step(coin, wrapped, range(period))
        pairs = [stepped[x] for x in range(period)]
        _assert_bits(periodic, dict(enumerate(pairs)))


_component = st.floats(min_value=-2.0, max_value=2.0)
_amplitude = st.one_of(
    st.builds(Quaternion),  # a zero the caller passes, which is computed with
    st.builds(Quaternion, _component, _component, _component, _component))
_pair = st.one_of(st.none(), st.tuples(_amplitude, _amplitude))


@given(seed=st.integers(0, 2 ** 32),
       entries=st.sampled_from(("real", "complex", "quaternion")),
       pairs=st.lists(_pair, min_size=1, max_size=6),
       shift=st.integers(0, 5))
def test_coin_rows_are_bit_identical_to_the_scalar_product(seed, entries, pairs, shift):
    coin = random_unitary_coin(Random(seed), entries)
    shift %= len(pairs)
    rights = pairs[shift:] + pairs[:shift]
    flat = [None if pair is None else pair[0].components() + pair[1].components()
            for pair in pairs]
    out = _step(coin, flat, flat[shift:] + flat[:shift])
    assert len(out) == len(pairs)
    for left, right, got in zip(pairs, rights, out):
        if left is None and right is None:
            assert got is None
            continue
        top = q() if right is None else coin.matrix.apply(right)[0]
        bottom = q() if left is None else coin.matrix.apply(left)[1]
        assert [v.hex() for v in got] == [v.hex() for v in top.components() + bottom.components()]


def test_walk_does_no_quaternion_products(monkeypatch):
    coin = random_unitary_coin(Random(50))
    spinor = random_unit_pair(Random(51))
    products = []
    scalar_mul = Quaternion.__mul__

    def counting_mul(self, other):
        products.append(other)
        return scalar_mul(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counting_mul)
    assert coin.a * coin.b == scalar_mul(coin.a, coin.b) and len(products) == 1
    products.clear()
    law = list(distributions(coin, spinor, 50))  # the walk runs as the laws are taken
    assert len(products) == 0
    assert sum(law[50].values()) == pytest.approx(1.0, abs=1e-12)

"""Walk engine: evolution, measures, and position distributions."""

from __future__ import annotations

import math
import sys
from random import Random

import pytest
from hypothesis import example, given
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
from qqwalk import walk
from qqwalk.coin import PRESET_NAMES, _unflat
from qqwalk.quaternion import max_or_nan
from qqwalk.verify import _random_b0_coin, run_suites
from qqwalk.walk import _chain, _site_weights, _walk, _weights

from conftest import (
    SQRT_HALF,
    HELD_BLOCKS,
    TRACED_STEPS,
    assert_dist_close,
    assert_qclose,
    blocks_kept,
    max_dist_dev,
    q,
    unchecked_coin,
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


def test_distributions_checks_its_arguments_on_the_call(monkeypatch):
    # no law is taken and no step is made: the checks must not wait for
    # the first step, and a negative n must not read as the t = 0 law
    steps = []

    def counting_chain(coin, chain, weights):
        steps.append(len(chain))
        return _chain(coin, chain, weights)

    monkeypatch.setattr("qqwalk.walk._chain", counting_chain)
    coin = preset_coin("hadamard")
    for walk, n in ((distributions, "n_max"), (distribution, "n")):
        with pytest.raises(ValueError, match=f"^{n} must be >= 0$"):
            walk(coin, up_spinor(), -1)
        with pytest.raises(NotNormalizedError):
            walk(coin, (q(1), q(1)), 2)
    assert steps == []


def test_laws_build_no_measure_but_the_last(monkeypatch):
    # distributions reads the stored weights of each step; distribution
    # measures its final state once
    calls = []
    state_measure, measure_init = FiniteSupportState.measure, Measure.__init__

    def counting_measure(state):
        calls.append("measure")
        return state_measure(state)

    def counting_init(mu, *args, **kwargs):
        calls.append("Measure")
        measure_init(mu, *args, **kwargs)

    monkeypatch.setattr(FiniteSupportState, "measure", counting_measure)
    monkeypatch.setattr(Measure, "__init__", counting_init)
    coin, spinor = random_unitary_coin(Random(30)), random_unit_pair(Random(31))
    laws = list(distributions(coin, spinor, 30))
    assert calls == [] and len(laws) == 31
    law = distribution(coin, spinor, 30)
    assert calls == ["measure", "Measure"]
    assert sorted(law) == list(range(-30, 31, 2))


@pytest.mark.parametrize("name", [*PRESET_NAMES, "random"])
def test_site_weights_are_the_stored_weights_of_the_walk(monkeypatch, name):
    # the stream steps the open chain itself, with no state object per step
    rng = Random(name)
    coin = random_unitary_coin(rng) if name == "random" else preset_coin(name)
    spinor = random_unit_pair(rng)
    walked = [(state.offset, [w.hex() for w in state._weights])
              for state in _walk(coin, spinor, 30)]
    stepped = []
    evolve = FiniteSupportState.evolve

    def counting_evolve(state, coin):
        stepped.append(state)
        return evolve(state, coin)

    monkeypatch.setattr(FiniteSupportState, "evolve", counting_evolve)
    streamed = [(first, [w.hex() for w in weights])
                for first, weights in _site_weights(coin, spinor, 30)]
    assert stepped == []
    assert streamed == walked


@pytest.mark.parametrize("name", [*PRESET_NAMES, "random"])
def test_distribution_is_the_nth_law_of_distributions(name):
    rng = Random(name)
    coin = random_unitary_coin(rng) if name == "random" else preset_coin(name)
    spinor = random_unit_pair(rng)
    for n, law in enumerate(distributions(coin, spinor, 12)):
        got = distribution(coin, spinor, n)
        assert [(x, p.hex()) for x, p in got.items()] == [(x, p.hex()) for x, p in law.items()], n


def test_distributions_hold_one_law_at_a_time():
    # a probe after each law: a held series is alive from the first law on
    start = peak = sys.getallocatedblocks()
    for _ in distributions(preset_coin("hadamard"), up_spinor(), TRACED_STEPS):
        peak = max(peak, sys.getallocatedblocks())
    assert peak - start < HELD_BLOCKS


def test_measure_keeps_no_blocks_across_calls():
    # 500 blocks here when its values tuple was built from an iterator
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


def _states(*amplitudes):
    """A finite and a periodic state, one site per amplitude, in its left w component."""
    pairs = [(q(a), q()) for a in amplitudes]
    return FiniteSupportState(-1, pairs), PeriodicState(pairs)


def _pair_weights(state) -> list[float]:
    """The site weights of ``state.pairs``, every site of its window or period."""
    return _weights([left.components() + right.components() for left, right in state.pairs])


def _constructor_measure(state) -> Measure:
    """The ``Measure`` of the site weights of ``state.pairs``."""
    if isinstance(state, PeriodicState):
        return Measure(_pair_weights(state), periodic=True)
    return Measure(_pair_weights(state), offset=state.offset)


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
        assert sum(_pair_weights(state)) == math.inf
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


def _range_max_dev(one: Measure, other: Measure) -> float:
    """``max_dev`` as a scan of every site from the lower start to the higher end."""
    lo = min(one.offset, other.offset)
    hi = max(one.offset + len(one.values), other.offset + len(other.values))
    return max_or_nan([abs(one.value(x) - other.value(x)) for x in range(lo, hi)])


def _random_weights(rng: Random, size: int) -> list[float]:
    """``size`` weights, some of them 0.0, one of them at least 0.1."""
    weights = [rng.choice([0.0, rng.random()]) for _ in range(size)]
    weights[rng.randrange(size)] = rng.uniform(0.1, 1.0)
    return weights


@pytest.mark.parametrize("layout", ["overlapping", "touching", "disjoint", "periodic"])
def test_max_dev_equals_the_scan_from_the_lower_start_to_the_higher_end(layout):
    rng = Random(f"max-dev-{layout}")
    for _ in range(200):
        size, other_size = rng.randint(1, 6), rng.randint(1, 6)
        if layout == "periodic":
            other_size, offset, other_offset = size, 0, 0
        else:
            offset = rng.randint(-5, 5)
            shift = {"overlapping": rng.randint(1 - other_size, size - 1),
                     "touching": rng.choice([size, -other_size]),
                     "disjoint": rng.choice([size, -other_size - 1]) + rng.randint(1, 9)}[layout]
            other_offset = offset + shift
        periodic = layout == "periodic"
        one = Measure(_random_weights(rng, size), offset=offset, periodic=periodic)
        other = Measure(_random_weights(rng, other_size), offset=other_offset, periodic=periodic)
        assert one.max_dev(other) == _range_max_dev(one, other)
        assert other.max_dev(one) == _range_max_dev(other, one)


def test_max_dev_reads_only_the_sites_of_both_windows(monkeypatch):
    # every site between two far-apart windows is 0.0 in both: a scan of the
    # gap would read each measure's value 10**6 times here
    calls = []
    value = Measure.value
    monkeypatch.setattr(Measure, "value", lambda self, x: calls.append(x) or value(self, x))
    one, other = Measure([1.0, 0.5]), Measure([0.5, 0.25, 1.0], offset=10**6)
    assert one.max_dev(other) == 1.0
    assert len(calls) <= 2 * (2 + 3)


@pytest.mark.parametrize("offset", [0.5, 1.9, "3"], ids=["float-0.5", "float-1.9", "str-3"])
def test_offsets_are_integers(offset):
    # int() would read these as sites 0, 1 and 3
    with pytest.raises(TypeError):
        Measure([1.0], offset=offset)
    with pytest.raises(TypeError):
        FiniteSupportState(offset, [up_spinor()])


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
    x-1.  A site that is absent or None contributes a zero with no
    arithmetic, and a site with neither neighbour is None: a site off the
    parity of a point-started walk, which the walk never computes.
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


def _assert_measure_bits(state) -> None:
    """The state's stored weights against a measure rebuilt from its pairs."""
    assert ([v.hex() for v in state.measure().values]
            == [v.hex() for v in _constructor_measure(state).values])


@pytest.mark.parametrize("entries", ["real", "complex", "quaternion"])
def test_flat_walk_is_bit_identical_to_the_scalar_walk(entries):
    rng = Random(60)
    coin = random_unitary_coin(rng, entries)
    spinor = random_unit_pair(rng)
    finite = FiniteSupportState.delta(spinor)
    reference = {0: spinor}
    # periods of both parities, which step as one closed chain or as two;
    # the period-5 block holds a zero pair and a -0.0 one
    blocks = [[random_unit_pair(rng) for _ in range(4)] + [(q(), q(0.0, -0.0))]]
    other = Random(61)
    blocks += [[random_unit_pair(other) for _ in range(period)] for period in (1, 2, 6)]
    periodics = [PeriodicState(pairs) for pairs in blocks]
    for t in range(1, 41):
        finite = finite.evolve(coin)
        assert finite.sites() == range(-t, t + 1)
        reference = _scalar_step(coin, reference, finite.sites())
        _assert_bits(finite, reference)
        _assert_measure_bits(finite)

        for i, pairs in enumerate(blocks):
            periodics[i] = periodics[i].evolve(coin)
            period = len(pairs)
            wrapped = {x: pairs[x % period] for x in range(-1, period + 1)}
            stepped = _scalar_step(coin, wrapped, range(period))
            blocks[i] = [stepped[x] for x in range(period)]
            _assert_bits(periodics[i], dict(enumerate(blocks[i])))
            _assert_measure_bits(periodics[i])

    # dense caller windows at a nonzero offset, with a zero pair and a -0.0 one
    for n in range(2, 6):
        window = [random_unit_pair(rng) for _ in range(n - 2)]
        window += [(q(), q()), (q(-0.0, 0.6), q(0.0, -0.0, 0.8, -0.0))]
        rng.shuffle(window)
        offset = (-1) ** n * n
        finite = FiniteSupportState(offset, window)
        reference = {offset + j: pair for j, pair in enumerate(window)}
        for t in range(1, 21):
            finite = finite.evolve(coin)
            assert finite.sites() == range(offset - t, offset + n + t)
            reference = _scalar_step(coin, reference, finite.sites())
            _assert_bits(finite, reference)
            _assert_measure_bits(finite)


_NON_FINITE = [(q(math.inf, 1.0), q(1.0, 0.5)), (q(0.0, -math.inf), q(0.0, -0.0)),
               (q(math.nan), q(0.0, 0.0, 1.0)), (q(0.6), q(0.0, -0.0, 0.8))]


def _named_coin(name: str) -> Coin:
    if name == "random-real":
        return random_unitary_coin(Random(62), "real")
    if name == "b0":
        return _random_b0_coin(Random(63))
    return preset_coin(name)


@pytest.mark.parametrize("name", ["hadamard", "flip", "random-real", "b0"])
def test_non_finite_amplitudes_step_as_the_scalar_product(name):
    # a zero coin float times an infinite or NaN amplitude is NaN, so no
    # product may be left out of a step whose input is not finite
    coin = _named_coin(name)
    windows = [(0, [pair]) for pair in _NON_FINITE[:3]] + [(-2, _NON_FINITE)]
    finites = [FiniteSupportState(offset, pairs) for offset, pairs in windows]
    references = [{offset + j: pair for j, pair in enumerate(pairs)} for offset, pairs in windows]
    blocks = [_NON_FINITE[:1], _NON_FINITE[1:3], _NON_FINITE[:3], _NON_FINITE]
    periodics = [PeriodicState(pairs) for pairs in blocks]
    for _ in range(3):
        for i, state in enumerate(finites):
            finites[i] = state = state.evolve(coin)
            references[i] = _scalar_step(coin, references[i], state.sites())
            _assert_bits(state, references[i])
            assert [w.hex() for w in state._weights] == [w.hex() for w in _weights(state._sites)]
        for i, pairs in enumerate(blocks):
            periodics[i] = state = periodics[i].evolve(coin)
            period = len(pairs)
            wrapped = {x: pairs[x % period] for x in range(-1, period + 1)}
            stepped = _scalar_step(coin, wrapped, range(period))
            blocks[i] = [stepped[x] for x in range(period)]
            _assert_bits(state, dict(enumerate(blocks[i])))
            assert [w.hex() for w in state._weights] == [w.hex() for w in _weights(state._sites)]


_component = st.floats(min_value=-2.0, max_value=2.0)
_amplitude = st.one_of(
    st.builds(Quaternion),  # a zero the caller passes, which is computed with
    st.builds(Quaternion, st.sampled_from([0.0, -0.0]), _component, _component, _component),
    st.builds(Quaternion, _component, _component, _component, _component))


def _masked_coin(seed: int) -> Coin:
    """A random quaternion coin with a random set of its floats zeroed, some as -0.0."""
    rng = Random(seed)
    flat = [rng.choice((v, 0.0, -0.0)) for v in random_unitary_coin(rng).flat]
    return unchecked_coin(_unflat(flat))


# a coin of every zero pattern: dense random coins, the presets, verify's
# b=0 coins and coins with random zero masks, whose rows are not unitary
_coin = st.one_of(
    st.builds(random_unitary_coin, st.integers(0, 2 ** 32).map(Random),
              st.sampled_from(("real", "complex", "quaternion"))),
    st.sampled_from(PRESET_NAMES).map(preset_coin),
    st.integers(0, 2 ** 32).map(lambda seed: _random_b0_coin(Random(seed))),
    st.integers(0, 2 ** 32).map(_masked_coin))


@given(coin=_coin, pairs=st.lists(st.tuples(_amplitude, _amplitude), min_size=1, max_size=6))
# a zero upper half whose signs of zero the products by the zero floats decide
@example(coin=preset_coin("hadamard"),
         pairs=[(q(-0.0, -1.0, 1.0, 1.0), q(-0.0, 1.0, 1.0, 1.0))])
def test_coin_rows_are_bit_identical_to_the_scalar_product(coin, pairs):
    chain = [left.components() + right.components() for left, right in pairs]
    sites, weights = _chain(coin, chain, _weights(chain))
    assert len(sites) == len(weights) == len(pairs) + 1
    zero = (0.0, 0.0, 0.0, 0.0)
    for j, (site, weight) in enumerate(zip(sites, weights)):
        # the upper half from the site j of the chain, the lower one from j - 1
        top = coin.matrix.apply(pairs[j])[0].components() if j < len(pairs) else zero
        bottom = coin.matrix.apply(pairs[j - 1])[1].components() if j else zero
        assert [v.hex() for v in site] == [v.hex() for v in top + bottom], j
        assert weight.hex() == _weights([site])[0].hex(), j


def test_one_kernel_is_compiled_per_zero_pattern(monkeypatch):
    compiled, patterns = [], set()
    chain, kernel = walk._chain, walk._kernel

    def recording_chain(coin, sites, weights):
        patterns.add(coin.flat_zeros)  # every verify state is finite
        return chain(coin, sites, weights)

    def counting_kernel(zeros):
        compiled.append(zeros)
        return kernel(zeros)

    monkeypatch.setattr(walk, "_KERNELS", {})
    monkeypatch.setattr(walk, "_chain", recording_chain)
    monkeypatch.setattr(walk, "_kernel", counting_kernel)
    run_suites("all", seed=0)
    assert len(compiled) == len(patterns) == len(walk._KERNELS)
    assert set(compiled) == patterns == set(walk._KERNELS)
    # random quaternion coins, real ones (hadamard's pattern), flip and flip-neg, and b=0 coins
    assert patterns == {walk._DENSE, preset_coin("hadamard").flat_zeros,
                        preset_coin("flip").flat_zeros, _random_b0_coin(Random(0)).flat_zeros}


def test_point_started_walks_step_only_their_live_sites(monkeypatch):
    handed = []

    def counting_chain(coin, chain, weights):
        handed.append(len(chain))
        return _chain(coin, chain, weights)

    monkeypatch.setattr("qqwalk.walk._chain", counting_chain)
    # the stream steps the chain itself; distribution steps states from FiniteSupportState.delta
    for walk in (lambda *args: list(distributions(*args))[30], distribution):
        handed.clear()
        law = walk(preset_coin("hadamard"), up_spinor(), 30)
        assert handed == [t + 1 for t in range(30)]  # the live parity of the 2t + 1 window
        assert sorted(law) == list(range(-30, 31, 2))


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

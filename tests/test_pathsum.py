"""Path sums: enumeration, word reduction, and basis decomposition."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk import (
    CapExceededError,
    Coin,
    FiniteSupportState,
    InvalidSplitError,
    PQWord,
    QMatrix2,
    Quaternion,
    decompose_pqrs,
    path_sum,
    path_sum_bruteforce,
    path_sum_reduced,
    path_sums,
    preset_coin,
    random_unit_pair,
    random_unitary_coin,
    reduce_word,
)
from qqwalk import pathsum
from qqwalk.coin import PRESET_NAMES, PRODUCT_RULES

from conftest import SQRT_HALF, assert_mclose, assert_qclose, blocks_kept, q, unchecked_coin


def test_word_construction():
    word = PQWord.from_letters("PPQP")
    assert word.blocks == (("P", 2), ("Q", 1), ("P", 1))
    assert word.letters() == "PPQP"
    assert word.length == 4
    assert word.p_count == 3
    assert word.q_count == 1


def test_word_validation():
    with pytest.raises(ValueError):
        PQWord((("P", 2), ("P", 1)))
    with pytest.raises(ValueError):
        PQWord((("X", 1),))
    with pytest.raises(ValueError):
        PQWord((("P", 0),))
    with pytest.raises(ValueError):
        PQWord(())


def test_bruteforce_is_word_sum():
    # three-step split (2, 1) enumerates exactly PPQ, PQP, QPP
    coin = random_unitary_coin(Random(21))
    p, qm = coin.p, coin.q
    expected = (p @ p @ qm) + (p @ qm @ p) + (qm @ p @ p)
    assert_mclose(path_sum_bruteforce(coin, 3, 2, 1), expected)


def test_golden_xi3_21():
    coin = preset_coin("example-ijk")
    scale = SQRT_HALF ** 3
    expected = QMatrix2(q(0, 0, 0, 2 * scale), q(),
                        q(0, 0, scale), q(0, 0, 0, -scale))
    assert_mclose(path_sum_bruteforce(coin, 3, 2, 1), expected)


def test_golden_xi4_22():
    coin = preset_coin("example-ijk")
    expected = QMatrix2(q(0.25), q(0, 0.25), q(0, 0.25), q(0.25))
    assert_mclose(path_sum_bruteforce(coin, 4, 2, 2), expected)


def test_pure_p_word():
    coin = preset_coin("example-ijk")
    a = coin.a
    assert_mclose(path_sum_bruteforce(coin, 3, 3, 0), (a * a) * coin.p)


def test_general_entry_structure_xi3_21():
    # entry-level check against the expanded word sum for a generic coin
    coin = random_unitary_coin(Random(22))
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    xi = path_sum_bruteforce(coin, 3, 2, 1)
    assert_qclose(xi.e11, a * b * c + b * c * a)
    assert_qclose(xi.e12, a * b * d + b * c * b)
    assert_qclose(xi.e21, c * a * a)
    assert_qclose(xi.e22, c * a * b)


def test_reduce_single_letter_blocks():
    coin = random_unitary_coin(Random(23))
    a = coin.a
    for k in range(1, 6):
        coeff, basis = reduce_word(coin, PQWord.from_letters("P" * k))
        assert basis == "P"
        expected = Quaternion(1.0)
        for _ in range(k - 1):
            expected = expected * a
        assert_qclose(coeff, expected)


def test_reduce_alternating_blocks():
    coin = random_unitary_coin(Random(24))
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    coeff, basis = reduce_word(coin, PQWord.from_letters("PPQQQP"))
    assert basis == "P"
    assert_qclose(coeff, a * b * d * d * c)
    # leading-Q mate
    coeff, basis = reduce_word(coin, PQWord.from_letters("QQPPQQQ"))
    assert basis == "Q"
    assert_qclose(coeff, d * c * a * b * d * d)


def test_reduce_pq():
    coin = random_unitary_coin(Random(25))
    coeff, basis = reduce_word(coin, PQWord.from_letters("PQ"))
    assert basis == "R"
    assert_qclose(coeff, coin.b)


def test_reduce_matches_brute_fold():
    rng = Random(26)
    for _ in range(40):
        coin = random_unitary_coin(rng)
        letters = "".join(rng.choice("PQ") for _ in range(rng.randint(1, 9)))
        coeff, basis = reduce_word(coin, PQWord.from_letters(letters))
        product = coin.basis(letters[0])
        for letter in letters[1:]:
            product = product @ coin.basis(letter)
        assert_mclose(coeff * coin.basis(basis), product, 1e-12)


def test_reduced_equals_bruteforce():
    rng = Random(27)
    for _ in range(20):
        coin = random_unitary_coin(rng)
        for n in range(0, 11):
            for l in range(n + 1):
                brute = path_sum_bruteforce(coin, n, l, n - l)
                reduced = path_sum_reduced(coin, n, l, n - l)
                assert brute.max_dev(reduced) <= 1e-10


def _word_by_word(coin, n, l):
    """Both oracle sums, each word folded on its own, summed in the order of
    ``itertools.combinations`` over the P positions."""
    if n == 0:
        return QMatrix2.identity(), QMatrix2.identity()

    def reduce_step(folded, letter):
        coeff, basis = folded
        entry_name, basis = PRODUCT_RULES[(basis, letter)]
        return coeff * coin.entry(entry_name), basis

    total = QMatrix2.zeros()
    sums = {letter: Quaternion() for letter in "PQRS"}
    for positions in itertools.combinations(range(n), l):
        word = ["P" if i in positions else "Q" for i in range(n)]
        total = total + functools.reduce(
            lambda product, letter: product @ coin.basis(letter),
            word[1:], coin.basis(word[0]))
        coeff, basis = functools.reduce(reduce_step, word[1:], (Quaternion(1.0), word[0]))
        sums[basis] = sums[basis] + coeff
    return total, (sums["P"] * coin.p + sums["Q"] * coin.q
                   + sums["R"] * coin.r + sums["S"] * coin.s)


def _hexes(matrix):
    return [v.hex() for entry in (matrix.e11, matrix.e12, matrix.e21, matrix.e22)
            for v in entry.components()]


# hadamard with its zero components written -0.0: a product with a
# dropped zero term could then differ from the scalar one in a zero's sign
_NEG_ZERO_HADAMARD = Coin(QMatrix2(*(Quaternion(sign * SQRT_HALF, -0.0, -0.0, -0.0)
                                     for sign in (1, 1, 1, -1))))



def _cycled(coin, shift):
    """``coin`` with the (x, y, z) components of its entries shifted ``shift`` places along.

    i -> j -> k -> i is an automorphism of H, so the coin stays unitary: a
    complex coin's entries move from the i-plane to the j- or k-plane, and
    its steps to other zero patterns.
    """
    entries = []
    for entry in (coin.a, coin.b, coin.c, coin.d):
        w, *xyz = entry.components()
        entries.append(Quaternion(w, *xyz[-shift:], *xyz[:-shift]))
    return Coin(QMatrix2(*entries))


_coins = st.one_of(
    st.sampled_from(PRESET_NAMES).map(preset_coin),
    st.just(_NEG_ZERO_HADAMARD),
    st.builds(lambda seed, entries: random_unitary_coin(Random(seed), entries),
              st.integers(0, 2 ** 32), st.sampled_from(("real", "complex", "quaternion"))),
    st.builds(lambda seed, shift: _cycled(random_unitary_coin(Random(seed), "complex"), shift),
              st.integers(0, 2 ** 32), st.sampled_from((1, 2))))


@settings(deadline=None)
@given(coin=_coins, n=st.integers(0, 10), data=st.data())
def test_oracles_are_bit_identical_to_word_by_word_folds(coin, n, data):
    l = data.draw(st.integers(0, n))
    brute, reduced = _word_by_word(coin, n, l)
    assert _hexes(path_sum_bruteforce(coin, n, l, n - l)) == _hexes(brute)
    assert _hexes(path_sum_reduced(coin, n, l, n - l)) == _hexes(reduced)


def test_cycled_coins_move_a_complex_coin_to_the_j_and_k_planes():
    coin = random_unitary_coin(Random(43), "complex")
    assert coin.flat_zeros == bytes([0, 0, 1, 1] * 4)
    assert _cycled(coin, 1).flat_zeros == bytes([0, 1, 0, 1] * 4)
    assert _cycled(coin, 2).flat_zeros == bytes([0, 1, 1, 0] * 4)
    assert _cycled(coin, 1).a == Quaternion(coin.a.w, 0.0, coin.a.x, 0.0)


def test_reduce_word_keeps_the_bits_of_the_scalar_product_chain():
    # a sparse step could flip a zero's sign, and no total absorbs it here
    for coin in map(preset_coin, PRESET_NAMES):
        for n in range(1, 9):
            for letters in itertools.product("PQ", repeat=n):
                coeff, basis = Quaternion(1.0), letters[0]
                for letter in letters[1:]:
                    entry_name, basis = PRODUCT_RULES[(basis, letter)]
                    coeff = coeff * coin.entry(entry_name)
                reduced = reduce_word(coin, PQWord.from_letters(letters))
                assert [v.hex() for v in reduced[0].components()] == \
                    [v.hex() for v in coeff.components()]
                assert reduced[1] == basis


class _CountingFloat(float):
    """A float that counts the products it, or its negation, is the left factor of."""

    products = 0

    def __mul__(self, other):
        _CountingFloat.products += 1
        return float(self) * other

    def __neg__(self):  # a step may open a component with ``-hx * ex``
        return _CountingFloat(-float(self))


def _products(step):
    """Products that one call of ``step`` takes on a half with no zero component."""
    _CountingFloat.products = 0
    step(tuple(map(_CountingFloat, (0.5, -0.25, 0.125, 0.75))))
    return _CountingFloat.products


@pytest.mark.parametrize("coin, step_products, leaf_products", [
    # one nonzero float an entry: 12866 * 4 + 3432 * 8 = 78920 products at
    # n = 14, l = 7, where dense steps take 315680
    (preset_coin("example-ijk"), 4, 8),
    (preset_coin("hadamard"), 4, 8),
    (random_unitary_coin(Random(44), "complex"), 8, 16),
    (random_unitary_coin(Random(45)), 16, 32),
], ids=["example-ijk", "hadamard", "complex", "quaternion"])
def test_steps_leave_out_the_products_of_zero_entry_floats(coin, step_products, leaf_products):
    for steps in (pathsum._half_steps(coin), pathsum._reduction_steps(coin)):
        for to_p, to_q in steps.values():
            assert _products(to_p) == _products(to_q) == step_products
    for leaf_row in pathsum._leaf_rows(coin).values():
        assert _products(leaf_row) == leaf_products
    # reduce_word steps densely whatever the coin
    for to_p, to_q in pathsum._reduction_steps(coin, dense=True).values():
        assert _products(to_p) == _products(to_q) == 16


def _counting(build, steps):
    """``build`` with every step it returns recording its (last, next) pair in ``steps``."""
    def counting_build(coin):
        def counting(pair, step):
            def counting_step(folded):
                steps.append(pair)
                return step(folded)
            return counting_step
        return {last: (counting((last, "P"), to_p), counting((last, "Q"), to_q))
                for last, (to_p, to_q) in build(coin).items()}
    return counting_build


def _assert_folds_each_shared_prefix_once(monkeypatch, oracle, builder):
    coin = preset_coin("example-ijk")
    steps = []
    monkeypatch.setattr(pathsum, builder, _counting(getattr(pathsum, builder), steps))
    oracle(coin, 14, 7, 7)
    # the word tree has C(16, 8) - 1 prefixes, 3 of them of length <= 1;
    # a forced tail folds each of its prefixes once too
    assert len(steps) == math.comb(16, 8) - 4 == 12866
    for l in (0, 14):
        steps.clear()
        oracle(coin, 14, l, 14 - l)
        assert steps == [("Q", "Q") if l == 0 else ("P", "P")] * 13


def _counting_leaves(build, leaves):
    """``build`` with every leaf expansion it returns recording its last letter in ``leaves``."""
    def counting_build(coin):
        def counting(last, expand):
            def counting_expand(half):
                leaves.append(last)
                return expand(half)
            return counting_expand
        return {last: counting(last, expand) for last, expand in build(coin).items()}
    return counting_build


def test_bruteforce_folds_each_shared_prefix_once(monkeypatch):
    # one half step per shared prefix and one row per word: with a dense
    # coin's 16 and 32 products, 12866 * 16 + 3432 * 32 = 315680 products at
    # n = 14, l = 7, where a fold of whole rows took 12866 * 32 = 411712
    leaves = []
    monkeypatch.setattr(pathsum, "_leaf_rows", _counting_leaves(pathsum._leaf_rows, leaves))
    _assert_folds_each_shared_prefix_once(monkeypatch, path_sum_bruteforce, "_half_steps")
    # the C(14, 7) words of l = 7, then the one word of l = 0 and of l = 14
    assert len(leaves) == math.comb(14, 7) + 2 == 3434
    assert leaves[-2:] == ["Q", "P"]


def test_reduced_folds_each_shared_prefix_once(monkeypatch):
    _assert_folds_each_shared_prefix_once(monkeypatch, path_sum_reduced, "_reduction_steps")


def test_oracles_keep_no_blocks_across_calls():
    # 1000 blocks here when _flat read an iterator, 500 when the reduced
    # totals did; the oracles read what the coin stores, so the next test
    # guards _flat
    coin = preset_coin("hadamard")
    for oracle in (path_sum_bruteforce, path_sum_reduced):
        assert blocks_kept(lambda: oracle(coin, 6, 3, 3)) < 100


def test_decompose_keeps_no_blocks_across_calls():
    # decompose_pqrs flattens its matrix on every call: 500 blocks here when
    # _flat built its tuple from an iterator
    coin = preset_coin("hadamard")
    matrix = path_sum(coin, 6, 3, 3)
    assert blocks_kept(lambda: decompose_pqrs(coin, matrix)) < 100


def test_path_sums_keep_no_blocks_across_calls():
    # the two columns are zipped from a list: 500 blocks here from a generator
    coin = preset_coin("hadamard")
    assert blocks_kept(lambda: path_sums(coin, 2)) < 100


def test_row_sum_is_coin_power():
    for coin in (preset_coin("hadamard"), random_unitary_coin(Random(28))):
        power = QMatrix2.identity()
        for n in range(0, 11):
            total = QMatrix2.zeros()
            for l in range(n + 1):
                total = total + path_sum_reduced(coin, n, l, n - l)
            assert total.max_dev(power) <= 1e-10
            power = power @ coin.matrix


def test_decompose_known_coefficients():
    coin = random_unitary_coin(Random(29))
    a, b, c = coin.a, coin.b, coin.c
    deco = decompose_pqrs(coin, path_sum_bruteforce(coin, 4, 3, 1))
    assert_qclose(deco.p, a * b * c + b * c * a)
    assert_qclose(deco.q, q())
    assert_qclose(deco.r, a * a * b)
    assert_qclose(deco.s, c * a * a)


def test_decompose_complex_specialization():
    coin = random_unitary_coin(Random(30), entries="complex")
    a, b, c = coin.a, coin.b, coin.c
    deco = decompose_pqrs(coin, path_sum_bruteforce(coin, 4, 3, 1))
    assert_qclose(deco.p, 2.0 * (a * b * c))
    assert_qclose(deco.q, q())
    assert_qclose(deco.r, (a * a) * b)
    assert_qclose(deco.s, (a * a) * c)


def test_decompose_basis_element():
    coin = preset_coin("example-ijk")
    deco = decompose_pqrs(coin, coin.p)
    assert_qclose(deco.p, q(1))
    assert_qclose(deco.q, q())
    assert_qclose(deco.r, q())
    assert_qclose(deco.s, q())


def test_decompose_round_trip_random_combos():
    rng = Random(31)
    for _ in range(20):
        coin = random_unitary_coin(rng)
        coeffs = [Quaternion(*(rng.gauss(0, 1) for _ in range(4))) for _ in range(4)]
        matrix = (coeffs[0] * coin.p + coeffs[1] * coin.q
                  + coeffs[2] * coin.r + coeffs[3] * coin.s)
        deco = decompose_pqrs(coin, matrix)
        assert_qclose(deco.p, coeffs[0], 1e-10)
        assert_qclose(deco.q, coeffs[1], 1e-10)
        assert_qclose(deco.r, coeffs[2], 1e-10)
        assert_qclose(deco.s, coeffs[3], 1e-10)
        assert_mclose(deco.reconstruct(coin), matrix, 1e-10)


def test_decompose_rejects_non_orthonormal_rows():
    # projection formulas rely on row orthonormality; feed them a shear
    shear = unchecked_coin(QMatrix2(1, 1, 0, 1))
    assert decompose_pqrs(shear, QMatrix2(1, 0, 0, 0)).residual > 1e-10


def test_walk_consistency():
    rng = Random(32)
    for _ in range(5):
        coin = random_unitary_coin(rng)
        spinor = random_unit_pair(rng)
        state = FiniteSupportState.delta(spinor)
        for n in range(0, 9):
            for l in range(n + 1):
                m = n - l
                expected = path_sum_reduced(coin, n, l, m).apply(spinor)
                actual = state.amplitude(m - l)
                assert actual[0].max_dev(expected[0]) <= 1e-10
                assert actual[1].max_dev(expected[1]) <= 1e-10
            state = state.evolve(coin)


def test_split_validation():
    coin = preset_coin("hadamard")
    with pytest.raises(InvalidSplitError):
        path_sum_bruteforce(coin, 3, 1, 1)
    with pytest.raises(InvalidSplitError):
        path_sum_reduced(coin, 3, -1, 4)
    with pytest.raises(InvalidSplitError):
        path_sum(coin, 3, 1, 1)
    with pytest.raises(CapExceededError):
        path_sum_bruteforce(coin, 25, 20, 5)
    with pytest.raises(CapExceededError):
        path_sum_reduced(coin, 25, 20, 5)


def test_zero_step_split_is_identity():
    coin = preset_coin("hadamard")
    assert path_sum_bruteforce(coin, 0, 0, 0) == QMatrix2.identity()
    assert path_sum_reduced(coin, 0, 0, 0) == QMatrix2.identity()
    assert path_sum(coin, 0, 0, 0) == QMatrix2.identity()
    # a one-step split is its one letter: each first letter's root, with an empty tail
    for coin in map(preset_coin, PRESET_NAMES):
        for oracle in (path_sum_bruteforce, path_sum_reduced):
            assert oracle(coin, 1, 1, 0) == coin.p
            assert oracle(coin, 1, 0, 1) == coin.q


def test_path_sums_beyond_cap_form_a_resolution_of_identity():
    # sum_l Xi^dagger Xi over the splits of n is the identity for a unitary
    # coin, because the walk preserves the norm of every initial spinor
    coin = random_unitary_coin(Random(40))
    total = QMatrix2.zeros()
    for xi in path_sums(coin, 40):
        total = total + xi.adjoint() @ xi
    assert_mclose(total, QMatrix2.identity(), 1e-10)


def test_path_sums_return_one_matrix_per_split():
    coin = random_unitary_coin(Random(41))
    for n in (0, 1, 2, 7, 30):
        assert len(path_sums(coin, n)) == n + 1
    assert path_sums(coin, 0) == [QMatrix2.identity()]
    with pytest.raises(InvalidSplitError):
        path_sums(coin, -1)


_SPLIT_COINS = {**{name: preset_coin(name) for name in PRESET_NAMES},
                **{f"random-{entries}": random_unitary_coin(Random(42), entries)
                   for entries in ("real", "complex", "quaternion")}}


@pytest.mark.parametrize("name", sorted(_SPLIT_COINS))
def test_path_sums_match_the_bruteforce_oracle_at_every_split(name):
    coin = _SPLIT_COINS[name]
    for n in range(11):
        for l, xi in enumerate(path_sums(coin, n)):
            assert_mclose(xi, path_sum_bruteforce(coin, n, l, n - l), 1e-10)


# sha256 of the to_json of every split at n <= 12, as one path_sum call per
# split computed them from its own pair of walks: one pair for all splits
# must give every split the same bits
_SPLIT_DIGESTS = {
    "example-ijk": "1d60b0710998b62d116391b2e531136eb8321d5db12b9eaec9defb47ebbceea0",
    "flip": "810a73488dc85e72f7fb2641523ed5b8b147a0441c4d0c47819998318a35f32c",
    "flip-neg": "598edf2cd92c587b2a0bebb3961db7e5d6f59cc6f56eabea138c1c023041d804",
    "hadamard": "ca3a23dfcad0f0e88a5cf086eec82deda6f54777236dcdaede3efc274b7a6283",
}


@pytest.mark.parametrize("name", sorted(_SPLIT_DIGESTS))
def test_path_sums_keep_the_bits_of_one_walk_per_split(name):
    coin = preset_coin(name)
    text = json.dumps([xi.to_json() for n in range(13) for xi in path_sums(coin, n)])
    assert hashlib.sha256(text.encode()).hexdigest() == _SPLIT_DIGESTS[name]


def test_decompose_rejects_nan_matrix():
    coin = preset_coin("hadamard")
    assert math.isnan(decompose_pqrs(coin, QMatrix2(Quaternion(float("nan")), 0, 0, 1)).residual)


def test_decompose_returns_its_reconstruction_residual():
    rng = Random(32)
    for _ in range(10):
        coin = random_unitary_coin(rng)
        matrix = path_sum_bruteforce(coin, 5, 2, 3)
        deco = decompose_pqrs(coin, matrix)
        assert deco.residual == deco.reconstruct(coin).max_dev(matrix)
        assert sorted(deco.to_json()) == ["p", "q", "r", "s"]

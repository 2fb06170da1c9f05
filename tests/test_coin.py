"""Coin algebra: unitarity, the P/Q/R/S split, and the product table."""

from __future__ import annotations

import inspect
import json
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qqwalk
from qqwalk import (
    Coin,
    FiniteSupportState,
    NotUnitaryError,
    PQRSDecomposition,
    QMatrix2,
    Quaternion,
    check_two_step_uniformity,
    coin_from_json,
    coin_from_spec,
    decompose_pqrs,
    path_sum_bruteforce,
    path_sum_reduced,
    preset_coin,
    quadratic_form_coefficients,
    random_unitary_coin,
    right_eigen_check,
)
from qqwalk.coin import PRESET_NAMES, PRODUCT_RULES, _flat, _matmul, _max_dev
from qqwalk.quaternion import max_or_nan

from conftest import SQRT_HALF, assert_mclose, assert_qclose, q, unchecked_coin


def random_matrix(rng: Random) -> QMatrix2:
    return QMatrix2(*(Quaternion(*(rng.gauss(0, 1) for _ in range(4)))
                      for _ in range(4)))


def test_identity_matmul():
    m = random_matrix(Random(1))
    ident = QMatrix2.identity()
    assert (ident @ m) == m
    assert (m @ ident) == m


def test_hadamard_involution():
    h = preset_coin("hadamard").matrix
    assert_mclose(h @ h, QMatrix2.identity())


def test_adjoint_involution():
    m = random_matrix(Random(2))
    assert m.adjoint().adjoint() == m


def test_adjoint_antihomomorphism():
    rng = Random(3)
    for _ in range(20):
        m, n = random_matrix(rng), random_matrix(rng)
        assert_mclose((m @ n).adjoint(), n.adjoint() @ m.adjoint())


def test_is_unitary():
    assert preset_coin("hadamard").matrix.is_unitary(1e-10)
    assert preset_coin("example-ijk").matrix.is_unitary(1e-10)
    shear = QMatrix2(1, 1, 0, 1)
    assert not shear.is_unitary(1e-10)
    with pytest.raises(NotUnitaryError):
        Coin(shear)


def test_example_ijk_rows_orthonormal():
    coin = preset_coin("example-ijk")
    assert_qclose(coin.a * coin.a.conj() + coin.b * coin.b.conj(), q(1))
    assert_qclose(coin.c * coin.c.conj() + coin.d * coin.d.conj(), q(1))
    assert_qclose(coin.a * coin.c.conj() + coin.b * coin.d.conj(), q(0))


def test_split_hadamard():
    coin = preset_coin("hadamard")
    assert coin.p == QMatrix2(SQRT_HALF, SQRT_HALF, 0, 0)
    assert coin.q == QMatrix2(0, 0, SQRT_HALF, -SQRT_HALF)


def test_split_example_ijk():
    coin = preset_coin("example-ijk")
    assert coin.p == QMatrix2(q(SQRT_HALF), q(0, SQRT_HALF), q(), q())
    assert coin.q == QMatrix2(q(), q(), q(0, 0, SQRT_HALF), q(0, 0, 0, SQRT_HALF))


def test_split_flip():
    coin = preset_coin("flip")
    assert coin.p == QMatrix2(0, 1, 0, 0)
    assert coin.q == QMatrix2(0, 0, 1, 0)


def test_split_sums_to_coin_exactly():
    rng = Random(4)
    for coin in (preset_coin("hadamard"), preset_coin("example-ijk"),
                 random_unitary_coin(rng)):
        assert (coin.p + coin.q) == coin.matrix


def test_p_squared_is_a_times_p():
    rng = Random(5)
    for coin in (preset_coin("hadamard"), random_unitary_coin(rng)):
        assert_mclose(coin.p @ coin.p, coin.a * coin.p)


def test_zero_pattern_marks_each_signed_zero_float():
    coin = Coin(QMatrix2(q(-0.0, 1.0), q(), q(), q(0.0, 0.0, -0.0, 1.0)))
    assert list(coin.flat_zeros) == [1, 0, 1, 1] + [1] * 11 + [0]
    for c in [preset_coin(name) for name in PRESET_NAMES] + [random_unitary_coin(Random(2))]:
        assert list(c.flat_zeros) == [int(v == 0.0) for v in c.flat]


def test_product_table_entries():
    h = preset_coin("hadamard")
    table = h.product_table()
    coeff, basis = table[("P", "Q")]
    assert basis == "R"
    assert_qclose(coeff, q(SQRT_HALF))

    ijk = preset_coin("example-ijk")
    coeff, basis = ijk.product_table()[("Q", "P")]
    assert basis == "S"
    assert_qclose(coeff, q(0, 0, SQRT_HALF))
    assert_mclose(ijk.q @ ijk.p, coeff * ijk.s)


@pytest.mark.parametrize("name", ["hadamard", "example-ijk", "flip", "flip-neg"])
def test_product_table_matches_products_presets(name):
    coin = preset_coin(name)
    for (left, right), (coeff, basis) in coin.product_table().items():
        direct = coin.basis(left) @ coin.basis(right)
        assert_mclose(coeff * coin.basis(basis), direct, 1e-10)


def test_product_table_random_coins():
    rng = Random(6)
    for _ in range(20):
        coin = random_unitary_coin(rng)
        for (left, right), (coeff, basis) in coin.product_table().items():
            assert_mclose(coeff * coin.basis(basis),
                          coin.basis(left) @ coin.basis(right), 1e-10)


def test_product_table_detects_corruption():
    coin = preset_coin("hadamard")
    coin.flat_basis["P"] = _flat(QMatrix2(1, 1, 0, 0))  # no longer the top row of U
    assert coin.product_table().residual > 1e-10


def test_product_table_checks_the_rules(monkeypatch):
    # P Q = b R; a wrong rule must show in the residual, not only a wrong basis
    monkeypatch.setitem(PRODUCT_RULES, ("P", "Q"), ("a", "R"))
    assert preset_coin("example-ijk").product_table().residual > 1e-10


def test_product_rules_follow_from_the_end_letters():
    # P, Q, R and S are what the words that start and end as P..P, Q..Q, P..Q
    # and Q..P multiply out to, up to a left coefficient.  So B X is the coin
    # entry at row "last letter of B" and column "first letter of X" (P the
    # first, Q the second) times the basis that starts as B and ends as X.
    # The path-sum folds step on a word's last letter and the next one, and
    # read a word's basis from its first and last letters, because of this.
    ends = {"P": "PP", "Q": "QQ", "R": "PQ", "S": "QP"}
    entries = {"PP": "a", "PQ": "b", "QP": "c", "QQ": "d"}
    assert len(PRODUCT_RULES) == 16
    for (left, right), (name, result) in PRODUCT_RULES.items():
        assert name == entries[ends[left][1] + ends[right][0]], (left, right)
        assert ends[result] == ends[left][0] + ends[right][1], (left, right)


def test_random_sampler_unitary_and_subfields():
    rng = Random(7)
    for _ in range(20):
        assert random_unitary_coin(rng).matrix.is_unitary(1e-10)
    for _ in range(5):
        coin = random_unitary_coin(rng, entries="complex")
        assert coin.matrix.is_unitary(1e-10)
        assert all(e.y == 0.0 and e.z == 0.0 for e in coin.matrix.entries())
    for _ in range(5):
        coin = random_unitary_coin(rng, entries="real")
        assert coin.matrix.is_unitary(1e-10)
        assert all(e.x == e.y == e.z == 0.0 for e in coin.matrix.entries())
        assert coin.is_real()


def test_degeneracy_cases():
    assert preset_coin("flip").case() == "a=0"
    assert preset_coin("flip-neg").case() == "a=0"
    diag = Coin(QMatrix2(q(0, 1), q(), q(), q(0, 0, 0, 1)))
    assert diag.case() == "b=0"
    assert preset_coin("hadamard").case() == "abcd!=0"


def test_coin_json_round_trip():
    coin = preset_coin("example-ijk")
    again = coin_from_json(coin.to_json())
    assert again.matrix == coin.matrix


def test_coin_from_json_accepts_text_entries():
    coin = coin_from_json({"a": "0+0i+0j+0k", "b": "1", "c": "1", "d": [0, 0, 0, 0]})
    assert coin.matrix == preset_coin("flip").matrix


def test_coin_from_spec_forms(tmp_path):
    assert coin_from_spec("flip").matrix == preset_coin("flip").matrix
    inline = json.dumps(preset_coin("flip").to_json())
    assert coin_from_spec(inline).matrix == preset_coin("flip").matrix
    path = tmp_path / "coin.json"
    path.write_text(inline)
    assert coin_from_spec(str(path)).matrix == preset_coin("flip").matrix
    with pytest.raises(ValueError):
        coin_from_spec("no-such-preset")


def test_coin_from_json_rejects_missing_entries():
    with pytest.raises(ValueError):
        coin_from_json({"a": [1, 0, 0, 0]})


def test_matrix_apply_keeps_entry_order():
    m = QMatrix2(q(0, 1), q(), q(), q())  # e11 = i
    top, _ = m.apply((q(0, 0, 1), q()))   # i * j = k, not j * i
    assert top == q(0, 0, 0, 1)


def test_matrix_json_round_trip():
    m = random_matrix(Random(8))
    assert QMatrix2.from_json(m.to_json()) == m


def test_matrix_max_dev_propagates_nan():
    ident = QMatrix2.identity()
    for idx in range(4):
        entries = [q(1), q(), q(), q(1)]
        entries[idx] = q(0, 0, math.nan)
        assert math.isnan(QMatrix2(*entries).max_dev(ident))
        assert math.isnan(ident.max_dev(QMatrix2(*entries)))


def test_non_finite_coin_is_not_unitary():
    for bad in (math.nan, math.inf, -math.inf):
        for idx in range(4):
            entries = [q(1), q(), q(), q(1)]
            entries[idx] = entries[idx] + q(0, bad)
            assert not QMatrix2(*entries).is_unitary(1e-10)
            with pytest.raises(NotUnitaryError):
                Coin(QMatrix2(*entries))
    with pytest.raises(NotUnitaryError):
        coin_from_json({"a": [1, 0, 0, 0], "b": [0, 0, 0, 0],
                        "c": [0, 0, 0, 0], "d": [math.nan, 0, 0, 0]})


def test_product_table_detects_nan_corruption():
    coin = preset_coin("hadamard")
    coin.flat_basis["P"] = _flat(QMatrix2(q(math.nan), coin.b, 0, 0))
    assert math.isnan(coin.product_table().residual)


def test_unitarity_residual():
    rng = Random(11)
    ident = QMatrix2.identity()
    for _ in range(10):
        coin = random_unitary_coin(rng)
        u, adj = coin.matrix, coin.matrix.adjoint()
        expected = max((u @ adj).max_dev(ident), (adj @ u).max_dev(ident))
        assert coin.matrix.unitarity_residual() == expected
        assert coin.unitarity_residual == expected
    assert QMatrix2(1, 1, 0, 1).unitarity_residual() == 1.0
    assert math.isnan(QMatrix2(1, 0, 0, q(0, math.nan)).unitarity_residual())


def _nested_unitarity(matrix: QMatrix2) -> float:
    """The unitarity residual as one ``max_dev`` per product, then one ``max_or_nan``."""
    ident, adj = QMatrix2.identity(), matrix.adjoint()
    return max_or_nan(((matrix @ adj).max_dev(ident), (adj @ matrix).max_dev(ident)))


def _unitarity_cases():
    rng = Random(13)
    yield from (preset_coin(name).matrix for name in PRESET_NAMES)
    for entries in ("real", "complex", "quaternion"):
        yield from (random_unitary_coin(rng, entries).matrix for _ in range(20))
    yield from (random_matrix(rng) for _ in range(20))  # M M* and M* M deviate apart
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(16):
            flat = list(_flat(random_unitary_coin(rng).matrix))
            flat[slot] = bad
            yield QMatrix2(*(Quaternion(*flat[i:i + 4]) for i in range(0, 16, 4)))


def test_one_pass_unitarity_residual_keeps_the_bits_of_the_nested_one():
    cases = list(_unitarity_cases())
    assert any(math.isnan(_nested_unitarity(m)) for m in cases)
    for matrix in cases:
        assert matrix.unitarity_residual().hex() == _nested_unitarity(matrix).hex(), matrix


def test_flat_max_dev_is_nan_wherever_the_nan_sits():
    ident = QMatrix2.identity()
    for slot in range(16):
        flat = list(_flat(ident))
        flat[slot] = math.nan
        assert math.isnan(_max_dev(flat, _flat(ident))), slot
        assert math.isnan(_max_dev(_flat(ident), flat)), slot


def test_product_table_reports_its_worst_deviation():
    rng = Random(12)
    for coin in [preset_coin("example-ijk")] + [random_unitary_coin(rng) for _ in range(5)]:
        table = coin.product_table()
        devs = [(coeff * coin.basis(basis)).max_dev(coin.basis(left) @ coin.basis(right))
                for (left, right), (coeff, basis) in table.items()]
        assert len(devs) == 16
        assert table.residual == max(devs)


@pytest.mark.parametrize("func, name", [
    (Coin.__init__, "tol"),
    (Quaternion.is_unit, "tol"),
    (Quaternion.inv_unit, "tol"),
    (path_sum_bruteforce, "cap"),
    (path_sum_reduced, "cap"),
    (quadratic_form_coefficients, "tol"),
    (FiniteSupportState.delta, "site"),
    (Coin.case, "tol"),
    (Coin.is_real, "tol"),
    (Coin.product_table, "tol"),
    (decompose_pqrs, "tol"),
    (right_eigen_check, "tol"),
    (check_two_step_uniformity, "tol"),
])
def test_unused_knobs_are_gone(func, name):
    # fixed at DEFAULT_TOL, WORD_CAP and the origin; a check returns what it
    # measures, and only the CLI and the verify suites judge it against --tol
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("name", ["TableMismatchError", "NotInSpanError"])
def test_residual_errors_are_gone(name):
    # the product table and the decomposition return their residuals instead
    assert not hasattr(qqwalk, name)


@pytest.mark.parametrize("cls", [Quaternion, QMatrix2])
def test_uncalled_approx_eq_is_gone(cls):
    # ``max_dev`` is the one comparison; nothing in the package called these
    assert not hasattr(cls, "approx_eq")


# The flat kernel against the QMatrix2 operators, written out here as the
# reference.  Components include zeros and negatives, whose products make
# signed zeros, and NaN and infinities, which must give NaN or the same
# infinity on both sides; ``float.hex`` tells -0.0 from 0.0 and reads
# "nan" for every NaN.
_components = st.one_of(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                        st.sampled_from((0.0, -0.0, 1.0, -1.0, math.nan, math.inf,
                                         -math.inf, 1e308)))
_entries = st.one_of(st.builds(Quaternion, _components, _components, _components, _components),
                     st.builds(Quaternion, _components), st.just(Quaternion()))
_matrices = st.one_of(
    st.builds(QMatrix2, _entries, _entries, _entries, _entries),
    st.sampled_from(PRESET_NAMES).map(lambda name: preset_coin(name).matrix),
    st.builds(lambda seed, entries: random_unitary_coin(Random(seed), entries).matrix,
              st.integers(0, 2 ** 32), st.sampled_from(("real", "complex", "quaternion"))))


def _hexes(*quaternions):
    return [v.hex() for entry in quaternions for v in entry.components()]


def _scalar_reconstruct(coin, p, q, r, s):
    return p * coin.p + q * coin.q + r * coin.r + s * coin.s


@settings(derandomize=True, deadline=None)
@given(matrix=_matrices, other=_matrices, coeffs=st.tuples(_entries, _entries, _entries, _entries))
def test_flat_kernel_is_bit_identical_to_the_scalar_operators(matrix, other, coeffs):
    assert ([v.hex() for v in _matmul(_flat(matrix), _flat(other))]
            == _hexes(*(matrix @ other).entries()))

    ident, adj = QMatrix2.identity(), matrix.adjoint()
    unitarity = max_or_nan(((matrix @ adj).max_dev(ident), (adj @ matrix).max_dev(ident)))
    assert matrix.unitarity_residual().hex() == unitarity.hex()

    coin = unchecked_coin(matrix)
    table = max_or_nan([(coin.entry(name) * coin.basis(result))
                        .max_dev(coin.basis(left) @ coin.basis(right))
                        for (left, right), (name, result) in PRODUCT_RULES.items()])
    assert coin.product_table().residual.hex() == table.hex()

    assert (_hexes(*PQRSDecomposition(*coeffs, math.nan).reconstruct(coin).entries())
            == _hexes(*_scalar_reconstruct(coin, *coeffs).entries()))

    ac, bc, cc, dc = (entry.conj() for entry in matrix.entries())
    p = other.e11 * ac + other.e12 * bc
    r = other.e11 * cc + other.e12 * dc
    s = other.e21 * ac + other.e22 * bc
    q = other.e21 * cc + other.e22 * dc
    deco = decompose_pqrs(coin, other)
    assert _hexes(deco.p, deco.q, deco.r, deco.s) == _hexes(p, q, r, s)
    residual = _scalar_reconstruct(coin, p, q, r, s).max_dev(other)
    assert deco.residual.hex() == residual.hex()

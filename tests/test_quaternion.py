"""Quaternion arithmetic: generator relations, properties, serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qqwalk import I, J, K, ONE, ZERO, NotUnitError, Quaternion, parse_quaternion

from conftest import assert_qclose, blocks_kept, q

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_generator_relations():
    assert I * I == q(-1)
    assert J * J == q(-1)
    assert K * K == q(-1)
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J


def test_addition():
    assert q(1) + I == q(1, 1)
    assert (q(1, 1) + q(0, 0, 1, 1)) == q(1, 1, 1, 1)
    assert q(1, 2) + q(-1, -2) == ZERO
    assert q(0.5, -0.25) + ZERO == q(0.5, -0.25)


def test_multiplicative_identity():
    v = q(0.3, -0.7, 0.2, 1.5)
    assert v * ONE == v
    assert ONE * v == v


def test_full_product_example():
    # (1+i+j+k)(1-i-j-k) is x * conj(x) = |x|^2 = 4
    x = q(1, 1, 1, 1)
    assert_qclose(x * x.conj(), q(4))
    assert_qclose(x.conj() * x, q(4))


def test_conjugation():
    assert q(1, 1, 1, 1).conj() == q(1, -1, -1, -1)
    assert q(2.5).conj() == q(2.5)
    v = q(0.1, 0.2, 0.3, 0.4)
    assert v.conj().conj() == v


def test_norm_values():
    assert q(1, 1, 1, 1).norm() == 2.0
    assert ZERO.norm() == 0.0
    assert abs(q(0, 0, 3, 4)) == 5.0


def test_square_examples():
    assert I.square() == q(-1)
    assert_qclose(q(1, 1).square(), q(0, 2))
    # unit imaginary quaternions square to -1
    u = q(0, 1, 1, 1) / math.sqrt(3)
    assert_qclose(u.square(), q(-1))


def test_real_imag_parts():
    v = q(1.5, -2, 3, 0.5)
    assert v.real == 1.5
    assert v.imag == q(0, -2, 3, 0.5)


def test_inv_unit():
    assert I.inv_unit() == -I
    assert K.inv_unit() == -K
    u = q(1, 1) / math.sqrt(2)
    assert_qclose(u.inv_unit(), q(1, -1) / math.sqrt(2))
    assert_qclose(u * u.inv_unit(), ONE)
    with pytest.raises(NotUnitError):
        q(1, 1).inv_unit()


def test_scalar_operations():
    v = q(1, -2, 3, -4)
    assert 2 * v == q(2, -4, 6, -8)
    assert v * 0.5 == q(0.5, -1, 1.5, -2)
    assert v / 2 == q(0.5, -1, 1.5, -2)
    assert -v == q(-1, 2, -3, 4)


@given(quaternions, quaternions, quaternions)
def test_associativity(a, b, c):
    assert_qclose((a * b) * c, a * (b * c))


@given(quaternions, quaternions, quaternions)
def test_distributivity(a, b, c):
    assert_qclose(a * (b + c), a * b + a * c)
    assert_qclose((a + b) * c, a * c + b * c)


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    assert_qclose((a * b).conj(), b.conj() * a.conj())


@given(quaternions, quaternions)
def test_norm_multiplicativity(a, b):
    lhs = (a * b).norm()
    rhs = a.norm() * b.norm()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


@given(quaternions)
def test_square_closed_form(v):
    expected = Quaternion(
        v.w * v.w - v.x * v.x - v.y * v.y - v.z * v.z,
        2.0 * v.w * v.x, 2.0 * v.w * v.y, 2.0 * v.w * v.z)
    assert_qclose(v * v, expected)


@given(quaternions)
def test_conj_product_is_norm_sq(v):
    assert_qclose(v * v.conj(), Quaternion(v.norm_sq()))
    assert_qclose(v.conj() * v, Quaternion(v.norm_sq()))


def test_text_format_example():
    assert str(q(0.5, -0.5, 0, 0.5)) == "0.5-0.5i+0j+0.5k"
    assert str(q(1)) == "1+0i+0j+0k"


def test_parse_examples():
    assert parse_quaternion("1+0i+0j+0k") == q(1)
    assert parse_quaternion("0.5-0.5i+0j+0.5k") == q(0.5, -0.5, 0, 0.5)
    assert parse_quaternion("1") == q(1)
    assert parse_quaternion("j") == J
    assert parse_quaternion("-k") == -K
    assert parse_quaternion("1+2i-3j+0.25k") == q(1, 2, -3, 0.25)
    assert parse_quaternion("1e-3i") == q(0, 1e-3)


def test_parse_rejects_garbage():
    for bad in ("", "xyz", "1+2q", "++1", "1i2"):
        with pytest.raises(ValueError):
            parse_quaternion(bad)


@given(quaternions)
def test_text_round_trip(v):
    assert parse_quaternion(str(v)) == v


@given(quaternions)
def test_json_round_trip(v):
    assert Quaternion.from_json(v.to_json()) == v


def test_json_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Quaternion.from_json([1.0, 2.0])


def test_from_json_keeps_no_blocks_across_calls():
    # the components reach the constructor through a list, not an iterator
    assert blocks_kept(lambda: Quaternion.from_json([1, 2, 3, 4])) < 100


def test_max_dev_propagates_nan():
    for bad in (q(math.nan), q(0, math.nan), q(0, 0, 0, math.nan)):
        assert math.isnan(q(1, 2, 3, 4).max_dev(bad))
        assert math.isnan(bad.max_dev(q()))
    assert q(1, 2, 3, 4).max_dev(q(1, 2, 3, math.inf)) == math.inf

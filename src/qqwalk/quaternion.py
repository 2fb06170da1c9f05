"""Quaternion scalar arithmetic.

A quaternion is stored as four doubles ``w + x i + y j + z k`` with the
Hamilton product rules ``i*i = j*j = k*k = -1`` and ``i*j = -j*i = k``
(cyclically).  The product is associative but not commutative, so every
routine in this package is careful about factor order.

All operations are pure: nothing mutates its operands, and instances may
be shared freely between threads.

Every tuple in this package is built at its final size: a tuple display,
a sum of tuples, ``tuple(<list>)`` or ``*<list>`` in a call, never
``tuple(<iterator>)`` or ``*<iterator>``.  CPython sizes a tuple built
from an iterator by resizing it, so the tuple is not taken from the free
list of its final size, yet freeing it joins that list: each size up to
19 then keeps up to 2000 dead tuples per process.  A test in
``tests/test_package.py`` reads the package's source for the rule.
"""

from __future__ import annotations

import math
import re

#: Library-wide absolute comparison tolerance, per component.
DEFAULT_TOL = 1e-10


def _json_cast(cast, value, what: str):
    """A JSON number as ``cast``: ``int`` takes integers only, ``float`` integers or floats.

    A boolean, a string, null, an array or an integer too large for a float
    is a ValueError naming ``what``.
    """
    if not isinstance(value, bool) and isinstance(value, int if cast is int else (int, float)):
        try:
            return cast(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be {'an integer' if cast is int else 'a number'}, "
                     f"got {value!r}")


def max_or_nan(values) -> float:
    """``max(values, default=0.0)`` of nonnegative values, or NaN if any is NaN.

    ``max(0.0, nan)`` is 0.0, which would let a NaN deviation pass a
    ``<= tol`` check; a sum of nonnegative values is NaN iff one of them is.
    """
    values = list(values)
    total = sum(values)
    return max(values, default=0.0) if total == total else total


class NotUnitError(ValueError):
    """Inverse requested for a quaternion whose modulus is not 1."""


class Quaternion:
    """A quaternion ``w + x i + y j + z k``.

    Only unit quaternions are ever inverted in this package (see
    :meth:`inv_unit`); general division is intentionally absent.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # -- basic structure ----------------------------------------------------

    @property
    def real(self) -> float:
        """Scalar part."""
        return self.w

    @property
    def imag(self) -> "Quaternion":
        """Imaginary part ``x i + y j + z k`` as a quaternion."""
        return Quaternion(0.0, self.x, self.y, self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def square(self) -> "Quaternion":
        """``self * self`` (equals the closed form w^2-x^2-y^2-z^2 + 2w(xi+yj+zk))."""
        return self * self

    def is_unit(self) -> bool:
        """True iff ``| |q| - 1 | <= DEFAULT_TOL`` (a NaN modulus is not a unit)."""
        return abs(self.norm() - 1.0) <= DEFAULT_TOL

    def inv_unit(self) -> "Quaternion":
        """Inverse of a unit quaternion, i.e. its conjugate.

        Raises:
            NotUnitError: if :meth:`is_unit` fails.
        """
        if not self.is_unit():
            raise NotUnitError(f"quaternion has modulus {self.norm()!r}, expected 1")
        return self.conj()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self.w, self.x, self.y, self.z
            w2, x2, y2, z2 = other.w, other.x, other.y, other.z
            return Quaternion(
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with quaternions, so left == right scaling
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.w == other.w and self.x == other.x
                    and self.y == other.y and self.z == other.z)
        return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def max_dev(self, other: "Quaternion") -> float:
        """Largest absolute componentwise difference, or NaN if any is NaN."""
        return max_or_nan((abs(self.w - other.w), abs(self.x - other.x),
                           abs(self.y - other.y), abs(self.z - other.z)))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[float]:
        """JSON form: plain 4-array ``[w, x, y, z]``."""
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, data) -> "Quaternion":
        if isinstance(data, str):
            return parse_quaternion(data)
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError(f"expected a 4-array of reals, got {data!r}")
        return cls(*[_json_cast(float, v, "quaternion component") for v in data])

    def __str__(self) -> str:
        return format_quaternion(self)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _plain(v: float) -> str:
    s = repr(v)
    return s[:-2] if s.endswith(".0") else s


def _signed(v: float) -> str:
    s = _plain(v)
    return s if s.startswith("-") else "+" + s


def format_quaternion(q: Quaternion) -> str:
    """Text form ``w+xi+yj+zk`` with explicit signs, e.g. ``0.5-0.5i+0j+0.5k``."""
    return f"{_plain(q.w)}{_signed(q.x)}i{_signed(q.y)}j{_signed(q.z)}k"


_TERM = re.compile(
    r"""(?P<sign>[+-]?)
        (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?
        (?P<unit>[ijk])?""",
    re.VERBOSE,
)


def parse_quaternion(text: str) -> Quaternion:
    """Parse ``w+xi+yj+zk`` text; bare coefficients ("1", "-k", "0.5i") are accepted."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty quaternion literal")
    comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    pos = 0
    while pos < len(s):
        if pos > 0 and s[pos] not in "+-":
            raise ValueError(f"invalid quaternion literal: {text!r}")
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos or (m.group("num") is None and m.group("unit") is None):
            raise ValueError(f"invalid quaternion literal: {text!r}")
        value = 1.0 if m.group("num") is None else float(m.group("num"))
        if m.group("sign") == "-":
            value = -value
        comps[m.group("unit") or ""] += value
        pos = m.end()
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])

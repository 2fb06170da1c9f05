"""2x2 quaternion matrices and the unitary coin with its split-operator algebra.

A coin ``U = [[a, b], [c, d]]`` splits into a top-row part P (one step to
the left) and a bottom-row part Q (one step to the right).  Together with
the row-swapped mates R and S, products of any two of {P, Q, R, S}
collapse to a single coin entry times another basis element.  That closed
multiplication table is what makes long products of step operators
reducible to one coefficient and one basis letter.

The coin algebra runs on one flat kernel: a matrix is a 16-tuple
``(e11w, e11x, ..., e22z)``, and ``_matmul``, ``_adjoint``, ``_lmul`` and
``_max_dev`` spell out ``QMatrix2.__matmul__``, ``adjoint``, ``__rmul__``
and ``max_dev`` in their operation order, products with a zero entry
included, so every component and residual has the bits of the scalar
operators.  A ``Coin`` flattens its matrix once, as ``coin.flat``, and
stores its split once, as ``coin.flat_basis``, and the zero pattern of
``coin.flat`` once, as ``coin.flat_zeros``, by which the walk picks its
step kernel.  Validation, the walk step,
the brute-force path-sum fold (which reads the rows ``(a, b)`` and
``(c, d)``) and the decomposition (which multiplies by the adjoint of U)
read ``coin.flat``; the product table, ``Coin.basis`` and the P/Q/R/S
reconstruction, where the reduced path-sum fold ends, read
``coin.flat_basis``.
The ``QMatrix2`` operators stay as the scalar reference: the tests compare
the kernel with them, and verify's row check multiplies with them.
"""

from __future__ import annotations

import json
import math
import os
from random import Random

from .quaternion import DEFAULT_TOL, Quaternion, max_or_nan


class NotUnitaryError(ValueError):
    """A coin matrix failed the unitarity check."""


def _q(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    raise TypeError(f"expected a quaternion entry, got {type(value).__name__}")


# Flat values are built at their final size, by the rule in the quaternion
# module docstring: 2000 dead 16-tuples would hold 0.3 MB.
def _flat(matrix: "QMatrix2") -> tuple:
    return (matrix.e11.components() + matrix.e12.components()
            + matrix.e21.components() + matrix.e22.components())


def _zeros(flat) -> bytes:
    """The zero pattern of a flat matrix: one byte per float, 1 where it is +-0.0."""
    return bytes([v == 0.0 for v in flat])


def _unflat(flat) -> "QMatrix2":
    return QMatrix2(Quaternion(*flat[0:4]), Quaternion(*flat[4:8]),
                    Quaternion(*flat[8:12]), Quaternion(*flat[12:16]))


_FLAT_IDENTITY = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                  0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
_FLAT_IDENTITY_TWICE = _FLAT_IDENTITY + _FLAT_IDENTITY  # what M M* then M* M should be


def _split(flat) -> dict[str, tuple]:
    """The split parts P, Q, R and S of a flat ``[[a, b], [c, d]]``, as flat matrices."""
    top, bottom, zero = flat[0:8], flat[8:16], (0.0,) * 8
    return {"P": top + zero, "Q": zero + bottom, "R": bottom + zero, "S": zero + top}


def _matmul(m, n) -> tuple:
    """``QMatrix2.__matmul__`` of two flat matrices, in its operation order."""
    aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz = m
    ew, ex, ey, ez, fw, fx, fy, fz, gw, gx, gy, gz, hw, hx, hy, hz = n
    return ((aw * ew - ax * ex - ay * ey - az * ez) + (bw * gw - bx * gx - by * gy - bz * gz),
            (aw * ex + ax * ew + ay * ez - az * ey) + (bw * gx + bx * gw + by * gz - bz * gy),
            (aw * ey - ax * ez + ay * ew + az * ex) + (bw * gy - bx * gz + by * gw + bz * gx),
            (aw * ez + ax * ey - ay * ex + az * ew) + (bw * gz + bx * gy - by * gx + bz * gw),
            (aw * fw - ax * fx - ay * fy - az * fz) + (bw * hw - bx * hx - by * hy - bz * hz),
            (aw * fx + ax * fw + ay * fz - az * fy) + (bw * hx + bx * hw + by * hz - bz * hy),
            (aw * fy - ax * fz + ay * fw + az * fx) + (bw * hy - bx * hz + by * hw + bz * hx),
            (aw * fz + ax * fy - ay * fx + az * fw) + (bw * hz + bx * hy - by * hx + bz * hw),
            (cw * ew - cx * ex - cy * ey - cz * ez) + (dw * gw - dx * gx - dy * gy - dz * gz),
            (cw * ex + cx * ew + cy * ez - cz * ey) + (dw * gx + dx * gw + dy * gz - dz * gy),
            (cw * ey - cx * ez + cy * ew + cz * ex) + (dw * gy - dx * gz + dy * gw + dz * gx),
            (cw * ez + cx * ey - cy * ex + cz * ew) + (dw * gz + dx * gy - dy * gx + dz * gw),
            (cw * fw - cx * fx - cy * fy - cz * fz) + (dw * hw - dx * hx - dy * hy - dz * hz),
            (cw * fx + cx * fw + cy * fz - cz * fy) + (dw * hx + dx * hw + dy * hz - dz * hy),
            (cw * fy - cx * fz + cy * fw + cz * fx) + (dw * hy - dx * hz + dy * hw + dz * hx),
            (cw * fz + cx * fy - cy * fx + cz * fw) + (dw * hz + dx * hy - dy * hx + dz * hw))


def _adjoint(m) -> tuple:
    """``QMatrix2.adjoint`` of a flat matrix: transposed, imaginary parts negated."""
    aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz = m
    return (aw, -ax, -ay, -az, cw, -cx, -cy, -cz, bw, -bx, -by, -bz, dw, -dx, -dy, -dz)


def _lmul(q, m) -> tuple:
    """``q * M`` of a flat q and M, in the operation order of ``QMatrix2.__rmul__``."""
    qw, qx, qy, qz = q
    aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz = m
    return (qw * aw - qx * ax - qy * ay - qz * az, qw * ax + qx * aw + qy * az - qz * ay,
            qw * ay - qx * az + qy * aw + qz * ax, qw * az + qx * ay - qy * ax + qz * aw,
            qw * bw - qx * bx - qy * by - qz * bz, qw * bx + qx * bw + qy * bz - qz * by,
            qw * by - qx * bz + qy * bw + qz * bx, qw * bz + qx * by - qy * bx + qz * bw,
            qw * cw - qx * cx - qy * cy - qz * cz, qw * cx + qx * cw + qy * cz - qz * cy,
            qw * cy - qx * cz + qy * cw + qz * cx, qw * cz + qx * cy - qy * cx + qz * cw,
            qw * dw - qx * dx - qy * dy - qz * dz, qw * dx + qx * dw + qy * dz - qz * dy,
            qw * dy - qx * dz + qy * dw + qz * dx, qw * dz + qx * dy - qy * dx + qz * dw)


def _max_dev(m, n) -> float:
    """``QMatrix2.max_dev`` of two flat matrices: the largest absolute difference, or NaN.

    One ``max_or_nan`` over the 16 differences equals the nested one over
    the entries: both give the same largest difference, and NaN iff any
    difference is NaN.
    """
    return max_or_nan([abs(x - y) for x, y in zip(m, n)])


def _unitarity_residual(m) -> float:
    """``QMatrix2.unitarity_residual`` of a flat matrix.

    One ``max_or_nan`` over the 32 deviations of M M* and M* M from I
    equals one over the two products' ``_max_dev``, as in ``_max_dev``.
    """
    adj = _adjoint(m)
    return max_or_nan([abs(x - y) for x, y in zip(_matmul(m, adj) + _matmul(adj, m),
                                                  _FLAT_IDENTITY_TWICE)])


class QMatrix2:
    """A 2x2 matrix with quaternion entries (row-major e11, e12, e21, e22)."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11 = _q(e11)
        self.e12 = _q(e12)
        self.e21 = _q(e21)
        self.e22 = _q(e22)

    @classmethod
    def identity(cls) -> "QMatrix2":
        return cls(Quaternion(1.0), Quaternion(), Quaternion(), Quaternion(1.0))

    @classmethod
    def zeros(cls) -> "QMatrix2":
        return cls(Quaternion(), Quaternion(), Quaternion(), Quaternion())

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.e11, self.e12, self.e21, self.e22)

    def __add__(self, other):
        if isinstance(other, QMatrix2):
            return QMatrix2(self.e11 + other.e11, self.e12 + other.e12,
                            self.e21 + other.e21, self.e22 + other.e22)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QMatrix2):
            return QMatrix2(self.e11 - other.e11, self.e12 - other.e12,
                            self.e21 - other.e21, self.e22 - other.e22)
        return NotImplemented

    def __matmul__(self, other):
        # entry products keep the left factor's entries on the left
        if isinstance(other, QMatrix2):
            return QMatrix2(
                self.e11 * other.e11 + self.e12 * other.e21,
                self.e11 * other.e12 + self.e12 * other.e22,
                self.e21 * other.e11 + self.e22 * other.e21,
                self.e21 * other.e12 + self.e22 * other.e22,
            )
        return NotImplemented

    def __rmul__(self, coeff):
        """Left scalar multiple ``coeff * M``: every entry is premultiplied."""
        if isinstance(coeff, (Quaternion, int, float)):
            c = _q(coeff)
            return QMatrix2(c * self.e11, c * self.e12, c * self.e21, c * self.e22)
        return NotImplemented

    def adjoint(self) -> "QMatrix2":
        """Conjugate transpose."""
        return QMatrix2(self.e11.conj(), self.e21.conj(),
                        self.e12.conj(), self.e22.conj())

    def apply(self, pair: tuple[Quaternion, Quaternion]) -> tuple[Quaternion, Quaternion]:
        """Matrix-vector product with entries acting from the left."""
        top, bottom = pair
        return (self.e11 * top + self.e12 * bottom,
                self.e21 * top + self.e22 * bottom)

    def max_dev(self, other: "QMatrix2") -> float:
        """Largest absolute entrywise difference, or NaN if any is NaN."""
        return max_or_nan((self.e11.max_dev(other.e11), self.e12.max_dev(other.e12),
                           self.e21.max_dev(other.e21), self.e22.max_dev(other.e22)))

    def __eq__(self, other):
        if isinstance(other, QMatrix2):
            return self.entries() == other.entries()
        return NotImplemented

    def __hash__(self):
        return hash(self.entries())

    def unitarity_residual(self) -> float:
        """Largest entrywise deviation of M M* and M* M from the identity, or NaN.

        Either product implies the other for square quaternion matrices;
        measuring both is a cheap guard against arithmetic slips.
        """
        return _unitarity_residual(_flat(self))

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return self.unitarity_residual() <= tol

    def to_json(self) -> list[list[list[float]]]:
        return [[self.e11.to_json(), self.e12.to_json()],
                [self.e21.to_json(), self.e22.to_json()]]

    @classmethod
    def from_json(cls, data) -> "QMatrix2":
        if (not isinstance(data, (list, tuple)) or len(data) != 2
                or any(len(row) != 2 for row in data)):
            raise ValueError("expected a 2x2 nested array of quaternions")
        return cls(Quaternion.from_json(data[0][0]), Quaternion.from_json(data[0][1]),
                   Quaternion.from_json(data[1][0]), Quaternion.from_json(data[1][1]))

    def __repr__(self):
        return (f"QMatrix2([[{self.e11}, {self.e12}], "
                f"[{self.e21}, {self.e22}]])")


# Closed multiplication table of the split basis: (left, right) -> (coin
# entry premultiplying the result, result letter).  Holds for any a,b,c,d.
PRODUCT_RULES: dict[tuple[str, str], tuple[str, str]] = {
    ("P", "P"): ("a", "P"), ("P", "Q"): ("b", "R"),
    ("P", "R"): ("a", "R"), ("P", "S"): ("b", "P"),
    ("Q", "P"): ("c", "S"), ("Q", "Q"): ("d", "Q"),
    ("Q", "R"): ("c", "Q"), ("Q", "S"): ("d", "S"),
    ("R", "P"): ("c", "P"), ("R", "Q"): ("d", "R"),
    ("R", "R"): ("c", "R"), ("R", "S"): ("d", "P"),
    ("S", "P"): ("a", "S"), ("S", "Q"): ("b", "Q"),
    ("S", "R"): ("a", "Q"), ("S", "S"): ("b", "S"),
}


class ProductTable(dict):
    """``(left, right) -> (coefficient, letter)``; ``residual`` is the worst deviation."""


class Coin:
    """A validated unitary coin together with its split parts.

    Attributes:
        matrix: the unitary ``[[a, b], [c, d]]``; ``flat`` is its flat 16-tuple.
        unitarity_residual: ``matrix.unitarity_residual()``, within ``DEFAULT_TOL``.
        flat_basis: the split parts by letter as flat matrices, stored once:
           P = ``[[a, b], [0, 0]]`` (moves the walker left), Q = ``[[0, 0], [c, d]]``
           (moves it right), and the mates R = ``[[c, d], [0, 0]]`` and
           S = ``[[0, 0], [a, b]]`` that close {P, Q, R, S} under multiplication.
           ``p``, ``q``, ``r``, ``s`` and ``basis(letter)`` are ``QMatrix2`` views of it.
        flat_zeros: the zero pattern of ``flat``, one byte per float, 1 where it
           is +-0.0: a ``bytes``, whose hash is computed once, as the walk looks
           its kernel up by it on every step.
    """

    __slots__ = ("matrix", "flat", "unitarity_residual", "flat_basis", "flat_zeros")

    def __init__(self, matrix: QMatrix2):
        # a NaN or infinite entry makes the residual NaN or infinite, so every
        # coin is finite and a*0 is an exact zero, which the walk relies on
        flat = _flat(matrix)
        residual = _unitarity_residual(flat)
        if not residual <= DEFAULT_TOL:
            raise NotUnitaryError(f"coin matrix is not unitary: residual {residual!r}")
        self.matrix, self.flat, self.unitarity_residual = matrix, flat, residual
        self.flat_basis = _split(flat)
        self.flat_zeros = _zeros(flat)

    a = property(lambda self: self.matrix.e11)
    b = property(lambda self: self.matrix.e12)
    c = property(lambda self: self.matrix.e21)
    d = property(lambda self: self.matrix.e22)

    def entry(self, name: str) -> Quaternion:
        if name not in ("a", "b", "c", "d"):
            raise ValueError(f"unknown coin entry {name!r}")
        return getattr(self, name)

    def basis(self, letter: str) -> QMatrix2:
        try:
            return _unflat(self.flat_basis[letter])
        except KeyError:
            raise ValueError(f"unknown basis letter {letter!r}") from None

    p = property(lambda self: self.basis("P"))
    q = property(lambda self: self.basis("Q"))
    r = property(lambda self: self.basis("R"))
    s = property(lambda self: self.basis("S"))

    def case(self) -> str:
        """Degeneracy class: ``"a=0"``, ``"b=0"``, or ``"abcd!=0"``, at ``DEFAULT_TOL``.

        Unitarity makes these three cases exhaustive: a zero entry forces
        the rest of its row and column structure.
        """
        if self.a.norm() <= DEFAULT_TOL:
            return "a=0"
        if self.b.norm() <= DEFAULT_TOL:
            return "b=0"
        return "abcd!=0"

    def is_real(self) -> bool:
        return all(e.imag.norm() <= DEFAULT_TOL for e in self.matrix.entries())

    def product_table(self) -> ProductTable:
        """The 16 products of {P, Q, R, S} as (coefficient, basis letter).

        Every entry is re-measured against the direct matrix product; the
        worst deviation (NaN if any is NaN) is the table's ``residual``,
        which a corrupted coin drives above rounding.
        """
        flats = self.flat_basis
        table = ProductTable()
        deviations = []
        for (left, right), (entry_name, result) in PRODUCT_RULES.items():
            coeff = self.entry(entry_name)
            direct = _matmul(flats[left], flats[right])
            deviations.append(_max_dev(_lmul(coeff.components(), flats[result]), direct))
            table[(left, right)] = (coeff, result)
        table.residual = max_or_nan(deviations)
        return table

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(),
                "c": self.c.to_json(), "d": self.d.to_json()}

    def __repr__(self):
        return f"Coin({self.matrix!r})"


_SQRT_HALF = 1.0 / math.sqrt(2.0)


_ONE, _I, _J, _K = Quaternion(1), Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1)
_PRESETS: dict[str, QMatrix2] = {
    "hadamard": QMatrix2(_SQRT_HALF * _ONE, _SQRT_HALF * _ONE,
                         _SQRT_HALF * _ONE, -_SQRT_HALF * _ONE),
    "example-ijk": QMatrix2(_SQRT_HALF * _ONE, _SQRT_HALF * _I,
                            _SQRT_HALF * _J, _SQRT_HALF * _K),
    "flip": QMatrix2(0, 1, 1, 0),
    "flip-neg": QMatrix2(0, 1, -1, 0),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_coin(name: str) -> Coin:
    matrix = _PRESETS.get(name)
    if matrix is None:
        raise ValueError(f"unknown coin preset {name!r}; "
                         f"available: {', '.join(PRESET_NAMES)}")
    return Coin(matrix)


def coin_from_json(data: dict) -> Coin:
    """Build a coin from ``{"a": [...], "b": [...], "c": [...], "d": [...]}``.

    Entry values may be 4-arrays or human-readable text like ``"1+0i+0j+0k"``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a coin object, got {type(data).__name__}")
    missing = {"a", "b", "c", "d"} - data.keys()
    if missing:
        raise ValueError(f"coin spec is missing entries: {', '.join(sorted(missing))}")
    a, b, c, d = (Quaternion.from_json(data[key]) for key in ("a", "b", "c", "d"))
    return Coin(QMatrix2(a, b, c, d))


def _load_json(text: str):
    """Inline JSON (starts with '{' or '[') or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return json.loads(stripped)
    if os.path.exists(stripped):
        with open(stripped, encoding="utf-8") as fh:
            return json.load(fh)
    raise FileNotFoundError(f"{text!r} is neither inline JSON nor an existing file")


def coin_from_spec(spec: str) -> Coin:
    """Resolve a preset name, inline JSON object, or path to a JSON file."""
    matrix = _PRESETS.get(spec)
    if matrix is not None:
        return Coin(matrix)
    try:
        data = _load_json(spec)
    except FileNotFoundError:
        raise ValueError(f"{spec!r} is neither a coin preset ({', '.join(PRESET_NAMES)}) "
                         "nor inline JSON nor an existing file") from None
    return coin_from_json(data)


def _random_entry(rng: Random, entries: str) -> Quaternion:
    if entries == "real":
        return Quaternion(rng.gauss(0.0, 1.0))
    if entries == "complex":
        return Quaternion(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    if entries == "quaternion":
        return Quaternion(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0),
                          rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    raise ValueError(f"unknown entry field {entries!r}")


def random_unitary_coin(rng: Random, entries: str = "quaternion") -> Coin:
    """Draw a Haar-ish random unitary coin by Gram-Schmidt on gaussian rows.

    Row inner product is ``<u, v> = u1 conj(v1) + u2 conj(v2)`` with the
    projection coefficient applied on the left of the subtracted row, so
    orthonormality holds in the noncommutative sense the evolution needs.
    ``entries`` restricts components to "real", "complex" (w, x only), or
    full "quaternion"; Gram-Schmidt stays inside the chosen subfield.
    """
    while True:
        g1 = (_random_entry(rng, entries), _random_entry(rng, entries))
        g2 = (_random_entry(rng, entries), _random_entry(rng, entries))
        n1 = math.sqrt(g1[0].norm_sq() + g1[1].norm_sq())
        if n1 < 1e-6:
            continue
        v1 = (g1[0] / n1, g1[1] / n1)
        overlap = g2[0] * v1[0].conj() + g2[1] * v1[1].conj()
        w = (g2[0] - overlap * v1[0], g2[1] - overlap * v1[1])
        n2 = math.sqrt(w[0].norm_sq() + w[1].norm_sq())
        if n2 < 1e-6:
            continue
        return Coin(QMatrix2(v1[0], v1[1], w[0] / n2, w[1] / n2))

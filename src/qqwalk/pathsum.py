"""Sums of step-operator words over all left/right path splits.

The amplitude a point-started walker carries to site ``m - l`` after
``n = l + m`` steps is the sum, over every arrangement of ``l`` copies of
P and ``m`` copies of Q, of the corresponding operator word applied to the
initial spinor, which is what the walk itself computes: :func:`path_sum`
runs the walk from the two unit spinors, at O(n^2) quaternion products
for any n.  Two capped reference oracles enumerate all 2^n words instead:

* brute force: multiply each word out as 2x2 quaternion matrices;
* reduced: fold each word through the closed product table, which
  collapses it to a single coin-entry coefficient times one basis letter,
  then total the coefficients per letter.

Both fold every word left to right and enumerate words in the same
deterministic order (lexicographic in the P positions), so sums are
bit-stable across runs.  Words that share a prefix share its fold, which
takes C(n+2, l+1) - 4 steps in all for 0 < l < n instead of one per
letter of every word, C(n, l) * (n - 1).

The folds run on flat floats: a matrix is a 16-tuple ``(e11w, e11x, ...,
e22z)`` and a coefficient a 4-tuple ``(w, x, y, z)``.  ``_matmul`` and
``_reduction_step`` spell the products out in the operation order of
``QMatrix2.__matmul__`` over ``Quaternion.__mul__`` then ``__add__``,
products with a zero entry included, so every component has the bits of
the scalar operators; quaternions are built once, from the totals.  The
word-by-word tests in ``tests/test_pathsum.py`` pin that equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .coin import Coin, PRODUCT_RULES, QMatrix2
from .quaternion import ONE, ZERO, Quaternion
from .walk import FiniteSupportState

#: Largest step count enumerated exhaustively (2^n words).
WORD_CAP = 20


class InvalidSplitError(ValueError):
    """Step split with l + m != n or negative counts."""


class CapExceededError(ValueError):
    """Requested word length above the enumeration cap."""


@dataclass(frozen=True)
class PQWord:
    """A word over {P, Q}, run-length encoded as (letter, length) blocks."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("word must be nonempty")
        previous = None
        for letter, length in self.blocks:
            if letter not in ("P", "Q"):
                raise ValueError(f"invalid letter {letter!r}")
            if length < 1:
                raise ValueError("block lengths must be positive")
            if letter == previous:
                raise ValueError("adjacent blocks must alternate letters")
            previous = letter

    @classmethod
    def from_letters(cls, letters) -> "PQWord":
        blocks: list[tuple[str, int]] = []
        for letter in letters:
            if blocks and blocks[-1][0] == letter:
                blocks[-1] = (letter, blocks[-1][1] + 1)
            else:
                blocks.append((letter, 1))
        return cls(tuple(blocks))

    def letters(self) -> str:
        return "".join(letter * length for letter, length in self.blocks)

    @property
    def length(self) -> int:
        return sum(length for _, length in self.blocks)

    @property
    def p_count(self) -> int:
        return sum(length for letter, length in self.blocks if letter == "P")

    @property
    def q_count(self) -> int:
        return sum(length for letter, length in self.blocks if letter == "Q")

    def __str__(self):
        return self.letters()


def _reduction_step(coin: Coin):
    """The product-table fold step ``(coeff, B), L -> (coeff * entry, B')`` on flat coefficients."""
    rules = {pair: (coin.entry(entry_name).components(), result)
             for pair, (entry_name, result) in PRODUCT_RULES.items()}

    def step(folded, letter):
        (cw, cx, cy, cz), basis = folded
        (ew, ex, ey, ez), basis = rules[(basis, letter)]
        return (cw * ew - cx * ex - cy * ey - cz * ez,
                cw * ex + cx * ew + cy * ez - cz * ey,
                cw * ey - cx * ez + cy * ew + cz * ex,
                cw * ez + cx * ey - cy * ex + cz * ew), basis
    return step


_FLAT_ONE = ONE.components()


def reduce_word(coin: Coin, word: PQWord) -> tuple[Quaternion, str]:
    """Collapse a word to (left coefficient, basis letter).

    The first letter seeds the fold; each further letter rewrites
    ``coeff * B * L`` to ``(coeff * entry) * B'`` via the product table, so
    any word, whatever its endpoints, lands on a single basis element.
    For alternating blocks this reproduces the familiar pattern, e.g.
    ``P^u Q^v P^w -> a^(u-1) b d^(v-1) c a^(w-1) P``.
    """
    letters = word.letters()
    coeff, basis = functools.reduce(_reduction_step(coin), letters[1:], (_FLAT_ONE, letters[0]))
    return Quaternion(*coeff), basis


def _check_split(n: int, l: int, m: int, cap: float = math.inf) -> None:
    if l < 0 or m < 0 or l + m != n:
        raise InvalidSplitError(f"need l + m = n with l, m >= 0; got n={n}, l={l}, m={m}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def _folds(first, step, n: int, l: int):
    """Left fold of every word with l P's among n letters, in the order of
    ``itertools.combinations`` over the P positions.

    Yields ``step(...step(first(w[0]), w[1])..., w[n-1])`` per word.  The
    word tree is walked depth first, P before Q, so each prefix is folded
    once and shared by all words below it; the stack holds one pending
    branch per level.
    """
    # (fold of the parent prefix, next letter, prefix length, P's left after it)
    stack = []
    if l < n:
        stack.append((None, "Q", 1, l))
    if l > 0:
        stack.append((None, "P", 1, l - 1))
    while stack:
        parent, letter, depth, p_left = stack.pop()
        folded = first(letter) if depth == 1 else step(parent, letter)
        if depth == n:
            yield folded
            continue
        if depth + p_left < n:
            stack.append((folded, "Q", depth + 1, p_left))
        if p_left:
            stack.append((folded, "P", depth + 1, p_left - 1))


def path_sum(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce`, by propagation, for any n.

    The walk from a spinor psi carries ``Xi_n(l, m) psi`` to site ``m - l``
    after n steps, so column j of the sum is that amplitude for the walk
    started from the j-th unit spinor.
    """
    _check_split(n, l, m)
    walks = [FiniteSupportState.delta(spinor) for spinor in ((ONE, ZERO), (ZERO, ONE))]
    for _ in range(n):
        walks = [state.evolve(coin) for state in walks]
    (e11, e21), (e12, e22) = (state.amplitude(m - l) for state in walks)
    return QMatrix2(e11, e12, e21, e22)


# Flat values are tuple displays, sums of tuples or lists, never tuple() or
# * of an iterator: CPython sizes such a tuple by resizing, outside its
# per-size free list, and freeing it grows that list, by up to 2000 tuples
# (0.3 MB of 16-tuples) per process.
def _flat(matrix: QMatrix2) -> tuple:
    return (matrix.e11.components() + matrix.e12.components()
            + matrix.e21.components() + matrix.e22.components())


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


def path_sum_bruteforce(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Sum of all C(n, l) operator words, each multiplied out as matrices; n <= WORD_CAP."""
    _check_split(n, l, m, WORD_CAP)
    if n == 0:
        return QMatrix2.identity()
    basis = {"P": _flat(coin.p), "Q": _flat(coin.q)}
    total = [0.0] * 16
    for product in _folds(basis.__getitem__,
                          lambda product, letter: _matmul(product, basis[letter]), n, l):
        total = [t + p for t, p in zip(total, product)]
    return QMatrix2(*[Quaternion(*total[i:i + 4]) for i in range(0, 16, 4)])


def path_sum_reduced(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce` via per-word table reduction.

    Each fold step is one quaternion product instead of a matrix product,
    and the coefficients are accumulated per basis letter; n <= WORD_CAP.
    """
    _check_split(n, l, m, WORD_CAP)
    if n == 0:
        return QMatrix2.identity()
    sums = {letter: [0.0] * 4 for letter in "PQRS"}
    for coeff, basis in _folds(lambda letter: (_FLAT_ONE, letter), _reduction_step(coin), n, l):
        sums[basis] = [s + c for s, c in zip(sums[basis], coeff)]
    return PQRSDecomposition(*[Quaternion(*sums[letter]) for letter in "PQRS"]).reconstruct(coin)


@dataclass(frozen=True)
class PQRSDecomposition:
    """Left coefficients of a matrix over the split basis {P, Q, R, S}."""

    p: Quaternion
    q: Quaternion
    r: Quaternion
    s: Quaternion
    residual: float = 0.0  # measured by decompose_pqrs; not part of to_json

    def reconstruct(self, coin: Coin) -> QMatrix2:
        return (self.p * coin.p + self.q * coin.q
                + self.r * coin.r + self.s * coin.s)

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json(),
                "r": self.r.to_json(), "s": self.s.to_json()}


def decompose_pqrs(coin: Coin, matrix: QMatrix2) -> PQRSDecomposition:
    """Extract left coefficients so that ``matrix = pP + qQ + rR + sS``.

    The top row of the matrix is ``p (a, b) + r (c, d)`` and the bottom row
    is ``s (a, b) + q (c, d)``.  The rows of a unitary coin U are a left
    basis, with ``(p, r) = row · U*``, so for a validated ``Coin`` every
    2x2 quaternion matrix lies in the split span.  The reconstruction
    residual that comes back with the coefficients therefore measures
    rounding, or a NaN, and that is what ``qqwalk xi --tol`` judges.
    """
    ac, bc = coin.a.conj(), coin.b.conj()
    cc, dc = coin.c.conj(), coin.d.conj()
    deco = PQRSDecomposition(
        p=matrix.e11 * ac + matrix.e12 * bc,
        r=matrix.e11 * cc + matrix.e12 * dc,
        s=matrix.e21 * ac + matrix.e22 * bc,
        q=matrix.e21 * cc + matrix.e22 * dc,
    )
    return replace(deco, residual=deco.reconstruct(coin).max_dev(matrix))

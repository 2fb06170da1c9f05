"""Sums of step-operator words over all left/right path splits.

The amplitude a point-started walker carries to site ``m - l`` after
``n = l + m`` steps is the sum, over every arrangement of ``l`` copies of
P and ``m`` copies of Q, of the corresponding operator word applied to the
initial spinor, which is what the walk itself computes: :func:`path_sums`
reads every split of n from the walks from the two unit spinors, split l
at site n - 2l and column j from spinor j, at O(n^2) quaternion products
for any n.  Two capped reference oracles enumerate one split's 2^n words:

* brute force: multiply each word out as 2x2 quaternion matrices;
* reduced: fold each word through the closed product table, which
  collapses it to a single coin-entry coefficient times one basis letter,
  then total the coefficients per letter.

Both fold every word left to right and enumerate words in the same
deterministic order (lexicographic in the P positions), so sums are
bit-stable across runs.  Each oracle folds the words that start with P,
then those that start with Q, from that letter's root.  Words that share
a prefix share its fold, which takes C(n+2, l+1) - 4 steps in all for
0 < l < n instead of one per letter of every word, C(n, l) * (n - 1).
The steps are one-argument functions keyed by the prefix's last letter,
a pair (to P, to Q) each, so a step neither looks its letter up nor
slices its input.  Once a prefix has used up its P's or its Q's, the
rest of its one word is a forced tail, folded with no stack pushes.

The folds run on flat floats, and quaternions are built once, from the
totals.  Brute force carries one row per word: P = [[a, b], [0, 0]] and
Q = [[0, 0], [c, d]] each have a zero row, and a word's product keeps the
zero row of its first letter, the bottom one after a P and the top one
after a Q.  The other row is an 8-tuple ``(u, v)``, read from
``coin.flat``; whatever the last letter, the P step maps it to
``(u a, u b)`` and the Q step to ``(v c, v d)``.  The P root's words are
totalled into the top row and the Q root's into the bottom row.  The
reduced fold carries a coefficient 4-tuple ``(w, x, y, z)``.  A word's
basis is fixed by its first and last letters (P..P, Q..Q, P..Q and Q..P
give P, Q, R and S), and by the product table appending a letter
multiplies the coefficient on the right by an entry that depends only on
the basis's last letter.  So the reduced steps are the right products by
a, b, c and d for (last, next) = PP, PQ, QP and QQ, read from
``PRODUCT_RULES``, and each word's basis is read from its end letters when
it is totalled.  Both spell each product out in the operation order of
``Quaternion.__mul__`` and each sum in that of ``__add__``.

The row fold leaves out the terms of ``QMatrix2.__matmul__`` that
multiply a zero entry, and the zero row of each word, which a matrix fold
adds to its totals.  Every total still keeps the bits of the scalar
operators:

* each value left out is a finite float times a zero, or a sum of such
  products (the entries of a unitary coin are at most 1 in norm), so it
  is +0.0 or -0.0;
* adding a signed zero to a nonzero float leaves it unchanged, so every
  nonzero value of the fold keeps its bits, and a zero value can differ
  only in its sign;
* each total starts at +0.0, and under round-to-nearest a sum that starts
  at +0.0 never becomes -0.0, so no sign of zero reaches a total.

The word-by-word tests in ``tests/test_pathsum.py`` pin that equality.
``decompose_pqrs`` and ``PQRSDecomposition.reconstruct`` run on the flat
2x2 kernel of ``coin`` (``_matmul``, ``_lmul``) and build ``QMatrix2``
and ``Quaternion`` objects only for what they return.
"""

from __future__ import annotations

import math

from .coin import (
    PRODUCT_RULES,
    Coin,
    QMatrix2,
    _adjoint,
    _flat,
    _lmul,
    _matmul,
    _max_dev,
    _unflat,
)
from .quaternion import ONE, ZERO, Quaternion
from .walk import FiniteSupportState

#: Largest step count enumerated exhaustively (2^n words).
WORD_CAP = 20


class InvalidSplitError(ValueError):
    """Step split with l + m != n or negative counts."""


class CapExceededError(ValueError):
    """Requested word length above the enumeration cap."""


class _Record:
    """A result class: fields in ``__slots__`` order, compared and shown by value.

    Equal records are of one class.  A record is mutable and so unhashable;
    ``copy`` and ``pickle`` rebuild it through its class's ``__init__``,
    which takes the fields in order.  The result classes here and in
    ``stationary`` build on it, written by hand rather than generated, so
    that loading them imports no class generator and no ``inspect``.
    """

    __slots__ = ()

    def _values(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}"
                            for name, value in zip(self.__slots__, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self._values())


#: Sets a field of a ``_FrozenRecord`` in its ``__init__``, past its ``__setattr__``.
_set_field = object.__setattr__


class _FrozenRecord(_Record):
    """A ``_Record`` that hashes by value and refuses assignment and deletion."""

    __slots__ = ()

    def __hash__(self):
        return hash(tuple(self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PQWord(_FrozenRecord):
    """A word over {P, Q}, run-length encoded as (letter, length) blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, int], ...]):
        if not blocks:
            raise ValueError("word must be nonempty")
        previous = None
        for letter, length in blocks:
            if letter not in ("P", "Q"):
                raise ValueError(f"invalid letter {letter!r}")
            if length < 1:
                raise ValueError("block lengths must be positive")
            if letter == previous:
                raise ValueError("adjacent blocks must alternate letters")
            previous = letter
        _set_field(self, "blocks", blocks)

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


def _reduction_steps(coin: Coin) -> dict:
    """The reduced fold's steps, ``{last: (to P, to Q)}``: right products by the table's entries."""
    def step(entry):
        ew, ex, ey, ez = coin.entry(entry).components()

        def right_multiply(coeff):
            cw, cx, cy, cz = coeff
            return (cw * ew - cx * ex - cy * ey - cz * ez,
                    cw * ex + cx * ew + cy * ez - cz * ey,
                    cw * ey - cx * ez + cy * ew + cz * ex,
                    cw * ez + cx * ey - cy * ex + cz * ew)
        return right_multiply
    return {last: (step(PRODUCT_RULES[last, "P"][0]), step(PRODUCT_RULES[last, "Q"][0]))
            for last in "PQ"}


def _row_steps(coin: Coin) -> dict:
    """The brute-force fold's steps, ``{last: (to P, to Q)}``: the same two whatever the last.

    ``(u, v) @ P = (u a, u b)`` and ``(u, v) @ Q = (v c, v d)``; the terms
    with a zero entry of P or Q are left out.
    """
    def step(reads_u, ew, ex, ey, ez, fw, fx, fy, fz):
        def row_step(row):
            if reads_u:
                uw, ux, uy, uz, _, _, _, _ = row
            else:
                _, _, _, _, uw, ux, uy, uz = row
            return (uw * ew - ux * ex - uy * ey - uz * ez, uw * ex + ux * ew + uy * ez - uz * ey,
                    uw * ey - ux * ez + uy * ew + uz * ex, uw * ez + ux * ey - uy * ex + uz * ew,
                    uw * fw - ux * fx - uy * fy - uz * fz, uw * fx + ux * fw + uy * fz - uz * fy,
                    uw * fy - ux * fz + uy * fw + uz * fx, uw * fz + ux * fy - uy * fx + uz * fw)
        return row_step
    steps = (step(True, *coin.flat[0:8]), step(False, *coin.flat[8:16]))
    return {"P": steps, "Q": steps}


_FLAT_ONE = ONE.components()


def reduce_word(coin: Coin, word: PQWord) -> tuple[Quaternion, str]:
    """Collapse a word to (left coefficient, basis letter).

    The first letter seeds the fold; each further letter rewrites
    ``coeff * B * L`` to ``(coeff * entry) * B'`` via the product table, so
    any word lands on the single basis element that starts and ends as it
    does.  For alternating blocks this reproduces the familiar pattern, e.g.
    ``P^u Q^v P^w -> a^(u-1) b d^(v-1) c a^(w-1) P``.
    """
    letters = word.letters()
    after = _reduction_steps(coin)
    coeff = _FLAT_ONE
    for last, letter in zip(letters, letters[1:]):
        coeff = after[last][letter == "Q"](coeff)
    return Quaternion(*coeff), PRODUCT_RULES[(letters[0], letters[-1])][1]


def _check_split(n: int, l: int, m: int, cap: float = math.inf) -> None:
    if l < 0 or m < 0 or l + m != n:
        raise InvalidSplitError(f"need l + m = n with l, m >= 0; got n={n}, l={l}, m={m}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def _folds(first: str, root, after: dict, n: int, l: int):
    """Left fold of every word that starts with ``first`` and has l P's among
    n letters, in the order of ``itertools.combinations`` over the P positions.

    Yields ``(last letter, fold)`` per word, the fold starting at ``root``
    (the fold of ``first`` alone) and taking ``after[last][next == "Q"]``
    for each further letter; nothing if the split has no ``first`` letter.
    The word tree is walked depth first, P before Q, so each prefix is
    folded once and shared by all words below it; the stack holds one
    pending Q branch per level.  Once a prefix has used up its P's or its
    Q's, the rest of its one word is a forced tail, folded with no stack
    pushes.
    """
    p_left, q_left = (l - 1, n - l) if first == "P" else (l, n - l - 1)
    if p_left < 0 or q_left < 0:
        return
    q_to_q = after["Q"][1]
    # (fold of a prefix, its last letter, P's left after it, Q's left after it)
    stack = [(root, first, p_left, q_left)]
    while stack:
        folded, last, p_left, q_left = stack.pop()
        while p_left:  # P next; the Q branch waits on the stack while Q's are left
            to_p, to_q = after[last]
            if q_left:
                stack.append((to_q(folded), "Q", p_left, q_left - 1))
            folded, last, p_left = to_p(folded), "P", p_left - 1
        if q_left:  # a forced tail of Q's
            folded = after[last][1](folded)
            for _ in range(q_left - 1):
                folded = q_to_q(folded)
            last = "Q"
        yield last, folded


def path_sums(coin: Coin, n: int) -> list[QMatrix2]:
    """``Xi_n(l, n - l)`` for l = 0..n, by propagation, for any n >= 0.

    Column j of split l is what the walk from the j-th unit spinor carries
    to site n - 2l, so one pair of walks gives every split.
    """
    _check_split(n, 0, n)
    walks = [FiniteSupportState.delta(spinor) for spinor in ((ONE, ZERO), (ZERO, ONE))]
    for _ in range(n):
        walks = [state.evolve(coin) for state in walks]
    columns = [[state.amplitude(x) for x in range(n, -n - 1, -2)] for state in walks]
    return [QMatrix2(e11, e12, e21, e22) for (e11, e21), (e12, e22) in zip(*columns)]


def path_sum(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce`, by propagation: split l of :func:`path_sums`."""
    _check_split(n, l, m)
    return path_sums(coin, n)[l]


def path_sum_bruteforce(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Sum of all C(n, l) operator words, each multiplied out as matrices; n <= WORD_CAP.

    Each word is folded as its nonzero row (see the module docstring).  The
    words that start with P total the top row and the rest the bottom row.
    """
    _check_split(n, l, m, WORD_CAP)
    if n == 0:
        return QMatrix2.identity()
    flat, after = coin.flat, _row_steps(coin)
    top, bottom = [0.0] * 8, [0.0] * 8
    for first, root, total in (("P", flat[0:8], top), ("Q", flat[8:16], bottom)):
        for _, (uw, ux, uy, uz, vw, vx, vy, vz) in _folds(first, root, after, n, l):
            total[0] += uw
            total[1] += ux
            total[2] += uy
            total[3] += uz
            total[4] += vw
            total[5] += vx
            total[6] += vy
            total[7] += vz
    return _unflat(top + bottom)


def path_sum_reduced(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce` via per-word table reduction.

    Each fold step is one quaternion product instead of a matrix product,
    and the coefficients are accumulated per basis letter; n <= WORD_CAP.
    """
    _check_split(n, l, m, WORD_CAP)
    if n == 0:
        return QMatrix2.identity()
    sums = {letter: [0.0] * 4 for letter in "PQRS"}
    after = _reduction_steps(coin)
    for first in "PQ":
        # a word's basis starts and ends as the word does
        by_last = {last: sums[PRODUCT_RULES[(first, last)][1]] for last in "PQ"}
        for last, (cw, cx, cy, cz) in _folds(first, _FLAT_ONE, after, n, l):
            total = by_last[last]
            total[0] += cw
            total[1] += cx
            total[2] += cy
            total[3] += cz
    return _unflat(_reconstruct(coin.flat_basis, *sums.values()))


class PQRSDecomposition(_FrozenRecord):
    """Left coefficients of a matrix over the split basis {P, Q, R, S}.

    ``residual`` is that of the reconstruction, as :func:`decompose_pqrs`
    measures it; it is not part of ``to_json``.
    """

    __slots__ = ("p", "q", "r", "s", "residual")

    def __init__(self, p: Quaternion, q: Quaternion, r: Quaternion, s: Quaternion,
                 residual: float):
        _set_field(self, "p", p)
        _set_field(self, "q", q)
        _set_field(self, "r", r)
        _set_field(self, "s", s)
        _set_field(self, "residual", residual)

    def reconstruct(self, coin: Coin) -> QMatrix2:
        return _unflat(_reconstruct(coin.flat_basis, self.p.components(), self.q.components(),
                                    self.r.components(), self.s.components()))

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
    flat = _flat(matrix)
    # [[p, r], [s, q]] = matrix @ U*: each coefficient is row · column of U*
    prsq = _matmul(flat, _adjoint(coin.flat))
    p, r, s, q = prsq[0:4], prsq[4:8], prsq[8:12], prsq[12:16]
    return PQRSDecomposition(Quaternion(*p), Quaternion(*q), Quaternion(*r), Quaternion(*s),
                             _max_dev(_reconstruct(coin.flat_basis, p, q, r, s), flat))


def _reconstruct(basis: dict, p, q, r, s) -> list:
    """Flat ``pP + qQ + rR + sS`` of flat coefficients, summed in that order."""
    return [ep + eq + er + es for ep, eq, er, es in zip(
        _lmul(p, basis["P"]), _lmul(q, basis["Q"]),
        _lmul(r, basis["R"]), _lmul(s, basis["S"]))]

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
then those that start with Q, from the root ``ONE``.  Words that share
a prefix share its fold, which takes C(n+2, l+1) - 4 steps in all for
0 < l < n instead of one per letter of every word, C(n, l) * (n - 1).
The steps are one-argument functions keyed by the prefix's last letter,
a pair (to P, to Q) each, so a step neither looks its letter up nor
slices its input.  Once a prefix has used up its P's or its Q's, the
rest of its one word is a forced tail, folded with no stack pushes.

The folds run on flat floats, and quaternions are built once, from the
totals.  Both carry one quaternion 4-tuple per prefix, and every step of
either is a right product by one coin entry, built by ``_right_product``.
Its code is generated from ``walk._HAMILTON``, the walk kernel's table of
the Hamilton product's terms, one factory per zero pattern of the entry
(a slice of ``coin.flat_zeros``), compiled on first use and kept in
``_PRODUCTS``: a step leaves out the terms of its entry's zero floats.
Every entry of ``hadamard`` and ``example-ijk`` has one nonzero float, so
their steps take 4 products, where a dense entry's take 16.
The reduced fold carries a coefficient.  A word's basis is fixed by its
first and last letters (P..P, Q..Q, P..Q and Q..P give P, Q, R and S),
and by the product table appending a letter multiplies the coefficient
on the right by an entry that depends only on the basis's last letter.
So the reduced steps are the right products by a, b, c and d for
(last, next) = PP, PQ, QP and QQ, read from ``PRODUCT_RULES``, and each
word's basis is read from its end letters when it is totalled.

Brute force carries half a row.  P = [[a, b], [0, 0]] and
Q = [[0, 0], [c, d]] each have a zero row, and a word's product keeps the
zero row of its first letter, the bottom one after a P and the top one
after a Q.  Its other row is ``(h a, h b)`` after a last letter P and
``(h c, h d)`` after a Q, where h is the half of the row before that P
or Q read.  The next P reads the first half of that row and the next Q
the second, so the fold carries h alone: after a P the next P steps it
by a and the next Q by b, and after a Q by c and d.  Those are the
reduced fold's four steps, but brute force reads its entries from
``coin.flat``, not from the product table, so that the two oracles still
test the table against each other.  A dense step is 16 products where a
whole row took 32, and at a word's last letter h is expanded to the row
(``_leaf_rows``, one generated product by the two entries), 32 products:
at n = 14, l = 7 that is 12866 * 16 + 3432 * 32 = 315680 products, where
a fold of whole rows took 12866 * 32 = 411712.  On ``example-ijk`` the
steps take 4 products and the leaves 8, 12866 * 4 + 3432 * 8 = 78920 in
all.  The P root's words are totalled into the top row
and the Q root's into the bottom row.  Both oracles spell each product
out in the operation order of ``Quaternion.__mul__`` and each sum in that
of ``__add__``.

The half fold leaves out the terms of ``QMatrix2.__matmul__`` that
multiply a zero entry, and the zero row of each word, which a matrix fold
adds to its totals, and it starts each word's row at ``ONE`` times the
first letter's entries.  Both folds' steps leave out the terms of the
zero floats of their entries, and need no -0.0 fallback, unlike the walk
kernel: no total takes its sign of zero from them.  Every total still
keeps the bits of the scalar operators:

* each value left out is a finite float times a zero, or a sum of such
  products (the entries of a unitary coin are at most 1 in norm), so it
  is +0.0 or -0.0;
* ``ONE e`` has the nonzero components of an entry e exactly, since
  ``1.0 * x`` is x and every other term multiplies a zero, and a zero
  component of it can differ from e's only in its sign;
* a product with a zero is a zero, and adding a signed zero to a nonzero
  float leaves it unchanged, so every nonzero value of the fold keeps its
  bits, and a zero value can differ only in its sign;
* each total starts at +0.0, and under round-to-nearest a sum that starts
  at +0.0 never becomes -0.0, so no sign of zero reaches a total.

The word-by-word tests in ``tests/test_pathsum.py`` pin that equality.
``reduce_word`` returns one word's coefficient, which no total absorbs, so
it steps densely, with every term, and keeps the bits of the scalar
product chain, signs of zero included.
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
from .quaternion import ONE, ZERO, Quaternion, _FrozenRecord, _set_field
from .walk import _HAMILTON, FiniteSupportState, _signed_sum

#: Largest step count enumerated exhaustively (2^n words).
WORD_CAP = 20


class InvalidSplitError(ValueError):
    """Step split with l + m != n or negative counts."""


class CapExceededError(ValueError):
    """Requested word length above the enumeration cap."""


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


#: Right-product factories by the zero pattern of the entries they were generated for.
_PRODUCTS: dict = {}

_DENSE_ENTRY = bytes(4)  # the zero pattern of an entry with no zero float

# The factory's source, less its parameters and components.  The source is
# built from these fixed names and a zero pattern alone, never from input.
_PRODUCT = """def product({entries}):
    def right_multiply(h):
        hw, hx, hy, hz = h
        return ({components})
    return right_multiply
"""


def _product(zeros: bytes):
    """The factory ``product(*entries)`` of one zero pattern, generated and compiled on first use.

    ``product`` takes one or two entries, 4 floats each, and returns the
    step ``h -> h e`` or ``h -> (h e, h f)``.  Each component keeps the
    terms of ``_HAMILTON`` by a nonzero entry float, in the operation order
    of ``Quaternion.__mul__``, and is the literal 0.0 when it keeps none.
    """
    names = [f"{'ef'[k // 4]}{'wxyz'[k % 4]}" for k in range(len(zeros))]
    components = [_signed_sum([(sign, f"h{'wxyz'[i]} * {names[base + j]}")
                               for sign, i, j in terms if not zeros[base + j]]) or "0.0"
                  for base in range(0, len(zeros), 4) for terms in _HAMILTON]
    namespace: dict = {}
    exec(_PRODUCT.format(entries=", ".join(names), components=", ".join(components)), namespace)
    product = _PRODUCTS[zeros] = namespace["product"]
    return product


def _right_product(entries, zeros: bytes):
    """The fold step ``h -> h e``, or ``h -> (h e, h f)`` for 8 floats, less the terms of ``zeros``."""
    return (_PRODUCTS.get(zeros) or _product(zeros))(*entries)


def _reduction_steps(coin: Coin, dense: bool = False) -> dict:
    """The reduced fold's steps, ``{last: (to P, to Q)}``: right products by the table's entries.

    Each step leaves out the terms of its entry's zero floats, unless ``dense``.
    """
    flat, zeros = coin.flat, coin.flat_zeros

    def step(last, letter):
        i = 4 * "abcd".index(PRODUCT_RULES[last, letter][0])
        return _right_product(flat[i:i + 4], _DENSE_ENTRY if dense else zeros[i:i + 4])
    return {last: (step(last, "P"), step(last, "Q")) for last in "PQ"}


def _half_steps(coin: Coin) -> dict:
    """The brute-force fold's steps, ``{last: (to P, to Q)}``, read from ``coin.flat``.

    After a P the next P reads the half ``h a`` and the next Q the half
    ``h b``; after a Q they read ``h c`` and ``h d``.
    """
    flat, zeros = coin.flat, coin.flat_zeros
    return {"P": (_right_product(flat[0:4], zeros[0:4]), _right_product(flat[4:8], zeros[4:8])),
            "Q": (_right_product(flat[8:12], zeros[8:12]),
                  _right_product(flat[12:16], zeros[12:16]))}


def _leaf_rows(coin: Coin) -> dict:
    """A word's nonzero row from its last half, ``{last letter: h -> (h e1, h e2)}``.

    ``(e1, e2)`` is the last letter's nonzero row, ``(a, b)`` for P and
    ``(c, d)`` for Q.
    """
    flat, zeros = coin.flat, coin.flat_zeros
    return {"P": _right_product(flat[0:8], zeros[0:8]),
            "Q": _right_product(flat[8:16], zeros[8:16])}


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
    after = _reduction_steps(coin, dense=True)
    coeff = _FLAT_ONE
    for last, letter in zip(letters, letters[1:]):
        coeff = after[last][letter == "Q"](coeff)
    return Quaternion(*coeff), PRODUCT_RULES[(letters[0], letters[-1])][1]


def _check_split(n: int, l: int, m: int, cap: float = math.inf) -> None:
    if l < 0 or m < 0 or l + m != n:
        raise InvalidSplitError(f"need l + m = n with l, m >= 0; got n={n}, l={l}, m={m}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def _folds(first: str, after: dict, n: int, l: int):
    """Left fold of every word that starts with ``first`` and has l P's among
    n letters, in the order of ``itertools.combinations`` over the P positions.

    Yields ``(last letter, fold)`` per word, the fold starting at ``ONE``
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
    stack = [(_FLAT_ONE, first, p_left, q_left)]
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


def _unit_walks(coin: Coin, n: int) -> list[FiniteSupportState]:
    """The walks from the two unit spinors after n steps; walk j holds column j of every split."""
    walks = [FiniteSupportState.delta(spinor) for spinor in ((ONE, ZERO), (ZERO, ONE))]
    for _ in range(n):
        walks = [state.evolve(coin) for state in walks]
    return walks


def path_sums(coin: Coin, n: int) -> list[QMatrix2]:
    """``Xi_n(l, n - l)`` for l = 0..n, by propagation, for any n >= 0.

    Column j of split l is what the walk from the j-th unit spinor carries
    to site n - 2l, so one pair of walks gives every split.
    """
    _check_split(n, 0, n)
    walks = _unit_walks(coin, n)
    columns = [[state.amplitude(x) for x in range(n, -n - 1, -2)] for state in walks]
    return [QMatrix2(e11, e12, e21, e22) for (e11, e21), (e12, e22) in zip(*columns)]


def path_sum(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce`, by propagation: split l of :func:`path_sums`.

    Only the two amplitudes at site n - 2l are read.
    """
    _check_split(n, l, m)
    (e11, e21), (e12, e22) = [state.amplitude(n - 2 * l) for state in _unit_walks(coin, n)]
    return QMatrix2(e11, e12, e21, e22)


def path_sum_bruteforce(coin: Coin, n: int, l: int, m: int) -> QMatrix2:
    """Sum of all C(n, l) operator words, each multiplied out as matrices; n <= WORD_CAP.

    Each word is folded as the half of its nonzero row that the next letter
    reads, and expanded to that row at its last letter (see the module
    docstring).  The words that start with P total the top row and the rest
    the bottom row.
    """
    _check_split(n, l, m, WORD_CAP)
    if n == 0:
        return QMatrix2.identity()
    after, leaf_row = _half_steps(coin), _leaf_rows(coin)
    rows = []
    for first in "PQ":
        sw = sx = sy = sz = tw = tx = ty = tz = 0.0
        for last, half in _folds(first, after, n, l):
            uw, ux, uy, uz, vw, vx, vy, vz = leaf_row[last](half)
            sw += uw
            sx += ux
            sy += uy
            sz += uz
            tw += vw
            tx += vx
            ty += vy
            tz += vz
        rows += (sw, sx, sy, sz, tw, tx, ty, tz)
    return _unflat(rows)


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
        for last, (cw, cx, cy, cz) in _folds(first, after, n, l):
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

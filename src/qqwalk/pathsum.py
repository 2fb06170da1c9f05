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

Both enumerate words in the same deterministic order (lexicographic in
the P positions), so sums are bit-stable across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .coin import Coin, PRODUCT_RULES, QMatrix2
from .quaternion import DEFAULT_TOL, ONE, ZERO, Quaternion
from .walk import FiniteSupportState

#: Largest step count enumerated exhaustively (2^n words).
WORD_CAP = 20


class InvalidSplitError(ValueError):
    """Step split with l + m != n or negative counts."""


class CapExceededError(ValueError):
    """Requested word length above the enumeration cap."""


class NotInSpanError(ValueError):
    """Matrix does not decompose over the coin's split basis."""


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


def _reduce_letters(coin: Coin, letters) -> tuple[Quaternion, str]:
    it = iter(letters)
    basis = next(it)
    coeff = Quaternion(1.0)
    for letter in it:
        entry_name, basis = PRODUCT_RULES[(basis, letter)]
        coeff = coeff * coin.entry(entry_name)
    return coeff, basis


def reduce_word(coin: Coin, word: PQWord) -> tuple[Quaternion, str]:
    """Collapse a word to (left coefficient, basis letter).

    The first letter seeds the fold; each further letter rewrites
    ``coeff * B * L`` to ``(coeff * entry) * B'`` via the product table, so
    any word, whatever its endpoints, lands on a single basis element.
    For alternating blocks this reproduces the familiar pattern, e.g.
    ``P^u Q^v P^w -> a^(u-1) b d^(v-1) c a^(w-1) P``.
    """
    return _reduce_letters(coin, word.letters())


def _check_split(n: int, l: int, m: int, cap: float = math.inf) -> None:
    if l < 0 or m < 0 or l + m != n:
        raise InvalidSplitError(f"need l + m = n with l, m >= 0; got n={n}, l={l}, m={m}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def _words(n: int, l: int):
    """All letter sequences with l P's among n slots, lexicographic in P positions."""
    base = ["Q"] * n
    for positions in itertools.combinations(range(n), l):
        word = base.copy()
        for pos in positions:
            word[pos] = "P"
        yield word


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


def path_sum_bruteforce(coin: Coin, n: int, l: int, m: int,
                        cap: int = WORD_CAP) -> QMatrix2:
    """Sum of all C(n, l) operator words, each multiplied out as matrices."""
    _check_split(n, l, m, cap)
    if n == 0:
        return QMatrix2.identity()
    total = QMatrix2.zeros()
    for word in _words(n, l):
        product = coin.basis(word[0])
        for letter in word[1:]:
            product = product @ coin.basis(letter)
        total = total + product
    return total


def path_sum_reduced(coin: Coin, n: int, l: int, m: int,
                     cap: int = WORD_CAP) -> QMatrix2:
    """Same sum as :func:`path_sum_bruteforce` via per-word table reduction.

    Each word costs one quaternion product per letter instead of a matrix
    product, and the coefficients are accumulated per basis letter.
    """
    _check_split(n, l, m, cap)
    if n == 0:
        return QMatrix2.identity()
    sums = {"P": Quaternion(), "Q": Quaternion(), "R": Quaternion(), "S": Quaternion()}
    for word in _words(n, l):
        coeff, basis = _reduce_letters(coin, word)
        sums[basis] = sums[basis] + coeff
    return (sums["P"] * coin.p + sums["Q"] * coin.q
            + sums["R"] * coin.r + sums["S"] * coin.s)


@dataclass(frozen=True)
class PQRSDecomposition:
    """Left coefficients of a matrix over the split basis {P, Q, R, S}."""

    p: Quaternion
    q: Quaternion
    r: Quaternion
    s: Quaternion

    def reconstruct(self, coin: Coin) -> QMatrix2:
        return (self.p * coin.p + self.q * coin.q
                + self.r * coin.r + self.s * coin.s)

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json(),
                "r": self.r.to_json(), "s": self.s.to_json()}


def decompose_pqrs(coin: Coin, matrix: QMatrix2,
                   tol: float = DEFAULT_TOL) -> PQRSDecomposition:
    """Extract left coefficients so that ``matrix = pP + qQ + rR + sS``.

    Row orthonormality of the unitary coin gives projection formulas that
    stay valid for noncommutative coefficients: the top row of the matrix
    is ``p (a, b) + r (c, d)``, and right-multiplying by conjugated coin
    entries isolates each coefficient.  A reconstruction residual above
    ``tol`` means the rows were not in the coin's row span.

    Raises:
        NotInSpanError: reconstruction residual exceeds ``tol``.
    """
    ac, bc = coin.a.conj(), coin.b.conj()
    cc, dc = coin.c.conj(), coin.d.conj()
    deco = PQRSDecomposition(
        p=matrix.e11 * ac + matrix.e12 * bc,
        r=matrix.e11 * cc + matrix.e12 * dc,
        s=matrix.e21 * ac + matrix.e22 * bc,
        q=matrix.e21 * cc + matrix.e22 * dc,
    )
    residual = deco.reconstruct(coin).max_dev(matrix)
    if not residual <= tol:
        raise NotInSpanError(f"reconstruction residual {residual!r} exceeds {tol!r}")
    return deco

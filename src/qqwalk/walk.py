"""Walker states on the integer line, one-step evolution, and distributions.

Two state representations cover everything at desk scale: a dense finite
window that grows by one site per step (walks started from a point), and a
periodic block of amplitudes (translation-structured states such as the
uniform state and the eigenstate constructions, which have infinite
support but finite description).  Evolution is exact in both.

One step sends ``psiL'(x) = a psiL(x+1) + b psiR(x+1)`` and
``psiR'(x) = c psiL(x-1) + d psiR(x-1)``, coin entries multiplying from
the left.  Each site is stored as one flat tuple ``(Lw, Lx, Ly, Lz, Rw,
Rx, Ry, Rz)``.  The public constructors check their ``(Quaternion,
Quaternion)`` pairs once, ``evolve`` trusts the step's output, and only
``amplitude``, ``pairs`` and ``to_json`` build quaternions.  ``_step``
reads the coin's stored flat matrix ``coin.flat`` and spells the Hamilton
products out in the operation order of ``Quaternion.__mul__`` then
``__add__``, so every component has the bits of the scalar reference
``coin.matrix.apply(pair)``.  ``measure`` trusts the step's site weights
as ``evolve`` trusts its pairs: it builds its ``Measure`` through
``Measure._of_weights``, which checks only what a weight can get wrong,
while a caller's or a JSON file's values keep every check of
``Measure.__init__``.

A walk started from a point is nonzero only where ``x = t (mod 2)``.  The
finite window pads with ``None``: two ``None`` neighbours give ``None``, one
gives exact zeros with no arithmetic, and ``measure`` reads ``None`` as
0.0.  This is exact because ``Coin`` admits only finite entries, for which
``a*0`` is a zero.  A zero pair that a caller passes in is computed with.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, islice

from .coin import Coin
from .quaternion import DEFAULT_TOL, Quaternion, _json_cast, max_or_nan

#: Tolerance on | |alpha|^2 + |beta|^2 - 1 | for initial spinors.
NORM_TOL = 1e-9

AmplitudePair = tuple[Quaternion, Quaternion]

_ZERO_HALF = (0.0, 0.0, 0.0, 0.0)
_MEASURE_VALUES = "measure values must be finite, nonnegative and not all zero"
_ZERO_PAIR: AmplitudePair = (Quaternion(), Quaternion())


class NotNormalizedError(ValueError):
    """Initial spinor does not have unit norm."""


def _flatten(pairs) -> list:
    """Flat sites of caller-given amplitude pairs, checked once."""
    sites = []
    for left, right in pairs:
        if not isinstance(left, Quaternion) or not isinstance(right, Quaternion):
            raise TypeError("amplitudes must be Quaternion pairs")
        sites.append(left.components() + right.components())
    if not any(map(any, sites)):  # by components: a tiny amplitude's square is 0.0
        raise ValueError("state needs at least one nonzero amplitude pair")
    return sites


def _pair(site) -> AmplitudePair:
    return _ZERO_PAIR if site is None else (Quaternion(*site[:4]), Quaternion(*site[4:]))


def _pairs(state) -> tuple[AmplitudePair, ...]:
    """The site amplitudes as pairs, built on each access."""
    return tuple(list(map(_pair, state._sites)))


def _step(coin: Coin, lefts, rights) -> list:
    """New site j: ``a psiL + b psiR`` of ``rights[j]``, then ``c psiL + d psiR`` of ``lefts[j]``."""
    aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz = coin.flat
    out = []
    for s, t in zip(lefts, rights):
        up = down = _ZERO_HALF
        if t is not None:
            lw, lx, ly, lz, rw, rx, ry, rz = t
            up = ((aw * lw - ax * lx - ay * ly - az * lz) + (bw * rw - bx * rx - by * ry - bz * rz),
                  (aw * lx + ax * lw + ay * lz - az * ly) + (bw * rx + bx * rw + by * rz - bz * ry),
                  (aw * ly - ax * lz + ay * lw + az * lx) + (bw * ry - bx * rz + by * rw + bz * rx),
                  (aw * lz + ax * ly - ay * lx + az * lw) + (bw * rz + bx * ry - by * rx + bz * rw))
        if s is not None:
            lw, lx, ly, lz, rw, rx, ry, rz = s
            down = ((cw * lw - cx * lx - cy * ly - cz * lz) + (dw * rw - dx * rx - dy * ry - dz * rz),
                    (cw * lx + cx * lw + cy * lz - cz * ly) + (dw * rx + dx * rw + dy * rz - dz * ry),
                    (cw * ly - cx * lz + cy * lw + cz * lx) + (dw * ry - dx * rz + dy * rw + dz * rx),
                    (cw * lz + cx * ly - cy * lx + cz * lw) + (dw * rz + dx * ry - dy * rx + dz * rw))
        out.append(None if s is None and t is None else up + down)
    return out


def _weights(sites) -> list[float]:
    """Site weights ``|psiL|^2 + |psiR|^2`` in the ``norm_sq`` order; None is 0.0."""
    return [0.0 if s is None else
            (s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])
            + (s[4] * s[4] + s[5] * s[5] + s[6] * s[6] + s[7] * s[7])
            for s in sites]


def _layout_json(periodic: bool, offset: int, key: str, items: list) -> dict:
    """The layout ``_read_layout`` reads, keys in the order kind, offset or period, ``key``."""
    if periodic:
        return {"kind": "periodic", "period": len(items), key: items}
    return {"kind": "finite", "offset": offset, key: items}


def _read_layout(data, what: str, key: str) -> tuple[bool, int, list]:
    """``(periodic, offset, items)``; periodic has offset 0 and a declared period must match."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in ("finite", "periodic"):
        raise ValueError(f"{what} JSON needs kind 'finite' or 'periodic', got {kind!r}")
    items = data.get(key)
    if not isinstance(items, list):
        raise ValueError(f"{what} {key} must be an array, got {items!r}")
    if kind == "finite":
        return False, _json_cast(int, data.get("offset", 0), "offset"), items
    if "period" in data and _json_cast(int, data["period"], "period") != len(items):
        raise ValueError(f"declared period does not match the {len(items)} {what} {key}")
    return True, 0, items


class FiniteSupportState:
    """Amplitudes on a dense window ``[offset, offset + len)``; zero outside."""

    __slots__ = ("offset", "_sites")

    def __init__(self, offset: int, pairs):
        self.offset = int(offset)
        self._sites = _flatten(pairs)

    @classmethod
    def delta(cls, spinor: AmplitudePair) -> "FiniteSupportState":
        """State concentrated on the origin."""
        return cls(0, [spinor])

    pairs = property(_pairs)

    def sites(self) -> range:
        return range(self.offset, self.offset + len(self._sites))

    def amplitude(self, x: int) -> AmplitudePair:
        idx = x - self.offset
        return _pair(self._sites[idx]) if 0 <= idx < len(self._sites) else _ZERO_PAIR

    def evolve(self, coin: Coin) -> "FiniteSupportState":
        """One time step; the support grows by one site on each end."""
        padded = [None, None, *self._sites, None, None]
        state = object.__new__(FiniteSupportState)  # the step's output needs no check
        state.offset, state._sites = self.offset - 1, _step(coin, padded, padded[2:])
        return state

    def measure(self) -> "Measure":
        return Measure._of_weights(_weights(self._sites), self.offset, False)

    def norm_sq(self) -> float:
        return sum(_weights(self._sites))

    def to_json(self) -> dict:
        return _layout_json(False, self.offset, "amplitudes",
                            [[l.to_json(), r.to_json()] for l, r in self.pairs])

    def __repr__(self):
        return f"FiniteSupportState(offset={self.offset}, sites={len(self._sites)})"


class PeriodicState:
    """One period of a state with ``psi(x) = pairs[x mod period]``."""

    __slots__ = ("_sites",)

    def __init__(self, pairs):
        self._sites = _flatten(pairs)

    @classmethod
    def constant(cls, spinor: AmplitudePair) -> "PeriodicState":
        """The same spinor at every site (period 1)."""
        return cls([spinor])

    pairs = property(_pairs)

    @property
    def period(self) -> int:
        return len(self._sites)

    def amplitude(self, x: int) -> AmplitudePair:
        return _pair(self._sites[x % len(self._sites)])

    def evolve(self, coin: Coin) -> "PeriodicState":
        """One time step; shift-equivariance keeps the period fixed."""
        sites = self._sites
        state = object.__new__(PeriodicState)  # the step's output needs no check
        state._sites = _step(coin, sites[-1:] + sites[:-1], sites[1:] + sites[:1])
        return state

    def measure(self) -> "Measure":
        return Measure._of_weights(_weights(self._sites), 0, True)

    def to_json(self) -> dict:
        return _layout_json(True, 0, "amplitudes",
                            [[l.to_json(), r.to_json()] for l, r in self.pairs])

    def __repr__(self):
        return f"PeriodicState(period={self.period})"


WalkState = FiniteSupportState | PeriodicState


def state_from_json(data: dict) -> WalkState:
    periodic, offset, amplitudes = _read_layout(data, "state", "amplitudes")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in amplitudes):
        raise ValueError("state amplitudes must be an array of [left, right] pairs")
    pairs = [(Quaternion.from_json(l), Quaternion.from_json(r)) for l, r in amplitudes]
    if not all(math.isfinite(v) for pair in pairs for amp in pair for v in amp.components()):
        raise ValueError("state amplitudes must be finite")
    return PeriodicState(pairs) if periodic else FiniteSupportState(offset, pairs)


class Measure:
    """Nonnegative weight per site, on a finite window or one period.

    The values must be finite, nonnegative and not all zero, and the
    constructor checks that once, with builtin passes: a NaN anywhere
    makes the sum NaN, and ``min``/``max`` catch a negative or infinite
    value wherever it sits.  A walk state measures its own site weights
    through ``_of_weights``, which makes the same decision with fewer
    checks.
    """

    __slots__ = ("values", "offset", "periodic")

    def __init__(self, values, offset: int = 0, periodic: bool = False):
        vals = tuple(list(map(float, values)))
        if not (vals and min(vals) >= 0.0 and max(vals) < math.inf and sum(vals) > 0.0):
            raise ValueError(_MEASURE_VALUES)
        self.values = vals
        self.offset = int(offset)
        self.periodic = bool(periodic)

    @classmethod
    def _of_weights(cls, weights: list[float], offset: int, periodic: bool) -> "Measure":
        """The measure of a walk state's site weights, as ``__init__`` decides it.

        Each weight is a sum of float squares, so it is +0.0 or more, +inf
        or NaN, and never negative.  With ``total = sum(weights)``:

        - a NaN makes ``total`` NaN, which fails ``total > 0.0``;
        - an inf makes both ``total`` and ``max(weights)`` inf;
        - finite weights whose sum overflows give an inf ``total`` but a
          finite ``max``, and pass, as they do in ``__init__``;
        - all-zero weights sum to 0.0.

        No case depends on rounding, so the decision is the same whether or
        not ``sum`` is compensated (Python 3.12 on) and equals ``__init__``'s.
        """
        total = sum(weights)
        if not (total > 0.0 and (total < math.inf or max(weights) < math.inf)):
            raise ValueError(_MEASURE_VALUES)
        mu = object.__new__(cls)  # the step's weights need no float pass
        mu.values, mu.offset, mu.periodic = tuple(weights), offset, periodic
        return mu

    @classmethod
    def from_sites(cls, weights: dict[int, float]) -> "Measure":
        """Finite measure from a site -> weight map (gaps filled with 0)."""
        lo, hi = min(weights), max(weights)
        return cls([weights.get(x, 0.0) for x in range(lo, hi + 1)], offset=lo)

    def value(self, x: int) -> float:
        if self.periodic:
            return self.values[x % len(self.values)]
        idx = x - self.offset
        if 0 <= idx < len(self.values):
            return self.values[idx]
        return 0.0

    def sites(self) -> range:
        if self.periodic:
            return range(len(self.values))
        return range(self.offset, self.offset + len(self.values))

    def total(self) -> float:
        """Sum over the window (finite) or one period (periodic)."""
        return sum(self.values)

    def max_dev(self, other: "Measure") -> float:
        """Largest absolute sitewise difference, over both windows or one period."""
        if self.periodic != other.periodic:
            raise ValueError("cannot compare periodic and finite measures")
        if self.periodic and len(self.values) != len(other.values):
            raise ValueError("periodic measures have different periods")
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        return max_or_nan([abs(self.value(x) - other.value(x)) for x in range(lo, hi)])

    def approx_eq(self, other: "Measure", tol: float = DEFAULT_TOL) -> bool:
        return self.max_dev(other) <= tol

    def to_json(self) -> dict:
        return _layout_json(self.periodic, self.offset, "values", list(self.values))

    def __repr__(self):
        tag = "periodic" if self.periodic else f"offset={self.offset}"
        return f"Measure({tag}, values={list(self.values)})"


def measure_from_json(data: dict) -> Measure:
    periodic, offset, values = _read_layout(data, "measure", "values")
    return Measure([_json_cast(float, v, "measure value") for v in values],
                   offset=offset, periodic=periodic)


def _check_normalized(spinor: AmplitudePair) -> None:
    total = spinor[0].norm_sq() + spinor[1].norm_sq()
    if not abs(total - 1.0) <= NORM_TOL:
        raise NotNormalizedError(f"initial spinor has squared norm {total!r}")


def distributions(coin: Coin, spinor: AmplitudePair, n_max: int) -> Iterator[dict[int, float]]:
    """Position laws for times 0..n_max of the walk started at the origin.

    The arguments are checked on the call; the laws then come one step at a
    time, holding only the current state.  Each maps site -> probability;
    exactly-zero sites are omitted, so the support reflects the parity of
    the step count.  Each law reads every second site of its measure,
    starting at the window's first site.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_normalized(spinor)
    states = accumulate(range(n_max), lambda state, _: state.evolve(coin),
                        initial=FiniteSupportState.delta(spinor))
    # The walk is exactly 0.0 off the parity of the window's first site (the
    # None sites), and a law omits exact zeros, so reading the live parity
    # alone leaves every law, its keys and their order as they are.
    return ({x: p for x, p in zip(mu.sites()[::2], mu.values[::2]) if p != 0.0}
            for mu in map(FiniteSupportState.measure, states))


def distribution(coin: Coin, spinor: AmplitudePair, n: int) -> dict[int, float]:
    """P(X_n = x) for the walk started from ``spinor`` at the origin."""
    return next(islice(distributions(coin, spinor, n), n, None))


def hadamard_three_step_distribution(spinor: AmplitudePair) -> dict[int, float]:
    """Closed-form three-step position law of the Hadamard walk.

    With initial spinor (alpha, beta):
    P(-3) = |alpha+beta|^2/8, P(-1) = (4|alpha|^2 + |alpha+beta|^2)/8,
    P(1) = (4|beta|^2 + |alpha-beta|^2)/8, P(3) = |alpha-beta|^2/8.
    """
    _check_normalized(spinor)
    alpha, beta = spinor
    plus = (alpha + beta).norm_sq()
    minus = (alpha - beta).norm_sq()
    law = {
        -3: plus / 8.0,
        -1: (4.0 * alpha.norm_sq() + plus) / 8.0,
        1: (4.0 * beta.norm_sq() + minus) / 8.0,
        3: minus / 8.0,
    }
    return {x: p for x, p in law.items() if p != 0.0}


def random_unit_pair(rng) -> AmplitudePair:
    """Uniform random spinor with |alpha|^2 + |beta|^2 = 1."""
    while True:
        comps = [rng.gauss(0.0, 1.0) for _ in range(8)]
        norm = 0.0
        for v in comps:  # a left fold: the builtin sum rounds differently from 3.12 on
            norm += v * v
        norm = norm ** 0.5
        if norm > 1e-6:
            alpha = Quaternion(*comps[:4]) / norm
            beta = Quaternion(*comps[4:]) / norm
            return (alpha, beta)

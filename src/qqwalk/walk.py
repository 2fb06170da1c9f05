"""Walker states on the integer line, one-step evolution, and distributions.

Two state representations cover everything at desk scale: a dense finite
window that grows by one site per step (walks started from a point), and a
periodic block of amplitudes (translation-structured states such as the
uniform state and the eigenstate constructions, which have infinite
support but finite description).  Evolution is exact in both.

The site amplitude is a pair (left component, right component); one step
sends ``psiL'(x) = a psiL(x+1) + b psiR(x+1)`` and
``psiR'(x) = c psiL(x-1) + d psiR(x-1)`` with coin entries multiplying
from the left.

That step lives in ``_coin_rows`` alone.  It spells the Hamilton products
out on floats in exactly the operation order of ``Quaternion.__mul__``
followed by ``__add__``, so every component has the same bits as the
scalar product ``coin.matrix.apply(pair)``, which stays the reference.
A walk started from a point is nonzero only where ``x = t (mod 2)``.  The
finite window pads with the shared zero ``_ZERO``, and a pair of two
shared zeros maps to two shared zeros without arithmetic, so the other
sublattice costs one identity test per site and ``measure`` reads it as
0.0.  This is exact because ``Coin`` admits only finite entries, for which
``a*0`` is a zero; a zero built by arithmetic is treated as any other
value.
"""

from __future__ import annotations

import math

from .coin import Coin
from .quaternion import DEFAULT_TOL, Quaternion, _json_cast, max_or_nan

#: Tolerance on | |alpha|^2 + |beta|^2 - 1 | for initial spinors.
NORM_TOL = 1e-9

AmplitudePair = tuple[Quaternion, Quaternion]

_ZERO = Quaternion()
_ZERO_PAIR: AmplitudePair = (_ZERO, _ZERO)


class NotNormalizedError(ValueError):
    """Initial spinor does not have unit norm."""


def _coerce_pairs(pairs) -> tuple[AmplitudePair, ...]:
    out = []
    for pair in pairs:
        left, right = pair
        if not isinstance(left, Quaternion) or not isinstance(right, Quaternion):
            raise TypeError("amplitudes must be Quaternion pairs")
        out.append((left, right))
    if not out:
        raise ValueError("state needs at least one amplitude pair")
    if all(l.norm_sq() == 0.0 and r.norm_sq() == 0.0 for l, r in out):
        raise ValueError("state must not be identically zero")
    return tuple(out)


def _coin_rows(coin: Coin, pairs) -> tuple[list[Quaternion], list[Quaternion]]:
    """The moved rows ``a psiL + b psiR`` and ``c psiL + d psiR`` of every pair.

    Site i of the first row moves one site left and site i of the second
    one site right; the caller places them for its boundary.  Bit-identical
    to ``coin.matrix.apply`` per pair, except that the shared zero pair
    maps to the shared zero (see the module docstring).
    """
    aw, ax, ay, az = coin.a.components()
    bw, bx, by, bz = coin.b.components()
    cw, cx, cy, cz = coin.c.components()
    dw, dx, dy, dz = coin.d.components()
    zero = _ZERO
    up = []
    down = []
    for l, r in pairs:
        if l is zero and r is zero:
            up.append(zero)
            down.append(zero)
            continue
        lw, lx, ly, lz = l.w, l.x, l.y, l.z
        rw, rx, ry, rz = r.w, r.x, r.y, r.z
        up.append(Quaternion(
            (aw * lw - ax * lx - ay * ly - az * lz) + (bw * rw - bx * rx - by * ry - bz * rz),
            (aw * lx + ax * lw + ay * lz - az * ly) + (bw * rx + bx * rw + by * rz - bz * ry),
            (aw * ly - ax * lz + ay * lw + az * lx) + (bw * ry - bx * rz + by * rw + bz * rx),
            (aw * lz + ax * ly - ay * lx + az * lw) + (bw * rz + bx * ry - by * rx + bz * rw)))
        down.append(Quaternion(
            (cw * lw - cx * lx - cy * ly - cz * lz) + (dw * rw - dx * rx - dy * ry - dz * rz),
            (cw * lx + cx * lw + cy * lz - cz * ly) + (dw * rx + dx * rw + dy * rz - dz * ry),
            (cw * ly - cx * lz + cy * lw + cz * lx) + (dw * ry - dx * rz + dy * rw + dz * rx),
            (cw * lz + cx * ly - cy * lx + cz * lw) + (dw * rz + dx * ry - dy * rx + dz * rw)))
    return up, down


def _weights(pairs) -> list[float]:
    """Site weights ``|psiL|^2 + |psiR|^2``; the shared zero pair is 0.0 with no arithmetic."""
    zero = _ZERO
    return [0.0 if l is zero and r is zero else l.norm_sq() + r.norm_sq()
            for l, r in pairs]


def _state_json(kind: str, pairs, **fields) -> dict:
    return {"kind": kind, **fields,
            "amplitudes": [[l.to_json(), r.to_json()] for l, r in pairs]}


class FiniteSupportState:
    """Amplitudes on a dense window ``[offset, offset + len)``; zero outside."""

    __slots__ = ("offset", "pairs")

    def __init__(self, offset: int, pairs):
        self.offset = int(offset)
        self.pairs = _coerce_pairs(pairs)

    @classmethod
    def delta(cls, spinor: AmplitudePair) -> "FiniteSupportState":
        """State concentrated on the origin."""
        return cls(0, [spinor])

    def sites(self) -> range:
        return range(self.offset, self.offset + len(self.pairs))

    def amplitude(self, x: int) -> AmplitudePair:
        idx = x - self.offset
        if 0 <= idx < len(self.pairs):
            return self.pairs[idx]
        return _ZERO_PAIR

    def evolve(self, coin: Coin) -> "FiniteSupportState":
        """One time step; the support grows by one site on each end."""
        up, down = _coin_rows(coin, self.pairs)
        return FiniteSupportState(self.offset - 1,
                                  zip(up + [_ZERO, _ZERO], [_ZERO, _ZERO] + down))

    def measure(self) -> "Measure":
        return Measure(_weights(self.pairs), offset=self.offset)

    def norm_sq(self) -> float:
        return sum(_weights(self.pairs))

    def to_json(self) -> dict:
        return _state_json("finite", self.pairs, offset=self.offset)

    def __repr__(self):
        return f"FiniteSupportState(offset={self.offset}, sites={len(self.pairs)})"


class PeriodicState:
    """One period of a state with ``psi(x) = pairs[x mod period]``."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = _coerce_pairs(pairs)

    @classmethod
    def constant(cls, spinor: AmplitudePair) -> "PeriodicState":
        """The same spinor at every site (period 1)."""
        return cls([spinor])

    @property
    def period(self) -> int:
        return len(self.pairs)

    def amplitude(self, x: int) -> AmplitudePair:
        return self.pairs[x % len(self.pairs)]

    def evolve(self, coin: Coin) -> "PeriodicState":
        """One time step; shift-equivariance keeps the period fixed."""
        up, down = _coin_rows(coin, self.pairs)
        return PeriodicState(zip(up[1:] + up[:1], down[-1:] + down[:-1]))

    def measure(self) -> "Measure":
        return Measure(_weights(self.pairs), periodic=True)

    def to_json(self) -> dict:
        return _state_json("periodic", self.pairs, period=self.period)

    def __repr__(self):
        return f"PeriodicState(period={self.period})"


WalkState = FiniteSupportState | PeriodicState


def state_from_json(data: dict) -> WalkState:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("state JSON needs a 'kind' tag")
    amplitudes = data.get("amplitudes", [])
    if not (isinstance(amplitudes, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in amplitudes)):
        raise ValueError("state amplitudes must be an array of [left, right] pairs")
    pairs = [(Quaternion.from_json(l), Quaternion.from_json(r)) for l, r in amplitudes]
    if not all(math.isfinite(v) for pair in pairs for amp in pair for v in amp.components()):
        raise ValueError("state amplitudes must be finite")
    if data["kind"] == "finite":
        return FiniteSupportState(_json_cast(int, data.get("offset", 0), "offset"), pairs)
    if data["kind"] == "periodic":
        if "period" in data and _json_cast(int, data["period"], "period") != len(pairs):
            raise ValueError("declared period does not match the amplitude count")
        return PeriodicState(pairs)
    raise ValueError(f"unknown state kind {data['kind']!r}")


class Measure:
    """Nonnegative weight per site, on a finite window or one period."""

    __slots__ = ("values", "offset", "periodic")

    def __init__(self, values, offset: int = 0, periodic: bool = False):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("measure needs at least one value")
        if any(not 0.0 <= v < math.inf for v in vals):
            raise ValueError("measure values must be finite and nonnegative")
        if all(v == 0.0 for v in vals):
            raise ValueError("measure must not be identically zero")
        self.values = vals
        self.offset = int(offset)
        self.periodic = bool(periodic)

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

    def support_radius(self) -> int:
        if self.periodic:
            return len(self.values)
        return max(abs(self.offset), abs(self.offset + len(self.values) - 1))

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
        if self.periodic:
            return {"kind": "periodic", "period": len(self.values),
                    "values": list(self.values)}
        return {"kind": "finite", "offset": self.offset, "values": list(self.values)}

    def __repr__(self):
        tag = "periodic" if self.periodic else f"offset={self.offset}"
        return f"Measure({tag}, values={list(self.values)})"


def measure_from_json(data: dict) -> Measure:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("measure JSON needs a 'kind' tag")
    values = data.get("values")
    if not isinstance(values, list):
        raise ValueError(f"measure values must be an array, got {values!r}")
    values = [_json_cast(float, v, "measure value") for v in values]
    if data["kind"] == "finite":
        return Measure(values, offset=_json_cast(int, data.get("offset", 0), "offset"))
    if data["kind"] == "periodic":
        return Measure(values, periodic=True)
    raise ValueError(f"unknown measure kind {data['kind']!r}")


def _check_normalized(spinor: AmplitudePair) -> None:
    total = spinor[0].norm_sq() + spinor[1].norm_sq()
    if not abs(total - 1.0) <= NORM_TOL:
        raise NotNormalizedError(f"initial spinor has squared norm {total!r}")


def distributions(coin: Coin, spinor: AmplitudePair, n_max: int) -> list[dict[int, float]]:
    """Position laws for times 0..n_max of the walk started at the origin.

    Each entry maps site -> probability; exactly-zero sites are omitted,
    so the support automatically reflects the parity of the step count.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_normalized(spinor)
    state = FiniteSupportState.delta(spinor)
    out = []
    for _ in range(n_max + 1):
        mu = state.measure()
        out.append({x: p for x, p in zip(mu.sites(), mu.values) if p != 0.0})
        state = state.evolve(coin)
    return out


def distribution(coin: Coin, spinor: AmplitudePair, n: int) -> dict[int, float]:
    """P(X_n = x) for the walk started from ``spinor`` at the origin."""
    return distributions(coin, spinor, n)[n]


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
        norm = sum(v * v for v in comps) ** 0.5
        if norm > 1e-6:
            alpha = Quaternion(*comps[:4]) / norm
            beta = Quaternion(*comps[4:]) / norm
            return (alpha, beta)

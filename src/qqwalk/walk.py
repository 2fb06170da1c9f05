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
``amplitude``, ``pairs`` and ``to_json`` build quaternions.  Each state
keeps its site weights ``|psiL|^2 + |psiR|^2`` beside its sites.

One kernel, ``_chain``, makes every step.  It steps a chain of sites two
apart, building each new site and its weight in one loop, on the coin's
stored flat matrix ``coin.flat``.  The loop is generated from one table,
``_HAMILTON``, of the Hamilton product's terms in the operation order of
``Quaternion.__mul__`` then ``__add__``: one kernel per zero pattern of
``coin.flat`` (``coin.flat_zeros``), compiled on first use and kept in
``_KERNELS``.  The dense kernel does all 64 products a site; a sparse one
leaves out the terms of the zero coin floats, 48 of them for Hadamard
and ``[[1, i], [j, k]]/sqrt(2)``, and recomputes a component that comes
out -0.0 with every term (see ``_kernel``).  With finite amplitudes a term
left out is +-0.0, which changes no sum but the sign of a zero one, so
every component has the bits of the scalar reference
``coin.matrix.apply(pair)``.
A chain whose state's stored weights do not sum to a finite value steps
on the dense kernel: a zero coin float times an infinite or NaN amplitude
is NaN.  Every ``Measure``, a state's own included, is built by
``Measure.__init__`` and gets all of its checks.

A step reads only sites ``x - 1`` and ``x + 1``, so a walk started from a
point is zero where ``x != t (mod 2)``.  A finite state stores its sites at
``offset + stride * j``: stride 2 for one site and every walk from it, 1 for
a caller's window of two or more.  A stride-2 state is one chain, and a
stride-1 window its even and odd chains, stepped apart and interleaved.
The sites between read as zeros, a chain's ends add +0.0 halves, and a
caller's zero pair is computed with.  A periodic state is closed chains:
one through every site for an odd period, the evens and the odds for an
even one; ``_closed`` folds each chain's overflow site onto its first.  A
period-1 state is its own one-site chain, with no slicing or interleaving.

A walk from the origin reports itself through one stream, ``_site_weights``:
for each step, its first stored site and the weights of its stored sites.
The stream steps the walk's open chain with ``_chain`` itself: no state
object, ``Measure``, zero fill or dict per step.  ``distributions`` is a
dict view over that stream, and ``distribution`` steps one state n times
with ``evolve`` and reads its one law from the final state's ``measure``;
both check their arguments on the call with ``_start``.  Verify's
stationarity checks read a periodic state's stored weights in the same way
(see ``stationary.stationary_residual``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count
from operator import index

from .coin import Coin
from .quaternion import DEFAULT_TOL, Quaternion, _json_cast, max_or_nan

#: Tolerance on | |alpha|^2 + |beta|^2 - 1 | for initial spinors.
NORM_TOL = 1e-9

AmplitudePair = tuple[Quaternion, Quaternion]

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
    return (Quaternion(*site[:4]), Quaternion(*site[4:]))


# The Hamilton product p q by component of the result, w, x, y, z: each
# term's sign, p component and q component, in ``Quaternion.__mul__`` order.
_HAMILTON = ((("+", 0, 0), ("-", 1, 1), ("-", 2, 2), ("-", 3, 3)),
             (("+", 0, 1), ("+", 1, 0), ("+", 2, 3), ("-", 3, 2)),
             (("+", 0, 2), ("-", 1, 3), ("+", 2, 0), ("+", 3, 1)),
             (("+", 0, 3), ("+", 1, 2), ("-", 2, 1), ("+", 3, 0)))

_DENSE = bytes(16)  # the zero pattern of a coin with no zero float

#: Chain kernels by the zero pattern ``coin.flat_zeros`` they were generated for.
_KERNELS: dict = {}

# The kernel's source, less its two rows of four components.  The source is
# built from these fixed names and a zero pattern alone, never from input.
_KERNEL = """def kernel(flat, chain):
    aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz = flat
    sites, weights = [], []
    pw = px = py = pz = pv = 0.0  # the lower half from the site before, and its weight
    # a loop, not comprehensions: on Python 3.10 and 3.11 a comprehension is a
    # nested function, which would read the 16 coin floats from closure cells
    for lw, lx, ly, lz, rw, rx, ry, rz in chain:
        {upper}
        sites.append((uw, ux, uy, uz, pw, px, py, pz))
        weights.append((uw * uw + ux * ux + uy * uy + uz * uz) + pv)
        {lower}
        pv = pw * pw + px * px + py * py + pz * pz
    sites.append((0.0, 0.0, 0.0, 0.0, pw, px, py, pz))
    weights.append(pv)  # 0.0 + pv is pv: a sum of squares is never -0.0
    return sites, weights
"""


def _signed_sum(terms) -> str:
    """The text of the sum of ``(sign, term)`` pairs, in order; empty for no terms."""
    if not terms:
        return ""
    (sign, first), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + first + "".join([f" {sign} {term}" for sign, term in rest])


def _row_sum(row: str, k: int, zeros: bytes) -> str:
    """Component k of ``row[0] psiL + row[1] psiR``, less the terms of zero coin floats.

    Each entry's product is one parenthesized group and the groups are
    added, as ``Quaternion.__add__`` adds two products; the text is empty
    when every term is left out.
    """
    groups = []
    for entry, half in zip(row, "lr"):
        base = 4 * "abcd".index(entry)
        group = _signed_sum([(sign, f"{entry}{'wxyz'[i]} * {half}{'wxyz'[j]}")
                             for sign, i, j in _HAMILTON[k] if not zeros[base + i]])
        if group:
            groups.append(group)
    return " + ".join([f"({group})" for group in groups])


def _kernel(zeros: bytes):
    """The chain kernel of one zero pattern, generated and compiled on first use.

    A component keeps its terms by a nonzero coin float, in order, and
    falls back on the full sum only when it comes out -0.0.  A term left
    out is an exact +-0.0 when the amplitudes are finite, and adding a
    zero changes no sum but the sign of a zero one.  So the kept terms sum
    to the full sum's value, and are zero exactly when it is: a nonzero
    component has the full sum's bits.  Under round-to-nearest a sum of
    signed terms is -0.0 only if every term is -0.0 (x + y is -0.0 only
    for two -0.0s, and x - y is x + -y).  So a kept sum of +0.0 has a
    term that is not -0.0, which the full sum has too: the full sum is
    +0.0 as well, and the component is written as the literal 0.0.  Only
    a kept sum of -0.0 leaves the sign of zero to the terms left out, and
    takes it from the full sum.  A nonzero component costs one truth
    test: the ``or`` returns it.
    """
    lines = []
    for row, half in (("ab", "u"), ("cd", "p")):
        for k, name in enumerate("wxyz"):
            full, kept = _row_sum(row, k, _DENSE), _row_sum(row, k, zeros)
            fallback = f"({full} if copysign(1.0, {kept}) < 0.0 else 0.0)"
            lines.append(f"{half}{name} = {full}" if kept in (full, "")
                         else f"{half}{name} = {kept} or {fallback}")
    namespace = {"copysign": math.copysign}
    exec(_KERNEL.format(upper="\n        ".join(lines[:4]), lower="\n        ".join(lines[4:])),
         namespace)
    kernel = _KERNELS[zeros] = namespace["kernel"]
    return kernel


def _chain(coin: Coin, chain, weights) -> tuple[list, list]:
    """One step of a chain of sites two apart: ``(sites, weights)``, one site longer.

    New site j joins ``a psiL + b psiR`` of ``chain[j]`` to ``c psiL + d psiR``
    of ``chain[j - 1]``; past either end the missing half is +0.0.  Each
    weight is summed as ``_weights`` sums it, as its site is built.  The
    kernel is the one of the coin's zero pattern, unless ``weights``, the
    stored weights of the chain's state or stream, do not sum to a finite
    value: a zero coin float times an infinite or NaN amplitude is NaN, so
    such a chain steps on the dense kernel.
    """
    zeros = coin.flat_zeros if sum(weights) < math.inf else _DENSE
    return (_KERNELS.get(zeros) or _kernel(zeros))(coin.flat, chain)


def _closed(coin: Coin, chain, weights) -> tuple[list, list]:
    """``_chain`` of a cycle: the overflow site folds onto the first site.

    The first site has only its upper half and the overflow site only its
    lower half, so the joined site and the summed weight are bit for bit
    what one site with both halves would get.
    """
    sites, weights = _chain(coin, chain, weights)
    sites[0] = sites[0][:4] + sites.pop()[4:]
    weights[0] += weights.pop()
    return sites, weights


def _merge(evens: tuple[list, list], odds: tuple[list, list]) -> tuple[list, list]:
    """Two stepped chains ``(sites, weights)`` interleaved, ``evens`` first."""
    sites, weights = evens[0] + odds[0], evens[1] + odds[1]
    sites[::2], sites[1::2] = evens[0], odds[0]
    weights[::2], weights[1::2] = evens[1], odds[1]
    return sites, weights


def _weights(sites) -> list[float]:
    """Site weights ``|psiL|^2 + |psiR|^2`` in the ``norm_sq`` order."""
    return [(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])
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
    """Amplitudes at ``offset + stride * j`` of a finite window; zero elsewhere."""

    __slots__ = ("offset", "stride", "_sites", "_weights")

    def __init__(self, offset: int, pairs):
        self.offset = index(offset)
        self._sites = _flatten(pairs)
        self._weights = _weights(self._sites)
        self.stride = 2 if len(self._sites) == 1 else 1

    @classmethod
    def delta(cls, spinor: AmplitudePair) -> "FiniteSupportState":
        """State concentrated on the origin."""
        return cls(0, [spinor])

    pairs = property(lambda self: tuple([self.amplitude(x) for x in self.sites()]))

    def sites(self) -> range:
        return range(self.offset, self.offset + self.stride * (len(self._sites) - 1) + 1)

    def amplitude(self, x: int) -> AmplitudePair:
        idx, off = divmod(x - self.offset, self.stride)
        return _pair(self._sites[idx]) if not off and 0 <= idx < len(self._sites) else _ZERO_PAIR

    def evolve(self, coin: Coin) -> "FiniteSupportState":
        """One time step; the window grows by one site on each end."""
        s, w = self._sites, self._weights
        state = object.__new__(FiniteSupportState)  # the step's output needs no check
        state.offset, state.stride = self.offset - 1, self.stride
        if self.stride == 2:  # one chain: the sites between stay zero
            state._sites, state._weights = _chain(coin, s, w)
        else:  # a dense window is two chains, one on each parity
            state._sites, state._weights = _merge(_chain(coin, s[::2], w),
                                                  _chain(coin, s[1::2], w))
        return state

    def measure(self) -> "Measure":
        weights = [0.0] * len(self.sites())  # a site between two stored ones weighs 0.0
        weights[::self.stride] = self._weights
        return Measure(weights, self.offset)

    def norm_sq(self) -> float:
        return sum(self._weights)

    def to_json(self) -> dict:
        return _layout_json(False, self.offset, "amplitudes",
                            [[l.to_json(), r.to_json()] for l, r in self.pairs])

    def __repr__(self):
        return f"FiniteSupportState(offset={self.offset}, sites={len(self.sites())})"


class PeriodicState:
    """One period of a state with ``psi(x) = pairs[x mod period]``."""

    __slots__ = ("_sites", "_weights")

    def __init__(self, pairs):
        self._sites = _flatten(pairs)
        self._weights = _weights(self._sites)

    @classmethod
    def constant(cls, spinor: AmplitudePair) -> "PeriodicState":
        """The same spinor at every site (period 1)."""
        return cls([spinor])

    pairs = property(lambda self: tuple(list(map(_pair, self._sites))))

    @property
    def period(self) -> int:
        return len(self._sites)

    def amplitude(self, x: int) -> AmplitudePair:
        return _pair(self._sites[x % len(self._sites)])

    def evolve(self, coin: Coin) -> "PeriodicState":
        """One time step; shift-equivariance keeps the period fixed."""
        s, w = self._sites, self._weights
        state = object.__new__(PeriodicState)  # the step's output needs no check
        if len(s) == 1:  # one site is its own closed chain, with nothing to interleave
            state._sites, state._weights = _closed(coin, s, w)
        elif len(s) % 2:
            # sites 1, 3, ..., 0, 2, ... are one cycle two apart; they step
            # onto the new sites 0, 2, ..., 1, 3, ..., in that order
            sites, weights = _closed(coin, s[1::2] + s[::2], w)
            half = (len(s) + 1) // 2
            sites[::2], sites[1::2] = sites[:half], sites[half:]
            weights[::2], weights[1::2] = weights[:half], weights[half:]
            state._sites, state._weights = sites, weights
        else:  # the odd sites step onto the even ones, and the even ones onto the odd
            state._sites, state._weights = _merge(_closed(coin, s[1::2], w),
                                                  _closed(coin, s[2::2] + s[:1], w))
        return state

    def measure(self) -> "Measure":
        return Measure(self._weights, periodic=True)

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
    value wherever it sits.
    """

    __slots__ = ("values", "offset", "periodic")

    def __init__(self, values, offset: int = 0, periodic: bool = False):
        vals = tuple(list(map(float, values)))
        if not (vals and min(vals) >= 0.0 and max(vals) < math.inf and sum(vals) > 0.0):
            raise ValueError("measure values must be finite, nonnegative and not all zero")
        self.values = vals
        self.offset = index(offset)
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

    def max_dev(self, other: "Measure") -> float:
        """Largest absolute sitewise difference, over both windows or one period."""
        if self.periodic != other.periodic:
            raise ValueError("cannot compare periodic and finite measures")
        if self.periodic:
            if len(self.values) != len(other.values):
                raise ValueError("periodic measures have different periods")
            return max_or_nan([abs(a - b) for a, b in zip(self.values, other.values)])
        sites = {*self.sites(), *other.sites()}
        return max_or_nan([abs(self.value(x) - other.value(x)) for x in sites])

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


def _start(spinor: AmplitudePair, n_max: int) -> FiniteSupportState:
    """The state at time 0 of a walk from the origin, after checking both arguments."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_normalized(spinor)
    return FiniteSupportState.delta(spinor)


def _site_weights(coin: Coin, spinor: AmplitudePair,
                  n_max: int) -> Iterator[tuple[int, list[float]]]:
    """``(first site, weights)`` for times 0..n_max of the walk from the origin.

    The weights are those of the stored sites ``first, first + 2, ...``:
    the list ``_chain`` built with them, which a caller only reads.  The
    walk is one open chain, stepped by ``_chain`` itself, with no state
    object, ``Measure``, zero fill or dict per step.  The arguments are
    checked on the call, as ``distribution`` checks them.
    """
    return _open_chain(coin, _start(spinor, n_max), n_max)


def _open_chain(coin: Coin, start: FiniteSupportState,
                n_max: int) -> Iterator[tuple[int, list[float]]]:
    """``_site_weights`` of a checked one-site start: after t steps its first site is -t."""
    sites, weights = start._sites, start._weights
    yield 0, weights
    for t in range(1, n_max + 1):
        sites, weights = _chain(coin, sites, weights)
        yield -t, weights


def distributions(coin: Coin, spinor: AmplitudePair, n_max: int) -> Iterator[dict[int, float]]:
    """Position laws for times 0..n_max of the walk started at the origin.

    The arguments are checked on the call; the laws then come one step at a
    time, holding only the current state.  Each maps site -> probability;
    exactly-zero sites are omitted, so the support reflects the parity of
    the step count.  Each law is a dict view of one step of the weight
    stream ``_site_weights``: the walk is exactly 0.0 off the parity of
    its first site, and those sites are neither stored nor read.
    """
    return ({x: p for x, p in zip(count(first, 2), weights) if p != 0.0}
            for first, weights in _site_weights(coin, spinor, n_max))


def distribution(coin: Coin, spinor: AmplitudePair, n: int) -> dict[int, float]:
    """P(X_n = x) for the walk started from ``spinor`` at the origin.

    The arguments are checked on the call, as in ``distributions``.  The
    walk's state takes n steps, and the one law is read from the final
    state's ``measure``, with the exactly-zero sites omitted; it equals the
    n-th law of ``distributions`` bit for bit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    state = _start(spinor, n)
    for _ in range(n):
        state = state.evolve(coin)
    mu = state.measure()
    return {x: p for x, p in zip(mu.sites(), mu.values) if p != 0.0}


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

"""Right-eigenpair checks, stationary measures, and measure classification.

Eigenvalues of the evolution operator multiply the state from the RIGHT
(``E(psi) = psi * lambda``); over quaternions this is genuinely different
from left multiplication, and all checks here keep that order.  A valid
right eigenpair with unimodular eigenvalue makes the site measure
stationary under every power of the evolution.

Also here: the polar parameterization of initial spinors and the
reduction that replaces a quaternion initial spinor by a complex one with
the same position law for every real coin.
"""

from __future__ import annotations

import math
from operator import sub

from .coin import Coin
from .pathsum import _FrozenRecord, _Record, _set_field, path_sum
from .quaternion import DEFAULT_TOL, Quaternion, max_or_nan
from .walk import Measure, PeriodicState, WalkState, _check_normalized

#: Residual tolerance for the exponential-profile least-squares fit.
EXP_FIT_TOL = 1e-6


class ZeroCoefficientError(ValueError):
    """Eigenstate construction requires all coefficient pairs nonzero."""


class NotImaginaryUnitError(ValueError):
    """Eigenvalue must be a unit quaternion with zero real part."""


class WrongCoinClassError(ValueError):
    """Operation requires a coin from a different degeneracy class."""


class NotRealCoinError(ValueError):
    """Operation requires a coin with real entries."""


class EigenCandidate(_Record):
    """A periodic state proposed as a right eigenvector, with its eigenvalue."""

    __slots__ = ("state", "eigenvalue")

    def __init__(self, state: PeriodicState, eigenvalue: Quaternion):
        # unitarity of the evolution forces |lambda| = 1
        if not eigenvalue.is_unit():
            # named as given: the modulus of a tiny eigenvalue underflows to 0.0
            raise ValueError(f"eigenvalue must be unimodular, got {eigenvalue}")
        self.state = state
        self.eigenvalue = eigenvalue


def _report(check: str, passed: bool, residual: float, **params) -> dict:
    """One line of a ``verify`` or ``eigen-check`` report."""
    return {"check": check, "pass": bool(passed),
            "max_residual": float(residual), "params": params}


def _worst(check: str, residuals, tol: float, **params) -> dict:
    """Report the largest of ``residuals`` (NaN if any is NaN), passing iff it is <= tol."""
    worst = max_or_nan(residuals)
    return _report(check, worst <= tol, worst, **params, tol=tol)


def right_eigen_check(coin: Coin, candidate: EigenCandidate) -> float:
    """Worst sitewise deviation of ``E(psi)`` from ``psi * lambda`` over one period, or NaN.

    ``E`` is one step of the walk, :meth:`PeriodicState.evolve`.
    """
    lam = candidate.eigenvalue
    state = candidate.state
    evolved = state.evolve(coin)
    return max_or_nan(got.max_dev(amp * lam)
                      for pairs in zip(evolved.pairs, state.pairs)
                      for got, amp in zip(*pairs))


def _coerce_coeffs(coeffs) -> list[tuple[Quaternion, Quaternion]]:
    out = []
    for alpha, beta in coeffs:
        qa = alpha if isinstance(alpha, Quaternion) else Quaternion(alpha)
        qb = beta if isinstance(beta, Quaternion) else Quaternion(beta)
        if not (any(qa.components()) and any(qb.components())):  # a tiny square is 0.0
            raise ZeroCoefficientError("every coefficient pair must be nonzero")
        out.append((qa, qb))
    if not out:
        raise ValueError("need at least one coefficient pair")
    return out


def _interleaved_eigenstate(coeffs, eigenvalue: Quaternion, sign: float) -> EigenCandidate:
    """Sites 2x, 2x+1 hold (alpha_2x, beta_2x), (sign beta_{2x+2} lam, alpha_2x lam)."""
    pairs = _coerce_coeffs(coeffs)
    sites: list[tuple[Quaternion, Quaternion]] = []
    for (alpha, beta), (_, next_beta) in zip(pairs, pairs[1:] + pairs[:1]):
        sites.append((alpha, beta))
        sites.append((next_beta * eigenvalue * sign, alpha * eigenvalue))
    return EigenCandidate(PeriodicState(sites), eigenvalue)


def build_eigenstate_flip(lambda_sign: int, coeffs) -> EigenCandidate:
    """Right eigenvector of the coin [[0,1],[1,0]] for lambda = +1 or -1.

    ``coeffs`` lists (alpha, beta) pairs placed on consecutive even sites
    and repeated periodically; the odd sites interleave as
    ``psiL(2x-1) = beta_{2x} lambda`` and ``psiR(2x+1) = alpha_{2x} lambda``.
    The measure alternates ``|alpha_{2x}|^2 + |beta_{2x}|^2`` on even sites
    with ``|alpha_{2x}|^2 + |beta_{2x+2}|^2`` on odd ones, so unequal
    moduli give a stationary measure that is neither uniform nor an
    exponential profile.
    """
    if lambda_sign not in (1, -1):
        raise ValueError("lambda_sign must be +1 or -1")
    return _interleaved_eigenstate(coeffs, Quaternion(float(lambda_sign)), 1.0)


def build_eigenstate_flipneg(eigenvalue: Quaternion, coeffs) -> EigenCandidate:
    """Right eigenvector of the coin [[0,1],[-1,0]].

    Admissible eigenvalues are exactly the unit imaginary quaternions
    (they square to -1, which the site recursion demands).  The layout
    matches :func:`build_eigenstate_flip` except for a sign:
    ``psiL(2x-1) = -beta_{2x} lambda``.
    """
    if not (abs(eigenvalue.real) <= DEFAULT_TOL and eigenvalue.is_unit()):
        raise NotImaginaryUnitError(
            f"eigenvalue must be a unit imaginary quaternion, got {eigenvalue}")
    return _interleaved_eigenstate(coeffs, eigenvalue, -1.0)


def stationary_residual(coin: Coin, state: WalkState, n_max: int) -> float:
    """Worst sitewise measure deviation from ``state`` over steps 1..n_max, or NaN.

    The start state's ``Measure`` is built, and checked, once.  A periodic
    state's steps are read through the weights each step stores with its
    sites, and one ``max_or_nan`` takes every step's deviations from the
    start's values.  That has the bits of a ``max_or_nan`` over the per-step
    ``Measure.max_dev``: both are the largest deviation, and NaN exactly
    when one deviation is.  A step whose weight sum is not finite and
    positive is measured, so weights the ``Measure`` constructor rejects
    still raise its ValueError.  A finite state's window grows, so each of
    its steps is measured and aligned with the start by ``Measure.max_dev``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    reference = state.measure()
    deviations = []
    if not reference.periodic:
        for _ in range(n_max):
            state = state.evolve(coin)
            deviations.append(state.measure().max_dev(reference))
        return max_or_nan(deviations)
    values = reference.values
    for _ in range(n_max):
        state = state.evolve(coin)
        weights = state._weights
        if not 0.0 < sum(weights) < math.inf:  # NaN, infinite or all zero: the constructor decides
            Measure(weights, periodic=True)
        deviations.extend(map(abs, map(sub, weights, values)))
    return max_or_nan(deviations)


def verify_stationary(coin: Coin, state: WalkState, n_max: int,
                      tol: float = DEFAULT_TOL) -> bool:
    """True iff the site measure is unchanged for every step 1..n_max."""
    return stationary_residual(coin, state, n_max) <= tol


class TwoStepUniformityReport(_FrozenRecord):
    """Outcome of the b=0 check [measure invariant for 2 steps] => [uniform].

    ``spread`` is max - min of the state's site measure; both sides of the
    implication are judged at ``DEFAULT_TOL``.
    """

    __slots__ = ("measure_invariant", "spread")

    def __init__(self, measure_invariant: bool, spread: float):
        _set_field(self, "measure_invariant", measure_invariant)
        _set_field(self, "spread", spread)

    @property
    def measure_uniform(self) -> bool:
        return self.spread <= DEFAULT_TOL

    @property
    def implication_holds(self) -> bool:
        return (not self.measure_invariant) or self.measure_uniform


def check_two_step_uniformity(coin: Coin, state: PeriodicState) -> TwoStepUniformityReport:
    """For a b=0 coin, test one state against the two-step uniformity law.

    For diagonal coins the left and right components shift rigidly, and a
    measure preserved for two consecutive steps is already uniform; this
    check reports both sides of that implication for a single state so a
    randomized sweep can look for counterexamples.

    Raises:
        WrongCoinClassError: coin is not in the b=0 class.
    """
    if coin.case() != "b=0":
        raise WrongCoinClassError("two-step uniformity check needs a b=0 coin")
    # the residual builds and checks the state's one Measure, whose values are its weights
    invariant = verify_stationary(coin, state, 2)
    values = state._weights if isinstance(state, PeriodicState) else state.measure().values
    return TwoStepUniformityReport(measure_invariant=invariant,
                                   spread=max(values) - min(values))


class MeasureClass(_Record):
    """Classification tag for a measure.

    ``kind`` is "uniform", "exponential", or "other"; symmetry under
    ``x -> -x`` is reported independently.  Parameter fields are filled
    for the kind they belong to and left None otherwise.
    """

    __slots__ = ("kind", "symmetric", "uniform_value", "gamma", "c_plus", "c_zero", "c_minus")

    def __init__(self, kind: str, symmetric: bool, uniform_value: float | None = None,
                 gamma: float | None = None, c_plus: float | None = None,
                 c_zero: float | None = None, c_minus: float | None = None):
        self.kind = kind
        self.symmetric = symmetric
        self.uniform_value = uniform_value
        self.gamma = gamma
        self.c_plus = c_plus
        self.c_zero = c_zero
        self.c_minus = c_minus

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "symmetric": self.symmetric}
        if self.kind == "uniform":
            out["c"] = self.uniform_value
        elif self.kind == "exponential":
            out.update(gamma=self.gamma, c_plus=self.c_plus,
                       c_zero=self.c_zero, c_minus=self.c_minus)
        return out


def _fit_exponential_side(mu: Measure, window: int, sign: int):
    """Fit log mu = log C - |x| log gamma on one side; None if it fails, or if
    its slope moves log mu by at most ``EXP_FIT_TOL``, which the data do not resolve."""
    xs: list[float] = []
    ys: list[float] = []
    for step in range(1, window + 1):
        v = mu.value(sign * step)
        if v <= 0.0:
            return None
        xs.append(float(step))
        ys.append(math.log(v))
    if len(xs) < 3:
        return None
    from statistics import linear_regression  # only a fit needs it, and no verify run fits

    slope, intercept = linear_regression(xs, ys)
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    if residual > EXP_FIT_TOL or abs(slope) * (xs[-1] - xs[0]) <= EXP_FIT_TOL:
        return None
    gamma = math.exp(-slope)
    return gamma, math.exp(intercept)


def classify_measure(mu: Measure, window: int = 8,
                     tol: float = DEFAULT_TOL) -> MeasureClass:
    """Classify a measure as uniform, exponential-profile, or other.

    Uniform takes precedence over the exponential profile
    ``mu(x) = C_+- gamma^(-|x|)`` (fitted by least squares on log values,
    gamma in (0,1), residual within ``EXP_FIT_TOL``).  Periodic measures
    are never exponential by construction.  Symmetry under ``x -> -x`` is
    an independent flag read over the measure's own sites: one period
    holds every residue of x, and a finite measure is 0 elsewhere, so no
    scan grows with ``window`` or with the offset.

    Raises:
        ValueError: ``window`` is negative, or ``tol`` is not finite and >= 0.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if mu.periodic:
        lo, hi = min(mu.values), max(mu.values)
    else:
        # one site past each end stands for every site outside the support
        first, last = max(-window, mu.offset - 1), min(window, mu.offset + len(mu.values))
        samples = [mu.value(x) for x in range(first, last + 1)] or [0.0]
        lo, hi = min(samples), max(samples)
    uniform = (hi - lo) <= tol and lo > 0.0

    symmetric = all(abs(mu.value(x) - mu.value(-x)) <= tol for x in mu.sites())

    if uniform:
        mean = (lo + hi) / 2.0
        if mean == math.inf:
            # lo + hi overflowed; halving first is exact for values this large
            mean = lo / 2.0 + hi / 2.0
        return MeasureClass("uniform", symmetric, uniform_value=mean)

    if not mu.periodic and mu.value(0) > 0.0:
        span = min(window, max(-mu.offset, mu.offset + len(mu.values) - 1))
        plus = _fit_exponential_side(mu, span, +1)
        minus = _fit_exponential_side(mu, span, -1)
        if plus is not None and minus is not None:
            gamma_plus, c_plus = plus
            gamma_minus, c_minus = minus
            gamma = (gamma_plus + gamma_minus) / 2.0
            if abs(gamma_plus - gamma_minus) <= EXP_FIT_TOL and 0.0 < gamma < 1.0:
                return MeasureClass("exponential", symmetric, gamma=gamma,
                                    c_plus=c_plus, c_zero=mu.value(0),
                                    c_minus=c_minus)

    return MeasureClass("other", symmetric)


def _axis_of(q: Quaternion) -> tuple[float, tuple[float, float, float]]:
    """Polar angle in [0, pi] and unit axis of a (possibly zero) quaternion."""
    im_norm = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if q.norm() == 0.0:
        return 0.0, (0.0, 0.0, 1.0)
    theta = math.atan2(im_norm, q.w)
    if im_norm == 0.0:
        # axis is unconstrained when the imaginary part vanishes
        return theta, (0.0, 0.0, 1.0)
    return theta, (q.x / im_norm, q.y / im_norm, q.z / im_norm)


class PolarInitialState(_FrozenRecord):
    """Polar form of a unit spinor (alpha, beta).

    ``alpha = (cos theta_a + n_a . (i,j,k) sin theta_a) cos xi`` and
    ``beta = (cos theta_b + n_b . (i,j,k) sin theta_b) sin xi`` with unit
    3-vectors n_a, n_b, ``xi in [0, pi/2]``.
    """

    __slots__ = ("theta_alpha", "theta_beta", "xi", "axis_alpha", "axis_beta")

    def __init__(self, theta_alpha: float, theta_beta: float, xi: float,
                 axis_alpha: tuple[float, float, float], axis_beta: tuple[float, float, float]):
        _set_field(self, "theta_alpha", theta_alpha)
        _set_field(self, "theta_beta", theta_beta)
        _set_field(self, "xi", xi)
        _set_field(self, "axis_alpha", axis_alpha)
        _set_field(self, "axis_beta", axis_beta)

    @classmethod
    def from_pair(cls, alpha: Quaternion, beta: Quaternion) -> "PolarInitialState":
        _check_normalized((alpha, beta))
        theta_a, axis_a = _axis_of(alpha)
        theta_b, axis_b = _axis_of(beta)
        xi = math.atan2(beta.norm(), alpha.norm())
        return cls(theta_a, theta_b, xi, axis_a, axis_b)

    def to_pair(self) -> tuple[Quaternion, Quaternion]:
        ca, sa = math.cos(self.theta_alpha), math.sin(self.theta_alpha)
        cb, sb = math.cos(self.theta_beta), math.sin(self.theta_beta)
        ax, ay, az = self.axis_alpha
        bx, by, bz = self.axis_beta
        scale_a = math.cos(self.xi)
        scale_b = math.sin(self.xi)
        alpha = Quaternion(ca, ax * sa, ay * sa, az * sa) * scale_a
        beta = Quaternion(cb, bx * sb, by * sb, bz * sb) * scale_b
        return alpha, beta


def effective_phase_cosine(polar: PolarInitialState) -> float:
    """cos(theta_a) cos(theta_b) + (n_a . n_b) sin(theta_a) sin(theta_b).

    This is the only trace the quaternion phases leave in the position law
    of a real-coin walk; its magnitude never exceeds 1.
    """
    (ax, ay, az), (bx, by, bz) = polar.axis_alpha, polar.axis_beta
    overlap = 0.0 + ax * bx + ay * by + az * bz  # a left fold, as sum() was before 3.12
    value = (math.cos(polar.theta_alpha) * math.cos(polar.theta_beta)
             + overlap * math.sin(polar.theta_alpha) * math.sin(polar.theta_beta))
    if not abs(value) <= 1.0 + 1e-9:
        raise ValueError(f"phase cosine {value!r} out of range; "
                         "axes are not unit vectors")
    return max(-1.0, min(1.0, value))


def complexify_initial_state(polar: PolarInitialState) -> tuple[Quaternion, Quaternion]:
    """Complex spinor with the same position law for every real coin.

    The replacement keeps the moduli (via xi) and encodes the whole phase
    content in one relative angle whose cosine matches
    :func:`effective_phase_cosine`.  Convention: the alpha phase is set to
    0 and the beta phase to ``-arccos`` of that cosine.
    """
    k = effective_phase_cosine(polar)
    theta_beta = -math.acos(k)
    alpha = Quaternion(math.cos(polar.xi))
    beta = Quaternion(math.cos(theta_beta) * math.sin(polar.xi),
                      math.sin(theta_beta) * math.sin(polar.xi))
    return alpha, beta


def quadratic_form_coefficients(coin: Coin, n: int, l: int,
                                m: int) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the real-coin position law.

    For a coin with real entries the path sum at split (l, m) is a real
    matrix [[r11, r12], [r21, r22]], and for ANY quaternion initial spinor
    ``P(X_n = m - l) = A |alpha|^2 + B |beta|^2 + C Re(alpha conj(beta))``
    with A = r11^2 + r21^2, B = r12^2 + r22^2,
    C = 2 (r11 r12 + r21 r22).

    Raises:
        NotRealCoinError: some coin entry has an imaginary part above ``DEFAULT_TOL``.
    """
    if not coin.is_real():
        raise NotRealCoinError("quadratic form coefficients require a real coin")
    xi = path_sum(coin, n, l, m)
    r11, r12 = xi.e11.w, xi.e12.w
    r21, r22 = xi.e21.w, xi.e22.w
    a_coef = r11 * r11 + r21 * r21
    b_coef = r12 * r12 + r22 * r22
    c_coef = 2.0 * (r11 * r12 + r21 * r22)
    return a_coef, b_coef, c_coef

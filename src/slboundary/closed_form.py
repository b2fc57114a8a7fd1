"""Exact piecewise solutions and iterated-logarithm machinery for kicked
Sturm-Liouville equations.

The curvature family at depth k is

    critical_decay(r, mu, k) = (1/4) * ( 1/r^2 + 1/(r ln r)^2 + ...
                                + (1 + 4 mu^2) / (r ln(r) ... ln^k(r))^2 ),

whose solutions oscillate in the variable tau = ln^{k+1}(r) with amplitude
amplitude(k+1, r) = sqrt(r ln(r) ... ln^k(r)).  Note the depth shift: the
depth-k family pairs with the (k+1)-fold logarithm, which is what makes the
k = 0 case reduce to the classical sqrt(r) * trig(mu ln r) solutions.

Everything in this module is closed-form; it is the oracle the numerical
engine is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMu, DomainError, InvalidShell, NoSecondZero


@lru_cache(maxsize=None)
def superpower(k: int) -> float:
    """k-th superpower of e: the radius where the k-fold logarithm first vanishes.

    superpower(0) = 0, superpower(1) = 1, superpower(2) = e, superpower(3) = e^e, ...
    Values beyond float range come back as inf.
    """
    if k < 0:
        raise DomainError(f"superpower index must be >= 0, got {k}")
    if k == 0:
        return 0.0
    try:
        return math.exp(superpower(k - 1))
    except OverflowError:
        return math.inf


def iter_log(k: int, r: float, require_positive: bool = False) -> float:
    """k-fold iterated logarithm; iter_log(0, r) = r.

    Raises DomainError if any intermediate logarithm sees a non-positive
    argument (r <= superpower(k-1)), or, with require_positive=True, if the
    result itself is not positive (r <= superpower(k)).
    """
    if k < 0:
        raise DomainError(f"log depth must be >= 0, got {k}")
    x = float(r)
    for j in range(k):
        if x <= 0.0:
            raise DomainError(
                f"iter_log({k}, {r!r}): ln^{j}(r) = {x} is not positive"
            )
        x = math.log(x)
    if require_positive and x <= 0.0:
        raise DomainError(f"iter_log({k}, {r!r}) = {x} is not positive")
    return x


def log_product(k: int, r):
    """Product r * ln(r) * ln^2(r) * ... * ln^k(r); requires r > superpower(k).

    Accepts scalars or numpy arrays.
    """
    x = np.asarray(r, dtype=float)
    if np.any(x <= superpower(k)):
        raise DomainError(f"log_product({k}, .) requires r > {superpower(k)}")
    prod = x.copy()
    cur = x.copy()
    for _ in range(k):
        cur = np.log(cur)
        prod = prod * cur
    return prod if prod.ndim else float(prod)


def amplitude(k: int, r):
    """Oscillation amplitude at depth k: sqrt(r ln(r) ... ln^{k-1}(r)), k >= 1.

    amplitude(1, r) = sqrt(r).  Requires r > superpower(k-1).
    """
    if k < 1:
        raise DomainError(f"amplitude depth must be >= 1, got {k}")
    p = log_product(k - 1, r)
    return np.sqrt(p) if isinstance(p, np.ndarray) else math.sqrt(p)


def critical_decay(r, mu: float = 0.0, k: int = 0):
    """The depth-k critical curvature decay with kick amplitude mu.

    critical_decay(r, mu, 0) = (1 + 4 mu^2) / (4 r^2).  Requires r > superpower(k).
    Accepts scalars or numpy arrays.
    """
    x = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("critical_decay requires finite positive r")
    total = np.zeros_like(x)
    prod = x.copy()
    cur = x.copy()
    # Where prod**2 underflows to 0 the quotient is inf, and where it
    # overflows the quotient is 0, as the float kernel gives (_over_square);
    # those are the values, not faults.
    with np.errstate(divide="ignore", over="ignore"):
        for j in range(k):
            total += 1.0 / prod**2
            cur = np.log(cur)
            if np.any(cur <= 0.0):
                raise DomainError(
                    f"critical_decay depth {k} requires r > {superpower(k)}"
                )
            prod = prod * cur
        total += (1.0 + 4.0 * mu * mu) / prod**2
    out = 0.25 * total
    return out if out.ndim else float(out)


def log_product_float(k: int, r: float) -> float:
    """log_product for one float, with math and in the same operation order."""
    if not r > superpower(k):
        raise DomainError(f"log_product({k}, .) requires r > {superpower(k)}")
    prod = cur = r
    for _ in range(k):
        cur = math.log(cur)
        prod = prod * cur
    return prod


def critical_decay_float(r: float, mu: float = 0.0, k: int = 0) -> float:
    """critical_decay for one float, with math and in the same operation order.

    Raises the same DomainError as critical_decay; agrees with it to a few
    ulps (math.log and numpy's log may round differently).
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError("critical_decay requires finite positive r")
    total = 0.0
    prod = cur = r
    for _ in range(k):
        total += _over_square(1.0, prod)
        cur = math.log(cur)
        if cur <= 0.0:
            raise DomainError(
                f"critical_decay depth {k} requires r > {superpower(k)}"
            )
        prod = prod * cur
    total += _over_square(1.0 + 4.0 * mu * mu, prod)
    return 0.25 * total


def _over_square(num: float, x: float) -> float:
    """num / x**2, giving inf as numpy does where x**2 underflows to 0."""
    sq = x * x
    return num / sq if sq else math.inf


def _tau(k: int, r):
    """Oscillation variable for the depth-k family: the (k+1)-fold logarithm."""
    x = np.asarray(r, dtype=float)
    if np.any(x <= superpower(k)):
        raise DomainError(f"depth-{k} solutions need r > {superpower(k)}")
    cur = x.copy()
    for _ in range(k + 1):
        cur = np.log(cur)
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class KickSpec:
    """Shell [a, b] with kick amplitude mu on top of the depth-k critical decay.

    The base point r0 satisfies superpower(k) < r0 <= a < b so that the
    closed-form branches are defined on [r0, infinity).
    """

    r0: float
    a: float
    b: float
    mu: float
    k: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise InvalidShell(f"log depth must be >= 0, got {self.k}")
        ek = superpower(self.k)
        if not (ek < self.r0 <= self.a < self.b):
            raise InvalidShell(
                f"need superpower({self.k}) = {ek} < r0 <= a < b, "
                f"got r0={self.r0}, a={self.a}, b={self.b}"
            )
        if self.mu < 0.0:
            raise InvalidShell(f"kick amplitude must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class MatchingCoefficients:
    """Coefficients of the middle and outer branches of the piecewise solution.

    (A, B) multiply cos(mu tau) and sin(mu tau) on the shell, tau the
    (k+1)-fold logarithm.  For k = 0 the (alpha, beta) pair is reported in
    the (r/b)^{1/2} (alpha + beta ln(r/b)) convention of the outer branch;
    for k >= 1 in the amplitude(r) * (alpha + beta tau) convention.
    """

    A: float
    B: float
    alpha: float
    beta: float
    k: int = 0


def _shell_coefficients(spec: KickSpec) -> tuple[float, float]:
    """(A, B) for the shell branch in the absolute tau basis."""
    if spec.mu == 0.0:
        raise DegenerateMu("mu = 0 has no oscillatory shell branch")
    mu = spec.mu
    ta = _tau(spec.k, spec.a)
    t0 = _tau(spec.k, spec.r0)
    ca, sa = math.cos(mu * ta), math.sin(mu * ta)
    A = ca * (ta - t0) - sa / mu
    B = sa * (ta - t0) + ca / mu
    return A, B


def matching_coefficients(spec: KickSpec) -> MatchingCoefficients:
    """C^1 matching of the three branches at r = a and r = b.

    The outer-branch beta is always computed from the matching conditions;
    sign(beta) decides whether the solution crosses zero beyond the shell.
    """
    mu = spec.mu
    A, B = _shell_coefficients(spec)
    tb = _tau(spec.k, spec.b)
    cb, sb = math.cos(mu * tb), math.sin(mu * tb)
    beta_tau = mu * (B * cb - A * sb)
    alpha_tau = A * cb + B * sb - beta_tau * tb
    if spec.k == 0:
        # Rebase onto (r/b)^{1/2} (alpha + beta ln(r/b)).
        sqb = math.sqrt(spec.b)
        beta = beta_tau * sqb
        alpha = (alpha_tau + beta_tau * math.log(spec.b)) * sqb
        return MatchingCoefficients(A=A, B=B, alpha=alpha, beta=beta, k=0)
    return MatchingCoefficients(A=A, B=B, alpha=alpha_tau, beta=beta_tau, k=spec.k)


def degenerate_solution(spec: KickSpec, r):
    """Solution for mu = 0: amplitude(r) * (tau(r) - tau(r0)) on all of [r0, inf)."""
    phi = amplitude(spec.k + 1, r)
    return phi * (_tau(spec.k, r) - _tau(spec.k, spec.r0))


def log_kick_solution(spec: KickSpec, r):
    """Piecewise solution of w'' + critical_decay(r, mu * chi_[a,b], k) w = 0.

    Normalisation: w(r0) = 0 and w'(r0) = 1 / amplitude(r0), the slope the
    inner branch amplitude(r) * (tau - tau0) carries.  Vectorised over r.
    Dispatches mu = 0 to the degenerate global branch.
    """
    if spec.mu == 0.0:
        return degenerate_solution(spec, r)
    x = np.asarray(r, dtype=float)
    if np.any(x < spec.r0):
        raise DomainError("solution is defined on [r0, infinity)")
    mu = spec.mu
    t = _tau(spec.k, x) if x.ndim else np.asarray(_tau(spec.k, x))
    t = np.asarray(t, dtype=float)
    phi = np.asarray(amplitude(spec.k + 1, x), dtype=float)
    t0 = _tau(spec.k, spec.r0)
    coef = matching_coefficients(spec)
    A, B = coef.A, coef.B
    tb = _tau(spec.k, spec.b)
    cbs, sbs = math.cos(mu * tb), math.sin(mu * tb)
    beta_tau = mu * (B * cbs - A * sbs)
    alpha_tau = A * cbs + B * sbs - beta_tau * tb

    inner = t - t0
    shell = A * np.cos(mu * t) + B * np.sin(mu * t)
    outer = alpha_tau + beta_tau * t
    g = np.where(x <= spec.a, inner, np.where(x <= spec.b, shell, outer))
    out = phi * g
    return out if out.ndim else float(out)


def linear_kick_solution(spec: KickSpec, r):
    """Three-branch solution for the k = 0 kick, base point normalised to r0 = 1.

        r^{1/2} ln r                                               on [1, a]
        r^{1/2} ( ln(a) cos(mu ln(r/a)) + (1/mu) sin(mu ln(r/a)) ) on [a, b]
        (r/b)^{1/2} ( alpha + beta ln(r/b) )                       beyond b

    C^1 at a and b by construction; w(1) = 0, w'(1) = 1.  Vectorised over r.
    Other base points reduce to this one through the scaling law
    r1(r0, a, b) = r0 * r1(1, a/r0, b/r0).
    """
    if spec.k != 0:
        raise DomainError("linear_kick_solution is the k = 0 form")
    if spec.r0 != 1.0:
        raise DomainError("normalise the base point to r0 = 1 (scaling law)")
    if spec.mu == 0.0:
        return degenerate_solution(spec, r)
    x = np.asarray(r, dtype=float)
    if np.any(x < 1.0):
        raise DomainError("solution is defined on [1, infinity)")
    mu, a, b = spec.mu, spec.a, spec.b
    coef = matching_coefficients(spec)
    sq = np.sqrt(x)
    inner = sq * np.log(x)
    lra = np.log(x / a)
    shell = sq * (math.log(a) * np.cos(mu * lra) + np.sin(mu * lra) / mu)
    lrb = np.log(x / b)
    outer = np.sqrt(x / b) * (coef.alpha + coef.beta * lrb)
    out = np.where(x <= a, inner, np.where(x <= b, shell, outer))
    return out if out.ndim else float(out)


def second_zero_closed_form(spec: KickSpec) -> float:
    """First zero beyond r0 = 1 of the k = 0 kicked solution.

    Shell case: the shell branch vanishes where tan(mu ln(r/a)) = -mu ln(a),
    i.e. at phase psi = pi - arctan(mu ln a); a root lands inside (a, b] iff
    mu ln(b/a) >= psi.  Otherwise the solution stays positive across the
    shell and the outer branch vanishes at b * e^F with

        F = (ln(a) cos(th) + sin(th)/mu) / (mu ln(a) sin(th) - cos(th)),
        th = mu ln(b/a),

    which requires beta < 0, equivalent to mu above the threshold.
    """
    if spec.k != 0 or spec.r0 != 1.0:
        raise DomainError("closed-form second zero is the k = 0, r0 = 1 form")
    mu, a, b = spec.mu, spec.a, spec.b
    if mu == 0.0:
        raise NoSecondZero("mu = 0: the solution r^{1/2} ln r never vanishes again")
    theta = mu * math.log(b / a)
    phi = math.atan(mu * math.log(a))
    psi = math.pi - phi
    if theta >= psi:
        return a * math.exp(psi / mu)
    ct, st = math.cos(theta), math.sin(theta)
    den = mu * math.log(a) * st - ct
    if den <= 0.0:  # beta >= 0: positive, eventually increasing outer branch
        raise NoSecondZero(
            f"mu = {mu} is at or below the shell threshold; no second zero"
        )
    F = (math.log(a) * ct + st / mu) / den
    try:
        return b * math.exp(F)
    except OverflowError:
        return math.inf  # mu is so close to the threshold the root leaves float range

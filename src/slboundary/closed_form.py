"""Exact piecewise solutions and iterated-logarithm machinery for kicked
Sturm-Liouville equations.

The curvature family at depth k is

    critical_decay(r, mu, k) = (1/4) * ( 1/r^2 + 1/(r ln r)^2 + ...
                                + (1 + 4 mu^2) / (r ln(r) ... ln^k(r))^2 ),

whose solutions are amplitude(k+1, r) = sqrt(r ln(r) ... ln^k(r)) times a
solution of g'' + mu^2 g = 0 in tau = ln^{k+1}(r).  Note the depth shift:
the depth-k family pairs with the (k+1)-fold logarithm, so k = 0 gives the
classical sqrt(r) * trig(mu ln r) solutions.  With the kick on [a, b] only,
g is tau - tau(r0) up to a, A cos(mu tau) + B sin(mu tau) on the shell and
alpha_tau + beta_tau tau beyond b.  The matching, the threshold's gap and
offset and the second zero are all read in tau, at every depth k and base
point r0.

Everything in this module is closed-form; it is the oracle the numerical
engine is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidShell, NoSecondZero


@lru_cache(maxsize=None)
def superpower(k: int) -> float:
    """k-th superpower of e: the radius where the k-fold logarithm first vanishes.

    superpower(0) = 0, superpower(1) = 1, superpower(2) = e, superpower(3) = e^e, ...
    Values beyond float range come back as inf.
    """
    if k < 0:
        raise DomainError(f"superpower index must be >= 0, got {k}")
    x = 0.0
    try:
        for _ in range(k):
            x = math.exp(x)
    except OverflowError:  # from k = 5 on
        return math.inf
    return x


def iter_log(k: int, r: float) -> float:
    """k-fold iterated logarithm; iter_log(0, r) = r.

    Raises DomainError if any intermediate logarithm sees a non-positive
    argument (r <= superpower(k-1)).
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
    # overflows the quotient is 0, as the float kernel gives
    # (critical_decay_terms); those are the values, not faults.
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


def critical_decay_terms(r: float, k: int) -> tuple[float, float]:
    """(sum_{j<k} 1 / P_j^2, P_k) for one float, P_j = r ln(r) ... ln^j(r).

    The loop of critical_decay in math and in its operation order; a square
    that underflows to 0 gives an inf term, as numpy does.  Raises the same
    DomainError as critical_decay.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError("critical_decay requires finite positive r")
    total = 0.0
    prod = cur = r
    for _ in range(k):
        sq = prod * prod
        total += 1.0 / sq if sq else math.inf
        cur = math.log(cur)
        if cur <= 0.0:
            raise DomainError(
                f"critical_decay depth {k} requires r > {superpower(k)}"
            )
        prod = prod * cur
    return total, prod


def critical_decay_float(r: float, mu: float = 0.0, k: int = 0) -> float:
    """critical_decay for one float, with math and in the same operation order.

    Raises the same DomainError as critical_decay; agrees with it to a few
    ulps (math.log and numpy's log may round differently).
    """
    total, prod = critical_decay_terms(r, k)
    sq = prod * prod
    return 0.25 * (total + ((1.0 + 4.0 * mu * mu) / sq if sq else math.inf))


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
    closed-form branches are defined on [r0, infinity); r0, a, b and mu
    are finite.
    """

    r0: float
    a: float
    b: float
    mu: float
    k: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise InvalidShell(f"log depth must be >= 0, got {self.k}")
        for name in ("r0", "a", "b", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidShell(f"{name} must be finite, got {getattr(self, name)}")
        ek = superpower(self.k)
        if not (ek < self.r0 <= self.a < self.b):
            raise InvalidShell(
                f"need superpower({self.k}) = {ek} < r0 <= a < b, "
                f"got r0={self.r0}, a={self.a}, b={self.b}"
            )
        if self.mu < 0.0:
            raise InvalidShell(f"kick amplitude must be >= 0, got {self.mu}")


def shell_gaps(k: int, r0: float, a: float, b: float) -> tuple[float, float]:
    """(tau(a) - tau(r0), tau(b) - tau(a)) at depth k.

    Each is the log of a ratio of k-fold logarithms, ln(a/r0) and ln(b/a)
    at k = 0, so a shell far from the origin keeps its digits.  Raises
    InvalidShell on a non-finite r0, a or b, and on a shell that floats
    cannot resolve: the k-fold log of r0 rounds to 0, the first gap
    overflows, or the second is not a finite positive number.
    """
    if not (math.isfinite(r0) and math.isfinite(a) and math.isfinite(b)):
        raise InvalidShell(f"shell bounds must be finite, got r0={r0}, a={a}, b={b}")
    l0, la, lb = iter_log(k, r0), iter_log(k, a), iter_log(k, b)
    offset = math.log(la / l0) if l0 > 0.0 else math.inf
    gap = math.log(lb / la)
    if not (offset < math.inf and 0.0 < gap < math.inf):
        raise InvalidShell(
            f"shell ({r0!r}, {a!r}, {b!r}) is beyond float resolution at depth {k}: "
            f"gaps ({offset!r}, {gap!r})"
        )
    return offset, gap


def _branch_coefficients(spec: KickSpec) -> tuple[float, float, float, float]:
    """(A, B, alpha_tau, beta_tau) of the shell and outer branches in tau,
    from C^1 matching at a and b; beta_tau < 0 forces a zero beyond b.
    Needs mu != 0."""
    mu = spec.mu
    ta = _tau(spec.k, spec.a)
    t0 = _tau(spec.k, spec.r0)
    ca, sa = math.cos(mu * ta), math.sin(mu * ta)
    A = ca * (ta - t0) - sa / mu
    B = sa * (ta - t0) + ca / mu
    tb = _tau(spec.k, spec.b)
    cb, sb = math.cos(mu * tb), math.sin(mu * tb)
    beta_tau = mu * (B * cb - A * sb)
    alpha_tau = A * cb + B * sb - beta_tau * tb
    return A, B, alpha_tau, beta_tau


def log_kick_solution(spec: KickSpec, r):
    """Piecewise solution of w'' + critical_decay(r, mu * chi_[a,b], k) w = 0.

    amplitude(k+1, r) times g(tau), whose first branch holds on all of
    [r0, infinity) when mu = 0.  Normalisation: w(r0) = 0 and w'(r0) =
    1 / amplitude(r0).  Vectorised over r; a radius below r0 or NaN raises
    DomainError.
    """
    x = np.asarray(r, dtype=float)
    if not np.all(x >= spec.r0):
        raise DomainError("solution is defined on [r0, infinity)")
    t = np.asarray(_tau(spec.k, x), dtype=float)
    phi = np.asarray(amplitude(spec.k + 1, x), dtype=float)
    g = t - _tau(spec.k, spec.r0)
    if spec.mu != 0.0:
        mu = spec.mu
        A, B, alpha_tau, beta_tau = _branch_coefficients(spec)
        shell = A * np.cos(mu * t) + B * np.sin(mu * t)
        g = np.where(x <= spec.a, g, np.where(x <= spec.b, shell, alpha_tau + beta_tau * t))
    out = phi * g
    return out if out.ndim else float(out)


def _radius_past(k: int, r: float, s: float) -> float:
    """The radius whose tau lies s beyond tau(r), inf past float range.

    Its k-fold log is ln^k(r) e^s; each step down the iterated logs scales
    ln^{j-1}(r) by the exp of ln^j(r) expm1(.), so no digits cancel.
    """
    logs = [r]
    for _ in range(k):
        logs.append(math.log(logs[-1]))
    try:
        for x in reversed(logs[1:]):
            s = x * math.expm1(s)
        return logs[0] * math.exp(s)
    except OverflowError:
        return math.inf


def second_zero_closed_form(spec: KickSpec) -> float:
    """First zero beyond r0 of the kicked solution, at any depth and base point.

    With d = tau(a) - tau(r0) and th = mu (tau(b) - tau(a)), the shell
    branch vanishes at phase psi = pi - arctan(mu d) past tau(a); a root
    lands inside (a, b] iff th >= psi.  Otherwise the solution stays
    positive across the shell and the outer branch vanishes F past tau(b),

        F = (d cos(th) + sin(th)/mu) / (mu d sin(th) - cos(th)),

    which requires beta < 0, equivalent to mu above the threshold.  At
    k = 0 the root is a e^{psi/mu} or b e^F; inf past float range.
    """
    mu = spec.mu
    if mu == 0.0:
        raise NoSecondZero("mu = 0: amplitude * (tau - tau(r0)) never vanishes again")
    d, gap = shell_gaps(spec.k, spec.r0, spec.a, spec.b)
    theta = mu * gap
    psi = math.pi - math.atan(mu * d)
    if theta >= psi:
        return _radius_past(spec.k, spec.a, psi / mu)
    ct, st = math.cos(theta), math.sin(theta)
    den = mu * d * st - ct
    if den <= 0.0:  # beta >= 0: positive, eventually increasing outer branch
        raise NoSecondZero(f"mu = {mu} is at or below the shell threshold; no second zero")
    return _radius_past(spec.k, spec.b, (d * ct + st / mu) / den)

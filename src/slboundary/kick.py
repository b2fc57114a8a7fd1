"""Kick thresholds, diameter bounds, and end-to-end compactness certificates.

The threshold lambda(r0, a, b) at log depth k is the smallest positive root of

    cot(lam * (T(b) - T(a))) = lam * (T(a) - T(r0)),    T = iter_log(k+1, .)

It exists, is unique, and lies in (0, pi / (2 (T(b) - T(a)))]: the left side
falls from +inf to 0 on that interval while the right side is non-decreasing.
Any kick amplitude mu > lambda forces a second zero of the kicked solution,
hence a conjugate pair and a diameter bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closed_form
from .bifurcator import noncompact_side_check
from .closed_form import (
    KickSpec,
    critical_decay,
    critical_decay_float,
    critical_decay_terms,
    shell_gaps,
    superpower,
)
from .errors import DomainError, InvalidShell
from .sl_engine import (CurvatureProfile, coefficient_func, dominates, find_second_zero,
                        sampling_grid)

#: The source remark quotes 0.46 for the shell a = e, b = e^2.  The defining
#: equation for r0 = 1 reduces to cot(lam) = lam, whose smallest positive root
#: is 0.86033...; the quoted 0.46 does not satisfy it and is carried in
#: certificates as a discrepancy note, never as the computed value.
_REMARK_NOTE = (
    "published remark quotes lambda ~= 0.46 for the shell (r0, a, b) = (1, e, e^2); "
    "the defining equation cot(lambda) = lambda has smallest positive root "
    "0.860333589019..., which is the value reported here"
)


def _smallest_cot_root(gap: float, offset: float) -> float:
    """Smallest positive root of cot(lam * gap) = lam * offset, gap > 0, offset >= 0.

    Bisection on (0, pi / (2 gap)]; the bracket always straddles the sign
    change of g(lam) = cot(lam * gap) - lam * offset.
    """
    if offset == 0.0:
        return math.pi / (2.0 * gap)
    hi = math.pi / (2.0 * gap)

    def g(lam: float) -> float:
        return math.cos(lam * gap) / math.sin(lam * gap) - lam * offset

    lo = hi * 1e-12
    while g(lo) <= 0.0:  # paranoid: shrink until the left end is positive
        lo *= 0.5
        if lo < 1e-280:
            raise InvalidShell("could not bracket the threshold root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_log(k: int, r0: float, a: float, b: float) -> float:
    """Kick threshold at log depth k, from the gap and offset of shell_gaps."""
    if k < 0:
        raise InvalidShell(f"log depth must be >= 0, got {k}")
    if not superpower(k) < r0 <= a < b:
        raise InvalidShell(
            f"need superpower({k}) = {superpower(k)} < r0 <= a < b, got ({r0}, {a}, {b})"
        )
    offset, gap = shell_gaps(k, r0, a, b)
    return _smallest_cot_root(gap, offset)


def threshold_residual(lam: float, k: int, r0: float, a: float, b: float) -> float:
    """|cot(lam * gap) - lam * offset| for reporting alongside a computed root."""
    offset, gap = shell_gaps(k, r0, a, b)
    return abs(math.cos(lam * gap) / math.sin(lam * gap) - lam * offset)


def _family_r_min(k: int) -> float:
    """Where the depth-k profiles start: just past superpower(k)."""
    return superpower(k) * (1 + 1e-12) if k else 1e-12


def kicked_profile(spec: KickSpec) -> CurvatureProfile:
    """Coefficient of the kicked equation: critical_decay with mu on [a, b] only.

    DomainError when mu^2 overflows a float.
    """
    k, a, b = spec.k, spec.a, spec.b
    try:
        mu2 = spec.mu**2
    except OverflowError:
        raise DomainError(f"kick amplitude mu = {spec.mu!r}: mu^2 overflows a float") from None

    def vector(r):
        out = critical_decay(r, 0.0, k)
        chi = (r >= a) & (r <= b)
        out[chi] += mu2 / closed_form.log_product(k, r[chi]) ** 2
        return out

    def scalar(r):
        # critical_decay_float(r, 0.0, k), plus mu^2 / log_product(k, r)^2 on
        # the shell: P_k is the log product, so it is computed once
        total, prod = critical_decay_terms(r, k)
        sq = prod * prod
        base = 0.25 * (total + (1.0 / sq if sq else math.inf))
        if a <= r <= b:
            return base + mu2 / sq
        return base

    return CurvatureProfile(
        func=coefficient_func(scalar, vector),
        r_min=_family_r_min(k),
        label=f"kicked[k={k}, r0={spec.r0:g}, a={a:g}, b={b:g}, mu={spec.mu:g}]",
        breakpoints=(a, b),
    )


def equality_profile(k: int = 0) -> CurvatureProfile:
    """The depth-k critical decay with no kick (the boundary-equality case)."""
    return CurvatureProfile(
        func=coefficient_func(lambda r: critical_decay_float(r, 0.0, k),
                              lambda r: critical_decay(r, 0.0, k)),
        r_min=_family_r_min(k),
        label=f"critical-equality[k={k}]",
    )


def remark_shell_note(k: int, r0: float, a: float, b: float) -> Optional[str]:
    """The recorded discrepancy note when the inputs are the published remark shell.

    Scale-invariantly detected: depth 0 with ln(b/a) = ln(a/r0) = 1, which is
    (1, e, e^2) up to a common factor.
    """
    if k != 0:
        return None
    if abs(math.log(b / a) - 1.0) < 1e-9 and abs(math.log(a / r0) - 1.0) < 1e-9:
        return _REMARK_NOTE
    return None


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verdict for a radial curvature profile.

    verdict is one of "Compact", "NoncompactSide", "Inconclusive"; Compact
    carries the conjugate pair and the diameter bound (2 r1, halved when the
    all-origins refinement is asserted).
    """

    verdict: str
    r0: Optional[float]
    r1: Optional[float]
    diameter_bound: Optional[float]
    threshold: Optional[float]
    spec: dict
    grid_size: int
    tolerances: dict
    discrepancy_notes: tuple = ()
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        """Stable-order document matching the shipped certificate schema."""
        return {
            "verdict": self.verdict,
            "r0": self.r0,
            "r1": self.r1,
            "diameter_bound": self.diameter_bound,
            "lambda": self.threshold,
            "spec": dict(self.spec),
            "grid_size": self.grid_size,
            "tolerances": dict(self.tolerances),
            "discrepancy_notes": list(self.discrepancy_notes),
            "reason": self.reason,
        }


def certify(
    profile: CurvatureProfile,
    n: int,
    spec: KickSpec,
    r_max: float,
    grid_size: int = 10000,
    margin: float = 0.0,
    bifurcator_profile: Optional[CurvatureProfile] = None,
    all_origins: bool = False,
    tol: float = 1e-9,
) -> Certificate:
    """Verify the kick hypotheses on a sampling grid and emit a certificate.

    profile is the infimal radial Ricci curvature divided by (n - 1).  The
    hypothesis check is: profile >= critical_decay(r, 0, k) on a log-spaced
    grid over [r0, r_max], and on [a, b] the implied kick amplitude

        mu_implied(r) = sqrt( (profile(r) - critical_decay(r, 0, k)) ) * log_product

    stays above lambda_k by the caller's margin.  On success the comparison
    equation is integrated and the second zero becomes the conjugate pair.
    If the profile instead sits at or below a supplied bifurcator everywhere,
    the verdict is NoncompactSide.  Otherwise Inconclusive, naming the first
    failing radius.  A grid_size below 2 raises DomainMismatch.
    """
    if n < 2:
        raise InvalidShell(f"manifold dimension must be >= 2, got {n}")
    lam = lambda_log(spec.k, spec.r0, spec.a, spec.b)
    notes = []
    note = remark_shell_note(spec.k, spec.r0, spec.a, spec.b)
    if note:
        notes.append(note)

    spec_echo = {
        "r0": spec.r0, "a": spec.a, "b": spec.b, "mu": spec.mu, "k": spec.k,
        "n": n, "r_max": r_max, "profile": profile.label, "all_origins": all_origins,
    }

    def certificate(verdict: str, reason: Optional[str] = None,
                    r1: Optional[float] = None) -> Certificate:
        return Certificate(
            verdict=verdict, r0=None if r1 is None else spec.r0, r1=r1,
            diameter_bound=None if r1 is None else (r1 if all_origins else 2.0 * r1),
            threshold=lam, spec=spec_echo, grid_size=grid_size,
            tolerances={"tol": tol, "hypothesis_margin": margin},
            discrepancy_notes=tuple(notes), reason=reason,
        )

    def inconclusive(reason: str) -> Certificate:
        if bifurcator_profile is not None and noncompact_side_check(
                profile, bifurcator_profile, r_max, grid_size).verdict == "NoncompactSide":
            return certificate("NoncompactSide", "profile bounded above by the "
                               "supplied SL-bifurcator on the whole grid")
        return certificate("Inconclusive", reason)

    # Base hypothesis: profile >= critical decay everywhere past r0.
    r_bad = dominates(profile, equality_profile(spec.k),
                      sampling_grid(spec.r0, r_max, grid_size))
    if r_bad is not None:
        return inconclusive(f"base decay hypothesis fails at r = {r_bad:.9g}")

    # Shell hypothesis: implied kick amplitude above threshold with margin.
    shell = np.geomspace(spec.a, spec.b, max(2000, grid_size // 5))
    shell_vals = profile.values(shell)
    finite = np.isfinite(shell_vals)
    if not np.all(finite):
        r_bad = shell[np.argmin(finite)]
        return inconclusive(f"profile is not finite at r = {r_bad:.9g} on the shell")
    excess = shell_vals - critical_decay(shell, 0.0, spec.k)
    prod = closed_form.log_product(spec.k, shell)
    mu_implied = np.sqrt(np.clip(excess, 0.0, None)) * prod
    mu_eff = float(np.min(mu_implied))
    if not mu_eff > lam * (1.0 + 1e-9) + margin:
        r_bad = shell[int(np.argmin(mu_implied))]
        return inconclusive(
            f"no kick margin above threshold: implied amplitude {mu_eff:.9g} "
            f"<= lambda = {lam:.9g} (+margin {margin:g}) near r = {r_bad:.9g}"
        )

    comparison = kicked_profile(
        KickSpec(spec.r0, spec.a, spec.b, mu_eff, spec.k)
    )
    search = find_second_zero(comparison, spec.r0, r_max, tol)
    if search.r1 is None:
        return inconclusive(
            f"kick amplitude {mu_eff:.9g} exceeds lambda = {lam:.9g} but the "
            f"second zero lies beyond r_max = {r_max:g}; enlarge the domain"
        )
    return certificate("Compact", r1=search.r1)

"""Classification of curvature profiles whose normalised Sturm-Liouville
solution is monotone and bounded, plus the boundary tests built on them.

Boundedness at infinity is not numerically decidable, so the classifier uses
a dyadic Cauchy-tail criterion with an explicit tail tolerance and keeps
"Inconclusive" as a first-class verdict.  Every verdict embeds the (r_max,
tol) it was computed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ExceedanceViolated
from .sl_engine import (CurvatureProfile, coefficient_func, dominates, find_second_zero,
                        integrate_sl, origin_start, quad, sampling_grid)

CLASS_BIFURCATOR = "Bifurcator"
CLASS_SECOND_ZERO = "NotBifurcator(SecondZero)"
CLASS_NON_MONOTONE = "NotBifurcator(NonMonotone)"
CLASS_UNBOUNDED = "NotBifurcator(Unbounded)"
CLASS_INCONCLUSIVE = "Inconclusive"
#: classify: growth of w past this value, with the slope not collapsing, is Unbounded.
UNBOUNDED_CAP = 1e6
#: classify: the dyadic Cauchy tail must fall below this fraction of w(r_max).
TAIL_TOL_REL = 1e-4
#: abresch_checks (a): widest ratio of a moment panel's ends, the first panel
#: edge of a block that starts at 0 relative to the block's end, and quad's rtol.
MOMENT_PANEL_RATIO = 1.5
MOMENT_FLOOR = 1e-10
MOMENT_RTOL = 1e-10


def arctan_profile() -> CurvatureProfile:
    """b(r) = 2r / ((1 + r^2)^2 arctan r), extended by continuity to b(0) = 2.

    The normalised solution is arctan(r): monotone, bounded by pi/2.  The
    scalar kernel gives bit for bit what numpy gives for one radius, so it
    squares with ``**`` (C ``pow``, as numpy's float64 scalar does; Python
    raises OverflowError where numpy returns inf) and calls ``np.arctan``:
    ``q * q`` (numpy's array square) and ``math.atan`` each differ by an
    ulp on a few radii in 10,000.
    """

    def vector(r):
        # Past |r| ~ 1e77 the square overflows to inf and the value to 0, as
        # the scalar kernel's OverflowError -> inf gives.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = 2.0 * r / ((1.0 + r * r) ** 2 * np.arctan(r))
        return np.where(r == 0.0, 2.0, out)

    def scalar(r):
        if r == 0.0:
            return 2.0
        try:
            q2 = (1.0 + r * r) ** 2
        except OverflowError:
            q2 = math.inf
        return 2.0 * r / (q2 * float(np.arctan(r)))

    return CurvatureProfile(
        func=coefficient_func(scalar, vector), r_min=0.0, label="arctan-bifurcator"
    )


@dataclass(frozen=True)
class BifurcatorReport:
    """Verdict plus the evidence the classifier saw.

    w_limit is the tail-corrected estimate w(R) + R w'(R) (exact up to
    O(R^-3) when the moment integral converges); cauchy_tail is the raw
    w(R) - w(R/2) the verdict was decided on.
    """

    classification: str
    w_limit: Optional[float]
    wp_at_rmax: float
    cauchy_tail: Optional[float]
    tail_tol: Optional[float]
    detail: str = ""
    r_max: float = 0.0
    tol: float = 0.0


def classify(
    b: CurvatureProfile,
    r_max: float = 1e4,
    tol: float = 1e-9,
) -> BifurcatorReport:
    """Integrate w'' + b w = 0, w(0) = 0, w'(0) = 1 and classify the profile.

    A zero beyond the start or a sign change of w' refutes the monotone
    bounded property outright; growth past UNBOUNDED_CAP with the slope not
    collapsing reports Unbounded.  Monotone solutions whose dyadic Cauchy
    tail w(R) - w(R/2) falls below TAIL_TOL_REL * w(R) are called Bifurcator;
    anything else is Inconclusive.  The solve starts at origin_start(b).
    """
    traj = integrate_sl(b, *origin_start(b), r_max, tol)

    w_end = float(traj.w[-1])
    wp_end = float(traj.wp[-1])
    tail_tol = TAIL_TOL_REL * abs(w_end)
    wm, _ = traj.evaluate(r_max / 2.0)
    cauchy = w_end - float(wm)
    w_limit = w_end + r_max * wp_end

    def report(cls, detail, limit=None):
        return BifurcatorReport(
            classification=cls,
            w_limit=limit,
            wp_at_rmax=wp_end,
            cauchy_tail=cauchy,
            tail_tol=tail_tol,
            detail=detail,
            r_max=r_max,
            tol=tol,
        )

    if len(traj.zeros):
        return report(CLASS_SECOND_ZERO, f"solution vanished at r = {traj.zeros[0]:.9g}")
    if len(traj.extrema):
        return report(
            CLASS_NON_MONOTONE, f"w' changed sign at r = {traj.extrema[0]:.9g}"
        )
    if np.max(traj.w) > UNBOUNDED_CAP and wp_end > UNBOUNDED_CAP / (10.0 * r_max):
        return report(
            CLASS_UNBOUNDED,
            f"w exceeded {UNBOUNDED_CAP:g} with slope {wp_end:.3g} at r_max",
        )
    if cauchy <= tail_tol:
        return report(CLASS_BIFURCATOR, "monotone; dyadic Cauchy tail below tolerance",
                      limit=w_limit)
    return report(
        CLASS_INCONCLUSIVE,
        f"monotone but Cauchy tail {cauchy:.3g} exceeds {tail_tol:.3g}; "
        "the solution may be slowly unbounded or r_max too small",
    )


def _moment_panels(a: float, c: float, cuts) -> np.ndarray:
    """Edges of geometric panels at most MOMENT_PANEL_RATIO wide from a to c,
    split again at the cuts inside (a, c).

    A block that starts at 0 gets the panel [0, MOMENT_FLOOR * c] and
    geometric panels from there on; the first holds a fraction of about
    MOMENT_FLOOR^2 of the block's moment when b is bounded near 0.
    """
    first = a if a > 0.0 else MOMENT_FLOOR * c
    n = max(1, math.ceil(math.log(c / first) / math.log(MOMENT_PANEL_RATIO)))
    edges = np.geomspace(first, c, n + 1)
    if first != a:
        edges = np.concatenate([[a], edges])
    return np.union1d(edges, [x for x in cuts if a < x < c])


@dataclass(frozen=True)
class AbreschReport:
    """Diagnostics for the three structural properties of a bifurcator profile."""

    moment_integral: float
    moment_tail_ratio: float
    moment_converged: bool
    wp_at_rmax: float
    wp_loglog_slope: float
    independent_solution_value: float
    independent_diverges: bool
    wronskian_drift: float


def abresch_checks(b: CurvatureProfile, r_max: float = 1e4, tol: float = 1e-9) -> AbreschReport:
    """Moment integral, limit derivative trend, and second-solution growth.

    (a) int r b(r) dr over [r_min, r_max], block by block (the breakpoints
        of b below r_max / 8, then the last three dyadic blocks), each by
        sl_engine.quad on the block's _moment_panels to MOMENT_RTOL, with the
        ratio of the last two dyadic blocks as the tail-convergence estimate;
    (b) w'(r_max) and the log-log slope of w' over the last decade;
    (c) the reduction-of-order solution v = w int dr / w^2 started at
        max(start + 0.1, 1), start the solve's origin_start, and integrated
        across the breakpoints of b (w and w' are continuous there, so
        1 / w^2 is too), reported divergent when |v| > 1e3 by r_max.
    """
    lo = max(b.r_min, 0.0)
    blocks = [r_max / 8.0, r_max / 4.0, r_max / 2.0, r_max]
    moment = 0.0
    vals = []
    cuts = sorted(x for x in b.breakpoints if lo < x < r_max)
    pieces = [lo] + [x for x in cuts if x < blocks[0]] + blocks
    for a, c in zip(pieces[:-1], pieces[1:]):
        v = quad(lambda r: r * b.values(r), _moment_panels(a, c, cuts), MOMENT_RTOL)
        vals.append(v)
        moment += v
    tail_ratio = vals[-1] / vals[-2] if vals[-2] != 0.0 else math.inf

    start, w0, w0p = origin_start(b)
    traj = integrate_sl(b, start, w0, w0p, r_max, tol)
    wp_end = float(traj.wp[-1])

    decade = np.geomspace(r_max / 10.0, r_max, 40)
    _, wps = traj.evaluate(decade)
    wps = np.abs(wps)
    slope = float(np.polyfit(np.log(decade), np.log(np.clip(wps, 1e-300, None)), 1)[0])

    # Reduction of order on [r_s, r_max]: v = w * int dr / w^2, v' = w' I + 1/w.
    r_s = max(start + 0.1, 1.0)
    rs = np.geomspace(r_s, r_max, 4001)
    w, wp = traj.evaluate(rs)
    integrand = 1.0 / w**2
    # cumulative trapezoid is enough here; the integrand is smooth and monotone
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(rs) * (integrand[1:] + integrand[:-1]))])
    v = w * cum
    vp = wp * cum + 1.0 / w
    wronskian = w * vp - wp * v
    drift = float(np.max(np.abs(wronskian - 1.0)))

    return AbreschReport(
        moment_integral=float(moment),
        moment_tail_ratio=float(tail_ratio),
        moment_converged=bool(tail_ratio < 1.0),
        wp_at_rmax=wp_end,
        wp_loglog_slope=slope,
        independent_solution_value=float(v[-1]),
        independent_diverges=bool(abs(v[-1]) > 1e3),
        wronskian_drift=drift,
    )


@dataclass(frozen=True)
class BoundaryVerdict:
    verdict: str  # "CompactSide" | "NoEvidence" | "NoncompactSide" | "NotApplicable"
    second_zero: Optional[float]
    detail: str
    r_max: float


def boundary_test(
    b: CurvatureProfile,
    c: CurvatureProfile,
    r_max: float = 1e4,
    tol: float = 1e-9,
    grid_size: int = 4000,
) -> BoundaryVerdict:
    """Compact-side test: does the solution for c (>= b) vanish again by r_max?

    Raises ExceedanceViolated if c does not dominate b on the check grid of
    grid_size radii, and DomainMismatch if grid_size < 2.
    The solve is find_second_zero's from origin_start(c, max(b.r_min,
    c.r_min)), so it stops at the first node past the second zero.  NoEvidence
    does not refute compactness: the second zero is guaranteed to exist for
    a true exceedance but its location may be beyond r_max.
    """
    lo = max(b.r_min, c.r_min, 1e-9)
    r_bad = dominates(c, b, sampling_grid(lo, r_max, grid_size))
    if r_bad is not None:
        raise ExceedanceViolated(
            f"comparison profile is not finite or falls below the bifurcator "
            f"at r = {r_bad:.9g}"
        )
    start, w0, w0p = origin_start(c, max(b.r_min, c.r_min))
    search = find_second_zero(c, start, r_max, tol, w0, w0p)
    traj = search.trajectory
    if search.r1 is not None:
        return BoundaryVerdict(
            verdict="CompactSide",
            second_zero=search.r1,
            detail=f"comparison solution vanished at r = {search.r1:.9g}",
            r_max=r_max,
        )
    state = "past its maximum" if len(traj.extrema) else "monotone"
    return BoundaryVerdict(
        verdict="NoEvidence",
        second_zero=None,
        detail=(
            f"no second zero up to r_max = {r_max:g}; solution is {state} with "
            f"w = {traj.w[-1]:.6g}, w' = {traj.wp[-1]:.3g} at the end -- "
            "r_max may simply be too small to witness the guaranteed zero"
        ),
        r_max=r_max,
    )


def noncompact_side_check(
    profile_sup: CurvatureProfile,
    b: CurvatureProfile,
    r_max: float = 1e4,
    grid_size: int = 4000,
) -> BoundaryVerdict:
    """Noncompact-side test: does b dominate the supremal Ricci profile on the grid?

    Also reports the liminf diagnostic min b over the last dyad [r_max/2, r_max].
    Raises DomainMismatch if grid_size < 2.
    """
    lo = max(profile_sup.r_min, b.r_min, 1e-9)
    rs = sampling_grid(lo, r_max, grid_size)
    liminf_diag = float(np.min(b.values(rs[rs >= r_max / 2.0])))
    r_bad = dominates(b, profile_sup, rs)
    if r_bad is None:
        return BoundaryVerdict(
            verdict="NoncompactSide",
            second_zero=None,
            detail=f"sup-profile <= bifurcator on the grid; "
                   f"min b over the last dyad = {liminf_diag:.6g}",
            r_max=r_max,
        )
    return BoundaryVerdict(
        verdict="NotApplicable",
        second_zero=None,
        detail=f"sup-profile is not finite or exceeds the bifurcator at r = {r_bad:.9g}; "
               f"min b over the last dyad = {liminf_diag:.6g}",
        r_max=r_max,
    )

"""Surfaces of revolution: profile and Gaussian curvature, geodesic radius,
and the pipeline that turns a surface into a radial CurvatureProfile.

The two shipped examples are the paraboloid z = rho^2 and the capped
cylinder z = 1/(1 - rho).  The latter meets the axis at 45 degrees, so the
toolkit blends it to a spherical cap on rho in [0, 0.05] with C^1 matching;
profile_curvature and gauss_curvature always evaluate the raw profile (the
cap only enters the geodesic parameterisation and the tabulated profile),
and all asymptotic claims concern rho -> 1.
"""

from __future__ import annotations

import bisect
import csv
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .sl_engine import CurvatureProfile, coefficient_func

#: curvature_profile's knots per decade of geodesic radius while r <= 100.
KNOTS_PER_DECADE = 400


@dataclass(frozen=True)
class SphericalCap:
    """C^1 spherical blend near the axis: z = z0 - sqrt(R^2 - rho^2) on [0, rho_c]."""

    rho_c: float
    radius: float
    z0: float
    arc: float  # meridian arc length from the pole to rho_c

    def gauss(self) -> float:
        return 1.0 / self.radius**2


@dataclass(frozen=True)
class RevolutionSurface:
    """Graph-of-revolution surface rho -> z(rho) with first two derivatives."""

    z: Callable[[float], float]
    dz: Callable[[float], float]
    d2z: Callable[[float], float]
    rho_domain: tuple
    label: str = ""
    cap: Optional[SphericalCap] = None

    def _check(self, rho: float, allow_zero: bool = True):
        lo, hi = self.rho_domain
        if not (lo <= rho < hi) or (rho == 0.0 and not allow_zero):
            raise DomainError(
                f"rho = {rho} outside the domain [{lo}, {hi}) of {self.label!r}"
            )


def capped_cylinder(cap_rho: float = 0.05) -> RevolutionSurface:
    """Profile z = 1/(1 - rho), asymptotic to the cylinder rho = 1.

    cap_rho sets where the spherical blend hands over to the raw profile.
    """
    slope = (1.0 - cap_rho) ** -2
    radius = cap_rho * math.sqrt(1.0 + (1.0 - cap_rho) ** 4)
    z_c = 1.0 / (1.0 - cap_rho)
    z0 = z_c + cap_rho / slope
    arc = radius * math.asin(cap_rho / radius)
    cap = SphericalCap(rho_c=cap_rho, radius=radius, z0=z0, arc=arc)
    return RevolutionSurface(
        z=lambda rho: 1.0 / (1.0 - rho),
        dz=lambda rho: (1.0 - rho) ** -2,
        d2z=lambda rho: 2.0 * (1.0 - rho) ** -3,
        rho_domain=(0.0, 1.0),
        label="capped-cylinder",
        cap=cap,
    )


def paraboloid() -> RevolutionSurface:
    """Profile z = rho^2; already smooth at the axis, no cap needed."""
    return RevolutionSurface(
        z=lambda rho: rho * rho,
        dz=lambda rho: 2.0 * rho,
        d2z=lambda rho: 2.0,
        rho_domain=(0.0, math.inf),
        label="paraboloid",
    )


def flat_disk() -> RevolutionSurface:
    """z identically 0; geodesic radius equals rho."""
    return RevolutionSurface(
        z=lambda rho: 0.0,
        dz=lambda rho: 0.0,
        d2z=lambda rho: 0.0,
        rho_domain=(0.0, math.inf),
        label="flat-disk",
    )


def profile_curvature(s: RevolutionSurface, rho: float) -> float:
    """Curvature of the raw profile curve: z'' / (1 + z'^2)^{3/2}."""
    s._check(rho)
    zp = s.dz(rho)
    return s.d2z(rho) / (1.0 + zp * zp) ** 1.5


def gauss_curvature(s: RevolutionSurface, rho: float, mode: str = "exact") -> float:
    """Gaussian curvature at radius rho of the raw surface of revolution.

    exact: z' z'' / (rho (1 + z'^2)^2), the classical graph-of-revolution
    formula and the one the profile pipeline uses.  paper: the profile
    curvature times the circular curvature 1/rho, which replaces the
    parallel circle's normal curvature z'/(rho sqrt(1+z'^2)) by 1/rho; the
    two agree as z' -> infinity and are reported side by side in exports.
    Raises DomainError on the axis (use the smooth-cap limit instead).
    """
    s._check(rho, allow_zero=False)
    if mode == "paper":
        return profile_curvature(s, rho) / rho
    if mode != "exact":
        raise DomainError(f"unknown curvature mode {mode!r}")
    zp = s.dz(rho)
    return zp * s.d2z(rho) / (rho * (1.0 + zp * zp) ** 2)


def _arc_integrand(s: RevolutionSurface):
    def f(u: float) -> float:
        zp = s.dz(u)
        return math.sqrt(1.0 + zp * zp)

    return f


def _arc(s: RevolutionSurface, rho_lo: float, rho_hi: float) -> float:
    """Meridian arc length of the raw profile, split so quad never sees more
    than a couple of decades of integrand variation per piece."""
    if rho_hi <= rho_lo:
        return 0.0
    f = _arc_integrand(s)
    sup = s.rho_domain[1]
    edges = [rho_lo]
    if math.isfinite(sup):
        gap = sup - rho_lo
        while sup - edges[-1] > 2.0 * (sup - rho_hi) and gap > 1e-14:
            gap *= 0.5
            nxt = sup - gap
            if nxt >= rho_hi:
                break
            if nxt > edges[-1]:
                edges.append(nxt)
    else:
        nxt = max(rho_lo, 0.5)
        while nxt * 2.0 < rho_hi:
            nxt *= 2.0
            edges.append(nxt)
    edges.append(rho_hi)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, err = quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=200)
        if not math.isfinite(v):
            raise DomainError(f"arc-length quadrature failed on [{a}, {b}]")
        total += v
    return total


def geodesic_radius(s: RevolutionSurface, rho: float) -> float:
    """Geodesic distance from the pole to the parallel circle at rho.

    Meridians through the (smoothly capped) pole are geodesics, so this is
    the meridian arc length; strictly increasing in rho with derivative
    sqrt(1 + z'^2) >= 1.
    """
    s._check(rho)
    if s.cap is not None:
        if rho <= s.cap.rho_c:
            return s.cap.radius * math.asin(rho / s.cap.radius)
        return s.cap.arc + _arc(s, s.cap.rho_c, rho)
    return _arc(s, 0.0, rho)


def _profile_knots(s: RevolutionSurface, r_hi: float) -> tuple:
    """(rho_j, r_j) knots whose geodesic radii cover (0, r_hi].

    Knots are dense (KNOTS_PER_DECADE) while r <= 100, where the Jacobi
    response to curvature error is largest, and 4x sparser beyond.
    """
    if s.cap is not None:
        lo = s.cap.rho_c
        r_lo = s.cap.arc
    else:
        lo = min(1e-6, 0.01 * r_hi)
        r_lo = _arc(s, 0.0, lo)
    sup = s.rho_domain[1]

    rhos = [lo]
    rs = [r_lo]
    # Step so the knots are roughly uniform in log r (the interpolation
    # variable), while never crossing more than 1% of the remaining gap to
    # the domain boundary in a single step.
    while rs[-1] < r_hi * 1.005:
        dense = max(KNOTS_PER_DECADE // 4, 25) if rs[-1] > 100.0 else KNOTS_PER_DECADE
        cur, r_cur = rhos[-1], rs[-1]
        zp = s.dz(cur)
        d_rho = r_cur * (10.0 ** (1.0 / dense) - 1.0) / math.sqrt(1.0 + zp * zp)
        if math.isfinite(sup):
            d_rho = min(d_rho, 0.01 * (sup - cur))
        nxt = cur + d_rho
        if nxt <= cur:
            raise DomainError("knot generation stalled; r_hi unreachable")
        rhos.append(nxt)
        rs.append(r_cur + _arc(s, cur, nxt))
    return np.asarray(rhos), np.asarray(rs)


def _gauss_exact_vec(s: RevolutionSurface, rho: np.ndarray) -> np.ndarray:
    zp = np.asarray(s.dz(rho), dtype=float)
    zpp = np.broadcast_to(np.asarray(s.d2z(rho), dtype=float), rho.shape)
    return zp * zpp / (rho * (1.0 + zp * zp) ** 2)


def curvature_profile(s: RevolutionSurface, r_grid) -> CurvatureProfile:
    """Tabulate exact Gaussian curvature against geodesic radius.

    Returns a CurvatureProfile defined on [0, max(r_grid)]: constant cap
    curvature inside the blend, then the exact curvature formula evaluated
    at the inverse geodesic map, which is interpolated (monotone PCHIP) in
    log-log coordinates where it is nearly affine.  Interpolating the
    radius map instead of the curvature itself keeps the relative curvature
    bias near 1e-10; the Jacobi equation amplifies any systematic bias
    linearly in r, so this matters for long integrations.  This is the
    Jacobi coefficient for meridian geodesics in dimension 2.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    r_hi = float(np.max(r_grid))
    rhos, rs = _profile_knots(s, r_hi)
    sup = s.rho_domain[1]
    finite = math.isfinite(sup)
    y = np.log(sup - rhos) if finite else np.log(rhos)
    interp = PchipInterpolator(np.log(rs), y, extrapolate=True)

    r_first = float(rs[0])
    r_top = float(rs[-1])
    rho_lo, rho_hi = float(rhos[0]), float(rhos[-1])
    k_inner = s.cap.gauss() if s.cap is not None else float(
        _gauss_exact_vec(s, np.array([rho_lo]))[0]
    )
    breaks = (r_first,) if s.cap is not None else ()

    def vector(r):
        if np.any(r > r_top * (1.0 + 1e-9)):
            raise DomainError(f"profile tabulated only up to r = {r_top:g}")
        if not np.all(r >= 0.0):
            raise DomainError("radius must be finite and non-negative")
        yv = interp(np.log(np.clip(r, r_first, r_top)))
        rho = (sup - np.exp(yv)) if finite else np.exp(yv)
        rho = np.clip(rho, rho_lo, rho_hi)
        return np.where(r <= r_first, k_inner, _gauss_exact_vec(s, rho))

    # The same cubic for one float: PPoly's interval rule and power-sum
    # order (c[0] is the cubic term).  The knots and coefficients are kept
    # as flat float buffers: a Python float object per entry fragments the
    # heap and raises peak memory.  numpy's log and exp on a float round as
    # they do on arrays; math's differ by an ulp now and then, which
    # rho = 1 - e^y near rho = 1 magnifies.
    xk = array("d", interp.x)
    c3, c2, c1, c0 = (array("d", row) for row in interp.c)
    last = len(xk) - 2

    def scalar(r):
        if r > r_top * (1.0 + 1e-9):
            raise DomainError(f"profile tabulated only up to r = {r_top:g}")
        if not r >= 0.0:
            raise DomainError("radius must be finite and non-negative")
        if r <= r_first:
            return k_inner
        x = float(np.log(min(r, r_top)))
        i = min(max(bisect.bisect_right(xk, x) - 1, 0), last)
        h = x - xk[i]
        h2 = h * h
        yv = c0[i] + c1[i] * h + c2[i] * h2 + c3[i] * (h2 * h)
        ey = float(np.exp(yv))
        rho = (sup - ey) if finite else ey
        rho = min(max(rho, rho_lo), rho_hi)
        zp = s.dz(rho)
        q = 1.0 + zp * zp
        return zp * s.d2z(rho) / (rho * (q * q))

    return CurvatureProfile(
        func=coefficient_func(scalar, vector),
        r_min=0.0,
        label=f"{s.label}-gauss",
        breakpoints=breaks,
    )


def export_profile_csv(s: RevolutionSurface, rho_values, path) -> None:
    """Write rho, z, r, K_exact, K_paper, K_r3 rows for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "z", "r", "K_exact", "K_paper", "K_r3"])
        for rho in np.asarray(rho_values, dtype=float):
            r = geodesic_radius(s, float(rho))
            k = gauss_curvature(s, float(rho), "exact")
            kp = gauss_curvature(s, float(rho), "paper")
            writer.writerow(
                [f"{v:.12g}" for v in (rho, s.z(float(rho)), r, k, kp, k * r**3)]
            )

"""Adaptive integration of scalar Sturm-Liouville equations w'' + b(r) w = 0
with event detection for zeros and extrema, the index form, and the Picone
comparison residual.

The integrator is an adaptive 8th-order embedded pair (DOP853) with dense
output.  Stored trajectories carry a refined grid on which the midpoint
Hermite reconstruction satisfies the ODE-residual bound
|w'' + b w| <= tol * (|b w| + 1); zeros and extrema are bracketed on that
grid and polished on the dense interpolant.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import (DomainError, DomainMismatch, NonFiniteCoefficient, StepUnderflow,
                     ToolkitError, YVanished)

_TINY_SIGN = 1e-300
#: Start radius of a solve whose profile cannot be evaluated at the origin.
ORIGIN_EPS = 1e-6
#: Relative slack of dominates(), taken on the smaller of the two magnitudes.
DOMINANCE_RTOL = 1e-12


@dataclass(frozen=True)
class CurvatureProfile:
    """A positive radial curvature coefficient r -> b(r) on [r_min, infinity).

    func must be deterministic and take either a float (the ODE right-hand
    side, profile(r)) or a float array (values); coefficient_func builds one
    from a scalar and a vector kernel.  breakpoints lists interior radii
    where the coefficient is allowed to jump (the integrator splits there).
    """

    func: Callable[[float], float]
    r_min: float = 0.0
    label: str = ""
    breakpoints: tuple = ()

    def __call__(self, r: float) -> float:
        return float(self.func(r))

    def values(self, rs) -> np.ndarray:
        """func on the float array rs; DomainError if it returns another shape."""
        rs = np.asarray(rs, dtype=float)
        out = np.asarray(self.func(rs), dtype=float)
        if out.shape != rs.shape:
            raise DomainError(
                f"profile {self.label!r} returned shape {out.shape} for {rs.shape} radii"
            )
        return out


def coefficient_func(scalar, vector):
    """A CurvatureProfile.func built from a float kernel and an array kernel.

    The ODE right-hand side calls func with one float per stage, where a
    0-d numpy evaluation costs far more than the arithmetic; floats go to
    scalar, everything else goes to vector as a float array (0-d arrays
    are unwrapped to a float and take the scalar kernel).  The solver's
    stage radii are numpy float64s, whose arithmetic is slower than a
    Python float's, so scalar always receives a Python float.
    """

    def func(r):
        if isinstance(r, float):
            return scalar(float(r))
        x = np.asarray(r, dtype=float)
        return vector(x) if x.ndim else scalar(float(x))

    return func


def dominates(upper: CurvatureProfile, lower: CurvatureProfile, rs) -> Optional[float]:
    """First radius of rs where upper does not lie above lower, or None.

    A radius passes only when both values are finite and
    upper - lower >= -DOMINANCE_RTOL * min(|upper|, |lower|): NaN and inf
    fail, and the slack keeps its direction for negative values.
    """
    rs = np.asarray(rs, dtype=float)
    u, lo = upper.values(rs), lower.values(rs)
    with np.errstate(invalid="ignore"):  # inf - inf; those radii fail anyway
        ok = (np.isfinite(u) & np.isfinite(lo)
              & (u - lo >= -DOMINANCE_RTOL * np.minimum(np.abs(u), np.abs(lo))))
    return None if ok.all() else float(rs[np.argmin(ok)])


def origin_start(
    profile: CurvatureProfile, r_min: Optional[float] = None
) -> tuple[float, float, float]:
    """(start, w0, w0') for the solution with w(0) = 0, w'(0) = 1.

    r_min defaults to profile.r_min.  The start is 0 when r_min <= 0 and
    b(0) is finite; otherwise max(r_min, ORIGIN_EPS) with w = start, w' = 1,
    an O(start^2 b) error in the initial data.
    """
    r_min = profile.r_min if r_min is None else r_min
    if r_min <= 0.0:
        try:
            if math.isfinite(profile(0.0)):
                return 0.0, 0.0, 1.0
        except (ArithmeticError, ValueError, ToolkitError):
            pass  # a profile singular at the origin may raise there
    start = max(r_min, ORIGIN_EPS)
    return start, start, 1.0


class _StackedDop853:
    """One solve_ivp piece's DOP853 dense output, evaluated in one pass.

    scipy's OdeSolution makes a Python call per segment; here each
    segment's t_old, h, y_old and F are stacked once, a point takes
    OdeSolution's own segment (searchsorted(ts, t, side="left") - 1,
    clipped), and Dop853DenseOutput's recurrence runs over all points at
    once, with the same operations in the same order, so the values are
    bit-identical to OdeSolution.__call__.  `at` runs the same recurrence
    in float arithmetic for one point, where numpy's per-call overhead
    would dominate.
    """

    def __init__(self, sol):
        segments = sol.interpolants
        self.ts = sol.ts
        self._inner = sol.ts[1:-1]
        self.t_old = np.array([s.t_old for s in segments], dtype=float)
        self.h = np.array([s.h for s in segments], dtype=float)
        self.y_old = np.array([s.y_old for s in segments], dtype=float)
        # (power, segment, state), highest power first as the recurrence reads it
        self.F = np.stack([s.F for s in segments], axis=1)[::-1].copy()

    def __call__(self, t):
        """(w, w') arrays at the points of the 1-d array t."""
        # searchsorted(ts, t, side="left") - 1 clipped to a valid segment
        seg = np.searchsorted(self._inner, t, side="left")
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        factors = (x, 1 - x)
        y = np.zeros((len(t), self.F.shape[2]))
        for i, f in enumerate(self.F):
            y += f[seg]
            y *= factors[i % 2]
        y += self.y_old[seg]
        return y[:, 0], y[:, 1]

    def at(self, t: float) -> tuple[float, float]:
        """(w, w') floats at one point."""
        seg = int(self._inner.searchsorted(t, side="left"))
        x = float((t - self.t_old[seg]) / self.h[seg])
        factors = (x, 1 - x)
        w = wp = 0.0
        for i, (f, fp) in enumerate(self.F[:, seg].tolist()):
            w = (w + f) * factors[i % 2]
            wp = (wp + fp) * factors[i % 2]
        w0, wp0 = self.y_old[seg].tolist()
        return w + w0, wp + wp0


class _PiecewiseDense:
    """Dense output stitched across breakpoints; evaluates (w, w').

    At a breakpoint the piece that starts there is used.  Radii outside
    [r_start, r_end] raise DomainMismatch: the interpolants would only
    extrapolate there.
    """

    def __init__(self, pieces):
        # pieces: list of (r_lo, r_hi, _StackedDop853)
        self.pieces = pieces
        self._starts = [lo for lo, _, _ in pieces]
        self._range = (pieces[0][0], pieces[-1][1])

    def _outside(self, r) -> DomainMismatch:
        lo, hi = self._range
        return DomainMismatch(
            f"r = {r!r} lies outside the integrated range [{lo!r}, {hi!r}]"
        )

    def __call__(self, r):
        """(w, w') as floats at a scalar r, as arrays at an array r."""
        lo, hi = self._range
        if isinstance(r, float) or np.ndim(r) == 0:
            r = float(r)
            if not lo <= r <= hi:
                raise self._outside(r)
            return self.pieces[bisect.bisect_right(self._starts, r) - 1][2].at(r)
        rs = np.asarray(r, dtype=float)
        inside = (rs >= lo) & (rs <= hi)
        if not inside.all():
            raise self._outside(float(rs[np.argmin(inside)]))
        which = np.searchsorted(self._starts, rs, side="right") - 1
        w = np.empty_like(rs)
        wp = np.empty_like(rs)
        for i, (_, _, piece) in enumerate(self.pieces):
            mask = which == i
            if mask.any():
                w[mask], wp[mask] = piece(rs[mask])
        return w, wp


@dataclass
class SLTrajectory:
    """Dense numerical solution of w'' + b(r) w = 0 with recorded events.

    grid/w/wp hold the refined output grid; zeros and extrema are the
    polished event radii, strictly inside (r_start, r_end].
    """

    profile: CurvatureProfile
    grid: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    zeros: np.ndarray
    extrema: np.ndarray
    r_start: float
    r_end: float
    tol: float
    dense: _PiecewiseDense = field(repr=False)

    def evaluate(self, r):
        """(w, w') anywhere inside [r_start, r_end]."""
        return self.dense(r)

    def residual_report(self) -> float:
        """Max over grid midpoints of |w'' + b w| / (tol * (|b w| + 1)).

        The midpoint state is reconstructed by two-point quintic Hermite
        interpolation of the stored nodes, using w'' = -b w at the nodes
        (the only second derivative consistent with the stored data); the
        defect of that reconstruction against the ODE is the residual.
        """
        res, _, _ = _hermite_defect(
            self.profile, self.grid, self.w, self.wp, self.tol
        )
        return float(res.max())

    def restricted(self, r_lo: float, r_hi: float) -> "SLTrajectory":
        """The same trajectory cut down to [r_lo, r_hi] (endpoints included exactly)."""
        m = (self.grid > r_lo) & (self.grid < r_hi)
        grid = np.concatenate([[r_lo], self.grid[m], [r_hi]])
        w, wp = self.dense(grid)
        return SLTrajectory(
            profile=self.profile,
            grid=grid,
            w=w,
            wp=wp,
            zeros=self.zeros[(self.zeros > r_lo) & (self.zeros <= r_hi)],
            extrema=self.extrema[(self.extrema > r_lo) & (self.extrema <= r_hi)],
            r_start=float(r_lo),
            r_end=float(r_hi),
            tol=self.tol,
            dense=self.dense,
        )


def _checked_rhs(profile: CurvatureProfile):
    def rhs(r, y):
        b = profile.func(r)
        if not math.isfinite(b):
            raise NonFiniteCoefficient(
                f"profile {profile.label!r} evaluated to {b} at r = {r}"
            )
        return (y[1], -b * y[0])

    return rhs


def _solver_rtol(tol: float) -> float:
    return max(1e-3 * tol, 2.5e-14)


def _solve_piece(profile, r_lo, r_hi, y0, tol, scale):
    rtol = _solver_rtol(tol)
    atol = max(1e-11 * tol * scale, 1e-280)
    sol = solve_ivp(
        _checked_rhs(profile),
        (r_lo, r_hi),
        y0,
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        if "step size" in (sol.message or "").lower():
            raise StepUnderflow(sol.message)
        raise StepUnderflow(f"integration failed on [{r_lo}, {r_hi}]: {sol.message}")
    return sol


def _hermite_defect(profile, grid, w, wp, tol):
    """Normalised quintic-Hermite midpoint defect per interval, and midpoints.

    With nodal data (w, w') and the ODE-implied w'' = -b w, the midpoint
    reconstruction is

        w_m   = (w0+w1)/2 + 5h(w0'-w1')/32 + h^2(w0''+w1'')/64
        w''_m = 3(w1'-w0')/(2h) - (w0''+w1'')/4

    and the defect |w''_m + b(r_m) w_m| is O(h^4) for consistent data.
    Nodal b is sampled a few ulps inside each interval so that coefficient
    jumps at breakpoints land on the correct side.
    """
    r0, r1 = grid[:-1], grid[1:]
    h = r1 - r0
    rm = 0.5 * (r0 + r1)
    nudge = np.maximum(1e-9 * h, 4.0 * np.spacing(np.abs(r1)))
    s0 = -profile.values(r0 + nudge) * w[:-1]
    s1 = -profile.values(r1 - nudge) * w[1:]
    wm = (
        0.5 * (w[:-1] + w[1:])
        + h * (wp[:-1] - wp[1:]) * (5.0 / 32.0)
        + h * h * (s0 + s1) / 64.0
    )
    wppm = 1.5 * (wp[1:] - wp[:-1]) / h - 0.25 * (s0 + s1)
    bm = profile.values(rm)
    denom = np.abs(bm * wm) + 1.0
    res = np.abs(wppm + bm * wm) / (tol * denom)
    return res, rm, denom


_EPS = float(np.finfo(float).eps)


def _running_floor(w, wp, tol, rtol_solver, scales):
    """Per-node certifiable resolution floor.

    The difference quotient amplifies both the interpolant error
    (~rtol_solver * running max|w|: errors accumulate forward and do not
    shrink where the solution later passes near zero) and the float
    representation error (~eps * running max|w'|) by 1/h; below this floor
    refinement only adds noise.
    """
    runw = np.maximum.accumulate(np.maximum(np.abs(w), scales[0]))
    runwp = np.maximum.accumulate(np.maximum(np.abs(wp), scales[1]))
    return 9.0 * (rtol_solver * runw + _EPS * runwp) / (0.7 * tol)


def _thin_nodes(nodes, floor):
    """Drop solver nodes packed tighter than the certifiable resolution
    (DOP853's startup ramp produces nanometer steps near the start)."""
    keep = [0]
    for i in range(1, len(nodes) - 1):
        if (nodes[i] - nodes[keep[-1]] >= floor[i]
                and nodes[-1] - nodes[i] >= floor[i]):
            keep.append(i)
    keep.append(len(nodes) - 1)
    return nodes[np.asarray(keep)]


def _refine_grid(profile, dense, r_nodes, tol, rtol_solver, scales, max_depth=12):
    """Bisect intervals until the Hermite-midpoint defect meets the bound.

    scales = (max|w|, max|w'|) carried in from earlier pieces; intervals at
    their local noise floor are left alone, and the loop exits when the
    worst refinable defect stops improving.
    """
    nodes = np.asarray(r_nodes, dtype=float)
    w, wp = dense(nodes)
    floor = _running_floor(w, wp, tol, rtol_solver, scales)
    grid = _thin_nodes(nodes, floor)
    prev_worst = math.inf
    for _ in range(max_depth):
        w, wp = dense(grid)
        res, rm, denom = _hermite_defect(profile, grid, w, wp, tol)
        h = np.diff(grid)
        floor = _running_floor(w, wp, tol, rtol_solver, scales)
        f_iv = np.maximum(floor[:-1], floor[1:])
        # The defect bound scales with (1 + |b w|), so intervals with a large
        # local bound tolerate proportionally finer grids before noise wins.
        refinable = h > np.maximum(2.0 * f_iv / denom, 64.0 * np.spacing(rm))
        bad = (res > 0.7) & refinable
        if not np.any(bad):
            break
        worst = float(res[refinable].max())
        if worst >= 0.8 * prev_worst:
            break
        prev_worst = worst
        grid = np.sort(np.concatenate([grid, rm[bad]]))
    wmax = max(scales[0], float(np.max(np.abs(w))))
    wpmax = max(scales[1], float(np.max(np.abs(wp))))
    return grid, (wmax, wpmax)


def _polish_zeros(fun, grid, vals, tol, lo_open):
    """Bracketed sign changes of vals refined on fun; skips the open left end."""
    out = []
    start = 0
    if lo_open:
        while start < len(vals) and abs(vals[start]) < _TINY_SIGN:
            start += 1
    for i in range(start, len(vals) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            continue
        if b == 0.0:
            out.append(grid[i + 1])
            continue
        if (a > 0) != (b > 0):
            xtol = 0.25 * tol * max(1.0, grid[i + 1])
            out.append(
                brentq(fun, grid[i], grid[i + 1], xtol=xtol, rtol=4 * np.finfo(float).eps)
            )
    return np.asarray(out)


def integrate_sl(
    profile: CurvatureProfile,
    r_start: float,
    w0: float,
    w0p: float,
    r_end: float,
    tol: float = 1e-9,
) -> SLTrajectory:
    """Integrate w'' + b(r) w = 0 from (w0, w0p) at r_start out to r_end.

    tol in [1e-13, 1e-3] controls both the solver tolerance and the stored
    grid's ODE-residual bound; zeros are located to |dr| <= tol * max(1, r).
    The profile is split at its interior breakpoints so coefficient jumps
    never sit inside a solver step.
    """
    if not r_start < r_end:
        raise DomainMismatch(f"need r_start < r_end, got [{r_start}, {r_end}]")
    if not 1e-13 <= tol <= 1e-3:
        raise DomainMismatch(f"tol must lie in [1e-13, 1e-3], got {tol}")
    if r_start < profile.r_min:
        raise DomainMismatch(
            f"profile {profile.label!r} starts at r_min = {profile.r_min} > {r_start}"
        )

    cuts = [r_start]
    cuts += [b for b in sorted(profile.breakpoints) if r_start < b < r_end]
    cuts.append(r_end)
    scale = max(abs(w0), abs(w0p) * min(1.0, r_end - r_start), 1e-8)

    pieces = []
    grids = []
    y = (float(w0), float(w0p))
    scales = (abs(w0), abs(w0p))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = _solve_piece(profile, lo, hi, y, tol, scale)
        piece = _StackedDop853(sol.sol)
        grid, scales = _refine_grid(
            profile, piece, sol.t, tol, _solver_rtol(tol), scales
        )
        pieces.append((lo, hi, piece))
        grids.append(grid)
        y = tuple(sol.y[:, -1])

    dense = _PiecewiseDense(pieces)
    grid = np.unique(np.concatenate(grids))
    w, wp = dense(grid)

    zeros = _polish_zeros(lambda r: dense(r)[0], grid, w, tol, lo_open=(w0 == 0.0))
    extrema = _polish_zeros(lambda r: dense(r)[1], grid, wp, tol, lo_open=(w0p == 0.0))

    return SLTrajectory(
        profile=profile,
        grid=grid,
        w=w,
        wp=wp,
        zeros=zeros,
        extrema=extrema,
        r_start=float(r_start),
        r_end=float(r_end),
        tol=float(tol),
        dense=dense,
    )


@dataclass(frozen=True)
class SecondZeroResult:
    """First zero beyond the base point, or the evidence there was none.

    When r1 is None, the final value/slope and the extremum count let the
    caller tell 'provably still climbing' apart from 'ran out of domain'.
    """

    r1: Optional[float]
    w_end: float
    wp_end: float
    monotone: bool
    n_extrema: int
    r_searched: float
    trajectory: SLTrajectory = field(repr=False)


def find_second_zero(
    profile: CurvatureProfile,
    r0: float,
    r_max: float,
    tol: float = 1e-9,
) -> SecondZeroResult:
    """First zero strictly beyond r0 of the solution with y(r0) = 0, y'(r0) = 1."""
    traj = integrate_sl(profile, r0, 0.0, 1.0, r_max, tol)
    r1 = float(traj.zeros[0]) if len(traj.zeros) else None
    return SecondZeroResult(
        r1=r1,
        w_end=float(traj.w[-1]),
        wp_end=float(traj.wp[-1]),
        monotone=(len(traj.extrema) == 0),
        n_extrema=len(traj.extrema),
        r_searched=float(r_max),
        trajectory=traj,
    )


@dataclass(frozen=True)
class IndexFormInput:
    """Data for the second-variation integral along a conjugate-point candidate."""

    n: int
    y: SLTrajectory
    ric: CurvatureProfile

    def __post_init__(self):
        if self.n < 2:
            raise DomainMismatch(f"manifold dimension must be >= 2, got {self.n}")
        scale = max(1.0, float(np.max(np.abs(self.y.w))))
        for end, val in ((self.y.r_start, self.y.w[0]), (self.y.r_end, self.y.w[-1])):
            if abs(val) > 50.0 * self.y.tol * scale:
                raise DomainMismatch(
                    f"y({end}) = {val} is not zero within tolerance"
                )


def index_form(inp: IndexFormInput) -> float:
    """(n-1) * int (y')^2 dr - int ric(r) y^2 dr over the conjugate interval.

    Strictly negative whenever ric exceeds (n-1) times the trajectory's own
    coefficient pointwise; zero in the equality case by the boundary identity.
    """
    y = inp.y
    if inp.ric.r_min > y.r_start:
        raise DomainMismatch(
            f"ric profile starts at {inp.ric.r_min}, needed from {y.r_start}"
        )
    qtol = max(1e-12, 0.01 * y.tol)

    def kinetic(r):
        return y.evaluate(r)[1] ** 2

    def potential(r):
        return inp.ric(r) * y.evaluate(r)[0] ** 2

    pts = y.grid[:: max(1, len(y.grid) // 40)][1:-1]
    k, _ = quad(kinetic, y.r_start, y.r_end, epsabs=qtol, epsrel=qtol,
                points=pts, limit=400)
    p, _ = quad(potential, y.r_start, y.r_end, epsabs=qtol, epsrel=qtol,
                points=pts, limit=400)
    return (inp.n - 1) * k - p


@dataclass(frozen=True)
class PiconeReport:
    """Worst-case defect of the comparison identity y'/y = w'/w - I(r)/w^2."""

    residual: float
    r_at_max: float
    window: tuple[float, float]


def picone_residual(
    b: CurvatureProfile,
    c: CurvatureProfile,
    r_max: float,
    tol: float = 1e-9,
    panels_per_segment: int = 1200,
) -> PiconeReport:
    """Check the comparison identity between the solutions of b and c (c >= b).

    Both solutions start from the same origin_start data, at the later of
    the two profiles' starts.
    I(r) accumulates int (c - b) w^2 plus int ((w' y - w y')/y)^2 by composite
    Simpson, with panel edges pinned to the profiles' breakpoints so jumps in
    c - b never sit inside a panel; the reported residual is the max over
    nodes of |y'/y - w'/w + I/w^2|.  Raises YVanished if y hits zero inside
    the window, which is the comparison theorem's conclusion, not a defect.
    """
    r_min = max(b.r_min, c.r_min)
    r_lo, w0, w0p = max(origin_start(b, r_min), origin_start(c, r_min))
    wtraj = integrate_sl(b, r_lo, w0, w0p, r_max, tol)
    ytraj = integrate_sl(c, r_lo, w0, w0p, r_max, tol)
    if len(ytraj.zeros):
        raise YVanished(
            f"comparison solution vanished at r = {ytraj.zeros[0]:.6g}; "
            "shorten the window below that radius"
        )

    # Start a hair inside the interval to dodge the removable 0/0 at r_lo.
    start = r_lo + max(1e-3, 1e-4 * (r_max - r_lo))
    cuts = sorted(set(b.breakpoints) | set(c.breakpoints))
    edges = [start] + [x for x in cuts if start < x < r_max] + [r_max]

    worst = (0.0, start)
    integral = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        rs = np.linspace(lo, hi, 2 * panels_per_segment + 1)
        w, wp = wtraj.evaluate(rs)
        yv, yp = ytraj.evaluate(rs)
        # Evaluate the coefficient difference a hair inside the segment so a
        # jump sitting exactly on the edge is read from the correct side.
        rs_in = rs.copy()
        nudge = max(1e-12 * (hi - lo), 4.0 * np.spacing(hi))
        rs_in[0] += nudge
        rs_in[-1] -= nudge
        f = (c.values(rs_in) - b.values(rs_in)) * w**2 + ((wp * yv - w * yp) / yv) ** 2
        h = rs[1] - rs[0]
        inc = (h / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
        cum = integral + np.concatenate([[0.0], np.cumsum(inc)])
        even = slice(0, None, 2)
        resid = np.abs(yp[even] / yv[even] - wp[even] / w[even] + cum / w[even] ** 2)
        i = int(np.argmax(resid))
        if resid[i] > worst[0]:
            worst = (float(resid[i]), float(rs[even][i]))
        integral = float(cum[-1])

    return PiconeReport(
        residual=worst[0],
        r_at_max=worst[1],
        window=(float(start), float(r_max)),
    )

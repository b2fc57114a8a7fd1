"""Adaptive integration of scalar Sturm-Liouville equations w'' + b(r) w = 0
with event detection for zeros and extrema, the index form, and the Picone
comparison residual.

The integrator is an adaptive 8th-order embedded pair (DOP853) with dense
output.  Its step loop (_solve_piece) repeats scipy's DOP853 operation for
operation, from the tableau and the initial-step rule that the dop853
module ports, so nodes, states and dense output are bit-identical to
solve_ivp(method="DOP853", dense_output=True) while each step costs less;
it writes every accepted step's interpolation data straight into the
stacked dense output.  Zeros and extrema are polished with a port of
scipy.optimize.brentq, and the index form is integrated by quad, an
8-point Gauss-Legendre rule on the accepted steps.  So the module imports
numpy alone.

The dense output is the trajectory's one interpolant.  Its grid is the
accepted solver nodes; zeros and extrema are bracketed on that grid and
polished on the dense output, and residual_report() measures the ODE
defect |w'' + b w| / (tol * (|b w| + 1)) of the dense output itself.

integrate_sl is a pure function of the profile and its start data, so a
profile keeps its last solve: a second call with the same profile object
and the same (r_start, w0, w0p, r_end, tol) returns the same read-only
trajectory without solving again.  This is what lets classify,
abresch_checks and a caller's own integrate_sl share one solve.  A call
that differs only in r_end resumes the stored solve instead of repeating
it: every piece keeps the step it proposed at each node and where it
rejected trials, so the steps both ends leave unclamped are taken over and
the loop continues from the node after them, bit-identical to a fresh
solve.  boundary_test's solve to
r_max, the index form's to the second zero and the Picone window's to 0.9
of it share their steps this way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dop853
from .errors import (DomainError, DomainMismatch, NonFiniteCoefficient, StepUnderflow,
                     ToolkitError, YVanished)

_TINY_SIGN = 1e-300
#: Start radius of a solve whose profile cannot be evaluated at the origin.
ORIGIN_EPS = 1e-6
#: Relative slack of dominates(), taken on the smaller of the two magnitudes.
DOMINANCE_RTOL = 1e-12
#: Simpson panels per breakpoint segment in picone_residual.
PICONE_PANELS = 1200
#: Most passes of quad: an interval is halved at most QUAD_LEVELS - 1 times.
QUAD_LEVELS = 12
# scipy's step-size controller constants (scipy/integrate/_ivp/rk.py)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


@dataclass(frozen=True)
class CurvatureProfile:
    """A positive radial curvature coefficient r -> b(r) on [r_min, infinity).

    func must be deterministic and take either a float (the ODE right-hand
    side, profile(r)) or a float array (values); coefficient_func builds one
    from a scalar and a vector kernel.  breakpoints lists interior radii
    where the coefficient is allowed to jump (the integrator splits there).

    integrate_sl keeps the profile's last trajectory, keyed on its start
    data, in _solves; that relies on func being deterministic.  The memo
    takes no part in equality, hash or repr, and dataclasses.replace
    starts the copy with an empty one.
    """

    func: Callable[[float], float]
    r_min: float = 0.0
    label: str = ""
    breakpoints: tuple = ()
    _solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    are unwrapped to a float and take the scalar kernel).  Every radius a
    solve evaluates, the initial-step probe included, is a Python float; a
    numpy float64 (an element of a caller's array) is a float too and is
    converted, since its arithmetic is slower, so scalar always receives a
    Python float.
    """

    def func(r):
        if isinstance(r, float):
            return scalar(float(r))
        x = np.asarray(r, dtype=float)
        return vector(x) if x.ndim else scalar(float(x))

    return func


def sampling_grid(lo: float, hi: float, grid_size: int) -> np.ndarray:
    """grid_size log-spaced radii from lo to hi, the grid a hypothesis is checked on.

    A grid of fewer than 2 radii samples at most one radius, so a check on
    it proves nothing: DomainMismatch.
    """
    if not grid_size >= 2:
        raise DomainMismatch(f"a sampling grid needs grid_size >= 2, got {grid_size!r}")
    return np.geomspace(lo, hi, grid_size)


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
    """One DOP853 piece's dense output, evaluated in one pass.

    Built by _solve_piece from each accepted step's segment [t_old, t]:
    ts holds the node radii, h = t - t_old, y_old the start states (w, w')
    one after the other, and F (power, segment, state) scipy's
    interpolation coefficients, highest power first as the recurrence
    reads them.
    A point takes OdeSolution's own segment (searchsorted(ts, t,
    side="left") - 1, clipped), and Dop853DenseOutput's recurrence runs
    over all points at once, with the same operations in the same order,
    so the values are bit-identical to scipy's dense output.  `at` runs
    the same recurrence in float arithmetic for one point, where numpy's
    per-call overhead would dominate.

    y_end is the state at ts[-1]; accepted, rejected and nfev count the
    solver's steps and right-hand-side evaluations, and reused the leading
    steps taken from an earlier solve (_solve_piece's prefix).  What else
    the step loop starts a step from is kept for a later solve to resume
    at any node: h_next, the step proposed at each node, and
    rejected_steps, the index of the step of every rejected trial.
    """

    def __init__(self, ts, y_old, F, y_end, nfev, h_next, rejected_steps, reused):
        self.ts = np.array(ts, dtype=float)
        self._inner = self.ts[1:-1]
        self.t_old = self.ts[:-1]
        self.h = self.ts[1:] - self.t_old
        self.y_old = np.array(y_old, dtype=float).reshape(-1, 2)
        self.F = F
        self.y_end = y_end
        self.accepted = len(self.ts) - 1
        self.nfev = nfev
        self.h_next = np.array(h_next, dtype=float)
        self.rejected_steps = np.array(rejected_steps, dtype=np.int64)
        self.rejected = len(self.rejected_steps)
        self.reused = reused

    def shared_steps(self, h_abs: float, r_hi: float) -> int:
        """How many leading steps a solve from the same start to r_hi repeats.

        With the same tolerances and the same first proposed step h_abs,
        a step is repeated when neither end clamps its first trial
        t + max(h, min_step): its later trials are shorter, so neither end
        clamps those either.
        """
        if h_abs != self.h_next[0]:
            return 0
        t = self.t_old
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        ok = t + np.maximum(self.h_next[:-1], min_step) <= min(self.ts[-1], r_hi)
        return self.accepted if ok.all() else int(np.argmin(ok))

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
    extrapolate there.  reused counts the accepted steps the solve took
    from the profile's previous solve.
    """

    def __init__(self, pieces, reused):
        # pieces: list of (r_lo, r_hi, _StackedDop853)
        self.pieces = pieces
        self.reused = reused
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


@dataclass(frozen=True)
class SLTrajectory:
    """Dense numerical solution of w'' + b(r) w = 0 with recorded events.

    grid/w/wp hold the accepted solver nodes and the dense output there;
    zeros and extrema are the polished event radii, strictly inside
    (r_start, r_end].  A trajectory returned by integrate_sl may be shared
    by every caller that asks for the same solve, so it is frozen and those
    five arrays are read-only.
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

    def solver_counts(self) -> dict:
        """Accepted and rejected DOP853 steps and right-hand-side evaluations,
        summed over the solve's pieces.  These are the counts of a fresh
        solve; "reused" is how many of the accepted steps were taken from
        the profile's previous solve instead (0 for a fresh solve)."""
        pieces = [piece for _, _, piece in self.dense.pieces]
        return {
            "accepted": sum(p.accepted for p in pieces),
            "rejected": sum(p.rejected for p in pieces),
            "nfev": sum(p.nfev for p in pieces),
            "reused": self.dense.reused,
        }

    def residual_report(self) -> float:
        """Max of |d(w')/dr + b w| / (tol * (|b w| + 1)) on the dense output.

        This measures the interpolant that zeros, extrema and evaluate read:
        at the 8 Gauss-Legendre points inside every accepted step, with
        d(w')/dr from the derivative of the dense output's own polynomial.
        A step too narrow for float data to resolve that derivative is
        exempt.  With m the larger of |w| and
        |w'| at its two ends, a step of width h is exempt when
        64 eps m / h > tol; the last step of a piece that ends on an
        interior breakpoint, and the first step of the next piece, are also
        exempt when h < 9 rtol m / (0.7 tol), the solver's rtol floor.
        0.0 when every step is exempt.
        """
        pieces = self.dense.pieces
        cut = 9.0 * _solver_rtol(self.tol) / (0.7 * self.tol)
        return max(
            _dense_defect(self.profile, piece, self.tol,
                          cut if i > 0 else 0.0, cut if i < len(pieces) - 1 else 0.0)
            for i, (_, _, piece) in enumerate(pieces)
        )


def _non_finite(profile: CurvatureProfile, b: float, r: float) -> NonFiniteCoefficient:
    return NonFiniteCoefficient(f"profile {profile.label!r} evaluated to {b} at r = {r}")


def _checked_rhs(profile: CurvatureProfile):
    """(w', w'') = (y[1], -b(r) y[0]); NonFiniteCoefficient where b is NaN or inf.

    b is widened to a Python float, so the product is taken in float64
    whatever real type func returns, as it is when y is a float64 array.
    A piece's start (the first right-hand side and the initial-step probe)
    and a resumed piece's first node evaluate through it; _solve_piece's
    step loop performs the same operations inline.
    """
    func = profile.func

    def rhs(r, y):
        b = float(func(r))
        if not math.isfinite(b):
            raise _non_finite(profile, b, r)
        return (y[1], -b * y[0])

    return rhs


def _solver_rtol(tol) -> float:
    return max(1e-3 * tol, 2.5e-14)


def _solver_tolerances(tol, r_start, r_end, w0, w0p) -> tuple[float, float]:
    """(rtol, atol) of every DOP853 piece of integrate_sl."""
    scale = max(abs(w0), abs(w0p) * min(1.0, r_end - r_start), 1e-8)
    return _solver_rtol(tol), max(1e-11 * tol * scale, 1e-280)


def _solve_piece(profile, r_lo, r_hi, y0, rtol, atol, prefix=None) -> _StackedDop853:
    """DOP853 from y0 at r_lo to r_hi, with its dense output.

    The start is DOP853's: the first right-hand side at r_lo and
    dop853.initial_step, two evaluations.  With dop853's tableau the loop
    below repeats scipy's _step_impl, rk_step, _estimate_error_norm and
    _dense_output_impl operation for operation.  A non-finite y0 raises
    DOP853's ValueError (integrate_sl refuses a non-finite start before
    that); rtol must be at least 100 eps, as integrate_sl's always is,
    since DOP853 would raise it with a warning.  Every stage, weight,
    error and interpolant sum is an np.dot (as ndarray.dot, the same call)
    on the same array layout, and the elementwise steps run in float
    arithmetic, so the nodes, states and dense output are bit-identical to
    solve_ivp(method="DOP853", dense_output=True).  Each right-hand side
    is evaluated inline, as _checked_rhs does: profile.func is called once
    with the stage radius as a Python float (the same value as scipy's
    float64), widened with float() and checked finite.  Raises
    StepUnderflow where scipy stops with "Required step size is less than
    spacing between numbers", naming the radius and the piece.

    prefix is an earlier solve of this piece from the same r_lo, y0, rtol
    and atol to another end, or None.  The loop takes the leading steps
    that this solve would repeat (prefix.shared_steps) and enters at the
    node after them with the proposed step and rejection count stored
    there and the right-hand side evaluated there again, so the result is
    bit-identical to a solve without a prefix.
    """
    rhs = _checked_rhs(profile)
    func, isfinite = profile.func, math.isfinite
    r_lo, r_hi, rtol, atol = float(r_lo), float(r_hi), float(rtol), float(atol)
    n, A, C, D = dop853.N_STAGES, dop853.A, dop853.C.tolist(), dop853.D
    K = np.empty((dop853.N_STAGES_EXTENDED, 2))  # one (w', w'') row per stage
    Kf = K.reshape(-1)  # the same memory, written one float at a time
    stages = [(2 * s, K[:s].T, A[s, :s], C[s]) for s in range(1, n)]
    extra = [(2 * s, K[:s].T, a[:s], c) for s, (a, c) in
             enumerate(zip(dop853.A_EXTRA, dop853.C_EXTRA.tolist()), start=n + 1)]
    KB, B = K[:n].T, dop853.B
    KE, E3, E5 = K[:n + 1].T, dop853.E3, dop853.E5
    exponent = dop853.ERROR_EXPONENT
    scale = np.empty(2)

    t = r_lo
    w, wp = float(y0[0]), float(y0[1])
    if not (isfinite(w) and isfinite(wp)):  # DOP853's check; NaN steps never end
        raise ValueError("All components of the initial state `y0` must be finite.")
    f, fp = rhs(t, (w, wp))
    h_abs = dop853.initial_step(rhs, t, (w, wp), (f, fp), r_hi, rtol, atol)
    ts, y_olds, F_low, F_high = [t], [], [], []
    h_next, rejected_steps, nfev = [h_abs], [], 2
    j = 0 if prefix is None else prefix.shared_steps(h_abs, r_hi)
    if j:  # enter the loop at node j of the prefix
        ts, h_next = prefix.ts[:j + 1].tolist(), prefix.h_next[:j + 1].tolist()
        y_olds = prefix.y_old[:j].ravel().tolist()
        rejected_steps = prefix.rejected_steps[prefix.rejected_steps < j].tolist()
        t, h_abs = ts[-1], h_next[-1]
        w, wp = prefix.y_old[j].tolist() if j < prefix.accepted else prefix.y_end
        f, fp = rhs(t, (w, wp))  # as the step that ended at node j evaluated it
        nfev += n * (j + len(rejected_steps)) + len(extra) * j
    while t < r_hi:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:  # rk_step until the error estimate accepts the step
            if h_abs < min_step:
                raise StepUnderflow(
                    f"DOP853 step fell below {min_step!r} at r = {t!r} after "
                    f"{len(ts) - 1} accepted steps on the piece [{r_lo!r}, {r_hi!r}] "
                    f"of profile {profile.label!r}"
                )
            t_new = t + h_abs
            if t_new - r_hi > 0:
                t_new = r_hi
            h = t_new - t
            h_abs = abs(h)

            Kf[0], Kf[1] = f, fp
            for i, KT, a, c in stages:
                d, dp = KT.dot(a).tolist()
                r = t + c * h
                b = float(func(r))
                if not isfinite(b):
                    raise _non_finite(profile, b, r)
                Kf[i], Kf[i + 1] = wp + dp * h, -b * (w + d * h)
            d, dp = KB.dot(B).tolist()
            w_new, wp_new = w + h * d, wp + h * dp
            b = float(func(t_new))
            if not isfinite(b):
                raise _non_finite(profile, b, t_new)
            f_new, fp_new = Kf[2 * n], Kf[2 * n + 1] = wp_new, -b * w_new
            nfev += n

            scale[0] = atol + max(abs(w), abs(w_new)) * rtol
            scale[1] = atol + max(abs(wp), abs(wp_new)) * rtol
            err = KE.dot(E5) / scale  # np.linalg.norm(err) ** 2, as scipy takes it
            err5_norm_2 = math.sqrt(err.dot(err)) ** 2
            err = KE.dot(E3) / scale
            err3_norm_2 = math.sqrt(err.dot(err)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                # 0 / 0 when 0.01 * err3_norm_2 underflows: NaN, as scipy's
                # numpy floats give, so the step is rejected
                error_norm = _ieee_div(abs(h) * err5_norm_2, math.sqrt(denom * 2))

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** exponent)
            step_rejected = True
            rejected_steps.append(len(ts) - 1)

        # _dense_output_impl: three extra stages, then the coefficients F
        for i, KT, a, c in extra:
            d, dp = KT.dot(a).tolist()
            r = t + c * h
            b = float(func(r))
            if not isfinite(b):
                raise _non_finite(profile, b, r)
            Kf[i], Kf[i + 1] = wp + dp * h, -b * (w + d * h)
        nfev += len(extra)
        dw, dwp = w_new - w, wp_new - wp
        F_low.extend((dw, dwp, h * f - dw, h * fp - dwp,
                      2 * dw - h * (f_new + f), 2 * dwp - h * (fp_new + fp)))
        F_high.append(D.dot(K))
        y_olds.extend((w, wp))
        ts.append(t_new)
        h_next.append(h_abs)
        t, w, wp, f, fp = t_new, w_new, wp_new, f_new, fp_new
    # scipy's h * D.dot(K), one step's h to each step's block
    F_high = np.array(F_high).reshape(-1, len(D), 2) * np.diff(ts[j:])[:, None, None]
    F = np.concatenate([np.array(F_low).reshape(-1, 3, 2), F_high], axis=1)
    F = F.transpose(1, 0, 2)[::-1]  # (power, segment, state), highest power first
    F = np.concatenate([prefix.F[:, :j], F], axis=1) if j else F.copy()
    return _StackedDop853(ts, y_olds, F, (w, wp), nfev, h_next, rejected_steps, j)


_EPS = float(np.finfo(float).eps)
_LEGGAUSS = np.polynomial.legendre.leggauss(8)
#: 8-point Gauss-Legendre nodes and weights on [0, 1]
_GAUSS_X, _GAUSS_W = 0.5 * (1.0 + _LEGGAUSS[0]), 0.5 * _LEGGAUSS[1]


def _dense_defect(profile, piece, tol, floor_first, floor_last) -> float:
    """Max normalised ODE defect of one piece's dense output (residual_report).

    Measures the steps that are not exempt; the first and last step are
    also exempt below floor_first and floor_last times m.  The derivative runs alongside _StackedDop853's recurrence:
    y <- (y + f) g and dy <- dy g +- (y + f), with g = x or 1 - x.
    """
    y0 = piece.y_old
    y1 = np.vstack([y0[1:], piece.y_end])
    m = np.maximum(np.abs(y0).max(axis=1), np.abs(y1).max(axis=1))
    h = piece.h
    keep = 64.0 * _EPS * m <= tol * h
    keep[0] &= h[0] >= floor_first * m[0]
    keep[-1] &= h[-1] >= floor_last * m[-1]
    seg = np.flatnonzero(keep)
    if not len(seg):
        return 0.0
    x = _GAUSS_X[:, None]
    y = np.zeros((len(seg), len(x), 2))
    dy = np.zeros_like(y)
    for i, f in enumerate(piece.F):
        y += f[seg][:, None, :]
        if i % 2:
            dy = dy * (1 - x) - y
            y *= 1 - x
        else:
            dy = dy * x + y
            y *= x
    hs = h[seg][:, None]
    w = y[..., 0] + y0[seg, :1]
    bw = profile.values(piece.t_old[seg][:, None] + _GAUSS_X * hs) * w
    return float((np.abs(dy[..., 1] / hs + bw) / (tol * (np.abs(bw) + 1.0))).max())


def _brentq(f, a, b, xtol, maxiter=100):
    """scipy.optimize.brentq(f, a, b, xtol=xtol, maxiter=maxiter) at its
    default rtol of 4 eps, ported from scipy's brentq.c and its Python wrapper.

    f is called at the same Python floats in the same order and the root
    has the same bits; the refusals are scipy's, with its messages: a NaN
    value of f (ValueError, raised at once), f(a) and f(b) of one sign
    (ValueError) and no convergence within maxiter iterations
    (RuntimeError).  An exact zero of f(a), then of f(b), is returned
    before the signs are compared.  xtol must be positive and maxiter
    >= 0; scipy's ValueErrors for other values are not repeated.
    """
    rtol = 4 * _EPS

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur, xtol = float(a), float(b), float(xtol)  # C doubles
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; only the product dblk * dpre can round to 0
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre),
                                 dblk * dpre * (fblk - fpre))
            short = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < short else short):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _ieee_div(x: float, y: float) -> float:
    """x / y with C's result for y == 0 (inf or NaN) where Python raises."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0 or math.isnan(x):
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _polish_zeros(fun, grid, vals, tol, lo_open):
    """Bracketed sign changes of vals refined on fun; skips the open left end.

    An interval [i, i + 1] counts when vals[i] != 0 and either
    vals[i + 1] == 0 (that node is the event) or the two lie on different
    sides of 0, with NaN counted as not positive.  With lo_open the
    leading |vals| < 1e-300 are skipped.
    """
    vals = np.asarray(vals)
    start = 0
    if lo_open:
        tiny = np.abs(vals) < _TINY_SIGN
        start = len(vals) if tiny.all() else int(np.argmin(tiny))
    a, b = vals[start:-1], vals[start + 1:]
    pos = vals[start:] > 0
    hits = np.flatnonzero((a != 0.0) & ((b == 0.0) | (pos[:-1] != pos[1:]))) + start
    out = []
    for i in hits.tolist():
        if vals[i + 1] == 0.0:
            out.append(grid[i + 1])
            continue
        xtol = 0.25 * tol * max(1.0, grid[i + 1])
        out.append(_brentq(fun, grid[i], grid[i + 1], xtol))
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

    tol in [1e-13, 1e-3] sets the solver tolerances and the ODE-defect
    bound that residual_report() checks; zeros are located to
    |dr| <= tol * max(1, r).  The profile is split at its interior
    breakpoints so coefficient jumps never sit inside a solver step.  The
    stored grid is the accepted solver nodes of every piece; zeros and
    extrema are bracketed on it and polished on the dense output.

    The arguments are taken as floats.  The profile keeps the trajectory of
    its last solve: the same arguments again, compared exactly and sign
    included, return that trajectory; any other arguments solve and replace
    it.  A solve that raises leaves the memo as it was.  When only r_end
    differs and the solver tolerances are the same, the solve continues
    from the stored one: pieces with both ends unchanged are taken whole,
    the first piece whose end moved resumes inside _solve_piece from its
    stored steps, and later pieces are solved afresh.  The result is
    bit-identical to a fresh solve; solver_counts()["reused"] counts the
    steps taken over.
    """
    if not all(map(math.isfinite, (r_start, r_end, w0, w0p))):
        raise DomainMismatch(f"need finite (r_start, r_end, w0, w0p), "
                             f"got ({r_start}, {r_end}, {w0}, {w0p})")
    if not r_start < r_end:
        raise DomainMismatch(f"need r_start < r_end, got [{r_start}, {r_end}]")
    if not 1e-13 <= tol <= 1e-3:
        raise DomainMismatch(f"tol must lie in [1e-13, 1e-3], got {tol}")
    if r_start < profile.r_min:
        raise DomainMismatch(
            f"profile {profile.label!r} starts at r_min = {profile.r_min} > {r_start}"
        )
    r_start, w0, w0p, r_end, tol = map(float, (r_start, w0, w0p, r_end, tol))
    key = tuple(v.hex() for v in (r_start, w0, w0p, r_end, tol))  # -0.0 != 0.0
    memo = profile._solves
    if key in memo:
        return memo[key]

    cuts = [r_start]
    cuts += [b for b in sorted(set(profile.breakpoints)) if r_start < b < r_end]
    cuts.append(r_end)
    rtol, atol = _solver_tolerances(tol, r_start, r_end, w0, w0p)
    earlier = ()  # the pieces of a stored solve that differs only in r_end
    for old_key, old in memo.items():
        if (old_key[:3] + old_key[4:] == key[:3] + key[4:]
                and _solver_tolerances(tol, r_start, old.r_end, w0, w0p) == (rtol, atol)):
            earlier = old.dense.pieces

    pieces, reused = [], 0
    y = (w0, w0p)
    for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        old = earlier[i] if i < len(earlier) else None
        if old is not None and old[:2] == (lo, hi):
            piece = old[2]
            reused += piece.accepted
        else:
            piece = _solve_piece(profile, lo, hi, y, rtol, atol,
                                 None if old is None else old[2])
            reused += piece.reused
            earlier = ()
        pieces.append((lo, hi, piece))
        y = piece.y_end

    dense = _PiecewiseDense(pieces, reused)
    grid = np.unique(np.concatenate([piece.ts for _, _, piece in pieces]))
    w, wp = dense(grid)

    zeros = _polish_zeros(lambda r: dense(r)[0], grid, w, tol, lo_open=(w0 == 0.0))
    extrema = _polish_zeros(lambda r: dense(r)[1], grid, wp, tol, lo_open=(w0p == 0.0))
    for arr in (grid, w, wp, zeros, extrema):
        arr.setflags(write=False)

    traj = SLTrajectory(
        profile=profile,
        grid=grid,
        w=w,
        wp=wp,
        zeros=zeros,
        extrema=extrema,
        r_start=r_start,
        r_end=r_end,
        tol=tol,
        dense=dense,
    )
    memo.clear()
    memo[key] = traj
    return traj


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


def _gauss(f, lo, hi):
    """The 8-point Gauss-Legendre rule on each interval [lo[i], hi[i]], with
    one call of f on all the nodes: (int f, int |f|) per interval."""
    h = hi - lo
    nodes = lo[:, None] + h[:, None] * _GAUSS_X
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return vals.dot(_GAUSS_W) * h, np.abs(vals).dot(_GAUSS_W) * h


def quad(f, edges, rtol: float) -> float:
    """int f dr over [edges[0], edges[-1]] by the 8-point Gauss-Legendre rule,
    each interval between consecutive edges taken whole and as its two
    halves.

    f is called with the float array of the nodes (_GAUSS_X on each
    interval and half, never an edge) and must return an array of the
    same shape.  The rule is exact for polynomials of degree <= 15, so
    edges belong where f is not smooth: at a coefficient's breakpoints
    and, along a trajectory, at its solver nodes, between which the dense
    output is a polynomial.  An interval whose halves sum to within
    rtol * int |f| of the whole contributes its halves; the others are
    split into their halves and taken again, at most QUAD_LEVELS times.
    So a smooth f is one call, and each further pass is one more.
    index_form and bifurcator.abresch_checks look the rule up as their
    module's global quad, the name bench/tracing.py wraps in each module.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    total = 0.0
    for level in range(QUAD_LEVELS):
        n, mid = len(lo), 0.5 * (lo + hi)
        part, size = _gauss(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
        halves = part[n:2 * n] + part[2 * n:]
        bad = np.abs(halves - part[:n]) > rtol * (size[n:2 * n] + size[2 * n:])
        if level == QUAD_LEVELS - 1 or not bad.any():
            return float(total + halves.sum())
        total += halves[~bad].sum()
        lo, hi = np.concatenate([lo[bad], mid[bad]]), np.concatenate([mid[bad], hi[bad]])


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
    The integrand is summed by quad on the trajectory's accepted solver
    steps, split again at the breakpoints of ric inside (r_start, r_end),
    to the solver's rtol: between two nodes the dense output is a
    polynomial of degree 7, so (y')^2 is integrated exactly, and ric, read
    with ric.values, is read only strictly inside the intervals, never
    across a jump; a step where ric is not smooth is halved.
    """
    y = inp.y
    if inp.ric.r_min > y.r_start:
        raise DomainMismatch(
            f"ric profile starts at {inp.ric.r_min}, needed from {y.r_start}"
        )
    cuts = [x for x in inp.ric.breakpoints if y.r_start < x < y.r_end]

    def integrand(r):
        w, wp = y.evaluate(r)
        return (inp.n - 1) * wp**2 - inp.ric.values(r) * w**2

    return quad(integrand, np.union1d(y.grid, cuts), _solver_rtol(y.tol))


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
) -> PiconeReport:
    """Check the comparison identity between the solutions of b and c (c >= b).

    Both solutions start from the same origin_start data, at the later of
    the two profiles' starts.
    I(r) accumulates int (c - b) w^2 plus int ((w' y - w y')/y)^2 by composite
    Simpson, PICONE_PANELS panels per segment, with panel edges pinned to
    the profiles' breakpoints so jumps in c - b never sit inside a panel;
    the reported residual is the max over
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
        rs = np.linspace(lo, hi, 2 * PICONE_PANELS + 1)
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

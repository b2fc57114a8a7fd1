"""The three seeded workloads: input generation, the program calls of one op,
and the oracle each op is checked against.

Each workload hands the runner one *rotation* at a time: a fixed sequence of
op kinds whose continuous parameters are drawn from the rotation's own
random generator, plus ``u``, the rotation's term of a seeded golden-ratio
sequence, for op kinds that occur once per rotation (its terms spread
evenly over [0, 1) for any number of rotations).  Every rotation has the
same mix, so a run that stops on a rotation boundary always measures the
same blend of op kinds, and no input repeats within or across runs of one
seed.  Oracles are computed while the rotation is generated, outside the
timed region.

``run(op)`` makes only public slboundary calls, the way a batch script would;
``check(op, out)`` returns (ok, oracle deviation or None, reason).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from slboundary import bifurcator, closed_form, kick, planar, sl_engine, surfaces
from slboundary.closed_form import KickSpec
from slboundary.errors import NoSecondZero
from slboundary.sl_engine import CurvatureProfile


def _strata(rng, n, dims):
    """n points in [0, 1)^dims, one per bin of width 1/n along every axis
    (a Latin hypercube).  Stratified draws keep each rotation's cost close
    to the average, so metrics vary little from seed to seed."""
    return ((np.argsort(rng.random((dims, n)), axis=1) + rng.random((dims, n))) / n).T


def _lin(u, lo, hi):
    return lo + (hi - lo) * u


def _log(u, lo, hi):
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# kick-certify: the sl_engine write path (DOP853, grid refinement, Brent
# polishing) driven by the closed_form coefficient kernel.

R0_RANGE = {0: (0.5, 5.0), 1: (1.5, 6.0), 2: (3.5, 12.0)}  # r0 > superpower(k)
R1_CAP = 1e6  # shells are drawn so the oracle second zero lies below this
R_MAX_FACTOR = 4.0  # r_max = R_MAX_FACTOR * r1 (R_MAX_FACTOR * R1_CAP below threshold)
KICK_TOLS = (1e-9, 1e-11)


@dataclass(frozen=True)
class KickOp:
    spec: KickSpec
    tol: float
    r_max: float
    r1: Optional[float]  # oracle second zero; None below threshold
    ratio: float  # mu / lambda_log

    def describe(self):
        s = self.spec
        return (f"k={s.k} r0={s.r0:.6g} a={s.a:.6g} b={s.b:.6g} mu/lambda={self.ratio:.4g} "
                f"tol={self.tol:g} r_max={self.r_max:.6g}")


def kick_oracle_r1(spec: KickSpec) -> Optional[float]:
    """First zero beyond r0 of the closed-form kicked solution, or None past the cap.

    k = 0 uses second_zero_closed_form through the scaling law
    r1(r0, a, b) = r0 r1(1, a/r0, b/r0); k >= 1 brackets the first sign
    change of log_kick_solution beyond a (the inner branch is positive on
    (r0, a]) and polishes it with brentq.
    """
    if spec.k == 0:
        unit = KickSpec(1.0, spec.a / spec.r0, spec.b / spec.r0, spec.mu, 0)
        try:
            r1 = spec.r0 * closed_form.second_zero_closed_form(unit)
        except NoSecondZero:
            return None
        return r1 if r1 <= R1_CAP else None
    rs = np.geomspace(spec.a, 1.5 * R1_CAP, 4000)
    vals = closed_form.log_kick_solution(spec, rs)
    neg = np.nonzero(vals <= 0.0)[0]
    if not len(neg):
        return None
    i = int(neg[0])
    if vals[i] == 0.0:
        r1 = float(rs[i])
    else:
        r1 = brentq(lambda r: closed_form.log_kick_solution(spec, r), rs[i - 1], rs[i],
                    xtol=1e-15 * spec.a, rtol=4 * np.finfo(float).eps, maxiter=200)
    return r1 if r1 <= R1_CAP else None


def _kick_op(rng, u, k: int, tol: float, above: bool) -> KickOp:
    """Shell from the uniforms u; redrawn (unstratified) while r1 exceeds the cap."""
    while True:
        r0 = _log(u[0], *R0_RANGE[k])
        a = r0 * _log(u[1], 1.5, 10.0)
        b = a * _log(u[2], 2.0, 10.0)
        ratio = _lin(u[3], 1.05, 3.0) if above else _lin(u[3], 0.5, 0.95)
        spec = KickSpec(r0, a, b, ratio * kick.lambda_log(k, r0, a, b), k)
        if not above:
            return KickOp(spec, tol, R_MAX_FACTOR * R1_CAP, None, ratio)
        r1 = kick_oracle_r1(spec)
        if r1 is not None:
            return KickOp(spec, tol, R_MAX_FACTOR * r1, r1, ratio)
        u = rng.random(4)


class KickCertify:
    name = "kick-certify"
    imports = ("slboundary.kick",)
    tail_percentile = 90  # 110-200 ops per 25 s run

    @staticmethod
    def rotation(rng, u):
        """12 shells above threshold (each depth and tol twice), 3 below (1 in 5)."""
        above, below = iter(_strata(rng, 12, 4)), iter(_strata(rng, 3, 4))
        ops = []
        for k in (0, 1, 2):
            for tol in KICK_TOLS:
                ops.append(_kick_op(rng, next(above), k, tol, above=True))
                ops.append(_kick_op(rng, next(above), k, tol, above=True))
            ops.append(_kick_op(rng, next(below), k, KICK_TOLS[k % 2], above=False))
        return ops

    @staticmethod
    def run(op: KickOp):
        return kick.certify(kick.kicked_profile(op.spec), 2, op.spec, op.r_max, tol=op.tol)

    @staticmethod
    def check(op: KickOp, cert):
        if op.r1 is None:
            if cert.verdict != "Inconclusive":
                return False, None, f"sub-threshold shell certified {cert.verdict}"
            return True, None, ""
        if cert.verdict != "Compact":
            return False, None, f"verdict {cert.verdict}: {cert.reason}"
        err = abs(cert.r1 - op.r1) / op.r1
        if not err <= 1e3 * op.tol:
            return False, err, f"r1 {cert.r1!r} vs oracle {op.r1!r}"
        if cert.diameter_bound != 2.0 * cert.r1:
            return False, err, f"diameter_bound {cert.diameter_bound!r} != 2 r1"
        return True, err, ""


# ---------------------------------------------------------------------------
# bifurcator-compare: the sl_engine read path (evaluate inside quad, Picone
# sampling), the surfaces profile build and the bifurcator quadratures.
# closed_form and kick are not touched.

ARCTAN_R_MAX = 1e4
ARCTAN_GRID = np.geomspace(1e-2, ARCTAN_R_MAX, 200)
PICONE_LIMIT = 1e-7


def _bump(x):
    """Smooth bump supported on (-1, 1) with peak 1 at 0."""
    if np.ndim(x) == 0:
        return math.exp(-x * x / (1.0 - x * x)) if abs(x) < 1.0 else 0.0
    inside = np.abs(x) < 1.0
    t = np.where(inside, x, 0.0)
    return np.where(inside, np.exp(-t * t / (1.0 - t * t)), 0.0)


def scaled_arctan(s: float) -> CurvatureProfile:
    """b_s(r) = s^2 b(s r) for the arctan bifurcator b; solution arctan(s r) / s."""
    base = bifurcator.arctan_profile().func
    return CurvatureProfile(func=lambda r: s * s * base(s * r), r_min=0.0,
                            label=f"arctan[s={s:.6g}]")


def defect_gated(traj: sl_engine.SLTrajectory) -> bool:
    """Whether a trajectory must meet residual_report() <= 1.

    Grid refinement meets that bound on the scaled arctan profiles at
    tol >= 1e-9.  It stops short of it (a program defect) on about 1 % of
    the kicked shells at tol 1e-9, on every one at 1e-11, on the bumped
    comparison profile, and at tol 1e-10 on every profile, so those
    trajectories are reported (sl_engine.defect_max_ungated), not gated.
    """
    label = traj.profile.label
    return traj.tol >= 1e-9 and label.startswith("arctan[s=") and label.endswith("]")


def bumped(b: CurvatureProfile, height: float, centre: float, width: float) -> CurvatureProfile:
    return CurvatureProfile(
        func=lambda r: b.func(r) + height * _bump((r - centre) / width),
        r_min=b.r_min, label=f"{b.label}+bump")


def scaled(c: CurvatureProfile, factor: float) -> CurvatureProfile:
    return CurvatureProfile(func=lambda r: factor * c.func(r), r_min=c.r_min,
                            label=f"{factor:g}*{c.label}")


@dataclass(frozen=True)
class BifOp:
    kind: str  # "cylinder" | "paraboloid" | "arctan" | "comparison"
    r_max: float
    tol: float
    cap_rho: float = 0.0
    s: float = 1.0
    height: float = 0.0
    centre: float = 0.0
    exact: Optional[np.ndarray] = None  # arctan(s r) / s on ARCTAN_GRID

    def describe(self):
        extra = {"cylinder": f"cap_rho={self.cap_rho:.6g}", "paraboloid": "",
                 "arctan": f"s={self.s:.6g}",
                 "comparison": f"s={self.s:.6g} height={self.height:.6g} centre={self.centre:.6g}"}
        return f"{self.kind} {extra[self.kind]} r_max={self.r_max:.6g} tol={self.tol:g}"


def _cylinder(u):
    # The meridian Jacobi field is w ~ 1 - 1/r, so the dyadic Cauchy tail
    # w(R) - w(R/2) ~ 1/R sits exactly on classify's 1e-4 tail tolerance at
    # R = 1e4 and the verdict flips with cap_rho.  R = 2e4 halves the tail.
    return BifOp("cylinder", 2e4, 1e-10, cap_rho=_lin(u, 0.03, 0.08))


def _paraboloid(u):
    return BifOp("paraboloid", _log(u, 2e3, 1e4), 1e-10)


def _arctan(u, tol):
    s = _log(u[0], 1.0, 4.0)
    return BifOp("arctan", ARCTAN_R_MAX, tol, s=s, exact=np.arctan(s * ARCTAN_GRID) / s)


def _comparison(u):
    s = _log(u[0], 1.0, 4.0)
    return BifOp("comparison", 1e3 / s, 1e-9, s=s, height=_lin(u[1], 0.2, 1.0) * s * s,
                 centre=_lin(u[2], 1.5, 3.0) / s)


class BifurcatorCompare:
    name = "bifurcator-compare"
    imports = ("slboundary.bifurcator", "slboundary.surfaces")
    tail_percentile = 75  # 40-70 ops per 25 s run

    @staticmethod
    def rotation(rng, u):
        """A capped cylinder, a paraboloid, three scaled-arctan and five comparison
        ops; the comparison ops are the middle of the cost range, so the
        median op is a comparison op for every seed."""
        cmp = [_comparison(u) for u in _strata(rng, 5, 3)]
        arc = [_arctan(u, tol) for u, tol in zip(_strata(rng, 3, 1), (1e-9, 1e-10, 1e-9))]
        return [_cylinder(u), cmp[0], arc[0], cmp[1], _paraboloid((u + 0.5) % 1.0),
                cmp[2], arc[1], cmp[3], arc[2], cmp[4]]

    @staticmethod
    def run(op: BifOp):
        if op.kind in ("cylinder", "paraboloid"):
            surf = (surfaces.capped_cylinder(op.cap_rho) if op.kind == "cylinder"
                    else surfaces.paraboloid())
            prof = surfaces.curvature_profile(surf, np.geomspace(0.1, 1.1 * op.r_max, 16))
            return (bifurcator.classify(prof, r_max=op.r_max, tol=op.tol),
                    bifurcator.abresch_checks(prof, r_max=op.r_max, tol=op.tol))
        b = scaled_arctan(op.s)
        if op.kind == "arctan":
            rep = bifurcator.classify(b, r_max=op.r_max, tol=op.tol)
            abresch = bifurcator.abresch_checks(b, r_max=op.r_max, tol=op.tol)
            traj = sl_engine.integrate_sl(b, 0.0, 0.0, 1.0, op.r_max, op.tol)
            return rep, abresch, traj.evaluate(ARCTAN_GRID)[0]
        c = bumped(b, op.height, op.centre, 0.5 / op.s)
        verdict = bifurcator.boundary_test(b, c, r_max=op.r_max, tol=op.tol)
        if verdict.verdict != "CompactSide":
            return verdict, None, None
        r1 = verdict.second_zero
        traj = sl_engine.integrate_sl(c, 0.0, 0.0, 1.0, r1, op.tol)
        index = sl_engine.index_form(sl_engine.IndexFormInput(n=2, y=traj, ric=scaled(c, 1.01)))
        picone = sl_engine.picone_residual(b, c, 0.9 * r1, op.tol)
        return verdict, index, picone

    @staticmethod
    def check(op: BifOp, out):
        if op.kind in ("cylinder", "arctan"):
            # Both profiles decay like r^-4 with a bounded Jacobi field, so
            # the moment integral converges and the second solution grows.
            abresch = out[1]
            if not (abresch.moment_converged and abresch.independent_diverges):
                return False, None, (f"abresch_checks: moment_converged {abresch.moment_converged}, "
                                     f"independent_diverges {abresch.independent_diverges}")
        if op.kind == "cylinder":
            rep = out[0]
            if rep.classification != bifurcator.CLASS_BIFURCATOR:
                return False, None, f"classified {rep.classification}: {rep.detail}"
            err = abs(rep.w_limit - 1.0)  # the meridian Jacobi field is the parallel radius
            return err <= 1e-5, err, "" if err <= 1e-5 else f"w_limit {rep.w_limit!r} vs 1"
        if op.kind == "paraboloid":
            rep = out[0]
            if rep.classification == bifurcator.CLASS_BIFURCATOR:
                return False, None, "paraboloid classified Bifurcator (K r^2 -> 1/4)"
            return True, None, ""
        if op.kind == "arctan":
            rep, _, w = out
            if rep.classification != bifurcator.CLASS_BIFURCATOR:
                return False, None, f"classified {rep.classification}: {rep.detail}"
            limit = math.pi / (2.0 * op.s)
            err = max(abs(rep.w_limit - limit), float(np.max(np.abs(w - op.exact)))) / limit
            ok = err <= 1e3 * op.tol
            return ok, err, "" if ok else f"relative deviation {err:.3g} from arctan(s r)/s"
        verdict, index, picone = out
        if verdict.verdict != "CompactSide":
            return False, None, f"boundary_test {verdict.verdict}: {verdict.detail}"
        if not index < 0.0:
            return False, None, f"index form {index!r} not negative for ric = 1.01 c"
        ok = picone.residual <= PICONE_LIMIT
        return ok, picone.residual, "" if ok else f"Picone residual {picone.residual:.3g}"


# ---------------------------------------------------------------------------
# planar-sweep: numpy reconstruction plus the pure-Python spatial hash; no
# ODE solve, so sl_engine, closed_form and surfaces are not touched.

PLANAR_ROTATION = 8


def _bump_integral() -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quad(lambda s: math.exp(-s * s / (1.0 - s * s)), -1.0, 1.0,
                    epsabs=1e-14, epsrel=1e-14, limit=200)[0]


BUMP_INTEGRAL = _bump_integral()  # ~1.20690


def _parabola_arclength(k, x):
    return 0.5 * (x * math.sqrt(1.0 + 4.0 * k * k * x * x) + math.asinh(2.0 * k * x) / (2.0 * k))


@dataclass(frozen=True)
class PlanarOp:
    k: float
    t: float
    window: float
    step: float
    turn: float  # oracle total turning angle

    def describe(self):
        return f"k={self.k:.6g} t={self.t:+.6g} window={self.window:.6g} step={self.step:.6g}"


def _planar_op(u):
    t = _lin(u[0], -0.3, 0.3)
    k = _log(u[1], 5.0, 40.0)
    window = _lin(u[2], 40.0, 100.0)
    step = _log(u[3], 0.004, 0.01)
    x_w = brentq(lambda x: _parabola_arclength(k, x) - window, 0.0, window,
                 xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return PlanarOp(k, t, window, step, 2.0 * math.atan(2.0 * k * x_w) + t * BUMP_INTEGRAL)


class PlanarSweep:
    name = "planar-sweep"
    imports = ("slboundary.planar",)
    tail_percentile = 95  # 200-320 ops per 25 s run

    @staticmethod
    def rotation(rng, u):
        return [_planar_op(v) for v in _strata(rng, PLANAR_ROTATION, 4)]

    @staticmethod
    def run(op: PlanarOp):
        def kappa(s):
            s = np.asarray(s, dtype=float)
            return planar.parabola_curvature(op.k, np.abs(s)) + op.t * planar.mollifier_bump(s)

        curve = planar.reconstruct(kappa, (-op.window, op.window), op.step)
        return curve, planar.self_intersects(curve)

    @staticmethod
    def check(op: PlanarOp, out):
        curve, hit = out
        turn = curve.total_turn()
        err = abs(turn - op.turn) / op.turn
        # Simpson on a curvature peak of width ~1/k: error ~ (step k)^4.
        if not err <= 0.05 * (op.step * op.k) ** 4 + 1e-12:
            return False, err, f"total turn {turn!r} vs oracle {op.turn!r}"
        if turn < math.pi and hit is not None:
            # Turning range below pi: a graph over some direction, cannot cross itself.
            return False, err, f"turn {turn:.9g} < pi but crossing reported at {hit}"
        if hit is None and _crosses_axis(curve, 10.0 * op.step):
            return False, err, "right branch crosses the symmetry axis but no crossing reported"
        return True, err, ""


def _crosses_axis(curve, margin: float) -> bool:
    """Whether the s > 0 branch reaches past the curve's symmetry axis.

    kappa is even in s on a symmetric grid, so the curve is symmetric about
    the perpendicular bisector of its end chord.  A right branch that gets
    more than ``margin`` past that axis meets its mirror image, the left
    branch, on the axis: the curve must cross itself.
    """
    x, y = curve.x, curve.y
    ux, uy = x[-1] - x[0], y[-1] - y[0]
    side = ((x - 0.5 * (x[0] + x[-1])) * ux + (y - 0.5 * (y[0] + y[-1])) * uy) / math.hypot(ux, uy)
    right = side[curve.s > 0.0]
    return bool(right.max() > margin and right.min() < -margin)


WORKLOADS = {w.name: w for w in (KickCertify, BifurcatorCompare, PlanarSweep)}

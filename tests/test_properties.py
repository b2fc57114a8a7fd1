"""Property tests for the coefficient kernels, the DOP853 loop and the
stacked dense output.

Built-in profiles evaluate one float with a scalar kernel (the ODE
right-hand side) and arrays with a vector kernel; the two must agree and
must refuse the same inputs.  The arctan scalar kernel must give exactly
what the 0-d numpy path it replaced gave.  The DOP853 step loop repeats
scipy's stepping, so solve_ivp(method="DOP853", dense_output=True) is its
reference: the same nodes, end state, per-segment interpolation data and
typed errors, bit for bit, and the stacked evaluator against
OdeSolution.__call__.  A scipy release that changes its stepping fails
here, not in a certificate.  The loop's tableau must be DOP853's class
attributes, and its start (first right-hand side, initial step, two
evaluations) DOP853's own.  The bracket scan of _polish_zeros must make
the brentq calls of the node-by-node loop it replaced, in the same order,
and the Brent port must call f at the points scipy.optimize.brentq calls
it at and return or refuse as brentq does.

The closed-form second zero must match a bracket-and-brentq scan of the
kicked solution at depths 0-2, equal the old depth-0 formula bit for bit
at r0 = 1, obey the depth-0 scaling law and fall as the kick grows.  The
kick threshold must lie in (0, pi / (2 gap)] with the defining equation
changing sign within one ulp of it, on drawn shells at depths 0-2.
"""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from slboundary import closed_form as cf
from slboundary import dop853, kick
from slboundary import surfaces as sf
from slboundary.bifurcator import arctan_profile
from slboundary.errors import (DomainError, InvalidShell, NoSecondZero, NonFiniteCoefficient,
                               StepUnderflow)
from slboundary.sl_engine import (_TINY_SIGN, CurvatureProfile, _brentq, _checked_rhs,
                                  _polish_zeros, _solve_piece, _solver_tolerances, integrate_sl)

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def ulps(x, y):
    return abs(x - y) / np.spacing(max(abs(x), abs(y)))


def raised(fn, arg):
    """(type, message) of what fn(arg) raises, or None."""
    try:
        fn(arg)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return None


def arctan_reference(r):
    """The 0-d numpy body arctan_profile had before its float kernel (its
    overflow warnings silenced)."""
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = 2.0 * r / ((1.0 + r * r) ** 2 * np.arctan(r))
    out = np.where(r == 0.0, 2.0, out)
    return out if out.ndim else float(out)


def bits(x):
    return struct.pack("<d", x)


@st.composite
def kick_cases(draw):
    """A kick shell at depth k = 0, 1, 2 and a radius on its domain.

    The base point sits at least 1 beyond superpower(k): next to it the
    iterated logarithm is ill-conditioned, and a 1-ulp difference between
    math.log and numpy's log is magnified without bound.
    """
    k = draw(st.integers(0, 2))
    r0 = cf.superpower(k) + draw(st.floats(1.0, 20.0))
    a = r0 * draw(st.floats(1.0, 10.0))
    b = a * draw(st.floats(1.01, 10.0))
    mu = draw(st.floats(0.0, 5.0))
    spec = cf.KickSpec(r0, a, b, mu, k)
    r = draw(st.one_of(st.floats(r0, 1e9), st.sampled_from([r0, a, b])))
    return spec, r


@st.composite
def kicked(draw):
    """The kicked profile of a kick_cases shell and the radius."""
    spec, r = draw(kick_cases())
    return kick.kicked_profile(spec), r


def log_product_float(k, r):
    """The float log product the kicked scalar kernel took on the shell
    before it shared critical_decay's loop, kept as its reference."""
    if not r > cf.superpower(k):
        raise DomainError(f"log_product({k}, .) requires r > {cf.superpower(k)}")
    prod = cur = r
    for _ in range(k):
        cur = math.log(cur)
        prod = prod * cur
    return prod


def kicked_reference(spec, r):
    """critical_decay_float, plus mu^2 / log_product_float^2 on [a, b]."""
    base = cf.critical_decay_float(r, 0.0, spec.k)
    if spec.a <= r <= spec.b:
        lp = log_product_float(spec.k, r)
        return base + spec.mu**2 / (lp * lp)
    return base


@pytest.fixture(scope="module")
def surface_profiles():
    return [
        sf.curvature_profile(sf.capped_cylinder(), np.geomspace(0.1, 2e4, 16)),
        sf.curvature_profile(sf.paraboloid(), np.geomspace(0.1, 1e4, 16)),
    ]


class TestKickedKernels:
    @PROPS
    @given(kicked())
    def test_scalar_matches_vector(self, case):
        prof, r = case
        scalar = prof.func(float(r))
        vector = prof.func(np.array([r]))[0]
        assert isinstance(scalar, float)
        assert ulps(scalar, vector) <= 4.0

    @PROPS
    @given(st.integers(0, 2), st.one_of(
        st.floats(-1e3, 0.0), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, math.e]),
        st.floats(0.0, 1.0), st.floats(1.0, math.e)))
    def test_same_refusals(self, k, r):
        spec = cf.KickSpec(20.0, 30.0, 60.0, 1.0, k)
        prof = kick.kicked_profile(spec)
        lo = cf.superpower(k)
        want = raised(prof.func, np.array([r]))
        assert raised(prof.func, float(r)) == want
        if not (math.isfinite(r) and r > lo):
            assert want is not None and want[0] is DomainError

    @pytest.mark.parametrize("r", [1e-200, 1e200, 1e308])
    def test_extreme_radii_agree_without_warning(self, r):
        # the squares underflow to 0 or overflow to inf: the values are inf and 0
        for k in ([0] if r < 1.0 else [0, 1, 2]):
            prof = kick.equality_profile(k)
            assert prof.func(np.array([r]))[0] == prof.func(r) == (math.inf if r < 1.0 else 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equality_profile_matches_critical_decay(self, k):
        prof = kick.equality_profile(k)
        rs = np.geomspace(cf.superpower(k) + 1.0, 1e9, 500)
        vec = prof.func(rs)
        assert np.array_equal(vec, cf.critical_decay(rs, 0.0, k))
        assert max(ulps(prof.func(float(r)), v) for r, v in zip(rs, vec)) <= 4.0


class TestKickedScalarKernel:
    @PROPS
    @given(kick_cases(), st.floats(0.0, 1.0))
    def test_bit_identical_to_reference(self, case, frac):
        """The drawn radius (mostly off the shell) and one on [a, b]."""
        spec, r = case
        func = kick.kicked_profile(spec).func
        for x in (r, spec.a + frac * (spec.b - spec.a)):
            assert bits(func(x)) == bits(kicked_reference(spec, x)), x

    @PROPS
    @given(st.integers(0, 2), st.one_of(
        st.floats(-1e3, 0.0), st.floats(0.0, 1.0), st.floats(1.0, math.e),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, math.e])))
    def test_same_refusals_as_reference(self, k, r):
        spec = cf.KickSpec(20.0, 30.0, 60.0, 1.0, k)
        got = raised(kick.kicked_profile(spec).func, r)
        assert got == raised(lambda x: kicked_reference(spec, x), r)
        if not (math.isfinite(r) and r > cf.superpower(k)):
            assert got is not None and got[0] is DomainError


class TestSurfaceKernels:
    @PROPS
    @given(st.integers(0, 1), st.floats(0.0, 1.0))
    def test_scalar_matches_vector(self, surface_profiles, which, frac):
        prof = surface_profiles[which]
        r_top = 2e4 if which == 0 else 1e4
        r = frac * r_top
        scalar = prof.func(float(r))
        vector = prof.func(np.array([r]))[0]
        assert isinstance(scalar, float)
        assert abs(scalar - vector) <= 1e-12 * abs(vector)

    @PROPS
    @given(st.integers(0, 1), st.one_of(
        st.floats(-1e6, -1e-300), st.floats(3e4, 1e300),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])))
    def test_same_refusals(self, surface_profiles, which, r):
        prof = surface_profiles[which]
        want = raised(prof.func, np.array([r]))
        assert raised(prof.func, float(r)) == want
        if not 0.0 <= r <= 1e4:
            assert want is not None and want[0] is DomainError


class TestArctanKernel:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.one_of(
        st.floats(-1e300, 1e300), st.floats(1e77, 1e155), st.floats(-1e155, -1e77)))
    def test_scalar_equals_old_0d_path(self, seed, r):
        """Bit for bit, on the drawn radius, the edge cases and 1000 seeded radii.

        Between 1e77 and 1e155 Python's float ** overflows where r*r does
        not.  A kernel that rounds one operation differently (q*q for the
        square, math.atan) differs on ~0.1 % of radii, too rarely for one
        radius per example, hence the seeded batch.
        """
        rng = np.random.default_rng(seed)
        mags = np.concatenate([rng.uniform(0.0, 10.0, 500), np.exp(rng.uniform(-690, 690, 500))])
        batch = (mags * rng.choice([-1.0, 1.0], mags.size)).tolist()
        edges = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
        func = arctan_profile().func
        for x in [r, *edges, *batch]:
            scalar = func(x)
            assert isinstance(scalar, float)
            assert bits(scalar) == bits(arctan_reference(x)), x

    @PROPS
    @given(st.floats(-1e300, 1e300))
    def test_scalar_matches_vector(self, r):
        # Only (1 + r^2)^2 differs: pow for one float, numpy's square for an
        # array, at most 1 ulp apart; the quotient then moves by <= 3 ulp.
        prof = arctan_profile()
        scalar = prof.func(r)
        vector = prof.func(np.array([r]))[0]
        assert ulps(scalar, vector) <= 3.0


def reference_piece(prof, lo, hi, y0, rtol, atol):
    """scipy's own DOP853 solve of one piece: the reference for _solve_piece."""
    return solve_ivp(_checked_rhs(prof), (lo, hi), y0, method="DOP853",
                     dense_output=True, rtol=rtol, atol=atol)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_piece(piece, sol):
    """Nodes, end state, (t_old, h, y_old, F) per segment and counters."""
    assert sol.success
    segments = sol.sol.interpolants
    assert same_bits(piece.ts, sol.t)
    assert same_bits(piece.y_end, sol.y[:, -1])
    assert same_bits(piece.t_old, [s.t_old for s in segments])
    assert same_bits(piece.h, [s.h for s in segments])
    assert same_bits(piece.y_old, [s.y_old for s in segments])
    assert same_bits(piece.F, np.stack([s.F for s in segments], axis=1)[::-1])
    assert piece.accepted == len(sol.t) - 1
    assert piece.nfev == sol.nfev
    # two start evaluations, 12 per attempted step, 3 per dense segment
    assert sol.nfev == 2 + 12 * (piece.accepted + piece.rejected) + 3 * piece.accepted


@st.composite
def smooth_problems(draw):
    """A smooth profile split at drawn breakpoints, an interval, tol and a start."""
    kind = draw(st.sampled_from(["wave", "decay", "bump", "arctan"]))
    c = draw(st.floats(0.1, 4.0))
    if kind == "wave":
        amp, om = draw(st.floats(0.0, 0.9)), draw(st.floats(0.1, 3.0))
        prof = CurvatureProfile(func=lambda r: c * (1.0 + amp * np.sin(om * r)))
    elif kind == "decay":
        p = draw(st.floats(0.0, 3.0))
        prof = CurvatureProfile(func=lambda r: c / (1.0 + r) ** p)
    elif kind == "bump":
        m, d = draw(st.floats(0.0, 20.0)), draw(st.floats(0.1, 5.0))
        prof = CurvatureProfile(func=lambda r: c + d * np.exp(-((r - m) ** 2)))
    else:
        prof = arctan_profile()
    lo = draw(st.floats(0.0, 5.0))
    hi = lo + draw(st.floats(0.5, 1e3 if kind in ("decay", "arctan") else 40.0))
    cuts = draw(st.lists(st.floats(0.01, 0.99), max_size=3))
    prof = dataclasses.replace(prof, breakpoints=tuple(lo + f * (hi - lo) for f in cuts))
    tol = 10.0 ** draw(st.floats(-13.0, -3.0))
    w0, w0p = draw(st.sampled_from([(0.0, 1.0), (1.0, 0.0), (0.3, -2.0)]))
    return prof, lo, hi, tol, w0, w0p


class TestDop853Loop:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(smooth_problems())
    def test_bit_identical_to_solve_ivp(self, problem):
        """Every piece of integrate_sl against solve_ivp from the same start."""
        prof, lo, hi, tol, w0, w0p = problem
        traj = integrate_sl(prof, lo, w0, w0p, hi, tol)
        rtol, atol = _solver_tolerances(tol, lo, hi, w0, w0p)
        y = (w0, w0p)
        accepted = nfev = 0
        for piece_lo, piece_hi, piece in traj.dense.pieces:
            sol = reference_piece(prof, piece_lo, piece_hi, y, rtol, atol)
            assert_same_piece(piece, sol)
            accepted += len(sol.t) - 1
            nfev += sol.nfev
            y = sol.y[:, -1]
        assert len(traj.dense.pieces) == 1 + len(set(prof.breakpoints))
        counts = traj.solver_counts()
        assert (counts["accepted"], counts["nfev"]) == (accepted, nfev)

    def test_same_refusal_on_nan_tail(self):
        bad = CurvatureProfile(func=lambda r: float(np.sqrt(5.0 - r)), label="nan-tail")
        with np.errstate(invalid="ignore"):
            want = raised(lambda y0: reference_piece(bad, 0.0, 6.0, y0, 1e-12, 1e-20),
                          (0.0, 1.0))
            got = raised(lambda y0: _solve_piece(bad, 0.0, 6.0, y0, 1e-12, 1e-20),
                         (0.0, 1.0))
        assert want is not None and want[0] is NonFiniteCoefficient
        assert got == want

    def test_float32_coefficient_taken_in_float64(self):
        """scipy multiplies b by a float64 array entry; the loop's float
        state must not let a float32 b round the product to float32."""
        prof = CurvatureProfile(func=lambda r: np.float32(1.3) * np.float32(1 + 0.5 * math.sin(r)))

        def unwidened_rhs(r, y):
            return (y[1], -prof.func(r) * y[0])

        sol = solve_ivp(unwidened_rhs, (0.0, 20.0), (0.0, 1.0), method="DOP853",
                        dense_output=True, rtol=1e-6, atol=1e-14)
        assert_same_piece(_solve_piece(prof, 0.0, 20.0, (0.0, 1.0), 1e-6, 1e-14), sol)

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-6])
    def test_same_underflow_on_pole(self, tol):
        """scipy stops where the step falls below 10 ulp; the loop raises
        StepUnderflow there, naming the same radius and step count."""
        pole = CurvatureProfile(func=lambda r: 1.0 / abs(r - 5.0), label="pole")
        rtol, atol = _solver_tolerances(tol, 4.9, 5.1, 1.0, 0.0)
        sol = reference_piece(pole, 4.9, 5.1, (1.0, 0.0), rtol, atol)
        assert sol.status == -1 and "step size" in sol.message
        with pytest.raises(StepUnderflow) as exc:
            _solve_piece(pole, 4.9, 5.1, (1.0, 0.0), rtol, atol)
        m = re.search(r"at r = (\S+) after (\d+) accepted steps on the piece "
                      r"\[4\.9, 5\.1\]", str(exc.value))
        assert m is not None, str(exc.value)
        assert float(m.group(1)) == sol.t[-1]
        assert int(m.group(2)) == len(sol.t) - 1

    def test_same_underflow_on_vanishing_error_estimate(self):
        """Where err5 is 0 and 0.01 * err3 underflows, scipy's error norm is
        0 / 0 = NaN and the step is rejected; the loop stops with scipy's
        step-size failure, at the same radius and step count."""
        prof = kick.kicked_profile(cf.KickSpec(1.0, math.e, math.e**2, 0.5, 0))
        lo, hi = math.e**2, 1e300
        rtol, atol = _solver_tolerances(1e-9, 1.0, hi, 0.0, 1.0)
        y0 = integrate_sl(prof, 1.0, 0.0, 1.0, lo, 1e-9).dense.pieces[-1][2].y_end
        with np.errstate(invalid="ignore"):
            sol = reference_piece(prof, lo, hi, y0, rtol, atol)
        assert sol.status == -1 and "step size" in sol.message
        with pytest.raises(StepUnderflow) as exc:
            _solve_piece(prof, lo, hi, y0, rtol, atol)
        m = re.search(r"at r = (\S+) after (\d+) accepted steps", str(exc.value))
        assert float(m.group(1)) == sol.t[-1]
        assert int(m.group(2)) == len(sol.t) - 1


class TestDop853Start:
    TABLEAU = ("A", "B", "C", "D", "E3", "E5", "A_EXTRA", "C_EXTRA")

    def test_tableau_is_scipys(self):
        """Same bits, and the same shapes and strides, so the loop's dot
        products sum the same floats in the same memory order."""
        for name in self.TABLEAU:
            mine, theirs = getattr(dop853, name), getattr(DOP853, name)
            assert same_bits(mine, theirs), name
            assert mine.strides == theirs.strides, name
        assert dop853.N_STAGES == DOP853.n_stages
        assert dop853.ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)

    @staticmethod
    def start(prof, lo, hi, y0, rtol, atol):
        """(f, h_abs, radii) of the ported start, and what DOP853 sets."""
        rhs = _checked_rhs(prof)
        radii = []

        def counted(r, y):
            radii.append(r)
            return rhs(r, y)

        f0 = counted(lo, y0)
        h_abs = dop853.initial_step(counted, lo, y0, f0, hi, rtol, atol)
        solver = DOP853(rhs, lo, y0, hi, rtol=rtol, atol=atol)
        return (f0, h_abs, radii), (solver.f, solver.h_abs, solver.nfev)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(smooth_problems(), st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_start_is_scipys(self, problem, drawn):
        """First f, h_abs and nfev == 2, from the problem's start and from a
        drawn one (two nonzero components, where the np.dot of the norms
        rounds unlike x*x + y*y); the probe radius is a Python float.
        TestDop853Loop checks that the pieces step on from it."""
        prof, lo, hi, tol, w0, w0p = problem
        for y0 in (drawn, (w0, w0p)):
            rtol, atol = _solver_tolerances(tol, lo, hi, *y0)
            (f0, h_abs, radii), (f_ref, h_ref, nfev_ref) = self.start(
                prof, lo, hi, y0, rtol, atol)
            assert same_bits(f0, f_ref)
            assert bits(h_abs) == bits(h_ref)
            assert len(radii) == nfev_ref == 2
            assert [type(r) for r in radii] == [float, float]

    @pytest.mark.parametrize("b, y0", [
        (0.0, (1.0, 0.0)),  # f0 = 0: d1 < 1e-5, and d1, d2 <= 1e-15
        (1e-30, (0.0, 1e-300)),  # d0 < 1e-5
        (1.0, (0.0, 0.0)),  # the zero solution
        (1e140, (1.0, 0.0)),  # the norm of f0 overflows: h0 = 0, d2 = 0 / 0
        (1e300, (1e10, 0.0)),  # f0 = -inf
    ])
    def test_start_branches(self, b, y0):
        prof = CurvatureProfile(func=lambda r: b)
        with np.errstate(over="ignore", invalid="ignore"):
            (f0, h_abs, radii), (f_ref, h_ref, nfev_ref) = self.start(
                prof, 0.0, 1.0, y0, 1e-12, 1e-20)
        assert same_bits(f0, f_ref) and bits(h_abs) == bits(h_ref)
        assert len(radii) == nfev_ref == 2

    @pytest.mark.parametrize("y0", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_start_refused_as_scipy(self, y0):
        """A piece never starts from a non-finite state: the step would be NaN
        and the loop would not end.  integrate_sl refuses such start data
        itself (DomainMismatch); a piece raises DOP853's ValueError."""
        prof = CurvatureProfile(func=wavy)
        want = raised(lambda y: reference_piece(prof, 0.0, 1.0, y, 1e-8, 1e-16), y0)
        assert want is not None and want[0] is ValueError
        assert raised(lambda y: _solve_piece(prof, 0.0, 1.0, y, 1e-8, 1e-16), y0) == want


def wavy(r):
    return 1.0 + 0.5 * math.sin(r)


class TestInlineStages:
    def test_loop_passes_python_floats(self):
        """Every radius a solve evaluates is a Python float, the start's
        two (b at r_lo and the initial-step probe) included."""
        calls = []

        def func(r):
            calls.append(type(r))
            return wavy(r)

        traj = integrate_sl(CurvatureProfile(func=func, breakpoints=(3.0, 7.0)),
                            0.0, 0.0, 1.0, 10.0, 1e-9)
        assert len(calls) == traj.solver_counts()["nfev"]
        assert set(calls) == {float}

    @pytest.mark.parametrize("which", [0.3, 0.7, 1.0])
    def test_same_refusal_on_nan_inside_one_step(self, which):
        """b is NaN at one stage radius strictly inside a step (1.0: the last
        dense-output stage); the message names it as the reference's does."""
        radii = []

        def func(r):
            radii.append(r)
            return wavy(r)

        piece = _solve_piece(CurvatureProfile(func=func), 0.0, 20.0, (0.0, 1.0), 1e-8, 1e-16)
        nodes = set(piece.ts.tolist())
        inner = [r for r in radii[2:] if r not in nodes]
        r_bad = inner[int(which * (len(inner) - 1))]
        bad = CurvatureProfile(func=lambda r: math.nan if r == r_bad else wavy(r),
                               label="nan-spot")
        want = raised(lambda y0: reference_piece(bad, 0.0, 20.0, y0, 1e-8, 1e-16), (0.0, 1.0))
        got = raised(lambda y0: _solve_piece(bad, 0.0, 20.0, y0, 1e-8, 1e-16), (0.0, 1.0))
        assert want is not None and want[0] is NonFiniteCoefficient
        assert got == want
        assert got[1].endswith(f"evaluated to nan at r = {r_bad}")


@pytest.fixture(scope="module")
def dense_solutions():
    """scipy's OdeSolution and the loop's stacked dense output of the same
    DOP853 solves of a kicked, an arctan and a surface profile."""
    cases = [
        (kick.kicked_profile(cf.KickSpec(1.0, math.e, math.e**2, 0.95, 0)), 1.0, 1e6),
        (arctan_profile(), 0.0, 1e4),
        (sf.curvature_profile(sf.capped_cylinder(), np.geomspace(0.1, 1e3, 16)), 0.0, 1e3),
    ]
    out = []
    for prof, lo, hi in cases:
        sol = reference_piece(prof, lo, hi, (0.0, 1.0), 1e-10, 1e-20)
        out.append((sol.sol, _solve_piece(prof, lo, hi, (0.0, 1.0), 1e-10, 1e-20)))
    return out


class TestStackedDense:
    @PROPS
    @given(st.integers(0, 2), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
           st.lists(st.integers(0, 10**6), max_size=20))
    def test_bit_identical_to_ode_solution(self, dense_solutions, which, fracs, nodes):
        sol, stacked = dense_solutions[which]
        ts = sol.ts
        lo, hi = ts[0], ts[-1]
        points = [lo + f * (hi - lo) for f in fracs]
        points += [ts[i % len(ts)] for i in nodes] + [lo, hi]
        t = np.clip(np.array(points), lo, hi)
        want = sol(t)
        w, wp = stacked(t)
        assert np.array_equal(w, want[0]) and np.array_equal(wp, want[1])
        for x in t:
            one = sol(x)
            assert stacked.at(float(x)) == (one[0], one[1])

    def test_every_node(self, dense_solutions):
        for sol, stacked in dense_solutions:
            w, wp = stacked(sol.ts)
            want = sol(sol.ts)
            assert np.array_equal(w, want[0]) and np.array_equal(wp, want[1])
            assert [stacked.at(x) for x in sol.ts.tolist()] == list(zip(w, wp))
            assert same_bits(stacked.ts, sol.ts)


def polish_zeros_reference(fun, grid, vals, tol, lo_open):
    """The node-by-node scan that _polish_zeros replaced, kept as its reference."""
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


# Signed zeros, values on both sides of the 1e-300 cut, NaN and plain signs.
NODE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-301, -1e-301, 1e-300, -1e-300, math.nan]),
    st.floats(-10.0, 10.0),
)


class TestPolishZeros:
    @PROPS
    @given(st.lists(NODE_VALUES, min_size=2, max_size=40),
           st.lists(st.floats(1e-3, 5.0), min_size=40, max_size=40),
           st.booleans(), st.sampled_from([1e-9, 1e-6]))
    def test_same_brentq_calls_as_loop(self, vals, steps, lo_open, tol):
        vals = np.array(vals)
        grid = np.concatenate([[0.0], np.cumsum(steps[:len(vals) - 1])])

        def outcome(polish):
            calls = []

            def fun(r):
                calls.append(r)
                return float(np.interp(r, grid, vals))

            try:
                got = polish(fun, grid, vals, tol, lo_open)
            except (ValueError, RuntimeError) as exc:  # brentq on a NaN bracket
                got = (type(exc), str(exc))
            return got, calls

        got, calls = outcome(_polish_zeros)
        want, want_calls = outcome(polish_zeros_reference)
        assert calls == want_calls
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()


# Signed zeros, NaN, the ends of float range and plain values.
BRENT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-10.0, 10.0),
)


def brent_outcome(solver, f, a, b, xtol, maxiter):
    """(root bits or (exception type, message), bits of every point f saw),
    at brentq's default rtol of 4 eps."""
    calls = []

    def counted(x):
        calls.append(bits(x))
        return f(x)

    try:
        got = bits(solver(counted, a, b, xtol=xtol, maxiter=maxiter))
    except (ValueError, RuntimeError) as exc:
        got = (type(exc), str(exc))
    return got, calls


class TestBrentq:
    """_brentq against scipy.optimize.brentq: the same calls in the same
    order, the same root bits, the same exception type and message."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(BRENT_VALUES, min_size=2, max_size=12),
           st.lists(st.floats(1e-3, 5.0), min_size=11, max_size=11),
           st.booleans(), st.floats(-15.0, 0.0), st.sampled_from([0, 1, 2, 3, 5, 100]))
    def test_same_as_scipy(self, vals, steps, reverse, log_xtol, maxiter):
        grid = np.concatenate([[0.0], np.cumsum(steps[:len(vals) - 1])])
        a, b = (grid[-1], grid[0]) if reverse else (grid[0], grid[-1])
        xtol = 10.0 ** log_xtol

        def f(x):
            return float(np.interp(x, grid, vals))

        want = brent_outcome(brentq, f, a, b, xtol, maxiter)
        assert brent_outcome(_brentq, f, a, b, xtol, maxiter) == want

    @pytest.mark.parametrize("name, f, a, b, maxiter, kind", [
        ("f(a) = +0", lambda x: x, 0.0, 1.0, 100, "root"),
        ("f(a) = -0", lambda x: -0.0 * x - 0.0, 1.0, 2.0, 100, "root"),
        ("f(b) = -0 after f(a) > 0", lambda x: -0.0 if x == 2.0 else 1.0, 1.0, 2.0, 100, "root"),
        ("NaN at a", lambda x: math.nan, 0.0, 1.0, 100, "NaN"),
        ("NaN at b", lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0, 100, "NaN"),
        ("NaN inside", lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, 100, "NaN"),
        ("same sign", lambda x: x * x + 1.0, -1.0, 1.0, 100, "signs"),
        ("same sign, signed zero bracket", lambda x: -1.0 - x * x, -0.0, 0.0, 100, "signs"),
        ("maxiter 0", lambda x: x - 0.3, 0.0, 1.0, 0, "converge"),
        ("maxiter exhausted", lambda x: math.copysign(1.0, x - 1 / 3), 0.0, 1.0, 5, "converge"),
        ("cubic", lambda x: x**3 - 2.0, 0.0, 2.0, 100, "root"),
        # slopes near 1e-170: the extrapolation's dblk * dpre rounds to 0
        ("divide by a zero product", lambda x: 1e-170 * (x**3 - 0.2), 0.0, 1.0, 100, "root"),
        ("descending bracket", lambda x: math.atan(x - 0.7), 5.0, -3.0, 100, "root"),
    ])
    def test_edge_cases(self, name, f, a, b, maxiter, kind):
        want = brent_outcome(brentq, f, a, b, 1e-12, maxiter)
        assert brent_outcome(_brentq, f, a, b, 1e-12, maxiter) == want
        expect = {"root": bytes, "NaN": "solver cannot continue",
                  "signs": "must have different signs", "converge": "Failed to converge"}[kind]
        if kind == "root":
            assert isinstance(want[0], bytes), name
        else:
            assert expect in want[0][1], name


def second_zero_k0_reference(mu, a, b):
    """The depth-0, r0 = 1 second zero as second_zero_closed_form computed
    it before it took every depth and base point."""
    theta = mu * math.log(b / a)
    phi = math.atan(mu * math.log(a))
    psi = math.pi - phi
    if theta >= psi:
        return a * math.exp(psi / mu)
    ct, st = math.cos(theta), math.sin(theta)
    den = mu * math.log(a) * st - ct
    if den <= 0.0:
        return None
    F = (math.log(a) * ct + st / mu) / den
    try:
        return b * math.exp(F)
    except OverflowError:
        return math.inf


def scanned_second_zero(spec, r_cap):
    """First sign change of log_kick_solution beyond a, polished by brentq.

    The solution is positive on (r0, a]; the shell is scanned finely enough
    to separate its zeros, and beyond b it is a line in tau.
    """
    rs = np.concatenate([np.geomspace(spec.a, spec.b, 2000),
                         np.geomspace(spec.b, r_cap, 2000)[1:]])
    rs = rs[rs > spec.r0]  # w(r0) = 0 when the shell starts at r0
    vals = cf.log_kick_solution(spec, rs)
    neg = np.nonzero(vals <= 0.0)[0]
    if not len(neg):
        return None
    i = int(neg[0])
    if vals[i] == 0.0:
        return float(rs[i])
    return brentq(lambda r: cf.log_kick_solution(spec, r), rs[i - 1], rs[i],
                  xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


@st.composite
def kicked_shells(draw, depths=(0, 1, 2)):
    """A shell at one of the depths with mu between 1.05 and 4 thresholds."""
    k = draw(st.sampled_from(depths))
    r0 = cf.superpower(k) + draw(st.floats(0.5, 20.0))
    a = r0 * draw(st.floats(1.0, 10.0))
    b = a * draw(st.floats(1.2, 10.0))
    mu = draw(st.floats(1.05, 4.0)) * kick.lambda_log(k, r0, a, b)
    return cf.KickSpec(r0, a, b, mu, k)


class TestSecondZero:
    @PROPS
    @given(kicked_shells())
    def test_matches_scan_of_the_solution(self, spec):
        r1 = cf.second_zero_closed_form(spec)
        scan = scanned_second_zero(spec, 1e12)
        if r1 > 1e12:
            assert scan is None
        else:
            assert abs(scan - r1) <= 1e-12 * r1

    @PROPS
    @given(st.floats(1.0, 50.0), st.floats(1.001, 50.0), st.floats(0.0, 8.0))
    def test_bit_identical_to_old_depth_zero_form(self, a, ratio, mu):
        spec = cf.KickSpec(1.0, a, a * ratio, mu, 0)
        want = None if mu == 0.0 else second_zero_k0_reference(mu, spec.a, spec.b)
        if want is None:
            with pytest.raises(NoSecondZero):
                cf.second_zero_closed_form(spec)
        else:
            assert bits(cf.second_zero_closed_form(spec)) == bits(want)

    @PROPS
    @given(kicked_shells(depths=(0,)))
    def test_scaling_law(self, spec):
        unit = cf.KickSpec(1.0, spec.a / spec.r0, spec.b / spec.r0, spec.mu, 0)
        r1 = cf.second_zero_closed_form(spec)
        assert abs(r1 - spec.r0 * cf.second_zero_closed_form(unit)) <= 1e-12 * r1

    @PROPS
    @given(kicked_shells(), st.floats(1.0, 3.0))
    def test_sturm_monotone_in_mu(self, spec, factor):
        bigger = dataclasses.replace(spec, mu=factor * spec.mu)
        assert cf.second_zero_closed_form(bigger) <= cf.second_zero_closed_form(spec)


class TestThreshold:
    @PROPS
    @given(st.floats(1e-3, 1e3), st.floats(1.0, 100.0), st.floats(1.001, 100.0))
    def test_linear_is_log_at_depth_zero(self, r0, fa, fb):
        a, b = r0 * fa, r0 * fa * fb
        # the depth-0 gaps are ln(b/a) and ln(a/r0)
        lam = kick._smallest_cot_root(math.log(b / a), math.log(a / r0))
        assert bits(kick.lambda_log(0, r0, a, b)) == bits(lam)


@st.composite
def kick_shells(draw):
    """(k, r0, a, b) with superpower(k) < r0 <= a < b; a = r0 on some draws."""
    k = draw(st.integers(0, 2))
    r0 = cf.superpower(k) + 10.0 ** draw(st.floats(-3.0, 4.0))
    a = r0 if draw(st.integers(0, 4)) == 0 else r0 * (1.0 + 10.0 ** draw(st.floats(-15.0, 2.0)))
    b = a * (1.0 + 10.0 ** draw(st.floats(-15.0, 2.0)))
    assume(r0 <= a < b)
    return k, r0, a, b


class TestKickThreshold:
    @PROPS
    @given(kick_shells())
    def test_root_brackets_the_sign_change(self, shell):
        """lambda_log's root lies in (0, pi / (2 gap)] and
        g(lam) = cot(lam gap) - lam offset changes sign within one ulp of it;
        with offset 0 the root is pi / (2 gap) itself."""
        try:
            offset, gap = cf.shell_gaps(*shell)
        except InvalidShell:  # a shell floats cannot resolve is refused everywhere
            with pytest.raises(InvalidShell):
                kick.lambda_log(*shell)
            return
        lam = kick.lambda_log(*shell)
        top = math.pi / (2.0 * gap)
        assert 0.0 < lam <= top
        if offset == 0.0:
            assert lam == top
            return

        def g(x):
            return math.cos(x * gap) / math.sin(x * gap) - x * offset

        gs = [g(math.nextafter(lam, 0.0)), g(lam), g(math.nextafter(lam, math.inf))]
        assert (gs[0] > 0.0 >= gs[1]) or (gs[1] > 0.0 >= gs[2]), (shell, lam, gs)


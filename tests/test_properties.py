"""Property tests for the coefficient kernels and the stacked dense output.

Built-in profiles evaluate one float with a scalar kernel (the ODE
right-hand side) and arrays with a vector kernel; the two must agree and
must refuse the same inputs.  The arctan scalar kernel must give exactly
what the 0-d numpy path it replaced gave.  The stacked DOP853 evaluator
reads private attributes of scipy's dense output, so it is checked bit for
bit against OdeSolution.__call__: a scipy release that changes those
attributes fails here, not in a certificate.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from slboundary import closed_form as cf
from slboundary import kick
from slboundary import surfaces as sf
from slboundary.bifurcator import arctan_profile
from slboundary.errors import DomainError
from slboundary.sl_engine import _checked_rhs, _StackedDop853

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
def kicked(draw):
    """A kicked profile at depth k = 0, 1, 2 and a radius on its domain.

    The base point sits at least 1 beyond superpower(k): next to it the
    iterated logarithm is ill-conditioned, and a 1-ulp difference between
    math.log and numpy's log is magnified without bound.
    """
    k = draw(st.integers(0, 2))
    r0 = cf.superpower(k) + draw(st.floats(1.0, 20.0))
    a = r0 * draw(st.floats(1.0, 10.0))
    b = a * draw(st.floats(1.01, 10.0))
    mu = draw(st.floats(0.0, 5.0))
    prof = kick.kicked_profile(cf.KickSpec(r0, a, b, mu, k))
    r = draw(st.one_of(st.floats(r0, 1e9), st.sampled_from([r0, a, b])))
    return prof, r


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


@pytest.fixture(scope="module")
def dense_solutions():
    """DOP853 dense outputs of a kicked, an arctan and a surface profile."""
    cases = [
        (kick.kicked_profile(cf.KickSpec(1.0, math.e, math.e**2, 0.95, 0)), 1.0, 1e6),
        (arctan_profile(), 0.0, 1e4),
        (sf.curvature_profile(sf.capped_cylinder(), np.geomspace(0.1, 1e3, 16)), 0.0, 1e3),
    ]
    out = []
    for prof, lo, hi in cases:
        sol = solve_ivp(_checked_rhs(prof), (lo, hi), (0.0, 1.0), method="DOP853",
                        dense_output=True, rtol=1e-10, atol=1e-20)
        out.append((sol.sol, _StackedDop853(sol.sol)))
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
            assert len(stacked.ts) == len(sol.ts)

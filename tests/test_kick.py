"""Thresholds, diameter bounds, and certificates, checked against independent
bisection/grid-scan oracles and the integration engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slboundary import closed_form as cf
from slboundary import kick
from slboundary.bifurcator import arctan_profile
from slboundary.errors import DomainMismatch, InvalidShell, StepUnderflow
from slboundary.schema import validate_certificate
from slboundary.sl_engine import CurvatureProfile, find_second_zero, integrate_sl

E = math.e


def bisect_oracle(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambdaLinear:
    def test_degenerate_shell_start(self):
        # r0 = a makes the right side vanish: root exactly pi / (2 ln(b/a))
        lam = kick.lambda_log(0, 1.0, 1.0, E)
        assert lam == math.pi / 2

    def test_remark_shell_against_bisection_oracle(self):
        # (1, e, e^2) reduces to cot x = x; solve x sin x - cos x = 0 independently
        root = bisect_oracle(lambda x: x * math.sin(x) - math.cos(x), 0.5, 1.5)
        lam = kick.lambda_log(0, 1.0, E, E**2)
        assert_allclose(lam, root, atol=1e-12)
        assert_allclose(lam, 0.8603335890193797, atol=1e-12)
        assert kick.threshold_residual(lam, 0, 1.0, E, E**2) < 1e-10

    def test_ordering_precondition(self):
        with pytest.raises(InvalidShell):
            kick.lambda_log(0, 2.0, 1.0, 3.0)

    def test_decreasing_to_zero_with_shell_length(self):
        lams = [kick.lambda_log(0, 1.0, E, E ** (l + 1)) for l in range(1, 21)]
        assert all(a > b for a, b in zip(lams[:-1], lams[1:]))
        # asymptotic root of cot(l x) = x: solves l x + arctan(x) = pi/2
        assert_allclose(lams[-1], 0.07480644758179289, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r0 = rng.uniform(0.3, 2.0)
            a = r0 * rng.uniform(1.0, 4.0)
            b = a * rng.uniform(1.2, 6.0)
            c = rng.uniform(0.01, 100.0)
            assert_allclose(
                kick.lambda_log(0, r0, a, b),
                kick.lambda_log(0, c * r0, c * a, c * b),
                rtol=1e-12,
            )

    def test_monotone_in_shell_endpoints(self):
        # with the other endpoint fixed: non-increasing in b, non-decreasing in a
        avals = np.linspace(1.2, 3.0, 5)
        bvals = np.linspace(5.0, 25.0, 5)
        for a in avals:
            lams = [kick.lambda_log(0, 1.0, a, b) for b in bvals]
            assert all(x >= y for x, y in zip(lams[:-1], lams[1:]))
        for b in bvals:
            lams = [kick.lambda_log(0, 1.0, a, b) for a in avals]
            assert all(x <= y for x, y in zip(lams[:-1], lams[1:]))

    def test_epsilon_scaling_exponent(self):
        # kick threshold over a thin shell [a, a+eps] grows like eps^(-1/2)
        eps = np.array([0.4, 0.2, 0.1, 0.05])
        lams = np.array([kick.lambda_log(0, 1.0, E, E + e) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(lams), 1)[0]
        assert abs(slope + 0.5) <= 0.1


class TestLambdaLog:
    def test_depth_zero_reduces_exactly(self):
        # the depth-0 gaps are ln(b/a) and ln(a/r0)
        lam = kick._smallest_cot_root(math.log(E**2 / E), math.log(E / 1.0))
        assert kick.lambda_log(0, 1.0, E, E**2) == lam

    def test_degenerate_start(self):
        t = lambda r: cf.iter_log(2, r)
        lam = kick.lambda_log(1, E, E, E**4)
        assert lam == math.pi / (2 * (t(E**4) - t(E)))

    def test_depth_one_against_grid_scan(self):
        r0, a, b = E, E**2, E**4
        lam = kick.lambda_log(1, r0, a, b)
        t = lambda r: cf.iter_log(2, r)
        gap, off = t(b) - t(a), t(a) - t(r0)
        g = lambda x: 1.0 / math.tan(x * gap) - x * off
        # dense scan at step 1e-6 brackets the same first sign change
        xs = np.arange(1e-6, math.pi / (2 * gap) + 1e-6, 1e-6)
        vals = np.array([g(x) for x in xs])
        idx = int(np.argmax(vals <= 0.0))
        assert xs[idx - 1] <= lam <= xs[idx]
        assert kick.threshold_residual(lam, 1, r0, a, b) < 1e-10

    def test_domain_guard(self):
        with pytest.raises(InvalidShell):
            kick.lambda_log(1, 0.9, 2.0, 4.0)

    @pytest.mark.parametrize("k, r0, a, b", [
        (0, 1e-320, 1e-310, 1e308),  # b / a overflows
        (1, 2.0, 1e300, math.nextafter(1e300, math.inf)),  # ln b / ln a rounds to 1
        (2, math.nextafter(E, 3.0), 3.0, 4.0),  # ln ln r0 rounds to 0
        (1000, 1.0, 2.0, 3.0),  # superpower(1000) is inf
    ])
    def test_shell_beyond_float_resolution_refused(self, k, r0, a, b):
        with pytest.raises(InvalidShell):
            kick.lambda_log(k, r0, a, b)

    @pytest.mark.parametrize("k, r0, a", [(0, 1.0, 2.0), (1, 2.0, 3.0)])
    def test_infinite_outer_radius_refused(self, k, r0, a):
        with pytest.raises(InvalidShell):
            kick.lambda_log(k, r0, a, math.inf)
        with pytest.raises(InvalidShell):
            kick.threshold_residual(0.0, k, r0, a, math.inf)


class TestDiameterBound:
    # The closed-form bound 2 r1, and certify's use of it
    def test_base_shell_value(self):
        spec = cf.KickSpec(1.0, 1.0, 30.0, 1.0, 0)
        assert_allclose(2 * cf.second_zero_closed_form(spec), 2 * math.exp(math.pi), rtol=1e-12)

    def test_all_origins_halves(self):
        # the README certify shell: asserted at every origin, the bound is r1
        spec = cf.KickSpec(1.0, E, E**2, 0.95, 0)
        prof = kick.kicked_profile(spec)
        cert = kick.certify(prof, n=2, spec=spec, r_max=1e6, all_origins=True)
        assert cert.verdict == "Compact" and cert.spec["all_origins"] is True
        assert cert.diameter_bound == cert.r1
        assert kick.certify(prof, n=2, spec=spec, r_max=1e6).diameter_bound == 2 * cert.r1

    def test_positive_shell_case_formula(self):
        # a = 1, y > 0 across [a, b]: bound is 2 b exp(-tan(mu ln b)/mu)
        mu, b = 1.7, E
        spec = cf.KickSpec(1.0, 1.0, b, mu, 0)
        want = 2 * b * math.exp(-math.tan(mu * math.log(b)) / mu)
        assert_allclose(2 * cf.second_zero_closed_form(spec), want, rtol=1e-12)

    def test_general_base_point_scaling(self):
        spec1 = cf.KickSpec(1.0, E, E**2, 2.0, 0)
        spec3 = cf.KickSpec(3.0, 3 * E, 3 * E**2, 2.0, 0)
        assert_allclose(2 * cf.second_zero_closed_form(spec3),
                        3 * 2 * cf.second_zero_closed_form(spec1), rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_half_bound_matches_engine_second_zero(self, k):
        # the depth-1 and depth-2 zeros lie beyond b, on the outer branch
        shell = {0: (1.0, 2.0, 5.0), 1: (2.0, 4.0, 10.0), 2: (3.0, 6.0, 30.0)}[k]
        spec = cf.KickSpec(*shell, 2.0, k)
        r1 = cf.second_zero_closed_form(spec)
        res = find_second_zero(kick.kicked_profile(spec), spec.r0, 3 * r1, 1e-10)
        assert_allclose(res.r1, r1, rtol=1e-6)


class TestCertify:
    lam = kick.lambda_log(0, 1.0, E, E**2)

    def test_kicked_profile_is_compact(self):
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * self.lam, 0)
        cert = kick.certify(kick.kicked_profile(spec), n=2, spec=spec, r_max=1e6)
        assert cert.verdict == "Compact"
        assert cert.r0 == 1.0 and cert.r1 is not None and cert.r0 < cert.r1
        assert cert.diameter_bound == 2 * cert.r1
        want = cf.second_zero_closed_form(spec)
        assert_allclose(cert.r1, want, rtol=1e-6)

    def test_equality_profile_is_inconclusive(self):
        spec = cf.KickSpec(1.0, E, E**2, 0.0, 0)
        cert = kick.certify(kick.equality_profile(0), n=2, spec=spec, r_max=1e4)
        assert cert.verdict == "Inconclusive"
        assert "no kick margin" in cert.reason

    def test_depth_one_kick_is_compact(self):
        lam1 = kick.lambda_log(1, 2.0, 4.0, 16.0)
        spec = cf.KickSpec(2.0, 4.0, 16.0, 1.3 * lam1, 1)
        cert = kick.certify(kick.kicked_profile(spec), n=3, spec=spec, r_max=1e8)
        assert cert.verdict == "Compact"

    def test_base_hypothesis_failure_names_radius(self):
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * self.lam, 0)
        low = kick.equality_profile(0)
        weak = type(low)(func=lambda r: 0.5 * low.func(r), r_min=low.r_min, label="weak")
        cert = kick.certify(weak, n=2, spec=spec, r_max=1e4)
        assert cert.verdict == "Inconclusive"
        assert "fails at r" in cert.reason

    def test_noncompact_side_delegation(self):
        ar = arctan_profile()
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * self.lam, 0)
        cert = kick.certify(ar, n=2, spec=spec, r_max=1e4, bifurcator_profile=ar)
        assert cert.verdict == "NoncompactSide"

    def test_soundness_under_tighter_tolerance(self):
        spec = cf.KickSpec(1.0, E, E**2, 1.2 * self.lam, 0)
        loose = kick.certify(kick.kicked_profile(spec), n=2, spec=spec, r_max=1e6,
                             tol=1e-8)
        tight = kick.certify(kick.kicked_profile(spec), n=2, spec=spec, r_max=1e6,
                             tol=1e-9)
        assert loose.verdict == tight.verdict == "Compact"
        assert abs(loose.r1 - tight.r1) / tight.r1 <= 1e-5

    def test_remark_note_recorded(self):
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * self.lam, 0)
        cert = kick.certify(kick.kicked_profile(spec), n=2, spec=spec, r_max=1e6)
        assert any("0.46" in n for n in cert.discrepancy_notes)
        assert any("0.86" in n for n in cert.discrepancy_notes)

    def test_certificate_document_validates(self):
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * self.lam, 0)
        cert = kick.certify(kick.kicked_profile(spec), n=2, spec=spec, r_max=1e6)
        assert validate_certificate(cert.to_json_dict()) == []
        stable_order = list(cert.to_json_dict())
        assert stable_order[:9] == [
            "verdict", "r0", "r1", "diameter_bound", "lambda",
            "spec", "grid_size", "tolerances", "discrepancy_notes",
        ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gap", [(100.0, 200.0), (3.0, 4.0)])
    def test_non_finite_values_are_inconclusive(self, value, gap):
        # the kicked profile with a non-finite stretch, past the shell or on it;
        # the comparison solve alone would still find r1 = 13710.2
        spec = cf.KickSpec(1.0, E, E**2, 0.95, 0)
        good = kick.kicked_profile(spec)

        def f(r):
            x = np.asarray(r, dtype=float)
            out = np.where((x > gap[0]) & (x < gap[1]), value, good.func(x))
            return out if out.ndim else float(out)

        holed = CurvatureProfile(func=f, r_min=good.r_min, label="holed",
                                 breakpoints=good.breakpoints)
        cert = kick.certify(holed, n=2, spec=spec, r_max=1e6)
        assert cert.verdict == "Inconclusive"
        assert cert.r1 is None and cert.diameter_bound is None
        r_bad = float(cert.reason.split("r = ")[1].split()[0])
        assert gap[0] < r_bad < gap[1]

    def test_non_finite_profile_never_noncompact_side(self):
        spec = cf.KickSpec(1.0, E, E**2, 0.95, 0)
        nan = CurvatureProfile(func=lambda r: np.full(np.shape(r), math.nan),
                               r_min=1e-12, label="nan")
        cert = kick.certify(nan, n=2, spec=spec, r_max=1e4,
                            bifurcator_profile=kick.kicked_profile(spec))
        assert cert.verdict == "Inconclusive"

    @pytest.mark.parametrize("grid_size", [0, 1, 10000])
    def test_degenerate_grid_refused(self, grid_size):
        # the README shell less 10 on (100, 200): one or no sampled radius
        # cannot see the dip, and the comparison solve alone gives r1 = 13710.2
        spec = cf.KickSpec(1.0, E, E**2, 0.95, 0)
        good = kick.kicked_profile(spec)

        def f(r):
            x = np.asarray(r, dtype=float)
            out = good.func(x) - 10.0 * ((x > 100.0) & (x < 200.0))
            return out if out.ndim else float(out)

        dipped = CurvatureProfile(func=f, r_min=good.r_min, label="dipped",
                                  breakpoints=good.breakpoints)
        if grid_size < 2:
            with pytest.raises(DomainMismatch, match="grid_size >= 2"):
                kick.certify(dipped, n=2, spec=spec, r_max=1e6, grid_size=grid_size)
        else:
            cert = kick.certify(dipped, n=2, spec=spec, r_max=1e6, grid_size=grid_size)
            assert cert.verdict == "Inconclusive" and cert.r1 is None


#: r0 ranges of the kick-certify bench shells, by depth (bench/workloads.py)
BENCH_R0 = {0: (0.5, 5.0), 1: (1.5, 6.0), 2: (3.5, 12.0)}

#: Bench shells (k, r0, a, b, mu, r_max) that certify cannot solve at tol
#: 1e-11: the piece [b, r_max] starts by reading the coefficient at r = b on
#: the kick's side, and DOP853 cannot take a first step (ROADMAP item 10).
#: The first is kick-certify's seed 2, rotation 37, op 13; the second a
#: draw of workloads._kick_op at depth 2.
FAR_SIDE_SHELLS = [
    (2, 10.19869040509384, 49.272610530554836, 156.3224360469033, 6.066207567554598,
     4486.658405103812),
    (2, 6.071678592725626, 37.740469851887795, 210.98086821577888, 4.514580286473845,
     6079.3597615568515),
]


@st.composite
def bench_shells(draw):
    """A shell over the kick-certify bench's ranges, mu 1.05-3 lambda, with
    its closed-form second zero below the bench's cap of 1e6."""
    k = draw(st.sampled_from((0, 1, 2)))
    lo, hi = BENCH_R0[k]
    r0 = lo * (hi / lo) ** draw(st.floats(0.0, 1.0))
    a = r0 * 1.5 * (10.0 / 1.5) ** draw(st.floats(0.0, 1.0))
    b = a * 2.0 * 5.0 ** draw(st.floats(0.0, 1.0))
    ratio = draw(st.floats(1.05, 3.0))
    spec = cf.KickSpec(r0, a, b, ratio * kick.lambda_log(k, r0, a, b), k)
    r1 = cf.second_zero_closed_form(spec)
    assume(r1 <= 1e6)
    return spec, r1


class TestBenchShells:
    # certify's conjugate radius against the closed form on 40 draws from the
    # bench's ranges; the draws miss FAR_SIDE_SHELLS, which are checked below
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(bench_shells(), st.sampled_from((1e-9, 1e-11)))
    def test_compact_at_closed_form(self, shell, tol):
        spec, r1 = shell
        cert = kick.certify(kick.kicked_profile(spec), 2, spec, 4 * r1, tol=tol)
        print(f"k={spec.k} r0={spec.r0!r} a={spec.a!r} b={spec.b!r} mu={spec.mu!r} "
              f"tol={tol:g}: {cert.verdict}, r1 {cert.r1!r} against {r1!r}")
        assert cert.verdict == "Compact"
        assert abs(cert.r1 - r1) <= 1e3 * tol * r1

    @pytest.mark.xfail(raises=StepUnderflow, strict=True,
                       reason="ROADMAP item 10: the piece [b, r_max] reads the kick at b")
    @pytest.mark.parametrize("shell", FAR_SIDE_SHELLS)
    def test_far_side_shells_certify(self, shell):
        k, r0, a, b, mu, r_max = shell
        spec = cf.KickSpec(r0, a, b, mu, k)
        r1 = cf.second_zero_closed_form(spec)
        cert = kick.certify(kick.kicked_profile(spec), 2, spec, r_max, tol=1e-11)
        print(f"{cert.verdict}: r1 {cert.r1!r} against {r1!r}")
        assert cert.verdict == "Compact"
        assert abs(cert.r1 - r1) <= 1e-11 * r1


#: The README certify shell at its r_max of 1e6, about 73 times its r1.
README_SEARCH = (cf.KickSpec(1.0, E, E**2, 0.95, 0), 1e6)


class TestSecondZeroStop:
    # find_second_zero stops at the first node that brackets the zero; the
    # full solve to r_max, on a copy of the profile with an empty memo, is the
    # reference.  The draws put r1 inside [a, b] and past b.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(bench_shells().map(lambda shell: (shell[0], 4.0 * shell[1])),
           st.sampled_from((1e-9, 1e-11)))
    @example(README_SEARCH, 1e-9)
    def test_r1_of_the_full_solve(self, search_args, tol):
        spec, r_max = search_args
        prof = kick.kicked_profile(spec)
        full = integrate_sl(dataclasses.replace(prof), spec.r0, 0.0, 1.0, r_max, tol)
        search = find_second_zero(prof, spec.r0, r_max, tol)
        stopped, n = search.trajectory, len(search.trajectory.grid)
        steps = stopped.solver_counts()["accepted"], full.solver_counts()["accepted"]
        print(f"k={spec.k} r0={spec.r0!r} a={spec.a!r} b={spec.b!r} mu={spec.mu!r} "
              f"tol={tol:g}: r1 {search.r1!r} {'inside [a, b]' if search.r1 <= spec.b else 'past b'}, "
              f"stop at {stopped.r_end!r} of {r_max!r}, {steps[0]} of {steps[1]} accepted steps")
        assert search.r1.hex() == float(full.zeros[0]).hex()
        # the trajectory is the full one up to the first node at or past r1
        assert stopped.r_end == full.grid[np.searchsorted(full.grid, search.r1)]
        for f in ("grid", "w", "wp"):
            assert getattr(stopped, f).tobytes() == getattr(full, f)[:n].tobytes()
        assert steps[0] < steps[1]

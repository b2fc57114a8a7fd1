"""Bifurcator classification, the structural diagnostics, and the boundary
tests, anchored on the arctan example where everything is known in closed form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slboundary import bifurcator as bf
from slboundary.errors import ExceedanceViolated
from slboundary.sl_engine import CurvatureProfile, integrate_sl


def const_profile(c):
    return CurvatureProfile(func=lambda r: c + 0.0 * np.asarray(r), label=f"const-{c}")


def bumped_arctan(height):
    ar = bf.arctan_profile()
    return CurvatureProfile(
        func=lambda r: ar.func(np.asarray(r)) * (1.0 + height * ((np.asarray(r) >= 1.0) & (np.asarray(r) <= 2.0))),
        label=f"arctan*{1 + height}",
        breakpoints=(1.0, 2.0),
    )


class TestArctanProfile:
    def test_value_at_origin_is_continuous_extension(self):
        ar = bf.arctan_profile()
        assert ar(0.0) == 2.0
        assert_allclose(ar(1e-8), 2.0, rtol=1e-8)

    def test_solution_is_arctan(self):
        traj = integrate_sl(bf.arctan_profile(), 0.0, 0.0, 1.0, 1e3, 1e-11)
        rs = np.geomspace(1e-4, 1e3, 1200)
        w, _ = traj.evaluate(rs)
        assert np.max(np.abs(w - np.arctan(rs))) <= 1e-8


class TestClassify:
    def test_arctan_is_bifurcator(self):
        rep = bf.classify(bf.arctan_profile(), r_max=1e4, tol=1e-11)
        assert rep.classification == bf.CLASS_BIFURCATOR
        assert abs(rep.w_limit - math.pi / 2) <= 1e-4
        assert rep.cauchy_tail <= rep.tail_tol

    def test_constant_curvature_vanishes_again(self):
        rep = bf.classify(const_profile(1.0), r_max=20.0)
        assert rep.classification == bf.CLASS_SECOND_ZERO
        assert "3.14159" in rep.detail

    def test_verdict_stable_under_tighter_run(self):
        a = bf.classify(bf.arctan_profile(), r_max=1e4, tol=1e-9)
        b = bf.classify(bf.arctan_profile(), r_max=2e4, tol=1e-10)
        assert a.classification == b.classification == bf.CLASS_BIFURCATOR

    def test_non_monotone_detected(self):
        # curvature that stays order-one for a while bends w back down
        prof = CurvatureProfile(
            func=lambda r: 1.0 / (1.0 + 0.1 * np.asarray(r) ** 2),
            label="slow-decay",
        )
        rep = bf.classify(prof, r_max=100.0)
        assert rep.classification in (bf.CLASS_SECOND_ZERO, bf.CLASS_NON_MONOTONE)

    def test_singular_origin_uses_eps_start(self):
        # 1/(4 r^2) has the degenerate solution sqrt(r) ln r: monotone, unbounded-slow
        prof = CurvatureProfile(
            func=lambda r: 1.0 / (4.0 * np.asarray(r) ** 2),
            r_min=1e-12,
            label="quarter-inverse-square",
        )
        rep = bf.classify(prof, r_max=1e4, eps=1e-6)
        assert rep.classification == bf.CLASS_INCONCLUSIVE  # never provably bounded


class TestAbresch:
    def test_arctan_diagnostics(self):
        rep = bf.abresch_checks(bf.arctan_profile(), r_max=1e4, tol=1e-9)
        # (a) moment integral converges, dyadic tail ratio ~ 1/2 from below
        oracle, _ = quad(lambda r: r * bf.arctan_profile()(r), 0, 1e4, limit=400)
        assert_allclose(rep.moment_integral, oracle, rtol=1e-7)
        assert rep.moment_converged
        assert rep.moment_tail_ratio < 0.5
        # (b) w' = 1/(1+r^2): log-log slope -2
        assert abs(rep.wp_loglog_slope + 2.0) <= 1e-3
        # (c) second solution grows without bound
        assert rep.independent_diverges
        assert rep.independent_solution_value > 1e3
        assert rep.wronskian_drift <= 1e-6


class TestBoundaryTest:
    def test_bump_forces_second_zero(self):
        v = bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.05), r_max=1e4)
        assert v.verdict == "CompactSide"
        assert v.second_zero is not None and v.second_zero < 1e4

    def test_equality_gives_no_evidence(self):
        v = bf.boundary_test(bf.arctan_profile(), bf.arctan_profile(), r_max=1e3)
        assert v.verdict == "NoEvidence"
        assert "r_max" in v.detail

    def test_deficient_profile_rejected(self):
        ar = bf.arctan_profile()
        half = CurvatureProfile(func=lambda r: 0.5 * ar.func(np.asarray(r)), label="half")
        with pytest.raises(ExceedanceViolated):
            bf.boundary_test(ar, half, r_max=100.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_comparison_rejected(self, value):
        bumped = bumped_arctan(0.05)

        def f(r):
            x = np.asarray(r, dtype=float)
            return np.where((x > 100.0) & (x < 200.0), value, bumped.func(x))

        holed = CurvatureProfile(func=f, label="holed", breakpoints=bumped.breakpoints)
        with pytest.raises(ExceedanceViolated, match="not finite"):
            bf.boundary_test(bf.arctan_profile(), holed, r_max=1e4)

    def test_margin_grows_find_zero_sooner(self):
        z5 = bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.05), r_max=1e4).second_zero
        z20 = bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.20), r_max=1e4).second_zero
        assert z20 < z5


class TestNoncompactSide:
    def test_equality_is_noncompact_side(self):
        ar = bf.arctan_profile()
        v = bf.noncompact_side_check(ar, ar, r_max=1e4)
        assert v.verdict == "NoncompactSide"

    def test_doubled_profile_not_applicable(self):
        ar = bf.arctan_profile()
        two = CurvatureProfile(func=lambda r: 2.0 * ar.func(np.asarray(r)), label="2b")
        assert bf.noncompact_side_check(two, ar, r_max=1e4).verdict == "NotApplicable"

    def test_non_finite_profile_not_applicable(self):
        ar = bf.arctan_profile()
        holed = CurvatureProfile(
            func=lambda r: np.where(np.asarray(r) > 100.0, -math.inf, ar.func(np.asarray(r))),
            label="holed",
        )
        assert bf.noncompact_side_check(holed, ar, r_max=1e4).verdict == "NotApplicable"

    def test_liminf_diagnostic_decays(self):
        # b ~ 4/(pi r^3): the last-dyad minimum falls off like r_max^-3
        ar = bf.arctan_profile()
        d1 = bf.noncompact_side_check(ar, ar, r_max=1e3).detail
        d2 = bf.noncompact_side_check(ar, ar, r_max=1e4).detail
        v1 = float(d1.split("=")[-1])
        v2 = float(d2.split("=")[-1])
        assert v2 < v1
        assert_allclose(v2, 4.0 / (math.pi * 1e4**3), rtol=1e-3)

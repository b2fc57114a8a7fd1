"""Integration engine: trivial coefficients, the arctan oracle, event
detection, the stored-grid residual certificate, the index form, and the
Picone comparison residual."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slboundary import closed_form as cf
from slboundary import kick
from slboundary.bifurcator import arctan_profile
from slboundary.errors import DomainError, DomainMismatch, NonFiniteCoefficient, YVanished
from slboundary.sl_engine import (
    CurvatureProfile,
    IndexFormInput,
    find_second_zero,
    index_form,
    integrate_sl,
    picone_residual,
)

E = math.e
ROOT_COT = 0.8603335890193797  # smallest positive root of cot x = x


def const_profile(c, label=""):
    return CurvatureProfile(func=lambda r: c + 0.0 * np.asarray(r), label=label or f"const-{c}")


class TestProfileProtocol:
    def test_scalar_only_func_is_refused(self):
        # one float back for any input: values() must not loop over the radii
        calls = []

        def quarter(r):
            calls.append(r)
            return 0.25

        prof = CurvatureProfile(func=quarter, label="scalar-only")
        assert prof(2.0) == 0.25
        with pytest.raises(DomainError, match=r"shape \(\) for \(3,\)"):
            prof.values([1.0, 2.0, 3.0])
        assert len(calls) == 2

    def test_scalar_only_func_error_propagates(self):
        prof = CurvatureProfile(func=lambda r: math.exp(-r), label="math-only")
        with pytest.raises(TypeError):
            prof.values(np.linspace(0.0, 1.0, 5))


class TestIntegrate:
    def test_zero_curvature_is_linear(self):
        traj = integrate_sl(const_profile(0.0), 0.0, 0.0, 1.0, 10.0, 1e-9)
        assert len(traj.zeros) == 0
        rs = np.linspace(0.0, 10.0, 200)
        w, wp = traj.evaluate(rs)
        assert np.max(np.abs(w - rs)) < 1e-10
        assert np.max(np.abs(wp - 1.0)) < 1e-11

    def test_unit_curvature_is_sine(self):
        traj = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 10.0, 1e-9)
        assert_allclose(traj.zeros, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-9)
        rs = np.linspace(0.0, 10.0, 500)
        w, _ = traj.evaluate(rs)
        assert np.max(np.abs(w - np.sin(rs))) < 1e-9

    def test_arctan_oracle(self):
        # b = 2r/((1+r^2)^2 arctan r) is solved by w = arctan r
        eps = 1e-4
        traj = integrate_sl(arctan_profile(), eps, math.atan(eps), 1 / (1 + eps**2),
                            1e3, 1e-11)
        rs = np.geomspace(eps, 1e3, 1500)
        w, _ = traj.evaluate(rs)
        assert np.max(np.abs(w - np.arctan(rs))) <= 1e-8

    def test_residual_certificate_on_stored_grids(self):
        cases = [
            (const_profile(1.0), 0.0, 0.0, 1.0, 10.0),
            (arctan_profile(), 0.0, 0.0, 1.0, 1e3),
            (kick.kicked_profile(cf.KickSpec(1.0, E, E**2, 2.0, 0)), 1.0, 0.0, 1.0, 50.0),
        ]
        for tol in (1e-6, 1e-9):
            for prof, r0, w0, w0p, r1 in cases:
                traj = integrate_sl(prof, r0, w0, w0p, r1, tol)
                assert traj.residual_report() <= 1.0, prof.label

    def test_zeros_match_dense_sign_changes(self):
        # profile with several zeros in range; no missed or spurious events
        prof = CurvatureProfile(func=lambda r: 1.0 + 0.5 * np.sin(np.asarray(r)),
                                label="wobble")
        traj = integrate_sl(prof, 0.0, 0.0, 1.0, 30.0, 1e-9)
        rs = np.linspace(1e-9, 30.0, 30001)
        w, _ = traj.evaluate(rs)
        changes = np.sum(np.sign(w[1:]) != np.sign(w[:-1]))
        assert changes == len(traj.zeros)
        assert len(traj.zeros) <= 10
        # every reported zero is a genuine sign change of the dense output
        for z in traj.zeros:
            lo, hi = traj.evaluate(z - 1e-6)[0], traj.evaluate(z + 1e-6)[0]
            assert lo * hi < 0

    def test_deterministic(self):
        a = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 10.0, 1e-9)
        b = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 10.0, 1e-9)
        assert np.array_equal(a.zeros, b.zeros)
        assert np.array_equal(a.w, b.w)

    def test_non_finite_coefficient_raises(self):
        with np.errstate(invalid="ignore"):
            bad = CurvatureProfile(func=lambda r: float(np.sqrt(5.0 - r)), label="nan-tail")
            with pytest.raises(NonFiniteCoefficient):
                integrate_sl(bad, 0.0, 0.0, 1.0, 6.0, 1e-9)

    def test_pole_collapses_step(self):
        from slboundary.errors import StepUnderflow

        pole = CurvatureProfile(func=lambda r: 1.0 / abs(r - 5.0), label="pole")
        with pytest.raises(StepUnderflow):
            integrate_sl(pole, 4.9, 1.0, 0.0, 5.1, 1e-9)

    def test_precondition_checks(self):
        with pytest.raises(DomainMismatch):
            integrate_sl(const_profile(1.0), 3.0, 0.0, 1.0, 2.0, 1e-9)
        with pytest.raises(DomainMismatch):
            integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 2.0, 1e-2)


class TestDenseOutput:
    def test_evaluation_outside_range_raises(self):
        spec = cf.KickSpec(1.0, E, E**2, 2.0, 0)
        traj = integrate_sl(kick.kicked_profile(spec), 1.0, 0.0, 1.0, 50.0, 1e-9)
        for r in (1.0 - 1e-12, 50.0 * (1 + 1e-15), math.nan, math.inf, [2.0, 51.0]):
            with pytest.raises(DomainMismatch, match="outside the integrated range"):
                traj.evaluate(r)
        w, wp = traj.evaluate([1.0, E, E**2, 50.0])
        assert w[0] == 0.0 and wp[0] == 1.0
        assert (w[-1], wp[-1]) == (traj.w[-1], traj.wp[-1])

    def test_classify_past_half_range_refused(self):
        # the dyadic Cauchy tail needs w(r_max / 2), which lies before the start
        from slboundary.bifurcator import classify

        late = CurvatureProfile(func=lambda r: 0.0 * np.asarray(r), r_min=600.0, label="late")
        with pytest.raises(DomainMismatch):
            classify(late, r_max=1e3)


class TestFindSecondZero:
    def test_sine_zero(self):
        res = find_second_zero(const_profile(1.0), 0.0, 10.0, 1e-9)
        assert_allclose(res.r1, math.pi, atol=1e-9)

    def test_kicked_profile_against_closed_form(self):
        lam = ROOT_COT
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * lam, 0)
        want = cf.second_zero_closed_form(spec)
        res = find_second_zero(kick.kicked_profile(spec), 1.0, 3 * want, 1e-9)
        assert res.r1 is not None
        assert_allclose(res.r1, want, rtol=1e-7)

    def test_degenerate_kick_never_vanishes(self):
        spec = cf.KickSpec(1.0, E, E**2, 0.0, 0)
        res = find_second_zero(kick.kicked_profile(spec), 1.0, 1e6, 1e-9)
        assert res.r1 is None
        assert res.monotone
        assert res.w_end > 0 and res.wp_end > 0  # evidence: still climbing

    def test_sturm_monotonicity_in_mu(self):
        # second zero is non-increasing along an increasing 10-point mu grid
        lam = ROOT_COT
        mus = np.linspace(1.1 * lam, 3.0 * lam, 10)
        zeros = []
        for mu in mus:
            spec = cf.KickSpec(1.0, E, E**2, float(mu), 0)
            hint = cf.second_zero_closed_form(spec)
            res = find_second_zero(kick.kicked_profile(spec), 1.0, 3 * hint + 10, 1e-9)
            zeros.append(res.r1)
        assert all(a >= b for a, b in zip(zeros[:-1], zeros[1:]))
        assert zeros[0] > zeros[-1]

    @pytest.mark.parametrize("r0", [0.5, 2.0, 7.0])
    def test_scaling_law(self, r0):
        # second zero for base r0 equals r0 times the second zero for base 1
        lam = ROOT_COT
        mu = 1.4 * lam
        unit = cf.KickSpec(1.0, E, E**2, mu, 0)
        runit = find_second_zero(kick.kicked_profile(unit), 1.0, 1e5, 1e-10).r1
        scaled_profile = CurvatureProfile(
            func=lambda r: kick.kicked_profile(unit).func(np.asarray(r) / r0) / r0**2,
            r_min=1e-12,
            label="scaled",
            breakpoints=(r0 * E, r0 * E**2),
        )
        rscaled = find_second_zero(scaled_profile, r0, r0 * 1e5, 1e-10).r1
        assert_allclose(rscaled, r0 * runit, rtol=1e-8)


class TestIndexForm:
    def test_equality_case_vanishes(self):
        res = find_second_zero(const_profile(1.0), 0.0, 4.0, 1e-10)
        traj = res.trajectory.restricted(0.0, res.r1)
        val = index_form(IndexFormInput(n=2, y=traj, ric=const_profile(1.0)))
        assert abs(val) <= 1e-8

    def test_excess_ricci_gives_analytic_negative_value(self):
        res = find_second_zero(const_profile(1.0), 0.0, 4.0, 1e-10)
        traj = res.trajectory.restricted(0.0, res.r1)
        val = index_form(IndexFormInput(n=2, y=traj, ric=const_profile(1.05)))
        assert_allclose(val, -0.05 * math.pi / 2, rtol=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kicked_excess_is_strictly_negative(self, n):
        lam = ROOT_COT
        spec = cf.KickSpec(1.0, E, E**2, 1.5 * lam, 0)
        prof = kick.kicked_profile(spec)
        res = find_second_zero(prof, 1.0, 1e5, 1e-10)
        traj = res.trajectory.restricted(1.0, res.r1)
        ric = CurvatureProfile(
            func=lambda r: 1.01 * (n - 1) * prof.func(r),
            r_min=prof.r_min,
            label="ric-1pct",
            breakpoints=prof.breakpoints,
        )
        val = index_form(IndexFormInput(n=n, y=traj, ric=ric))
        assert val < 0.0
        # magnitude consistent with the 1% excess: |I| ~ 0.01 (n-1) int b y^2
        assert val < -1e-4

    def test_endpoint_invariant_enforced(self):
        traj = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 2.0, 1e-9)
        with pytest.raises(DomainMismatch):
            IndexFormInput(n=2, y=traj, ric=const_profile(1.0))


class TestPicone:
    def test_identical_coefficients(self):
        rep = picone_residual(arctan_profile(), arctan_profile(), 50.0, 1e-9)
        assert rep.residual <= 1e-8

    def test_sine_window_below_first_zero(self):
        rep = picone_residual(const_profile(1.0), const_profile(1.0), 3.0, 1e-9)
        assert rep.residual <= 1e-9

    def test_bump_comparison(self):
        ar = arctan_profile()
        c = CurvatureProfile(
            func=lambda r: ar.func(np.asarray(r)) + 0.1 * ((np.asarray(r) >= 1.0) & (np.asarray(r) <= 2.0)),
            label="arctan+0.1bump",
            breakpoints=(1.0, 2.0),
        )
        r1 = find_second_zero(c, 0.0, 1e3, 1e-9).r1
        rep = picone_residual(ar, c, 0.9 * r1, 1e-9)
        assert rep.residual <= 1e-7
        # stated contract: residual within 10 * tol * window length
        assert rep.residual <= 10 * 1e-9 * (rep.window[1] - rep.window[0])

    def test_window_past_zero_raises(self):
        ar = arctan_profile()
        c = CurvatureProfile(
            func=lambda r: ar.func(np.asarray(r)) + 0.1 * ((np.asarray(r) >= 1.0) & (np.asarray(r) <= 2.0)),
            label="arctan+0.1bump",
            breakpoints=(1.0, 2.0),
        )
        r1 = find_second_zero(c, 0.0, 1e3, 1e-9).r1
        with pytest.raises(YVanished):
            picone_residual(ar, c, 1.5 * r1, 1e-9)

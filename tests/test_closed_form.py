"""Closed-form machinery: iterated logs, the critical decay family, and the
piecewise kick solutions, validated against hand values and finite-difference
ODE residuals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slboundary import closed_form as cf
from slboundary.errors import DegenerateMu, DomainError, InvalidShell, NoSecondZero

E = math.e


def fd_ode_residual(y_of_r, coeff_of_r, r_grid):
    """|y'' + coeff * y| via 4th-order stencils in u = ln r on a log-spaced grid.

    With y = g(u), u = ln r: y'' = (g'' - g') / r^2.
    """
    u = np.log(r_grid)
    h = u[1] - u[0]
    assert_allclose(np.diff(u), h, rtol=1e-9)
    g = y_of_r(r_grid)
    gp = (-g[4:] + 8 * g[3:-1] - 8 * g[1:-3] + g[:-4]) / (12 * h)
    gpp = (-g[4:] + 16 * g[3:-1] - 30 * g[2:-2] + 16 * g[1:-3] - g[:-4]) / (12 * h * h)
    rm = r_grid[2:-2]
    ypp = (gpp - gp) / rm**2
    return np.abs(ypp + coeff_of_r(rm) * y_of_r(rm)), y_of_r(rm)


class TestIterLog:
    def test_depth_zero_is_identity(self):
        assert cf.iter_log(0, 7.3) == 7.3

    def test_double_log_of_e_to_e(self):
        assert_allclose(cf.iter_log(2, math.exp(E)), 1.0, atol=1e-14)

    def test_vanishes_at_superpower(self):
        # ln^k(e_k) = 0 for every depth
        for k in range(1, 4):
            assert_allclose(cf.iter_log(k, cf.superpower(k)), 0.0, atol=1e-12)

    def test_superpower_tower(self):
        assert cf.superpower(0) == 0.0
        assert cf.superpower(1) == 1.0
        assert_allclose(cf.superpower(2), E, rtol=1e-15)
        assert_allclose(cf.superpower(3), math.exp(E), rtol=1e-15)

    def test_domain_error_inside_chain(self):
        with pytest.raises(DomainError):
            cf.iter_log(2, 1.0)  # ln(1) = 0 feeds the second log

    def test_require_positive_flag(self):
        cf.iter_log(1, 2.0, require_positive=True)
        with pytest.raises(DomainError):
            cf.iter_log(1, 0.5, require_positive=True)


class TestCriticalDecay:
    def test_depth_zero_value(self):
        assert_allclose(cf.critical_decay(2.0), 1.0 / 16.0, rtol=1e-15)

    def test_depth_one_hand_value(self):
        # at r = e^2: (1/4)(e^-4 + e^-4/4), since ln e^2 = 2
        want = 0.25 * (math.exp(-4) + math.exp(-4) / 4)
        assert_allclose(cf.critical_decay(E**2, 0.0, 1), want, rtol=1e-14)

    def test_matches_kicked_coefficient_with_full_indicator(self):
        # depth 0 with amplitude mu equals (1 + 4 mu^2) / (4 r^2)
        r = np.geomspace(0.5, 50, 40)
        mu = 0.7
        assert_allclose(cf.critical_decay(r, mu, 0), (1 + 4 * mu**2) / (4 * r**2),
                        rtol=1e-14)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            cf.critical_decay(1.0, 0.0, 1)  # needs r > e_1 = 1


class TestAmplitude:
    def test_values(self):
        assert_allclose(cf.amplitude(1, 4.0), 2.0, rtol=1e-15)
        assert_allclose(cf.amplitude(2, E**2), math.sqrt(2 * E**2), rtol=1e-14)

    @pytest.mark.parametrize("k", [1, 2])
    def test_degenerate_branch_solves_one_level_down(self, k):
        # amplitude(k, r) * (A + B ln^k r) solves y'' + critical_decay(r, 0, k-1) y = 0
        A, B = 0.8, -0.3
        lo = cf.superpower(k) + 1.5 if k >= 2 else 1.3
        r = np.geomspace(lo, lo * 40, 3001)

        def y(rr):
            t = np.array([cf.iter_log(k, x) for x in np.atleast_1d(rr)])
            return cf.amplitude(k, rr) * (A + B * t)

        res, yv = fd_ode_residual(y, lambda rr: cf.critical_decay(rr, 0.0, k - 1), r)
        assert np.max(res / (1.0 + np.abs(yv))) <= 1e-8

    @pytest.mark.parametrize("k,mu", [(0, 1.3), (1, 0.9)])
    def test_oscillatory_branch_solves_its_family(self, k, mu):
        A, B = 0.4, 1.1
        lo = cf.superpower(k + 1) * 1.7 + 1.0
        r = np.geomspace(lo, lo * 60, 3001)

        def y(rr):
            t = np.array([cf.iter_log(k + 1, x) for x in np.atleast_1d(rr)])
            return cf.amplitude(k + 1, rr) * (A * np.cos(mu * t) + B * np.sin(mu * t))

        res, yv = fd_ode_residual(y, lambda rr: cf.critical_decay(rr, mu, k), r)
        assert np.max(res / (1.0 + np.abs(yv))) <= 1e-8


class TestKickSpec:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidShell):
            cf.KickSpec(r0=2.0, a=1.5, b=3.0, mu=1.0)
        with pytest.raises(InvalidShell):
            cf.KickSpec(r0=0.0, a=1.0, b=2.0, mu=1.0)
        with pytest.raises(InvalidShell):
            cf.KickSpec(r0=1.0, a=2.0, b=3.0, mu=-0.1)

    def test_superpower_bound_per_depth(self):
        with pytest.raises(InvalidShell):
            cf.KickSpec(r0=0.9, a=2.0, b=3.0, mu=1.0, k=1)  # needs r0 > e_1 = 1
        cf.KickSpec(r0=1.1, a=2.0, b=3.0, mu=1.0, k=1)


class TestLinearKickSolution:
    spec = cf.KickSpec(1.0, E, E**2, 2.0, 0)

    def test_initial_conditions(self):
        assert cf.linear_kick_solution(self.spec, 1.0) == 0.0
        h = 1e-7
        slope = cf.linear_kick_solution(self.spec, 1.0 + h) / h
        assert_allclose(slope, 1.0, atol=1e-6)

    def test_continuity_at_a(self):
        a = self.spec.a
        want = math.sqrt(a) * math.log(a)
        assert_allclose(cf.linear_kick_solution(self.spec, a), want, rtol=1e-14)

    def test_c1_matching_residual(self):
        # value and slope from both sides of a and b agree to 1e-12 relative
        h = 1e-6
        for point in (self.spec.a, self.spec.b):
            ym = cf.linear_kick_solution(self.spec, point - h)
            yp = cf.linear_kick_solution(self.spec, point + h)
            y0 = cf.linear_kick_solution(self.spec, point)
            assert_allclose(ym, y0, rtol=1e-5)
            slope_m = (y0 - ym) / h
            slope_p = (yp - y0) / h
            assert_allclose(slope_m, slope_p, rtol=1e-4)

    def test_matching_coefficients_exact_c1(self):
        coef = cf.matching_coefficients(self.spec)
        mu, a, b = self.spec.mu, self.spec.a, self.spec.b
        th = mu * math.log(b / a)
        alpha = math.sqrt(b) * (math.log(a) * math.cos(th) + math.sin(th) / mu)
        beta = math.sqrt(b) * (math.cos(th) - mu * math.log(a) * math.sin(th))
        assert_allclose(coef.alpha, alpha, rtol=1e-12)
        assert_allclose(coef.beta, beta, rtol=1e-12)

    def test_beta_negative_just_above_threshold(self):
        lam = 0.8603335890193797  # smallest positive root of cot x = x
        spec = cf.KickSpec(1.0, E, E**2, 1.1 * lam, 0)
        assert cf.matching_coefficients(spec).beta < 0.0

    def test_mu_zero_dispatches_to_degenerate(self):
        spec0 = cf.KickSpec(1.0, E, E**2, 0.0, 0)
        r = np.geomspace(1.0, 100.0, 50)
        assert_allclose(cf.linear_kick_solution(spec0, r), np.sqrt(r) * np.log(r),
                        rtol=1e-14)
        with pytest.raises(DegenerateMu):
            cf.matching_coefficients(spec0)

    def test_log_form_reduces_to_linear_form_at_depth_zero(self):
        r = np.geomspace(1.0, 200.0, 301)
        y_lin = cf.linear_kick_solution(self.spec, r)
        y_log = cf.log_kick_solution(self.spec, r)
        assert np.max(np.abs(y_lin - y_log)) <= 1e-12 * np.max(np.abs(y_lin))

    def test_mu_to_zero_limit_richardson(self):
        # shell branch with B replaced by B/mu converges to sqrt(r) ln r as mu -> 0
        r = np.geomspace(1.2 * E, 0.9 * E**2, 7)  # inside the shell

        def shell(mu):
            lra = np.log(r / self.spec.a)
            return np.sqrt(r) * (math.log(self.spec.a) * np.cos(mu * lra)
                                 + np.sin(mu * lra) / mu)

        limit = np.sqrt(r) * np.log(r)
        e4 = np.max(np.abs(shell(1e-4) - limit))
        e5 = np.max(np.abs(shell(1e-5) - limit))
        assert e4 < 1e-6
        assert 50.0 < e4 / e5 < 200.0  # O(mu^2) convergence


class TestSecondZeroClosedForm:
    def test_shell_case_from_base(self):
        # kick starting at the base point: first root at exp(pi/mu)
        for mu in (0.5, 1.0, 2.0):
            spec = cf.KickSpec(1.0, 1.0, math.exp(math.pi / mu) * 1.1, mu, 0)
            assert_allclose(cf.second_zero_closed_form(spec), math.exp(math.pi / mu),
                            rtol=1e-12)

    def test_paper_case_value(self):
        spec = cf.KickSpec(1.0, 1.0, 30.0, 1.0, 0)
        assert_allclose(cf.second_zero_closed_form(spec), 23.140692632779267,
                        rtol=1e-12)

    def test_no_second_zero_at_or_below_threshold(self):
        lam = 0.8603335890193797
        for mu in (0.0, 0.5 * lam, 0.999 * lam):
            with pytest.raises(NoSecondZero):
                cf.second_zero_closed_form(cf.KickSpec(1.0, E, E**2, mu, 0))

    def test_blows_up_as_mu_decreases_to_threshold(self):
        lam = 0.8603335890193797
        last = 0.0
        for d in (0.3, 0.1, 0.05, 0.02):
            r1 = cf.second_zero_closed_form(cf.KickSpec(1.0, E, E**2, lam * (1 + d), 0))
            assert r1 > last
            last = r1
        assert last > 1e8
        # and the root leaves float range entirely right at the threshold
        assert cf.second_zero_closed_form(
            cf.KickSpec(1.0, E, E**2, lam * (1 + 1e-6), 0)
        ) == math.inf

    def test_zero_of_shell_branch_when_it_lands_inside(self):
        # mu large: the root tan(mu ln(r/a)) = -mu ln a lands in (a, b]
        spec = cf.KickSpec(1.0, E, E**2, 6.0, 0)
        r1 = cf.second_zero_closed_form(spec)
        assert spec.a < r1 <= spec.b
        val = cf.linear_kick_solution(spec, r1)
        assert abs(val) < 1e-9 * math.sqrt(r1)


class TestShellCoefficientOracle:
    def test_depth_one_matches_least_squares_fit(self):
        # integrate the depth-1 equation and fit the shell branch basis
        from slboundary.sl_engine import CurvatureProfile, integrate_sl

        spec = cf.KickSpec(2.0, 4.0, 9.0, 1.4, 1)
        prof = CurvatureProfile(
            func=lambda r: cf.critical_decay(
                r, np.where((spec.a <= r) & (r <= spec.b), spec.mu, 0.0), 1),
            r_min=1.2,
            label="depth1-kick",
            breakpoints=(spec.a, spec.b),
        )
        phi0 = cf.amplitude(2, spec.r0)
        traj = integrate_sl(prof, spec.r0, 0.0, 1.0 / phi0, spec.b, 1e-11)
        rs = np.linspace(spec.a, spec.b, 400)
        w, _ = traj.evaluate(rs)
        tau = np.array([cf.iter_log(2, r) for r in rs])
        phi = cf.amplitude(2, rs)
        design = np.column_stack([phi * np.cos(spec.mu * tau), phi * np.sin(spec.mu * tau)])
        fit, *_ = np.linalg.lstsq(design, w, rcond=None)
        coef = cf.matching_coefficients(spec)
        assert_allclose(fit, [coef.A, coef.B], rtol=1e-6, atol=1e-9)

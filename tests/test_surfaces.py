"""Surfaces of revolution: curvature formulas, geodesic radius, and the
profile pipeline feeding the bifurcator classifier."""

import csv
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from slboundary import bifurcator as bf
from slboundary import planar
from slboundary import surfaces as sf
from slboundary.errors import DomainError
from slboundary.sl_engine import integrate_sl


class TestProfileCurvature:
    def test_capped_cylinder_at_axis(self):
        cc = sf.capped_cylinder()
        assert_allclose(sf.profile_curvature(cc, 0.0), 1 / math.sqrt(2), rtol=1e-14)

    def test_paraboloid_vertex(self):
        assert_allclose(sf.profile_curvature(sf.paraboloid(), 0.0), 2.0, rtol=1e-14)

    def test_capped_cylinder_asymptotic_decay(self):
        # kappa -> 2 (1 - rho)^3 as rho -> 1
        cc = sf.capped_cylinder()
        for rho in (0.99, 0.999, 0.9999):
            k = sf.profile_curvature(cc, rho)
            assert_allclose(k, 2 * (1 - rho) ** 3, rtol=3 * (1 - rho) ** 4 + 1e-10)

    def test_domain_error_at_one(self):
        with pytest.raises(DomainError):
            sf.profile_curvature(sf.capped_cylinder(), 1.0)


class TestGaussCurvature:
    def test_paraboloid_closed_form(self):
        pb = sf.paraboloid()
        for rho in (0.3, 1.0, 7.0):
            assert_allclose(sf.gauss_curvature(pb, rho), 4.0 / (1 + 4 * rho**2) ** 2,
                            rtol=1e-13)

    def test_paraboloid_axis_limit(self):
        assert_allclose(sf.gauss_curvature(sf.paraboloid(), 1e-8), 4.0, rtol=1e-9)

    def test_axis_raises(self):
        with pytest.raises(DomainError):
            sf.gauss_curvature(sf.capped_cylinder(), 0.0)

    def test_modes_agree_near_the_cylinder_end(self):
        cc = sf.capped_cylinder()
        ke = sf.gauss_curvature(cc, 0.99, "exact")
        kp = sf.gauss_curvature(cc, 0.99, "paper")
        assert abs(ke / kp - 1.0) <= 0.01
        # both sit in the 2/z^3 regime
        z = cc.z(0.99)
        assert_allclose(ke, 2 / z**3, rtol=0.02)

    def test_straight_profile_is_flat(self):
        cone = sf.RevolutionSurface(
            z=lambda rho: 3.0 * rho + 1.0,
            dz=lambda rho: 3.0 + 0.0 * np.asarray(rho),
            d2z=lambda rho: 0.0,
            rho_domain=(0.0, math.inf),
            label="cone-segment",
        )
        assert sf.gauss_curvature(cone, 2.0) == 0.0


class TestGeodesicRadius:
    def test_flat_disk_identity(self):
        # z identically 0: the geodesic radius is rho
        disk = sf.RevolutionSurface(z=lambda rho: 0.0, dz=lambda rho: 0.0, d2z=lambda rho: 0.0,
                                    rho_domain=(0.0, math.inf), label="flat-disk")
        assert_allclose(sf.geodesic_radius(disk, 2.5), 2.5, rtol=1e-12)

    def test_capped_cylinder_tracks_height(self):
        cc = sf.capped_cylinder()
        r = sf.geodesic_radius(cc, 0.999)
        z = cc.z(0.999)
        assert abs(r / z - 1.0) <= 0.02

    def test_paraboloid_quadratic_growth(self):
        pb = sf.paraboloid()
        # analytic arc length: (rho sqrt(1+4rho^2) + asinh(2 rho)/2)/2
        for rho in (3.0, 30.0, 300.0):
            want = 0.5 * (rho * math.sqrt(1 + 4 * rho**2) + math.asinh(2 * rho) / 2)
            assert_allclose(sf.geodesic_radius(pb, rho), want, rtol=1e-10)
        assert abs(sf.geodesic_radius(pb, 300.0) / 300.0**2 - 1.0) <= 0.01

    def test_strictly_increasing_with_unit_slope_floor(self):
        cc = sf.capped_cylinder()
        rhos = np.linspace(0.01, 0.95, 20)
        rs = np.array([sf.geodesic_radius(cc, x) for x in rhos])
        drho = np.diff(rhos)
        assert np.all(np.diff(rs) >= drho * (1.0 - 1e-12))


class TestCurvatureProfile:
    def test_capped_cylinder_decay_constant(self):
        # K r^3 -> 2; approach is 2 (1 - c/r + O(r^-2)), c = 3 c0 - 1 ~= 1.590
        cc = sf.capped_cylinder()
        vals = []
        for z in np.geomspace(150.0, 1001.0, 12):
            rho = 1 - 1 / z
            r = sf.geodesic_radius(cc, rho)
            vals.append((r, sf.gauss_curvature(cc, rho) * r**3))
        vals = np.array(vals)
        assert np.all(np.abs(vals[:, 1] - 2.0) <= 3.4 / vals[:, 0])
        assert abs(vals[-1, 1] - 2.0) <= 0.01  # within 0.5% by r = 1000

    def test_profile_matches_pointwise_curvature(self):
        cc = sf.capped_cylinder()
        prof = sf.curvature_profile(cc, np.geomspace(0.1, 2e3, 8))
        for z in (1.3, 5.0, 70.0, 900.0):
            rho = 1 - 1 / z
            r = sf.geodesic_radius(cc, rho)
            assert_allclose(prof(r), sf.gauss_curvature(cc, rho), rtol=1e-7)

    def test_capped_cylinder_classifies_bifurcator(self):
        cc = sf.capped_cylinder()
        prof = sf.curvature_profile(cc, np.geomspace(0.1, 2.2e4, 8))
        rep = bf.classify(prof, r_max=2e4, tol=1e-11)
        assert rep.classification == bf.CLASS_BIFURCATOR

    @pytest.mark.parametrize("name", ["capped-cylinder", "paraboloid"])
    def test_jacobi_solution_reproduces_parallel_radius(self, name):
        s = sf.capped_cylinder() if name == "capped-cylinder" else sf.paraboloid()
        prof = sf.curvature_profile(s, np.geomspace(0.1, 1.2e3, 8))
        traj = integrate_sl(prof, 0.0, 0.0, 1.0, 1e3, 1e-10)
        if name == "capped-cylinder":
            rhos = [1 - 1 / z for z in (2.0, 10.0, 200.0, 900.0)]
        else:
            rhos = [1.0, 5.0, 15.0, 30.0]
        for rho in rhos:
            r = sf.geodesic_radius(s, rho)
            w, _ = traj.evaluate(r)
            assert abs(w - rho) / rho <= 1e-3

    def test_paraboloid_saturates_quarter(self):
        pb = sf.paraboloid()
        rho = brentq(lambda p: sf.geodesic_radius(pb, p) - 1e3, 1.0, 200.0)
        r = sf.geodesic_radius(pb, rho)
        k = sf.gauss_curvature(pb, rho)
        assert abs(k * r * r - 0.25) <= 1e-3

    @pytest.mark.parametrize("name", ["capped-cylinder", "paraboloid"])
    def test_profile_matches_exact_curvature(self, name):
        # K(rho(r)) from the exact formula at the geodesic radius of rho,
        # through both kernels, on the bench ops' ranges
        if name == "capped-cylinder":
            s, r_hi = sf.capped_cylinder(), 2.2e4
            rhos = 1.0 - np.geomspace(0.95, 1.0 / r_hi, 150)
        else:
            s, r_hi = sf.paraboloid(), 1.1e4
            rhos = np.geomspace(1e-3, 100.0, 150)
        prof = sf.curvature_profile(s, np.geomspace(0.1, r_hi, 16))
        rs = np.array([sf.geodesic_radius(s, float(rho)) for rho in rhos])
        want = np.array([sf.gauss_curvature(s, float(rho)) for rho in rhos])
        scalar = np.array([prof(float(r)) for r in rs])
        worst = max(np.max(np.abs(scalar / want - 1.0)),
                    np.max(np.abs(prof.func(rs) / want - 1.0)))
        print(f"{name}: largest relative error {worst:.3g}")
        assert worst <= 1e-10

    @pytest.mark.parametrize("name, cap_rho, r_hi", [
        ("capped-cylinder", 0.03, 2.2e4), ("capped-cylinder", 0.08, 2.2e4),
        ("paraboloid", None, 1.1e4)])
    def test_knot_slopes_keep_the_cubic_monotone(self, name, cap_rho, r_hi):
        # Fritsch-Carlson: m_i / delta and m_{i+1} / delta in [0, 3] on every
        # interval keep the Hermite cubic monotone, as PCHIP's slopes did
        s = sf.capped_cylinder(cap_rho) if name == "capped-cylinder" else sf.paraboloid()
        x, y, m = sf._hermite_knots(s, *sf._profile_knots(s, r_hi))
        delta = np.diff(y) / np.diff(x)
        ratios = np.concatenate([m[:-1] / delta, m[1:] / delta])
        print(f"{name} {cap_rho}: {len(x)} knots, slope ratios in "
              f"[{ratios.min():.6f}, {ratios.max():.6f}]")
        assert np.all((ratios >= 0.0) & (ratios <= 3.0))

    def test_capped_cylinder_limit_is_parallel_radius(self):
        # the meridian Jacobi field is the parallel radius rho -> 1, over the
        # bench cylinder op's cap_rho range
        errs = []
        for cap in np.linspace(0.03, 0.08, 11):
            prof = sf.curvature_profile(sf.capped_cylinder(cap), np.geomspace(0.1, 2.2e4, 16))
            rep = bf.classify(prof, r_max=2e4, tol=1e-10)
            assert rep.classification == bf.CLASS_BIFURCATOR
            errs.append(abs(rep.w_limit - 1.0))
        print("largest |w_limit - 1|:", max(errs))
        assert max(errs) <= 1e-7

    @pytest.mark.parametrize("name, r_max", [("capped-cylinder", 2e4), ("paraboloid", 1e4)])
    def test_surface_solve_meets_its_defect_bound(self, name, r_max):
        s = sf.capped_cylinder() if name == "capped-cylinder" else sf.paraboloid()
        prof = sf.curvature_profile(s, np.geomspace(0.1, 1.1 * r_max, 16))
        traj = integrate_sl(prof, *bf.origin_start(prof), r_max, 1e-10)
        defect = traj.residual_report()
        print(f"{name}: residual_report() {defect:.3g}")
        assert defect <= 1.0

    def test_profile_domain_guard(self):
        cc = sf.capped_cylinder()
        prof = sf.curvature_profile(cc, np.geomspace(0.1, 100.0, 8))
        with pytest.raises(DomainError):
            prof(150.0)

    @pytest.mark.parametrize("name", ["capped-cylinder", "paraboloid"])
    @pytest.mark.parametrize("r_grid", [[math.nan, 1.0], [0.0], [-1.0], []],
                             ids=["nan", "zero", "negative", "empty"])
    def test_meaningless_grid_refused(self, name, r_grid):
        s = sf.capped_cylinder() if name == "capped-cylinder" else sf.paraboloid()
        with pytest.raises(DomainError):
            sf.curvature_profile(s, r_grid)

    def test_grid_inside_the_cap(self):
        # r_hi below the cap's arc still tabulates past it, so both kernels
        # read the cap's curvature
        cc = sf.capped_cylinder()
        prof = sf.curvature_profile(cc, [0.01])
        assert prof(0.005) == cc.cap.gauss()
        assert np.all(prof.func(np.array([0.001, 0.005])) == cc.cap.gauss())

    def test_paraboloid_knot_radii(self):
        # every knot against the closed-form arclength of y = x^2
        rhos, rs = sf._profile_knots(sf.paraboloid(), 1.1e4)
        worst = np.max(np.abs(rs / planar.parabola_arclength(1.0, rhos) - 1.0))
        print(f"paraboloid: {len(rs)} knots, largest relative error {worst:.3g}")
        assert worst <= 4e-15

    def test_cylinder_knot_radii(self):
        # 12 knots, the last included, against the cap's arc plus mpmath's
        # quadrature of sqrt(1 + z'^2) at 30 digits, split at the dyadic
        # points 1 - 2^-k toward the cylinder's end rho = 1
        s = sf.capped_cylinder(0.05)
        rhos, rs = sf._profile_knots(s, 2.2e4)
        mp = mpmath.mp.clone()
        mp.dps = 30

        def arc(a, b):
            points = [a] + [1 - mp.mpf(2) ** -k for k in range(1, 60)
                            if a < 1 - mp.mpf(2) ** -k < b] + [b]
            return mp.quad(lambda u: mp.sqrt(1 + (1 - u) ** -4), points)

        lo, ref, worst = mp.mpf(s.cap.rho_c), mp.mpf(s.cap.arc), 0.0
        for i in np.unique(np.linspace(0, len(rhos) - 1, 12).astype(int)):
            hi = mp.mpf(float(rhos[i]))
            ref += arc(lo, hi)
            lo = hi
            worst = max(worst, abs(float((rs[i] - ref) / ref)))
        print(f"capped-cylinder: last knot r = {rs[-1]:.2f}, "
              f"largest relative error {worst:.3g}")
        assert worst <= 1e-14

    def test_nan_slope_refused(self):
        # z' is NaN beyond rho = 2: the knot arcs reach it and refuse
        s = sf.RevolutionSurface(
            z=lambda rho: rho * rho,
            dz=lambda rho: 2.0 * rho if rho < 2.0 else math.nan,
            d2z=lambda rho: 2.0,
            rho_domain=(0.0, math.inf),
            label="nan-slope",
        )
        with pytest.raises(DomainError):
            sf.curvature_profile(s, np.geomspace(0.1, 100.0, 8))


class TestCsvExport:
    def test_columns_and_trend(self, tmp_path):
        cc = sf.capped_cylinder()
        path = tmp_path / "cc.csv"
        rhos = 1.0 - np.geomspace(0.5, 1e-3, 40)
        sf.export_profile_csv(cc, rhos, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rho", "z", "r", "K_exact", "K_paper", "K_r3"]
        assert len(rows) == 41
        k_r3 = [float(r[5]) for r in rows[1:]]
        assert abs(k_r3[-1] - 2.0) < 0.01

"""Bifurcator classification, the structural diagnostics, and the boundary
tests, anchored on the arctan example where everything is known in closed form."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slboundary import bifurcator as bf
from slboundary import sl_engine
from slboundary.errors import DomainMismatch, ExceedanceViolated
from slboundary.sl_engine import CurvatureProfile, dominates, find_second_zero, integrate_sl


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
        rep = bf.classify(prof, r_max=1e4)
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

    @pytest.mark.parametrize("r_max", [10.0, 1e3, 1e4])
    def test_moment_matches_closed_form(self, r_max):
        # int r / (1 + r^2)^2 dr = [-1 / (2 (1 + r^2))]
        prof = CurvatureProfile(func=lambda r: 1.0 / (1.0 + np.asarray(r) ** 2) ** 2,
                                label="inverse-square-squared")

        def moment(a, c):
            return 0.5 / (1.0 + a * a) - 0.5 / (1.0 + c * c)

        rep = bf.abresch_checks(prof, r_max=r_max, tol=1e-9)
        assert_allclose(rep.moment_integral, moment(0.0, r_max), rtol=1e-14)
        assert_allclose(rep.moment_tail_ratio,
                        moment(r_max / 2, r_max) / moment(r_max / 4, r_max / 2), rtol=1e-12)

    def test_moment_panels(self):
        # geometric panels at most 1.5x wide, split at the cuts inside the block
        edges = bf._moment_panels(2.0, 100.0, [1.0, 7.0, 100.0])
        assert edges[0] == 2.0 and edges[-1] == 100.0 and 7.0 in edges
        assert np.all(edges[1:] / edges[:-1] <= 1.5 * (1 + 1e-12))
        # from 0: one panel to MOMENT_FLOOR times the end, then geometric
        edges = bf._moment_panels(0.0, 1250.0, [])
        assert edges[0] == 0.0 and edges[1] == bf.MOMENT_FLOOR * 1250.0
        assert np.all(edges[2:] / edges[1:-1] <= 1.5 * (1 + 1e-12))

    @pytest.mark.parametrize("cut", [1e4, 5e4])
    def test_breakpoint_at_or_past_r_max_is_ignored(self, cut):
        # a breakpoint at or past r_max used to start the reduction of
        # order (c) outside the solve
        plain = bf.abresch_checks(bf.arctan_profile(), r_max=1e4, tol=1e-9)
        cut_profile = dataclasses.replace(bf.arctan_profile(), breakpoints=(cut,))
        assert bf.abresch_checks(cut_profile, r_max=1e4, tol=1e-9) == plain

    @pytest.mark.parametrize("cut", [5e3, 9e3])
    def test_reduction_of_order_crosses_breakpoints(self, cut):
        # w and w' are continuous at a breakpoint, so (c) integrates across
        # it; starting past it read 3,183 (5e3) and 637 (9e3, not divergent)
        plain = bf.abresch_checks(bf.arctan_profile(), r_max=1e4, tol=1e-9)
        cut_profile = dataclasses.replace(bf.arctan_profile(), breakpoints=(cut,))
        rep = bf.abresch_checks(cut_profile, r_max=1e4, tol=1e-9)
        assert rep.independent_diverges
        assert_allclose(rep.independent_solution_value, plain.independent_solution_value,
                        rtol=1e-9)


class TestQuadratureNames:
    def test_index_form_and_abresch_call_the_module_names(self, monkeypatch):
        """bench/tracing.py wraps sl_engine.quad, bifurcator.quad and
        surfaces.quad by name: each caller must look its rule up there."""
        from slboundary import surfaces

        calls = {"sl_engine": 0, "bifurcator": 0}

        def counting(module):
            rule = module.quad

            def quad(*args):
                calls[module.__name__.rsplit(".", 1)[1]] += 1
                return rule(*args)

            return quad

        monkeypatch.setattr(sl_engine, "quad", counting(sl_engine))
        monkeypatch.setattr(bf, "quad", counting(bf))
        one = const_profile(1.0)
        traj = integrate_sl(one, 0.0, 0.0, 1.0, math.pi, 1e-9)
        sl_engine.index_form(sl_engine.IndexFormInput(n=2, y=traj, ric=one))
        assert calls == {"sl_engine": 1, "bifurcator": 0}
        bf.abresch_checks(bf.arctan_profile(), r_max=1e3, tol=1e-9)
        assert calls["sl_engine"] == 1 and calls["bifurcator"] == 4
        assert callable(surfaces.quad)


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

    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_degenerate_grid_refused(self, grid_size):
        # with no grid the exceedance check saw nothing and CompactSide came back
        with pytest.raises(DomainMismatch, match="grid_size >= 2"):
            bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.05), r_max=1e4,
                             grid_size=grid_size)

    def test_margin_grows_find_zero_sooner(self):
        z5 = bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.05), r_max=1e4).second_zero
        z20 = bf.boundary_test(bf.arctan_profile(), bumped_arctan(0.20), r_max=1e4).second_zero
        assert z20 < z5


def _bump(x):
    """Smooth bump supported on (-1, 1) with peak 1 at 0."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    t = np.where(inside, x, 0.0)
    return np.where(inside, np.exp(-t * t / (1.0 - t * t)), 0.0)


@st.composite
def bench_comparisons(draw):
    """(b, c, r_max) as bifurcator-compare's comparison ops draw them: the
    arctan profile scaled by s, and c = b plus a bump of width 0.5 / s."""
    s = draw(st.floats(1.0, 4.0))
    height = s * s * draw(st.floats(0.2, 1.0))
    centre = draw(st.floats(1.5, 3.0)) / s
    base = bf.arctan_profile().func
    b = CurvatureProfile(func=lambda r: s * s * base(s * np.asarray(r, dtype=float)),
                         label=f"arctan[s={s:.6g}]")
    c = CurvatureProfile(
        func=lambda r: b.func(r) + height * _bump((np.asarray(r) - centre) * 2.0 * s),
        label=f"{b.label}+bump")
    return b, c, 1e3 / s


class TestBoundaryTestStop:
    # boundary_test's search stops at the node past the second zero; its r1
    # is the first zero of the full solve to r_max on a memo-free copy of c
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(bench_comparisons())
    def test_second_zero_of_the_full_solve(self, ops):
        b, c, r_max = ops
        full = integrate_sl(dataclasses.replace(c), *sl_engine.origin_start(c), r_max, 1e-9)
        v = bf.boundary_test(b, c, r_max=r_max, tol=1e-9)
        stopped = next(iter(c._solves.values()))
        steps = stopped.solver_counts()["accepted"], full.solver_counts()["accepted"]
        print(f"{c.label}: second zero {v.second_zero!r}, stop at {stopped.r_end!r} of "
              f"{r_max!r}, {steps[0]} of {steps[1]} accepted steps")
        assert v.verdict == "CompactSide"
        assert v.second_zero.hex() == float(full.zeros[0]).hex()
        assert stopped.r_end == full.grid[np.searchsorted(full.grid, v.second_zero)]
        assert steps[0] < steps[1]


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

    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_degenerate_grid_refused(self, grid_size):
        ar = bf.arctan_profile()
        with pytest.raises(DomainMismatch, match="grid_size >= 2"):
            bf.noncompact_side_check(ar, ar, r_max=1e4, grid_size=grid_size)

    def test_liminf_diagnostic_decays(self):
        # b ~ 4/(pi r^3): the last-dyad minimum falls off like r_max^-3
        ar = bf.arctan_profile()
        d1 = bf.noncompact_side_check(ar, ar, r_max=1e3).detail
        d2 = bf.noncompact_side_check(ar, ar, r_max=1e4).detail
        v1 = float(d1.split("=")[-1])
        v2 = float(d2.split("=")[-1])
        assert v2 < v1
        assert_allclose(v2, 4.0 / (math.pi * 1e4**3), rtol=1e-3)


def inverse_cubic():
    """b(r) = 1/(r(1+r^2)): singular at the origin, where a float raises."""
    return CurvatureProfile(func=lambda r: 1.0 / (r * (1.0 + r * r)), label="1/(r(1+r^2))")


# The four hand-written dominance checks that dominates() replaced, each as
# accept(upper, lower) on float arrays.
REFERENCE_FORMS = {
    "certify base": lambda u, lo: np.isfinite(u) & (u - lo >= -1e-12 * (np.abs(lo) + np.abs(u))),
    "certify fallback": lambda u, lo: np.isfinite(lo) & (lo <= u * (1 + 1e-12)),
    "boundary_test": lambda u, lo: np.isfinite(u) & (u >= lo * (1.0 - 1e-12) - 1e-300),
    "noncompact_side_check": lambda u, lo: np.isfinite(lo) & (lo <= u * (1.0 + 1e-12)),
}


def accepts(upper, lower):
    """Whether dominates() lets the constant upper lie above the constant lower."""
    const = lambda v: CurvatureProfile(func=lambda r: np.full(np.shape(r), v))
    return dominates(const(upper), const(lower), [1.0]) is None


def neighbours(x, n=3):
    """x and its n nearest floats on each side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


class TestDominates:
    def test_first_failing_radius(self):
        ar = bf.arctan_profile()
        rs = np.geomspace(1.0, 100.0, 50)
        dip = CurvatureProfile(func=lambda r: np.where(r > 10.0, 0.5, 1.0) * ar.func(r))
        assert dominates(ar, ar, rs) is None
        assert dominates(dip, ar, rs) == rs[rs > 10.0][0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_fails(self, value):
        assert not accepts(1.0, value)
        assert not accepts(value, 1.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.floats(0.0, 1e308), st.floats(0.0, 1e-300),
                  st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308])),
        st.one_of(st.floats(-3e-12, 3e-12), st.floats(-1.0, 1.0)),
    )
    def test_no_looser_than_the_old_forms(self, lower, rel):
        """Every nonnegative pair an old form rejects, dominates rejects too.

        The candidates for upper sit at ulp distance from lower (1 + rel) and
        from each old form's own boundary, where rounding decides.
        """
        centres = [lower * (1.0 + rel), lower * (1.0 - 1e-12) - 1e-300, lower * (1 + 1e-12)]
        uppers = {y for c in centres if math.isfinite(c) for y in neighbours(max(c, 0.0))}
        for u, lo in [(u, lower) for u in uppers] + [(lower, u) for u in uppers]:
            if not (0.0 <= u < math.inf and 0.0 <= lo < math.inf):
                continue
            with np.errstate(over="ignore"):  # the old forms overflowed near 1e308
                rejected_by = [name for name, form in REFERENCE_FORMS.items()
                               if not form(np.array([u]), np.array([lo]))[0]]
            assert not (rejected_by and accepts(u, lo)), (u, lo, rejected_by)

    def test_negative_constant_dominates_itself(self):
        # a multiplicative slack b (1 -+ 1e-12) points the wrong way for b < 0
        b = const_profile(-1e-3)
        assert bf.boundary_test(b, b, r_max=100.0).verdict == "NoEvidence"
        assert bf.noncompact_side_check(b, b, r_max=100.0).verdict == "NoncompactSide"


class TestOriginStart:
    def test_singular_origin_gives_typed_results(self):
        prof = inverse_cubic()
        assert isinstance(bf.abresch_checks(prof, r_max=100.0), bf.AbreschReport)
        v = bf.boundary_test(prof, prof, r_max=100.0)
        assert v.verdict in ("NoEvidence", "CompactSide")

    def test_same_start_in_every_caller(self, monkeypatch):
        prof = CurvatureProfile(func=lambda r: 1.0 / (1.0 + r * r) ** 2, r_min=1e-9,
                                label="r_min=1e-9")
        starts, searches = [], []

        def spy(profile, r_start, w0, w0p, *args, **kwargs):
            starts.append((r_start, w0, w0p))
            return integrate_sl(profile, r_start, w0, w0p, *args, **kwargs)

        def search_spy(profile, r0, r_max, tol, w0, w0p):
            searches.append((r0, w0, w0p))
            return find_second_zero(profile, r0, r_max, tol, w0, w0p)

        monkeypatch.setattr(bf, "integrate_sl", spy)
        monkeypatch.setattr(sl_engine, "integrate_sl", spy)
        # boundary_test solves through find_second_zero, which solves through
        # sl_engine.integrate_sl: its start is seen by both spies
        monkeypatch.setattr(bf, "find_second_zero", search_spy)
        bf.classify(prof, r_max=100.0)
        bf.abresch_checks(prof, r_max=100.0)
        bf.boundary_test(prof, prof, r_max=100.0)
        sl_engine.picone_residual(prof, prof, 50.0)
        assert searches == [(1e-6, 1e-6, 1.0)]
        assert starts == [(1e-6, 1e-6, 1.0)] * 5

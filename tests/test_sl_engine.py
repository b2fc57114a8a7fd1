"""Integration engine: trivial coefficients, the arctan oracle, event
detection, the dense-output defect certificate, Sturm spacing of the
stored grid, the index form, the Picone comparison residual, the
per-profile memo of the last solve, and solves that resume from it."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slboundary import closed_form as cf
from slboundary import kick, sl_engine
from slboundary import surfaces as sf
from slboundary.bifurcator import arctan_profile, boundary_test
from slboundary.errors import (DomainError, DomainMismatch, NonFiniteCoefficient, StepUnderflow,
                               ToolkitError, YVanished)
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

    def test_dense_defect_on_readme_shell(self):
        # the certify shell at tol 1e-10; the Hermite midpoint defect read 1.40 here
        spec = cf.KickSpec(1.0, E, E**2, 0.95, 0)
        traj = integrate_sl(kick.kicked_profile(spec), 1.0, 0.0, 1.0, 1e6, 1e-10)
        defect = traj.residual_report()
        print(f"dense-output defect, README shell at tol 1e-10: {defect:.3g}")
        assert defect <= 1.0

    def test_defect_reads_the_dense_output(self):
        traj = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 10.0, 1e-9)
        piece = traj.dense.pieces[0][2]
        assert traj.residual_report() <= 1.0
        piece.F[:, piece.accepted // 2] *= 1.0 + 1e-6
        assert traj.residual_report() > 1.0

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
        pole = CurvatureProfile(func=lambda r: 1.0 / abs(r - 5.0), label="pole")
        with pytest.raises(StepUnderflow, match=r"on the piece \[4\.9, 5\.1\]") as exc:
            integrate_sl(pole, 4.9, 1.0, 0.0, 5.1, 1e-9)
        r = float(re.search(r"at r = (\S+) ", str(exc.value)).group(1))
        assert 4.9 < r <= 5.0

    def test_vanishing_error_estimate_is_typed(self):
        # err5 = 0 with 0.01 * err3 underflowing made the error norm 0 / 0,
        # which raised ZeroDivisionError; it is NaN now and rejects the step
        prof = kick.kicked_profile(cf.KickSpec(1.0, E, E**2, 0.5, 0))
        with pytest.raises(ToolkitError) as exc:
            integrate_sl(prof, 1.0, 0.0, 1.0, 1e300, 1e-9)
        assert isinstance(exc.value, StepUnderflow)
        assert "on the piece [7.3890560989306495, 1e+300]" in str(exc.value)

    def test_repeated_breakpoint_cuts_once(self):
        # a repeated breakpoint must not leave a zero-width piece
        prof = CurvatureProfile(func=lambda r: 1.0 + 0.0 * np.asarray(r), breakpoints=(0.5, 0.5))
        traj = integrate_sl(prof, 0.0, 0.0, 1.0, 1.0, 1e-9)
        assert [(lo, hi) for lo, hi, _ in traj.dense.pieces] == [(0.0, 0.5), (0.5, 1.0)]
        assert abs(traj.w[-1] - math.sin(1.0)) < 1e-8

    def test_precondition_checks(self):
        with pytest.raises(DomainMismatch):
            integrate_sl(const_profile(1.0), 3.0, 0.0, 1.0, 2.0, 1e-9)
        with pytest.raises(DomainMismatch):
            integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, 2.0, 1e-2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_start_data_refused(self, which, bad):
        """r_start, w0, w0p or r_end NaN or inf: DomainMismatch before the
        coefficient is evaluated (a NaN state gave an untyped ValueError,
        and r_end = inf a NonFiniteCoefficient near r = 1e308)."""
        radii = []
        prof = CurvatureProfile(func=lambda r: radii.append(r) or 1.0, label="counted")
        args = [0.0, 0.0, 1.0, 2.0]  # r_start, w0, w0p, r_end
        args[which] = bad
        with pytest.raises(DomainMismatch, match="need finite"):
            integrate_sl(prof, *args, 1e-9)
        assert radii == [] and prof._solves == {}


def _bumped_arctan():
    ar = arctan_profile()

    def func(r):
        x = (np.asarray(r, dtype=float) - 2.0) / 0.5
        inside = np.abs(x) < 1.0
        t = np.where(inside, x, 0.0)
        return ar.func(r) + 0.6 * np.where(inside, np.exp(-t * t / (1.0 - t * t)), 0.0)

    return CurvatureProfile(func=func, label="arctan+bump")


def _sturm_cases():
    shells = [cf.KickSpec(1.0, E, E**2, 0.95, 0), cf.KickSpec(3.0, 9.0, 60.0, 2.0, 1),
              cf.KickSpec(20.0, 60.0, 400.0, 30.0, 2)]
    for spec in shells:
        r1 = cf.second_zero_closed_form(spec)
        yield spec.k, kick.kicked_profile(spec), (spec.r0, 0.0, 1.0), 2.0 * r1, 1e-9
    yield "arctan", arctan_profile(), (0.0, 0.0, 1.0), 1e4, 1e-9
    yield "bumped", _bumped_arctan(), (0.0, 0.0, 1.0), 1e3, 1e-9
    for name, surf, r_max in (("cylinder", sf.capped_cylinder(), 2e3),
                              ("paraboloid", sf.paraboloid(), 1.2e3)):
        prof = sf.curvature_profile(surf, np.geomspace(0.1, 1.1 * r_max, 16))
        yield name, prof, sl_engine.origin_start(prof), r_max, 1e-10


class TestSturmSpacing:
    def test_each_interval_holds_at_most_one_event(self):
        # With 0 <= b <= B on an interval of length h, the scaled Pruefer
        # angle rises by at most h sqrt(B); h sqrt(B) < pi leaves room for at
        # most one zero of w and one of w', so grid sign changes count them.
        for name, prof, start, r_end, tol in _sturm_cases():
            g = integrate_sl(prof, *start, r_end, tol).grid
            h = np.diff(g)
            nudge = np.maximum(1e-9 * h, 4.0 * np.spacing(np.abs(g[1:])))
            b = np.maximum.reduce([prof.values(g[:-1] + nudge), prof.values(g[:-1] + h / 2),
                                   prof.values(g[1:] - nudge), np.zeros_like(h)])
            spacing = float(np.max(h * np.sqrt(b)) / math.pi)
            print(f"Sturm spacing {name}: max h sqrt(max b) / pi = {spacing:.3g}")
            assert spacing < 1.0, name


class TestSolveMemo:
    BASE = (0.0, 0.0, 1.0, 10.0, 1e-9)  # (r_start, w0, w0p, r_end, tol)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The list of _solve_piece calls made from now on."""
        calls = []
        solve = sl_engine._solve_piece

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(sl_engine, "_solve_piece", counting)
        return calls

    @staticmethod
    def same_bits(a, b):
        return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
                   for f in ("grid", "w", "wp", "zeros", "extrema", "r_start", "r_end", "tol"))

    def test_same_arguments_share_one_solve(self, solves):
        prof = const_profile(1.0)
        first = integrate_sl(prof, *self.BASE)
        assert integrate_sl(prof, *self.BASE) is first
        assert integrate_sl(prof, 0, 0, 1, 10, 1e-9) is first  # the same floats
        assert len(solves) == 1

    @pytest.mark.parametrize("i, value", [(0, 0.5), (1, 0.25), (2, 2.0), (3, 8.0),
                                          (4, 1e-8), (0, -0.0), (1, -0.0)])
    def test_changed_argument_solves_again(self, solves, i, value):
        prof = const_profile(1.0)
        base = integrate_sl(prof, *self.BASE)
        args = list(self.BASE)
        args[i] = value
        got = integrate_sl(prof, *args)
        assert got is not base and len(solves) == 2
        fresh = CurvatureProfile(func=prof.func, r_min=prof.r_min, label=prof.label,
                                 breakpoints=prof.breakpoints)
        assert self.same_bits(got, integrate_sl(fresh, *args))

    def test_replaced_profile_solves_again(self, solves):
        prof = const_profile(1.0)
        first = integrate_sl(prof, *self.BASE)
        copy = dataclasses.replace(prof)
        assert copy._solves == {}
        again = integrate_sl(copy, *self.BASE)
        assert again is not first and len(solves) == 2
        assert self.same_bits(again, first)

    def test_failed_solve_raises_every_time(self, solves):
        with np.errstate(invalid="ignore"):
            bad = CurvatureProfile(func=lambda r: float(np.sqrt(5.0 - r)), label="nan-tail")
            for _ in range(2):
                with pytest.raises(NonFiniteCoefficient):
                    integrate_sl(bad, 0.0, 0.0, 1.0, 6.0, 1e-9)
        assert len(solves) == 2 and bad._solves == {}

    def test_trajectory_is_read_only(self):
        traj = integrate_sl(const_profile(1.0), *self.BASE)
        for name in ("grid", "w", "wp", "zeros", "extrema"):
            with pytest.raises(ValueError):
                getattr(traj, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.w = np.zeros(3)

    def test_memo_keeps_one_trajectory(self):
        prof = const_profile(1.0)
        for r_end in (4.0, 6.0, 8.0):
            last = integrate_sl(prof, 0.0, 0.0, 1.0, r_end, 1e-9)
            (kept,) = prof._solves.values()
            assert kept is last

    def test_memo_leaves_equality_hash_and_repr(self):
        func = const_profile(1.0).func
        a = CurvatureProfile(func=func, label="c")
        b = CurvatureProfile(func=func, label="c")
        integrate_sl(a, *self.BASE)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_solves" not in repr(a)


def _solve_bits(traj):
    """Everything a solve produces, as exact reprs and bytes."""
    out = [np.asarray(getattr(traj, f)).tobytes() for f in ("grid", "w", "wp", "zeros", "extrema")]
    for lo, hi, p in traj.dense.pieces:
        out += [repr((lo, hi, p.y_end)), p.ts.tobytes(), p.y_old.tobytes(), p.F.tobytes()]
    counts = traj.solver_counts()
    out.append(repr(({k: counts[k] for k in ("accepted", "rejected", "nfev")},
                     traj.residual_report(), traj.r_start, traj.r_end, traj.tol)))
    return out


@st.composite
def kicked_re_solves(draw):
    """A kicked shell, tol and two different ends: before, on or between the
    breakpoints a and b, past b, or less than 1 past the start."""
    k = draw(st.integers(0, 2))
    r0 = (1.0, 3.0, 20.0)[k] * draw(st.floats(0.5, 2.0))
    a = r0 * draw(st.floats(1.2, 3.0))
    b = a * draw(st.floats(1.2, 3.0))
    spec = cf.KickSpec(r0, a, b, draw(st.floats(0.5, 10.0)), k)
    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-11]))

    def end():
        kind = draw(st.sampled_from(["before", "a", "b", "between", "past", "short"]))
        u = draw(st.floats(0.05, 0.95))
        return {"before": r0 + u * (a - r0), "a": a, "b": b, "between": a + u * (b - a),
                "past": b * (1.0 + 9.0 * u), "short": r0 + u}[kind]

    first, second = end(), end()
    assume(first != second)
    return spec, tol, first, second


class TestSolveResume:
    """A second solve of one profile from the same start data to another end
    continues from the stored solve and equals a fresh solve bit for bit."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The list of _solve_piece calls made from now on."""
        calls = []
        solve = sl_engine._solve_piece

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(sl_engine, "_solve_piece", counting)
        return calls

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kicked_re_solves())
    def test_second_solve_equals_fresh_solve(self, problem):
        spec, tol, first, second = problem
        prof = kick.kicked_profile(spec)
        integrate_sl(prof, spec.r0, 0.0, 1.0, first, tol)
        got = integrate_sl(prof, spec.r0, 0.0, 1.0, second, tol)
        fresh = integrate_sl(dataclasses.replace(prof), spec.r0, 0.0, 1.0, second, tol)
        assert _solve_bits(got) == _solve_bits(fresh)
        assert fresh.solver_counts()["reused"] == 0
        assert 0 <= got.solver_counts()["reused"] <= got.solver_counts()["accepted"]

    def test_shared_steps_skip_coefficient_calls(self):
        calls = []

        def one(r):
            calls.append(r)
            return 1.0 + 0.0 * np.asarray(r)

        prof = CurvatureProfile(func=one, label="counted")
        integrate_sl(prof, 0.0, 0.0, 1.0, 10.0, 1e-9)
        del calls[:]
        resumed = integrate_sl(prof, 0.0, 0.0, 1.0, 8.0, 1e-9)
        n_resumed = len(calls)
        del calls[:]
        fresh = integrate_sl(dataclasses.replace(prof), 0.0, 0.0, 1.0, 8.0, 1e-9)
        reused = resumed.solver_counts()["reused"]
        assert reused >= 2
        # 12 stage and 3 dense-output evaluations per shared accepted step,
        # less the one that gives the right-hand side at the resume node
        assert len(calls) - n_resumed >= 15 * reused - 1
        assert _solve_bits(resumed) == _solve_bits(fresh)

    def test_whole_pieces_are_taken_over(self, solves):
        spec = cf.KickSpec(1.0, E, E**2, 2.0, 0)
        prof = kick.kicked_profile(spec)
        longer = integrate_sl(prof, 1.0, 0.0, 1.0, 50.0, 1e-9)
        shorter = integrate_sl(prof, 1.0, 0.0, 1.0, 20.0, 1e-9)
        assert [p for _, _, p in shorter.dense.pieces[:2]] == \
            [p for _, _, p in longer.dense.pieces[:2]]
        (_, _, last_piece), resumed = longer.dense.pieces[2], solves[-1]
        assert len(solves) == 4 and resumed[1:3] == (E**2, 20.0) and resumed[6] is last_piece
        assert shorter.solver_counts()["reused"] == (
            sum(p.accepted for _, _, p in shorter.dense.pieces[:2])
            + shorter.dense.pieces[2][2].reused)

    def test_failed_resume_keeps_the_stored_solve(self, solves):
        with np.errstate(invalid="ignore"):
            bad = CurvatureProfile(func=lambda r: float(np.sqrt(5.0 - r)), label="nan-tail")
            kept = integrate_sl(bad, 0.0, 0.0, 1.0, 4.0, 1e-9)
            with pytest.raises(NonFiniteCoefficient):
                integrate_sl(bad, 0.0, 0.0, 1.0, 6.0, 1e-9)
        assert solves[-1][6] is kept.dense.pieces[0][2]  # the failing solve resumed
        assert list(bad._solves.values()) == [kept]
        assert integrate_sl(bad, 0.0, 0.0, 1.0, 4.0, 1e-9) is kept

    def test_boundary_then_picone_solves_c_once(self, solves):
        # the sequence of acceptance check #09: c is solved to r_max once;
        # the Picone window takes its first two pieces whole and resumes the third
        ar = arctan_profile()
        c = CurvatureProfile(
            func=lambda r: ar.func(np.asarray(r)) * (1.0 + 0.05 * ((np.asarray(r) >= 1.0)
                                                                  & (np.asarray(r) <= 2.0))),
            label="arctan+5pct",
            breakpoints=(1.0, 2.0),
        )
        r1 = boundary_test(ar, c, r_max=1e4, tol=1e-9).second_zero
        picone_residual(ar, c, 0.9 * r1, 1e-9)
        on_c = [args for args in solves if args[0] is c]
        assert [args[6] is None for args in on_c] == [True, True, True, False]
        window = integrate_sl(c, 0.0, 0.0, 1.0, 0.9 * r1, 1e-9)  # the stored Picone solve
        counts = window.solver_counts()
        print(f"Picone window on c: {counts['reused']} of {counts['accepted']} steps reused")
        assert counts["accepted"] - counts["reused"] <= 3


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


class TestQuad:
    @pytest.mark.parametrize("degree", range(16))
    def test_polynomials_to_degree_15_are_exact_on_uneven_edges(self, degree):
        poly = np.polynomial.Polynomial(np.random.default_rng(degree).normal(size=degree + 1))
        edges = [-1.3, -1.1, 0.0, 0.05, 0.9, 2.4]
        calls = []

        def f(r):
            calls.append(r.shape)
            return poly(r)

        exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
        assert_allclose(sl_engine.quad(f, edges, 1e-13), exact, rtol=1e-13, atol=1e-13)
        # each interval whole and as two halves, 8 nodes each, in one call
        assert calls == [(24 * (len(edges) - 1),)]

    def test_kink_is_halved_until_rtol(self):
        # 1 + |r - 1/3| on [0, 1]: 1 + 1/18 + 2/9; the 8-point rule misses the kink
        calls = []

        def f(r):
            calls.append(len(r))
            return 1.0 + np.abs(r - 1.0 / 3.0)

        exact = 23.0 / 18.0
        val = sl_engine.quad(f, [0.0, 1.0], 1e-5)
        print(f"kink: {len(calls)} passes, error {val - exact:.3g}")
        assert abs(val - exact) <= 1e-5 * exact
        assert 1 < len(calls) < sl_engine.QUAD_LEVELS
        # one bad interval per pass: its two halves, each whole and halved again
        assert calls[1:] == [48] * (len(calls) - 1)

    def test_jump_stops_after_quad_levels(self):
        # a jump inside an interval never meets rtol; the halving stops
        calls = []

        def f(r):
            calls.append(len(r))
            return np.where(r < 1.0 / 3.0, 0.0, 1.0)

        val = sl_engine.quad(f, [0.0, 1.0], 1e-13)
        assert len(calls) == sl_engine.QUAD_LEVELS
        assert abs(val - 2.0 / 3.0) <= 2.0 ** -(sl_engine.QUAD_LEVELS - 1)


class TestIndexForm:
    def test_equality_case_vanishes(self):
        prof = const_profile(1.0)
        res = find_second_zero(prof, 0.0, 4.0, 1e-10)
        traj = integrate_sl(prof, 0.0, 0.0, 1.0, res.r1, 1e-10)
        val = index_form(IndexFormInput(n=2, y=traj, ric=const_profile(1.0)))
        print(f"equality-case index form: {val:.3g}")
        assert abs(val) <= 1e-8

    def test_excess_ricci_gives_analytic_negative_value(self):
        prof = const_profile(1.0)
        res = find_second_zero(prof, 0.0, 4.0, 1e-10)
        traj = integrate_sl(prof, 0.0, 0.0, 1.0, res.r1, 1e-10)
        val = index_form(IndexFormInput(n=2, y=traj, ric=const_profile(1.05)))
        print(f"5% excess index form: {val!r} (analytic {-0.05 * math.pi / 2!r})")
        assert_allclose(val, -0.05 * math.pi / 2, rtol=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kicked_excess_is_strictly_negative(self, n):
        lam = ROOT_COT
        spec = cf.KickSpec(1.0, E, E**2, 1.5 * lam, 0)
        prof = kick.kicked_profile(spec)
        res = find_second_zero(prof, 1.0, 1e5, 1e-10)
        traj = integrate_sl(prof, 1.0, 0.0, 1.0, res.r1, 1e-10)
        ric = CurvatureProfile(
            func=lambda r: 1.01 * (n - 1) * prof.func(r),
            r_min=prof.r_min,
            label="ric-1pct",
            breakpoints=prof.breakpoints,
        )
        val = index_form(IndexFormInput(n=n, y=traj, ric=ric))
        print(f"1% excess index form, n = {n}: {val!r}")
        assert val < 0.0
        # magnitude consistent with the 1% excess: |I| ~ 0.01 (n-1) int b y^2
        assert val < -1e-4

    @pytest.mark.parametrize("n, ric_lo, ric_hi", [(2, 1.0, 1.0), (3, 2.5, 2.5),
                                                  (2, 1.0, 1.3), (3, 0.5, 4.0)])
    def test_sine_on_zero_to_pi_matches_closed_form(self, n, ric_lo, ric_hi):
        # b = 1 on [0, pi], w = sin r: int cos^2 = pi / 2, int_a^c sin^2 =
        # (c - a) / 2 - (sin 2c - sin 2a) / 4.  Where ric_lo != ric_hi, ric
        # jumps in the middle of an accepted solver step.
        traj = integrate_sl(const_profile(1.0), 0.0, 0.0, 1.0, math.pi, 1e-10)
        i = len(traj.grid) // 2
        jump = float(0.5 * (traj.grid[i] + traj.grid[i + 1]))
        assert jump not in traj.grid
        ric = CurvatureProfile(func=lambda r: np.where(np.asarray(r) < jump, ric_lo, ric_hi),
                               label="step", breakpoints=(jump,))

        def sin2(a, c):
            return (c - a) / 2.0 - (math.sin(2.0 * c) - math.sin(2.0 * a)) / 4.0

        exact = (n - 1) * math.pi / 2.0 - ric_lo * sin2(0.0, jump) - ric_hi * sin2(jump, math.pi)
        val = index_form(IndexFormInput(n=n, y=traj, ric=ric))
        print(f"n = {n}, ric {ric_lo} | {ric_hi}: {val!r} vs {exact!r}")
        assert abs(val - exact) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_kicked_value_matches_adaptive_quadrature(self, n):
        # acceptance #10's kicked case against scipy's adaptive quad of the
        # same integrand on the pieces between the kick's breakpoints
        from scipy.integrate import quad as scipy_quad

        prof = kick.kicked_profile(cf.KickSpec(1.0, E, E**2, 1.5 * ROOT_COT, 0))
        res = find_second_zero(prof, 1.0, 1e5, 1e-10)
        traj = integrate_sl(prof, 1.0, 0.0, 1.0, res.r1, 1e-10)
        ric = CurvatureProfile(func=lambda r: 1.01 * (n - 1) * prof.func(r), r_min=prof.r_min,
                               label="ric-1pct", breakpoints=prof.breakpoints)

        def integrand(r):
            w, wp = traj.evaluate(r)
            return (n - 1) * wp**2 - ric(r) * w**2

        edges = [1.0, *prof.breakpoints, res.r1]
        oracle = sum(scipy_quad(integrand, a, c, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                     for a, c in zip(edges[:-1], edges[1:]))
        val = index_form(IndexFormInput(n=n, y=traj, ric=ric))
        print(f"n = {n}: {val!r} vs scipy quad {oracle!r}")
        assert_allclose(val, oracle, rtol=1e-9)

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

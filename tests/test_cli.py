"""Command-line surface: JSON shapes, exit codes, determinism, and the shipped
schema."""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import slboundary
from slboundary import cli, planar, sl_engine, surfaces
from slboundary.cli import (MAX_SEGMENTS, MAX_SURFACE_SAMPLES, MAX_T_POINTS, _check_segments,
                            _emit, _parse_t_range, main)
from slboundary.schema import validate_certificate

E_STR = "2.718281828459045"
E2_STR = "7.38905609893065"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["0", "-0", "1", "2.718281828459045", "7.38905609893065", "1e-320",
                     "1e308", "1e400", "", "x", "0x10"]),
)


@st.composite
def lambda_argvs(draw):
    """`lambda` argument vectors: valid, invalid and non-finite numbers (a
    third of them a sorted triple), any --k, optional or missing options."""
    values = draw(st.lists(_NUMBER, min_size=3, max_size=3))
    if draw(st.integers(0, 2)) == 0:
        values = [repr(v) for v in sorted(draw(st.lists(st.floats(1e-6, 1e6), min_size=3,
                                                        max_size=3)))]
    argv = ["lambda"]
    for name, value in zip(("--r0", "--a", "--b"), values):
        if draw(st.integers(0, 9)):
            argv.append(f"{name}={value}")
    if draw(st.booleans()):
        k = draw(st.one_of(st.integers(-2, 5).map(str),
                           st.sampled_from(["1000", "99999999999999999999", "1.5", "x"])))
        argv.append(f"--k={k}")
    return argv + draw(st.lists(st.sampled_from(["--json", "--no-meta"]), unique=True))


_R_MAX = st.one_of(st.floats(1.0, 1e6).map(repr), st.floats(-10.0, 10.0).map(repr),
                   st.sampled_from(["0", "-0", "-1", "1e100"]))
#: --r-max for a surface profile, whose knots reach 1.1 r_max: at most 1e3
#: keeps one profile build to a few ms.
_SURFACE_R_MAX = st.one_of(st.floats(1.0, 1e3).map(repr), st.floats(-10.0, 10.0).map(repr),
                           st.sampled_from(["0", "-1"]))
_TOL = st.one_of(st.floats(1e-13, 1e-3).map(repr),
                 st.sampled_from(["1e-9", "1e-13", "1e-3", "0", "-1e-9", "1e-14", "1"]))


@st.composite
def profile_argvs(draw, command):
    """`certify` or `bifurcate` argument vectors: any --profile (and, for
    certify, --bifurcator), an --r-max that may be 0 or negative, --tol,
    and for certify a --mu up to 1e300 and a shell, ordered as the log depth
    --k needs in three draws of four."""
    profile = draw(st.sampled_from(cli.PROFILE_NAMES))
    argv = [command, f"--profile={profile}"]
    surface = profile in cli.SURFACE_NAMES
    if command == "certify":
        k = draw(st.integers(0, 2))
        shell = [draw(st.floats(0.5, 20.0)) for _ in range(3)]
        if draw(st.integers(0, 3)) < 3:
            r0 = (1.0, 3.0, 20.0)[k] * draw(st.floats(1.0, 2.0))
            shell = [r0, r0 * draw(st.floats(1.0, 3.0)), 0.0]
            shell[2] = shell[1] * draw(st.floats(1.05, 3.0))
        mu = draw(st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300),
                            st.sampled_from([0.95, 1e154, 1e300, -1.0])))
        argv += [f"--{name}={value!r}" for name, value in zip(("r0", "a", "b", "mu"),
                                                               [*shell, mu])]
        argv.append(f"--k={k}")
        if draw(st.booleans()):
            bif = draw(st.sampled_from(cli.PROFILE_NAMES))
            argv.append(f"--bifurcator={bif}")
            surface |= bif in cli.SURFACE_NAMES
    argv += [f"--r-max={draw(_SURFACE_R_MAX if surface else _R_MAX)}", f"--tol={draw(_TOL)}"]
    return argv + draw(st.lists(st.sampled_from(["--json", "--no-meta"]), unique=True))


def exit_code_and_streams(argv):
    """(exit code, stdout, stderr) of main(argv), argparse refusals included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv):
    """Exit 0, 1 or 2; a refusal prints only to stderr, and --json output is strict."""
    code, out, err = exit_code_and_streams(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err, argv
    elif "--json" in argv:
        json.loads(out, parse_constant=refuse_constant)


class TestLambdaCommand:
    def test_remark_shell_prints_root_and_note(self, capsys):
        code, doc = run_json(
            capsys,
            ["lambda", "--r0", "1", "--a", E_STR, "--b", E2_STR, "--json", "--no-meta"],
        )
        assert code == 0
        assert_allclose(doc["lambda"], 0.860333589019, rtol=1e-11)
        assert doc["residual"] < 1e-10
        assert any("0.46" in n for n in doc["discrepancy_notes"])

    def test_degenerate_start_is_pi_over_two(self, capsys):
        code, doc = run_json(
            capsys,
            ["lambda", "--r0", "1", "--a", "1", "--b", E_STR, "--json", "--no-meta"],
        )
        assert code == 0
        assert_allclose(doc["lambda"], math.pi / 2, rtol=1e-11)  # 12 sig digits in JSON
        assert doc["discrepancy_notes"] == []

    def test_log_depth_threshold(self, capsys):
        code, doc = run_json(
            capsys,
            ["lambda", "--k", "1", "--r0", "2", "--a", "3", "--b", "9", "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["lambda"] > 0 and doc["residual"] < 1e-10

    def test_invalid_shell_exits_2(self, capsys):
        code = main(["lambda", "--r0", "5", "--a", "2", "--b", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lambda_argvs())
    def test_any_arguments_exit_0_1_2_with_strict_json(self, argv):
        assert_exit_contract(argv)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_option_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["lambda", "--r0", "1", "--a", "2", f"--b={value}", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


class TestCertifyCommand:
    def test_kicked_profile_compact(self, capsys):
        code, doc = run_json(
            capsys,
            ["certify", "--profile", "f0-kick", "--n", "2", "--a", E_STR, "--b", E2_STR,
             "--mu", "0.95", "--r-max", "1e6", "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["verdict"] == "Compact"
        assert doc["diameter_bound"] == pytest.approx(2 * doc["r1"])
        assert validate_certificate(doc) == []

    def test_equality_profile_inconclusive_exit_1(self, capsys):
        code, doc = run_json(
            capsys,
            ["certify", "--profile", "bf-equality", "--n", "2", "--a", E_STR,
             "--b", E2_STR, "--mu", "0", "--json", "--no-meta"],
        )
        assert code == 1
        assert doc["verdict"] == "Inconclusive"
        assert validate_certificate(doc) == []

    def test_sup_profile_below_bifurcator_noncompact(self, capsys):
        code, doc = run_json(
            capsys,
            ["certify", "--profile", "arctan-bifurcator", "--n", "2", "--a", E_STR,
             "--b", E2_STR, "--mu", "0.95", "--r-max", "1e4",
             "--bifurcator", "arctan-bifurcator", "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["verdict"] == "NoncompactSide"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile_argvs("certify"))
    @example(["certify", "--profile", "f0-kick", "--a", "2", "--b", "3", "--mu", "5",
              "--r-max", "0", "--json"])
    @example(["certify", "--profile", "f0-kick", "--a", "2", "--b", "3", "--mu", "1e300",
              "--r-max", "1e3", "--json"])
    def test_any_arguments_exit_0_1_2_with_strict_json(self, argv):
        assert_exit_contract(argv)


class TestBifurcateCommand:
    def test_arctan_report(self, capsys):
        code, doc = run_json(
            capsys,
            ["bifurcate", "--profile", "arctan-bifurcator", "--r-max", "1e4",
             "--abresch", "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["verdict"] == "Bifurcator"
        assert_allclose(doc["spec"]["w_limit"], 1.5707963268, rtol=1e-9)
        assert doc["spec"]["moment_tail_ratio"] < 0.5
        assert doc["spec"]["independent_diverges"] is True
        assert validate_certificate(doc) == []

    def test_abresch_report_solves_once(self, capsys, monkeypatch):
        # classify and abresch_checks ask for the same solve of the same profile
        solves = []
        solve = sl_engine._solve_piece

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(sl_engine, "_solve_piece", counting)
        code = main(["bifurcate", "--profile", "arctan-bifurcator", "--r-max", "1e4",
                     "--abresch", "--json", "--no-meta"])
        assert code == 0 and len(solves) == 1
        golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "bifurcate.json"
        assert capsys.readouterr().out == golden.read_text()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(profile_argvs("bifurcate"))
    @example(["bifurcate", "--profile", "f0-kick", "--json"])
    @example(["bifurcate", "--profile", "fk-kick", "--json"])
    @example(["bifurcate", "--profile", "bf-equality", "--json"])
    def test_any_arguments_exit_0_1_2_with_strict_json(self, argv):
        assert_exit_contract(argv)


class TestSurfaceCommand:
    def test_capped_cylinder_csv(self, capsys, tmp_path):
        path = str(tmp_path / "cc.csv")
        code, doc = run_json(
            capsys,
            ["surface", "--name", "capped-cylinder", "--emit-profile", path,
             "--samples", "40", "--json", "--no-meta"],
        )
        assert code == 0
        assert abs(doc["K_r3_last"] - 2.0) < 0.01
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["rho", "z", "r", "K_exact", "K_paper", "K_r3"]

    def test_paraboloid_quarter(self, capsys):
        code, doc = run_json(
            capsys,
            ["surface", "--name", "paraboloid", "--rho-max", "40", "--json", "--no-meta"],
        )
        assert code == 0
        assert abs(doc["K_r2_last"] - 0.25) < 0.01

    @pytest.mark.parametrize("args", [
        ["--name", "paraboloid", "--samples", "0"],
        ["--name", "capped-cylinder", "--samples", "-1"],
        ["--name", "paraboloid", "--samples", str(MAX_SURFACE_SAMPLES + 1)],
        ["--name", "paraboloid", "--rho-min", "0"],
        ["--name", "capped-cylinder", "--rho-max", "1.0"],
        ["--name", "paraboloid", "--rho-min", "-1"],
        ["--name", "capped-cylinder", "--rho-min", "1.2"],
    ])
    def test_unsampleable_sweep_exits_2_before_computing(self, monkeypatch, tmp_path, args):
        calls = []
        monkeypatch.setattr(surfaces, "geodesic_radius", lambda *a: calls.append(a))
        path = tmp_path / "profile.csv"
        for extra in ([], ["--emit-profile", str(path)]):
            code, out, err = exit_code_and_streams(["surface", *args, *extra, "--json"])
            assert code == 2 and out == "" and err.startswith("error: ")
        assert calls == [] and not path.exists()

    @pytest.mark.parametrize("args", [
        ["--name", "paraboloid", "--rho-max", "1e150"],  # K r^3 overflows
        ["--name", "paraboloid", "--rho-min", "1e150"],  # only in the CSV's first row
        ["--name", "capped-cylinder", "--rho-min", "1e-20"],  # 1 - (1 - rho) is 0
    ])
    def test_values_beyond_float_range_exit_2_before_the_csv(self, tmp_path, args):
        path = tmp_path / "profile.csv"
        code, out, err = exit_code_and_streams(
            ["surface", *args, "--emit-profile", str(path), "--json"])
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not path.exists()

    def test_single_sample(self, capsys):
        code, doc = run_json(capsys, ["surface", "--name", "paraboloid", "--samples", "1",
                                      "--rho-min", "2", "--json", "--no-meta"])
        assert code == 0 and doc["rho_last"] == 2.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["--rho-min", "--rho-max"]).flatmap(
            lambda name: _NUMBER.map(lambda v: f"{name}={v}")),
        st.one_of(st.integers(-3, 300), st.sampled_from(
            [MAX_SURFACE_SAMPLES, MAX_SURFACE_SAMPLES + 1, 10**30])).map(
                lambda n: f"--samples={n}"),
        st.sampled_from(["--samples=1.5", "--samples=x", "--json", "--no-meta",
                         "--name=capped-cylinder", "--name=paraboloid", "--name=disk"]),
    ), max_size=6))
    def test_any_arguments_exit_0_1_2_with_strict_json(self, args):
        assert_exit_contract(["surface", *args])


class TestCurveCommand:
    def test_parabola_turn_and_csv(self, capsys, tmp_path):
        path = str(tmp_path / "parabola.csv")
        code, doc = run_json(
            capsys,
            ["curve", "--family", "parabola", "--k", "1", "--s-max", "50",
             "--step", "0.005", "--emit-csv", path, "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["self_intersection"] is None
        assert_allclose(doc["total_turn"], math.atan(2 * pl_x_of_s(1.0, 50.0) * 1.0),
                        rtol=1e-6)
        with open(path) as fh:
            assert fh.readline().strip() == "s,x,y,theta,kappa"

    def test_kick_sweep_single_crossing(self, capsys):
        code, doc = run_json(
            capsys,
            ["curve", "--family", "parabola-kick", "--k", "20", "--t=-0.1:0.1:0.05",
             "--window", "60", "--step", "0.005", "--json", "--no-meta"],
        )
        assert code == 0
        assert doc["single_crossing"] is True
        assert doc["bracket"] == [0.0, 0.05]


    @pytest.mark.parametrize("t_arg", ["--t=1:2", "--t=0:0.1:0", "--t=0:0.1:nan"])
    def test_bad_t_range_exits_2(self, capsys, t_arg):
        code = main(["curve", "--family", "parabola-kick", "--k", "20", t_arg, "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--t" in captured.err

    @pytest.mark.parametrize("t_arg", [
        "--t=1:0:0.1", "--t=0:1:-0.1", "--t=0:1:1e-300", f"--t=0:{MAX_T_POINTS}:1"])
    def test_backward_or_oversized_t_range_exits_2(self, capsys, monkeypatch, t_arg):
        # refused before any t value is listed or any curve is built
        built = []
        monkeypatch.setattr(cli, "range", lambda *a: built.append(a) or [], raising=False)
        monkeypatch.setattr(planar, "kick_family_transition", lambda *a, **kw: built.append(a))
        code = main(["curve", "--family", "parabola-kick", "--k", "20", t_arg, "--json"])
        assert code == 2 and built == []
        captured = capsys.readouterr()
        assert captured.out == "" and "--t" in captured.err
        if "away" not in captured.err:
            assert f"MAX_T_POINTS = {MAX_T_POINTS}" in captured.err

    def test_t_range_at_the_point_limit(self):
        assert len(_parse_t_range(f"0:{MAX_T_POINTS - 1}:1")) == MAX_T_POINTS
        assert _parse_t_range("0.1:0.1:-1") == [0.1]

    def test_non_finite_s_max_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--family", "parabola", "--k", "20", "--s-max", "inf"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args", [
        ["--family", "parabola", "--s-max", "1e7", "--step", "1e-4"],
        ["--family", "parabola-kick", "--window", "1e6", "--step", "1e-4"],
        ["--family", "parabola", "--s-max", str(0.5 * MAX_SEGMENTS + 0.5), "--step", "0.5"],
    ])
    def test_oversized_curve_exits_2_before_allocating(self, monkeypatch, args):
        built = []
        monkeypatch.setattr(planar, "reconstruct", lambda *a, **kw: built.append(a))
        monkeypatch.setattr(planar, "kick_family_transition", lambda *a, **kw: built.append(a))
        code, out, err = exit_code_and_streams(["curve", *args, "--json"])
        assert code == 2 and out == "" and built == []
        assert f"MAX_SEGMENTS = {MAX_SEGMENTS}" in err

    def test_segment_limit_itself_is_allowed(self):
        _check_segments(0.5 * MAX_SEGMENTS, 0.5)

    def test_overflowing_panel_count_exits_2(self, capsys):
        code = main(["curve", "--family", "parabola", "--k", "20", "--s-max", "1e308",
                     "--step", "1e-300", "--json"])
        assert code == 2
        assert "reconstruction window" in capsys.readouterr().err


def pl_x_of_s(k, s):
    from slboundary.planar import parabola_x_of_s

    return float(parabola_x_of_s(k, s))


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--r0", "1", "--a", E_STR, "--b", E2_STR, "--json", "--no-meta"],
            ["certify", "--profile", "f0-kick", "--n", "2", "--a", E_STR, "--b", E2_STR,
             "--mu", "0.95", "--r-max", "1e6", "--json", "--no-meta"],
            ["bifurcate", "--profile", "arctan-bifurcator", "--r-max", "1e3",
             "--json", "--no-meta"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert len(first) > 0

    def test_emit_refuses_nan(self, capsys):
        args = argparse.Namespace(no_meta=True, output=None)
        with pytest.raises(ValueError):
            _emit({"residual": float("nan")}, args)
        assert capsys.readouterr().out == ""

    def test_meta_block_present_without_flag(self, capsys):
        _, doc = run_json(capsys, ["lambda", "--r0", "1", "--a", "2", "--b", "4", "--json"])
        assert "meta" in doc and "generated_at" in doc["meta"]

    def test_readme_commands_match_goldens(self):
        # bench/cli_gate.py's own check, loaded without writing bytecode under bench/
        path = Path(__file__).resolve().parents[1] / "bench" / "cli_gate.py"
        spec = importlib.util.spec_from_file_location("cli_gate", path)
        gate = importlib.util.module_from_spec(spec)
        dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(gate)
        finally:
            sys.dont_write_bytecode = dont_write
        assert gate.check() == []


def scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter,
    which prints them as its last line."""
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(slboundary.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


class TestImports:
    def test_package_planar_and_closed_form_load_no_scipy(self):
        # the package re-exports nothing, so these imports stay numpy-only
        assert scipy_modules_after(
            "import slboundary, slboundary.planar, slboundary.closed_form") == "[]"

    def test_kick_chain_and_cli_load_no_scipy(self):
        # the solver, Brent's method and the quadrature need no scipy; cli
        # loads surfaces only for its commands
        assert scipy_modules_after("import slboundary.kick, slboundary.sl_engine, "
                                   "slboundary.bifurcator, slboundary.cli") == "[]"

    def test_index_form_loads_no_scipy(self):
        code = ("from slboundary import sl_engine as se\n"
                "one = se.CurvatureProfile(func=lambda r: 1.0 + 0.0 * r)\n"
                "traj = se.integrate_sl(one, 0.0, 0.0, 1.0, 3.141592653589793, 1e-9)\n"
                "assert abs(se.index_form(se.IndexFormInput(2, traj, one))) < 1e-8")
        assert scipy_modules_after(code) == "[]"

    def test_surfaces_loads_no_interpolate(self):
        # the surface profile is a hand-built Hermite cubic; only the arc
        # length still takes scipy's quad, which bench/tracing.py patches
        loaded = scipy_modules_after("from slboundary import surfaces; "
                                     "assert callable(surfaces.quad)")
        assert "scipy.integrate" in loaded and "scipy.interpolate" not in loaded

    @pytest.mark.parametrize("argv", [
        ["lambda", "--r0", "1", "--a", E_STR, "--b", E2_STR],
        ["certify", "--profile", "f0-kick", "--n", "2", "--a", E_STR, "--b", E2_STR,
         "--mu", "0.95", "--r-max", "1e6"],
        ["bifurcate", "--profile", "arctan-bifurcator", "--r-max", "1e4", "--abresch"],
        ["curve", "--family", "parabola-kick", "--k", "20", "--t=-0.3:0.3:0.05",
         "--window", "100"],
    ], ids=["lambda", "certify", "bifurcate", "curve"])
    def test_readme_commands_run_without_scipy(self, argv):
        code = ("import contextlib, io; from slboundary import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv + ['--json', '--no-meta']!r})\n"
                "assert code == 0, code")
        assert scipy_modules_after(code) == "[]"

"""Command-line surface: thresholds, certificates, bifurcator reports, surface
profiles, and planar-curve sweeps, as deterministic JSON/CSV.

Exit codes: 0 success, 1 computation inconclusive, 2 invalid input.
Floats in JSON are printed with 12 significant digits; --no-meta drops the
timestamp block so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, bifurcator, kick, planar, surfaces
from .closed_form import KickSpec
from .errors import DomainError, ToolkitError
from .kick import remark_shell_note, threshold_residual
from .sl_engine import CurvatureProfile

SURFACE_NAMES = ("capped-cylinder", "paraboloid")
PROFILE_NAMES = ("f0-kick", "fk-kick", "bf-equality", "arctan-bifurcator",
                 "capped-cylinder", "paraboloid")
#: Most t values one --t sweep may ask for; each one reconstructs a curve.
MAX_T_POINTS = 1000


def _round12(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(doc: dict, args) -> None:
    if not args.no_meta:
        doc = dict(doc)
        doc["meta"] = {
            "tool": f"slboundary {__version__}",
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    text = json.dumps(_round12(doc), indent=2, allow_nan=False)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _named_profile(name: str, args) -> CurvatureProfile:
    if name == "f0-kick":
        return kick.kicked_profile(KickSpec(args.r0, args.a, args.b, args.mu, 0))
    if name == "fk-kick":
        return kick.kicked_profile(KickSpec(args.r0, args.a, args.b, args.mu, args.k))
    if name == "bf-equality":
        return kick.equality_profile(args.k)
    if name == "arctan-bifurcator":
        return bifurcator.arctan_profile()
    if name in ("capped-cylinder", "paraboloid"):
        s = surfaces.capped_cylinder() if name == "capped-cylinder" else surfaces.paraboloid()
        r_hi = max(getattr(args, "r_max", 1e4), 1.0) * 1.1
        return surfaces.curvature_profile(s, np.geomspace(0.1, r_hi, 16))
    raise ToolkitError(f"unknown profile {name!r}; choose from {PROFILE_NAMES}")


def cmd_lambda(args) -> int:
    if args.k == 0:
        lam = kick.lambda_linear(args.r0, args.a, args.b)
    else:
        lam = kick.lambda_log(args.k, args.r0, args.a, args.b)
    resid = threshold_residual(lam, args.k, args.r0, args.a, args.b)
    notes = []
    note = remark_shell_note(args.k, args.r0, args.a, args.b)
    if note:
        notes.append(note)
    if args.json:
        _emit(
            {
                "command": "lambda",
                "k": args.k,
                "r0": args.r0,
                "a": args.a,
                "b": args.b,
                "lambda": lam,
                "residual": resid,
                "discrepancy_notes": notes,
            },
            args,
        )
    else:
        print(f"lambda = {lam:.12g}   (residual {resid:.3g})")
        for note in notes:
            print(f"note: {note}")
    return 0


def cmd_certify(args) -> int:
    spec = KickSpec(args.r0, args.a, args.b, args.mu, args.k)
    profile = _named_profile(args.profile, args)
    bif = _named_profile(args.bifurcator, args) if args.bifurcator else None
    cert = kick.certify(
        profile,
        n=args.n,
        spec=spec,
        r_max=args.r_max,
        bifurcator_profile=bif,
        all_origins=args.all_origins,
        tol=args.tol,
    )
    doc = cert.to_json_dict()
    if args.json:
        _emit(doc, args)
    else:
        print(f"verdict: {cert.verdict}")
        if cert.verdict == "Compact":
            print(f"conjugate pair: ({cert.r0:.12g}, {cert.r1:.12g})")
            print(f"diameter bound: {cert.diameter_bound:.12g}")
        if cert.reason:
            print(f"reason: {cert.reason}")
        for note in cert.discrepancy_notes:
            print(f"note: {note}")
    return 0 if cert.verdict != "Inconclusive" else 1


def cmd_bifurcate(args) -> int:
    profile = _named_profile(args.profile, args)
    rep = bifurcator.classify(profile, r_max=args.r_max, tol=args.tol)
    checks = None
    if args.abresch:
        checks = bifurcator.abresch_checks(profile, r_max=args.r_max, tol=args.tol)
    spec = {"profile": profile.label, "r_max": rep.r_max}
    if rep.w_limit is not None:
        spec["w_limit"] = rep.w_limit
    spec["wp_at_rmax"] = rep.wp_at_rmax
    spec["cauchy_tail"] = rep.cauchy_tail
    if checks is not None:
        spec["moment_integral"] = checks.moment_integral
        spec["moment_tail_ratio"] = checks.moment_tail_ratio
        spec["independent_solution_value"] = checks.independent_solution_value
        spec["independent_diverges"] = checks.independent_diverges
    doc = kick.Certificate(
        verdict=rep.classification, r0=None, r1=None, diameter_bound=None, threshold=None,
        spec=spec, grid_size=0, tolerances={"tol": rep.tol, "tail_tol": rep.tail_tol},
        reason=rep.detail,
    ).to_json_dict()
    if args.json:
        _emit(doc, args)
    else:
        print(f"classification: {rep.classification}")
        if rep.w_limit is not None:
            print(f"w_limit ~ {rep.w_limit:.12g}")
        print(f"w'(r_max) = {rep.wp_at_rmax:.6g}; {rep.detail}")
    return 0 if rep.classification != bifurcator.CLASS_INCONCLUSIVE else 1


def cmd_surface(args) -> int:
    s = surfaces.capped_cylinder() if args.name == "capped-cylinder" else surfaces.paraboloid()
    lo, hi = args.rho_min, args.rho_max
    if hi is None:
        hi = 0.9999 if args.name == "capped-cylinder" else 100.0
    if lo is None:
        lo = 0.01
    rho = np.geomspace(lo, hi, args.samples) if args.name == "paraboloid" else (
        1.0 - np.geomspace(1.0 - lo, 1.0 - hi, args.samples)
    )
    if args.emit_profile:
        surfaces.export_profile_csv(s, rho, args.emit_profile)
    r_end = surfaces.geodesic_radius(s, float(rho[-1]))
    k_end = surfaces.gauss_curvature(s, float(rho[-1]), "exact")
    doc = {
        "command": "surface",
        "name": args.name,
        "samples": int(args.samples),
        "rho_last": float(rho[-1]),
        "r_last": r_end,
        "K_last": k_end,
        "K_r3_last": k_end * r_end**3,
        "K_r2_last": k_end * r_end**2,
        "csv": args.emit_profile,
    }
    if args.json:
        _emit(doc, args)
    else:
        print(
            f"{args.name}: r(rho={rho[-1]:.6g}) = {r_end:.12g}, "
            f"K = {k_end:.12g}, K r^3 = {k_end * r_end**3:.12g}"
        )
        if args.emit_profile:
            print(f"profile written to {args.emit_profile}")
    return 0


def _parse_t_range(text: str) -> list:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise DomainError(f"--t must be start:stop:step, got {text!r}") from None
    count = (stop - start) / step if step != 0.0 else math.nan
    if not (math.isfinite(start) and math.isfinite(step) and math.isfinite(count)):
        raise DomainError(f"--t needs finite start, stop and a nonzero step, got {text!r}")
    if count < 0.0:
        raise DomainError(f"--t step points away from stop, got {text!r}")
    n = round(count)
    if n + 1 > MAX_T_POINTS:
        raise DomainError(f"--t asks for {count + 1:.6g} points; at most "
                          f"MAX_T_POINTS = {MAX_T_POINTS} are allowed, got {text!r}")
    return [round(start + i * step, 12) for i in range(n + 1)]


def cmd_curve(args) -> int:
    if args.family == "parabola":
        s_max = args.s_max if args.s_max is not None else 40.0
        curve = planar.reconstruct(
            lambda s: planar.parabola_curvature(args.k, np.abs(s)),
            (0.0, s_max),
            args.step,
        )
        if args.emit_csv:
            curve.to_csv(args.emit_csv)
        doc = {
            "command": "curve",
            "family": "parabola",
            "k": args.k,
            "s_max": s_max,
            "total_turn": curve.total_turn(),
            "self_intersection": planar.self_intersects(curve),
            "csv": args.emit_csv,
        }
        if args.json:
            _emit(doc, args)
        else:
            print(f"parabola k={args.k}: total turn {curve.total_turn():.9g}")
        return 0

    # parabola-kick transition sweep
    ts = _parse_t_range(args.t)
    report = planar.kick_family_transition(
        args.k, ts, window=args.window, step=args.step
    )
    doc = {
        "command": "curve",
        "family": "parabola-kick",
        "k": args.k,
        "window": report.window,
        "step": report.step,
        "entries": report.as_json_entries(),
        "bracket": list(report.bracket) if report.bracket else None,
        "single_crossing": report.single_crossing,
    }
    if args.json:
        _emit(doc, args)
    else:
        for e in report.entries:
            print(f"t = {e.t:+.3f}: {e.verdict}")
        if report.bracket:
            print(f"transition bracket: ({report.bracket[0]:g}, {report.bracket[1]:g}]")
    return 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slboundary",
        description="Certify compactness/noncompactness evidence for radial "
                    "curvature profiles and reproduce the shipped examples.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--no-meta", action="store_true",
                        help="omit the timestamp block (byte-stable output)")
        sp.add_argument("--output", default=None, help="also write JSON here")

    sp = sub.add_parser("lambda", help="kick threshold for a shell")
    sp.add_argument("--r0", type=_finite_float, required=True)
    sp.add_argument("--a", type=_finite_float, required=True)
    sp.add_argument("--b", type=_finite_float, required=True)
    sp.add_argument("--k", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_lambda)

    sp = sub.add_parser("certify", help="verify kick hypotheses and emit a certificate")
    sp.add_argument("--profile", choices=PROFILE_NAMES, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--r0", type=_finite_float, default=1.0)
    sp.add_argument("--a", type=_finite_float, required=True)
    sp.add_argument("--b", type=_finite_float, required=True)
    sp.add_argument("--mu", type=_finite_float, default=0.0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--r-max", dest="r_max", type=_finite_float, default=1e6)
    sp.add_argument("--tol", type=_finite_float, default=1e-9)
    sp.add_argument("--all-origins", action="store_true",
                    help="assert the curvature hypotheses at every origin "
                         "(halves the diameter bound)")
    sp.add_argument("--bifurcator", choices=PROFILE_NAMES, default=None,
                    help="bifurcator profile for the noncompact-side fallback")
    common(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("bifurcate", help="classify a profile as SL-bifurcator or not")
    sp.add_argument("--profile", choices=PROFILE_NAMES, required=True)
    sp.add_argument("--r-max", dest="r_max", type=_finite_float, default=1e4)
    sp.add_argument("--tol", type=_finite_float, default=1e-9)
    sp.add_argument("--abresch", action="store_true",
                    help="also run the moment/limit-derivative/second-solution checks")
    common(sp)
    sp.set_defaults(fn=cmd_bifurcate)

    sp = sub.add_parser("surface", help="surface-of-revolution curvature profile")
    sp.add_argument("--name", choices=SURFACE_NAMES, required=True)
    sp.add_argument("--emit-profile", default=None, help="CSV path (rho,z,r,K_exact,K_paper,K_r3)")
    sp.add_argument("--rho-min", dest="rho_min", type=_finite_float, default=None)
    sp.add_argument("--rho-max", dest="rho_max", type=_finite_float, default=None)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(fn=cmd_surface)

    sp = sub.add_parser("curve", help="planar curve reconstruction and kick sweep")
    sp.add_argument("--family", choices=("parabola", "parabola-kick"), required=True)
    sp.add_argument("--k", type=_finite_float, default=1.0)
    sp.add_argument("--t", default="-0.2:0.2:0.05", help="start:stop:step sweep for t")
    sp.add_argument("--window", type=_finite_float, default=100.0)
    sp.add_argument("--step", type=_finite_float, default=0.004)
    sp.add_argument("--s-max", dest="s_max", type=_finite_float, default=None)
    sp.add_argument("--emit-csv", default=None, help="CSV path (s,x,y,theta,kappa)")
    common(sp)
    sp.set_defaults(fn=cmd_curve)

    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

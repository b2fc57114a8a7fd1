"""README CLI gate: the five README commands, run in-process through
``slboundary.cli.main`` with ``--json --no-meta``, must exit 0, print strict
JSON (no NaN or Infinity tokens) and match the golden copies in
``bench/golden/`` byte for byte.  A performance change must leave this
output unmoved.

    python3 bench/cli_gate.py            # check against the golden copies
    python3 bench/cli_gate.py --record   # rewrite the golden copies

The ``surface`` command writes its CSV as ``out.csv`` inside a temporary
directory under ``bench/``, so the recorded JSON does not depend on where
the checkout lives.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

E = "2.718281828459045"
E2 = "7.38905609893065"
COMMANDS = {
    "lambda": ["lambda", "--r0", "1", "--a", E, "--b", E2],
    "certify": ["certify", "--profile", "f0-kick", "--n", "2", "--a", E, "--b", E2,
                "--mu", "0.95", "--r-max", "1e6"],
    "bifurcate": ["bifurcate", "--profile", "arctan-bifurcator", "--r-max", "1e4", "--abresch"],
    "surface": ["surface", "--name", "capped-cylinder", "--emit-profile", "out.csv"],
    "curve": ["curve", "--family", "parabola-kick", "--k", "20", "--t=-0.3:0.3:0.05",
              "--window", "100"],
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def run_commands() -> dict:
    """name -> (exit code, stdout text) for every README command."""
    from slboundary import cli

    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli-gate-", dir=BENCH_DIR) as tmp:
        os.chdir(tmp)
        try:
            for name, argv in COMMANDS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(argv + ["--json", "--no-meta"])
                    except SystemExit as exc:  # argparse rejects bad arguments this way
                        code = exc.code
                results[name] = (code, out.getvalue())
        finally:
            os.chdir(cwd)
    return results


def check() -> list:
    """Problems found, one line each; empty when the gate passes."""
    problems = []
    for name, (code, text) in run_commands().items():
        if code != 0:
            problems.append(f"{name}: exit code {code}")
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"{name}: output is not strict JSON ({exc})")
        golden = GOLDEN_DIR / f"{name}.json"
        if not golden.is_file():
            problems.append(f"{name}: no golden copy at {golden.relative_to(BENCH_DIR.parent)}")
        elif golden.read_text() != text:
            problems.append(f"{name}: output differs from {golden.relative_to(BENCH_DIR.parent)}")
    return problems


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (code, text) in run_commands().items():
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}; not recording")
        (GOLDEN_DIR / f"{name}.json").write_text(text)


def main(argv) -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    if argv == ["--record"]:
        record()
        return 0
    problems = check()
    for line in problems:
        print(line)
    print("CLI gate " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

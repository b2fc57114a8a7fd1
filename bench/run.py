"""Oracle-checked benchmark for slboundary.

    python3 bench/run.py --workload kick-certify --seed 1 --seconds 25 --trace 0

One client, one process, one thread, closed loop: each op is a public-API
call sequence on inputs generated from --seed, checked against a closed-form
or geometric oracle.  Ops run in whole rotations (see workloads.py) until
--seconds of op time have passed.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps each layer (tracing.py) and reports the per-layer metrics.
After the loop the README CLI gate (cli_gate.py) runs.  Every op that
raises, returns the wrong verdict or misses its oracle counts in `failed`;
a wrong answer (anything but a typed ToolkitError refusal) or a failed gate
also makes the result incorrect.

Every time is scaled to a reference host speed (hostspeed.py); the raw wall
times are printed next to the scaled ones.  The last line of stdout is the
JSON result; the line before it, starting with "detail ", holds what the
result has no room for: failure fraction, largest oracle deviation, the tail
percentile and its sample count, raw times, each failed op, and the
environment.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported (here and in the
# set-up subprocesses, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_KERNELS = 5
GOLDEN = (5 ** 0.5 - 1) / 2
TAIL_BEYOND = 10

KC, BC, PS = "kick-certify", "bifurcator-compare", "planar-sweep"

# Per-layer metrics (names and units in BENCHMARK.json) that a traced run of
# a workload must read nonzero; any other metric may read zero there.
MUST_MOVE = {
    KC: {"sl_engine.coef.scalar_calls", "sl_engine.coef.us_per_scalar_call", "sl_engine.coef.ms",
         "sl_engine.coef.vector_calls", "sl_engine.coef.vector_points",
         "closed_form.critical_decay.calls", "closed_form.critical_decay.us_per_call",
         "closed_form.log_product.calls", "sl_engine.integrate_sl.calls",
         "sl_engine.integrate_sl.self_ms", "sl_engine.solver_steps", "sl_engine.grid_nodes",
         "sl_engine.defect_max_ungated", "kick.certify.calls",
         "kick.certify.self_ms", "kick.lambda_log.calls", "kick.find_second_zero.ms",
         "trace.ops_per_s"},
    BC: {"sl_engine.coef.scalar_calls", "sl_engine.coef.us_per_scalar_call", "sl_engine.coef.ms",
         "sl_engine.integrate_sl.calls", "sl_engine.integrate_sl.self_ms",
         "sl_engine.solver_steps", "sl_engine.grid_nodes", "sl_engine.defect_max",
         "sl_engine.defect_max_ungated", "sl_engine.evaluate.calls", "sl_engine.evaluate.ms",
         "sl_engine.quad.calls", "sl_engine.index_form.ms", "sl_engine.picone_residual.self_ms",
         "bifurcator.classify.self_ms", "bifurcator.abresch_checks.self_ms",
         "bifurcator.boundary_test.self_ms", "bifurcator.quad.calls", "bifurcator.quad.ms",
         "surfaces.curvature_profile.ms", "surfaces.quad.calls", "surfaces.quad.ms",
         "trace.ops_per_s"},
    PS: {"planar.reconstruct.ms", "planar.self_intersects.ms", "planar.parabola_x_of_s.ms",
         "planar.segments", "trace.ops_per_s"},
}


def measure_setup(modules) -> tuple:
    """(scaled, raw) median wall time to import the workload's modules in a
    fresh interpreter.

    One discarded import first warms the file cache and writes the bytecode
    cache; each of the SETUP_REPEATS timed imports is then scaled by the
    median of SETUP_KERNELS kernel runs just before and after it.
    """
    code = ("import time; t = time.perf_counter(); import slboundary, "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        kernel = [hostspeed.kernel_ms() for _ in range(SETUP_KERNELS)]
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        kernel += [hostspeed.kernel_ms() for _ in range(SETUP_KERNELS)]
        if i == 0:
            continue
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * hostspeed.REFERENCE_MS / statistics.median(kernel))
    return statistics.median(scaled), statistics.median(raw)


def environment(seed) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "threads_pinned": os.environ["OMP_NUM_THREADS"]}


class Loop:
    """Runs whole rotations of ops until the op time reaches the budget."""

    def __init__(self, workload, workload_index, seed, tracer=None):
        from slboundary.errors import ToolkitError
        from workloads import defect_gated

        self.refusal = ToolkitError
        self.defect_gated = defect_gated
        self.workload = workload
        self.workload_index = workload_index
        self.seed = seed
        self.tracer = tracer
        self.raw = []  # wall seconds per op
        self.kernel = []  # calibration kernel ms timed just before each op
        self.errors = []
        self.failures = []  # every failed op, with its inputs and reason
        self.wrong = []  # the failures that are wrong results, not typed refusals
        self.elapsed = 0.0
        self.rotations = 0
        self.first_rotation_ops = 0
        self.first_rotation_counts = None
        # residual_report() maxima of the gated trajectories (see
        # workloads.defect_gated) and of the rest; gated ones above 1 are
        # listed, ungated ones above 1 counted
        self.defect_max = {True: 0.0, False: 0.0}
        self.defect_failures = []
        self.ungated_over = 0

    def run(self, seconds):
        import numpy as np

        offset = np.random.default_rng([self.seed, self.workload_index]).random()
        while self.elapsed < seconds:
            rng = np.random.default_rng([self.seed, self.workload_index, self.rotations])
            ops = self.workload.rotation(rng, (offset + self.rotations * GOLDEN) % 1.0)
            start = time.perf_counter()
            for op in ops:
                self._one(op)
            self.elapsed += time.perf_counter() - start
            self.rotations += 1
            if self.rotations == 1:
                self.first_rotation_ops = len(ops)
                if self.tracer:
                    self.first_rotation_counts = self.tracer.counts()

    def _one(self, op):
        tracer = self.tracer
        self.kernel.append(hostspeed.kernel_ms())
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, raised = self.workload.run(op), None
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out, raised = None, exc
        self.raw.append(time.perf_counter() - t0)
        if tracer:
            tracer.active = False
            for traj in tracer.end_op():
                pieces = traj.dense.pieces
                tracer.points["sl_engine.solver_steps"] += sum(len(sol.ts) - 1 for _, _, sol in pieces)
                tracer.points["sl_engine.grid_nodes"] += len(traj.grid)
                gated, defect = self.defect_gated(traj), traj.residual_report()
                self.defect_max[gated] = max(self.defect_max[gated], defect)
                if gated and defect > 1.0:
                    self.defect_failures.append(f"{op.describe()}: residual_report() {defect:.6g} > 1")
                elif defect > 1.0:
                    self.ungated_over += 1
        if raised is None:
            ok, err, why = self.workload.check(op, out)
        else:
            ok, err, why = False, None, f"{type(raised).__name__}: {raised}"
        if err is not None:
            self.errors.append(err)
        if not ok:
            self.failures.append(f"{op.describe()}: {why}")
            # A ToolkitError is the program refusing an input (fail closed):
            # a failed op, but not a wrong answer.
            if not isinstance(raised, self.refusal):
                self.wrong.append(self.failures[-1])

    def scaled(self):
        """Per-op seconds at the reference host speed."""
        return [t * f for t, f in zip(self.raw, hostspeed.factors(self.kernel))]


def latency_stats(seconds, percentile) -> dict:
    """Throughput, median and tail of per-op times.

    The tail is the workload's fixed percentile (nearest rank): the highest
    round percentile that keeps TAIL_BEYOND samples beyond it at the op
    counts a run reaches.  A fixed percentile keeps runs comparable when a
    slow host completes fewer ops; a run left with fewer than TAIL_BEYOND
    samples beyond it falls back to the sample that has exactly that many.
    """
    lat = sorted(seconds)
    n = len(lat)
    tail = math.ceil(percentile / 100.0 * n) - 1
    if n - tail - 1 < TAIL_BEYOND:
        tail = max(n - TAIL_BEYOND - 1, 0)
    return {"ops_per_s": n / sum(lat), "latency_ms_p50": 1e3 * statistics.median(lat),
            "latency_ms_tail": 1e3 * lat[tail],
            "tail_percentile": 100.0 * (tail + 1) / n, "tail_samples_beyond": n - tail - 1}


def layer_metrics(loop: Loop, speed: float) -> dict:
    """Counts per op over the first rotation (identical inputs for a seed, so
    they repeat exactly); times per op over the whole run, scaled by the
    run's mean host-speed factor."""
    tr = loop.tracer
    calls1, points1 = loop.first_rotation_counts
    n1 = loop.first_rotation_ops
    n = len(loop.raw)

    def per_op(counter, key):
        return counter.get(key, 0) / n1

    def ms(table, key):
        return 1e3 * speed * table.get(key, 0.0) / n

    def us_per_call(key):
        return 1e6 * speed * tr.total.get(key, 0.0) / tr.calls[key] if tr.calls.get(key) else 0.0

    scalar, vector = "sl_engine.coef.scalar", "sl_engine.coef.vector"
    return {
        "sl_engine.coef.scalar_calls": per_op(calls1, scalar),
        "sl_engine.coef.us_per_scalar_call": us_per_call(scalar),
        "sl_engine.coef.ms": ms(tr.total, scalar) + ms(tr.total, vector),
        "sl_engine.coef.vector_calls": per_op(calls1, vector),
        "sl_engine.coef.vector_points": per_op(points1, vector),
        "closed_form.critical_decay.calls": per_op(calls1, "closed_form.critical_decay"),
        "closed_form.critical_decay.us_per_call": us_per_call("closed_form.critical_decay"),
        "closed_form.log_product.calls": per_op(calls1, "closed_form.log_product"),
        "sl_engine.integrate_sl.calls": per_op(calls1, "sl_engine.integrate_sl"),
        "sl_engine.integrate_sl.self_ms": ms(tr.self_time, "sl_engine.integrate_sl"),
        "sl_engine.solver_steps": per_op(points1, "sl_engine.solver_steps"),
        "sl_engine.grid_nodes": per_op(points1, "sl_engine.grid_nodes"),
        "sl_engine.defect_max": loop.defect_max[True],
        "sl_engine.defect_max_ungated": loop.defect_max[False],
        "sl_engine.evaluate.calls": per_op(calls1, "sl_engine.evaluate"),
        "sl_engine.evaluate.ms": ms(tr.total, "sl_engine.evaluate"),
        "sl_engine.quad.calls": per_op(calls1, "sl_engine.quad"),
        "sl_engine.index_form.ms": ms(tr.total, "sl_engine.index_form"),
        "sl_engine.picone_residual.self_ms": ms(tr.self_time, "sl_engine.picone_residual"),
        "kick.certify.calls": per_op(calls1, "kick.certify"),
        "kick.certify.self_ms": ms(tr.self_time, "kick.certify"),
        "kick.lambda_log.calls": per_op(calls1, "kick.lambda_log"),
        "kick.find_second_zero.ms": ms(tr.total, "kick.find_second_zero"),
        "bifurcator.classify.self_ms": ms(tr.self_time, "bifurcator.classify"),
        "bifurcator.abresch_checks.self_ms": ms(tr.self_time, "bifurcator.abresch_checks"),
        "bifurcator.boundary_test.self_ms": ms(tr.self_time, "bifurcator.boundary_test"),
        "bifurcator.quad.calls": per_op(calls1, "bifurcator.quad"),
        "bifurcator.quad.ms": ms(tr.total, "bifurcator.quad"),
        "surfaces.curvature_profile.ms": ms(tr.total, "surfaces.curvature_profile"),
        "surfaces.quad.calls": per_op(calls1, "surfaces.quad"),
        "surfaces.quad.ms": ms(tr.total, "surfaces.quad"),
        "planar.reconstruct.ms": ms(tr.total, "planar.reconstruct"),
        "planar.self_intersects.ms": ms(tr.total, "planar.self_intersects"),
        "planar.parabola_x_of_s.ms": ms(tr.total, "planar.parabola_x_of_s"),
        "planar.segments": per_op(points1, "planar.segments"),
        "trace.ops_per_s": len(loop.raw) / sum(loop.scaled()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slboundary" / "__init__.py").is_file():
        print(f"error: no slboundary sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import cli_gate
    import workloads

    import slboundary
    if Path(slboundary.__file__).resolve().parent != SRC / "slboundary":
        print(f"error: imported slboundary from {slboundary.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workload_index = list(workloads.WORKLOADS).index(args.workload)

    setup_s = setup_raw = None
    if not args.trace:
        setup_s, setup_raw = measure_setup(workload.imports)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    loop = Loop(workload, workload_index, args.seed, tracer)
    try:
        loop.run(args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"wrong result: {f}" for f in loop.wrong]
    warnings = []
    gate = cli_gate.check()
    problems += [f"CLI gate: {p}" for p in gate]

    scaled = latency_stats(loop.scaled(), workload.tail_percentile)
    raw = latency_stats(loop.raw, workload.tail_percentile)
    if args.trace:
        values = layer_metrics(loop, speed=sum(loop.scaled()) / sum(loop.raw))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(MUST_MOVE[args.workload]):
            if not values[name] > 0.0:
                problems.append(f"trace: {name} reads {values[name]} on {args.workload}")
        problems += [f"ODE defect: {f}" for f in loop.defect_failures]
        if loop.ungated_over:
            # Known program defect, reported rather than gated: see
            # workloads.defect_gated.
            warnings.append(f"{loop.ungated_over} ungated trajectories have "
                            f"residual_report() > 1, max {loop.defect_max[False]:.3g}")
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        values.update({k: scaled[k] for k in ("ops_per_s", "latency_ms_p50", "latency_ms_tail")})
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "are not both measured and listed in BENCHMARK.json")

    n = len(loop.raw)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "ops": n,
        "rotations": loop.rotations,
        "op_seconds": loop.elapsed,
        "fail_frac": len(loop.failures) / n,
        "oracle_err_max": max(loop.errors, default=0.0),
        "tail_percentile": scaled["tail_percentile"],
        "tail_samples_beyond": scaled["tail_samples_beyond"],
        "reference_kernel_ms": hostspeed.REFERENCE_MS,
        "kernel_ms_median": statistics.median(loop.kernel),
        "raw": {"setup_s": setup_raw, "ops_per_s": raw["ops_per_s"],
                "latency_ms_p50": raw["latency_ms_p50"], "latency_ms_tail": raw["latency_ms_tail"]},
        "cli_gate": "failed" if gate else "passed",
        "failures": loop.failures,
        "problems": problems,
        "warnings": warnings,
        "env": environment(args.seed),
    }
    for name in units:
        print(f"{name:40s} {values[name]:.6g} {units[name]}")
    print(f"{'fail_frac':40s} {detail['fail_frac']:.6g} 1")
    print(f"{'oracle_err_max':40s} {detail['oracle_err_max']:.6g} 1")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": len(loop.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Every metric of every workload in one table, plus the two trace checks.

    python3 bench/report.py [--seed N]

For each workload this runs bench/run.py for BENCHMARK.json's run_seconds,
once untraced and twice traced with the same seed, then prints

* the end-to-end metrics with units, fail_frac and oracle_err_max, and the
  percentile and sample count behind latency_ms_tail;
* the tracing overhead: untraced ops_per_s minus traced trace.ops_per_s;
* whether every count metric repeated exactly across the two traced runs;
* each failed op, problem or warning a run reported.

Exit code 0 only when every run was correct and every count repeated.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=9973)
    args = parser.parse_args()

    ok = True
    seconds = spec["run_seconds"]
    for workload in names:
        result, detail = run(workload, args.seed, seconds, 0)
        traced = [run(workload, args.seed, seconds, 1) for _ in range(2)]
        print(f"== {workload}  seed {args.seed}  {detail['ops']} ops")
        for name, m in result["metrics"].items():
            print(f"  {name:22s} {m['value']:12.6g} {m['unit']}")
        print(f"  {'fail_frac':22s} {detail['fail_frac']:12.6g} 1")
        print(f"  {'oracle_err_max':22s} {detail['oracle_err_max']:12.6g} 1")
        print(f"  latency_ms_tail is p{detail['tail_percentile']:.4g} of {detail['ops']} ops, "
              f"{detail['tail_samples_beyond']} beyond")
        overhead = (result["metrics"]["ops_per_s"]["value"]
                    - traced[0][0]["metrics"]["trace.ops_per_s"]["value"])
        print(f"  tracing overhead       {overhead:12.6g} 1/s")
        moved = [c for c in counts if traced[0][0]["metrics"][c]["value"]
                 != traced[1][0]["metrics"][c]["value"]]
        print(f"  count metrics repeat exactly: {'yes' if not moved else 'NO: ' + ', '.join(moved)}")
        for res, det in [(result, detail)] + traced:
            for line in det["failures"] + det["problems"] + det["warnings"]:
                print(f"  trace={det['trace']}: {line}")
            ok = ok and res["correct"]
        ok = ok and not moved
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

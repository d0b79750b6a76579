"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py [--workloads W ...] [--seeds 1 2 ...] [--trace 0|1]

Runs bench/run.py once per (workload, seed), one after another, with the
run length from BENCHMARK.json, and prints per workload and metric the
median, the quartiles (statistics.quantiles, n=4) and the quartile spread
as a share of the median, plus attempted/failed totals. Raw results go to
.bench_run/sweep-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}")
        print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{metric:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {entry['unit']}")
        (ROOT / ".bench_run").mkdir(exist_ok=True)
        (ROOT / ".bench_run" / f"sweep-{workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

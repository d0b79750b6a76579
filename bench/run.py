"""Benchmark of the envarsim pipeline: one command, three workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Each round runs in a fresh single-threaded process (bench/worker.py), so
every cache of the program starts cold, as it does for a user of the CLI.
With --trace 0, rounds repeat until S seconds have passed (at least one
round) and the end-to-end metrics are medians over rounds; set-up is
sampled at least SETUP_SAMPLES times, topping up with processes that stop
where the timed section would begin. With --trace 1, one traced round gives
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import BENCH, ROOT, WORKLOADS

WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _round(workload: str, seed: int, trace: int, setup_only: bool, timeout: float) -> dict:
    """Start one worker process; return its result with ``setup_s`` added."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["start"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    rounds = []
    while not rounds or (not trace and time.monotonic() - begin < seconds):
        rounds.append(_round(workload, seed, trace, False, remaining()))
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_round(workload, seed, 0, True, remaining())["setup_s"])

    done = [r for r in rounds if r["error"] is None]
    for r in rounds:
        if r["error"] is not None:
            print(f"{workload}: program failed:\n{r['error']}", file=sys.stderr)
        for check, message in r.get("failures", []):
            print(f"{workload}: check {check} failed: {message}", file=sys.stderr)
    if not done:
        raise BenchError(f"{workload}: every round failed")
    if trace:
        metrics = done[0]["layers"]
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["end"] - r["start"] for r in done), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in done), "unit": "MB"},
        }
    return {
        "correct": all(not r["failures"] for r in done),
        "attempted": len(rounds),
        "failed": len(rounds) - len(done),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed: the program seed of the grids, mod 2**32")
    parser.add_argument("--seconds", type=float, required=True, help="measure rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "envarsim" / "__init__.py").is_file():
        print(f"error: no envarsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed % 2**32, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

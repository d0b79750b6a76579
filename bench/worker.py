"""One round of one workload, in a fresh process (started by run.py).

Prints one JSON line: when the timed section started and ended (on the
system-wide monotonic clock, so run.py can measure set-up from the moment
it started this process), the peak RSS at the end of the timed section,
whether the program raised, the output-check failures, and with --trace
the per-layer metrics. With --setup-only it stops where the timed section
would start.
"""

import os

# Single-threaded BLAS, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("report_default", "grid_calibrated", "grid_noiseless")


def import_envarsim():
    sys.path.insert(0, str(SRC))
    import envarsim

    if Path(envarsim.__file__).resolve().parent != SRC / "envarsim":
        raise ImportError(f"envarsim imported from {envarsim.__file__}, not from {SRC}")
    import envarsim.cli  # noqa: F401  (every module loaded before tracing)

    return envarsim


def setup_round(workload: str, seed: int, envarsim):
    """Prepare one round: (timed callable, output check, scratch dir or None)."""
    import checks

    if workload == "report_default":
        # the calibrated reference run exactly as users start it: no config,
        # no --seed, so its inputs do not depend on the workload seed
        RUN_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="report-", dir=RUN_DIR))
        argv = ["report", "--out", str(out)]

        def run():
            code = envarsim.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"envarsim {' '.join(argv)} exited {code}")
            return out

        return run, checks.check_report_dir, out

    from envarsim import ExperimentPlan, NoiseModel, calibrated_noise, run_experiment

    if workload == "grid_calibrated":
        plan = ExperimentPlan(noise=calibrated_noise(seed), seed=seed)
        check = checks.check_calibrated
    else:
        # criterion-1 shape: 1e6 pairs per setting, no noise drawn at all
        plan = ExperimentPlan(flux_hz=2e5, duration_s=5.0, noise=NoiseModel.noiseless(), seed=seed)
        check = checks.check_noiseless
    return (lambda: run_experiment(plan)), check, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    envarsim = import_envarsim()
    run, check, scratch = setup_round(args.workload, args.seed, envarsim)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.monotonic()
        if args.setup_only:
            print(json.dumps({"start": start}))
            return 0
        try:
            output, error = run(), None
        except Exception:  # the program failed: one failed operation
            output, error = None, traceback.format_exc()
        end = time.monotonic()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"start": start, "end": end, "peak_rss_mb": peak_rss_mb, "error": error}
        if error is None:
            result["failures"] = check(output)
        if tracer is not None:
            RUN_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(RUN_DIR / f"trace-{args.workload}.jsonl")
            metrics = tracer.layer_metrics(end - start)
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())

"""tdas benchmark: one workload per process, a closed loop of passes for a
fixed time, output checks, and a separate traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload accel_32 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. `--workload all` runs each workload in a
fresh process, one after the other, and sums them in a last line whose metric
names are prefixed with the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

NAMES = ("accel_32", "filter_256", "single_chain", "calib_1024")
# One BLAS thread: BLAS reductions split differently across thread counts, so
# the recorded accel_32 reference values hold only at a fixed count, and one
# thread is also the steadiest timing on shared cores.
BLAS_THREADS = 1


def pin_blas_threads():
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return status


def main(argv=None):
    args = parse(argv)
    src = Path.cwd() / "src"
    if not (src / "tdas" / "__init__.py").is_file():
        print(f"perfbench: no tdas sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import harness
    import tdas

    if Path(tdas.__file__).resolve().parent != (src / "tdas").resolve():
        print(f"perfbench: imported tdas from {tdas.__file__}, not {src}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(harness.machine(BLAS_THREADS)), flush=True)
    run = harness.Run(args.workload, args.seed)
    if args.trace:
        metrics, units = run.measure_traced(args.seconds), harness.PER_LAYER
    else:
        metrics, units = run.measure(args.seconds), harness.END_TO_END
    print("\n".join(run.report(metrics, units)))
    print(json.dumps(run.result(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

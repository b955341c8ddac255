"""Record accel_32's output values for a range of seeds into
accel_32_reference.json, which the benchmark then checks against.

Run from the repository root on the commit whose numerics are the reference:

    python3 perfbench/record_reference.py 0 32
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RTOL = 1e-10


def main(first, stop):
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]
    import run

    run.pin_blas_threads()
    import harness
    import workloads

    seeds = {}
    for seed in range(first, stop):
        bench = harness.Run("accel_32", seed)
        bench.setup()
        p = harness.run_pass(bench.workload, bench.state)
        if p.error is not None:
            raise SystemExit(f"seed {seed}: {p.error}")
        seeds[str(seed)] = workloads.accel_values(p)
        print(seed, seeds[str(seed)], flush=True)
    doc = {
        "about": "accel_32 outputs of the initial tdas code at one BLAS thread; a float32 default "
                 "or a dropped noise draw moves them far beyond rtol",
        "rtol": RTOL,
        "chains": workloads.ACCEL_CHAINS,
        "steps": workloads.ACCEL_STEPS,
        "seeds": seeds,
    }
    workloads.ACCEL_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))

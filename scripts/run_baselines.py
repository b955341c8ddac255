#!/usr/bin/env python3
"""Run the full desk-scale experiment suite once and freeze the resulting
margins into baselines/acceptance_margins.json.

The acceptance suite treats these numbers as regression thresholds: the
acceleration experiment must keep beating the vanilla run by at least the
frozen margins, and the negative control's filter-induced change must stay
below the structured improvement. Re-run this script only when the pipeline
constants change, and review the diff.
"""

import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported: BLAS reductions split
# differently across thread counts, so the frozen margins reproduce to the last
# digit only at a fixed count.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tdas.experiments import (
    BASELINE_PATH,
    run_acceleration_experiment,
    run_calibration_trend,
    run_negative_control,
    write_baselines,
)


def main():
    t0 = time.perf_counter()
    print("acceleration experiment (structured data) ...", flush=True)
    accel = run_acceleration_experiment()
    print(json.dumps(accel, indent=2))

    print("negative control (unstructured data) ...", flush=True)
    control = run_negative_control()
    print(json.dumps(control, indent=2))

    print("calibration trend across iteration counts ...", flush=True)
    trend = run_calibration_trend()
    print(json.dumps(trend, indent=2))

    results = {
        "acceleration": accel,
        "negative_control": control,
        "calibration_trend": trend,
        "wall_seconds": time.perf_counter() - t0,
    }
    write_baselines(results)
    print(f"wrote {BASELINE_PATH} in {results['wall_seconds']:.1f}s")


if __name__ == "__main__":
    main()

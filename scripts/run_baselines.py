#!/usr/bin/env python3
"""Run the full desk-scale experiment suite once and freeze the resulting
margins into baselines/acceptance_margins.json. Each experiment's results are
printed, then its wall time on a line of its own; only the suite's total,
wall_seconds, goes into the file.

With --check the suite is rerun and compared with the frozen file instead:
every frozen value but wall_seconds is printed as old, new and relative
change, nothing is written, and the exit status is 1 if any value moved.

The acceptance suite treats these numbers as regression thresholds: the
acceleration experiment must keep beating the vanilla run by at least the
frozen margins, and the negative control's filter-induced change must stay
below the structured improvement. Re-run this script only when the pipeline
constants change, and review the diff.
"""

import argparse
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
    load_baselines,
    run_acceleration_experiment,
    run_calibration_trend,
    run_negative_control,
    write_baselines,
)


EXPERIMENTS = (
    ("acceleration", "acceleration experiment (structured data)", run_acceleration_experiment),
    ("negative_control", "negative control (unstructured data)", run_negative_control),
    ("calibration_trend", "calibration trend across iteration counts", run_calibration_trend),
)


def run_suite():
    """Run each experiment, printing its results and then its wall time (which
    includes any reference run it is the first to need); the returned dict
    is what gets frozen."""
    t0 = time.perf_counter()
    results = {}
    for key, label, run in EXPERIMENTS:
        print(f"{label} ...", flush=True)
        start = time.perf_counter()
        results[key] = run()
        print(json.dumps(results[key], indent=2))
        print(f"{key} took {time.perf_counter() - start:.1f}s", flush=True)
    results["wall_seconds"] = time.perf_counter() - t0
    return results


def leaves(tree, path=""):
    """(path, value) for every scalar in a nest of dicts and lists."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def relative_change(old, new):
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return "n/a"
    if old == new:
        return "0"
    return f"{(new - old) / abs(old):+.3g}" if old else "inf"


def check(frozen, results):
    """Print each frozen value against the rerun; return the number that moved."""
    old, new = dict(leaves(frozen)), dict(leaves(results))
    moved = 0
    for path in sorted(old.keys() | new.keys()):
        if path == "wall_seconds":
            continue
        a, b = old.get(path, "<missing>"), new.get(path, "<missing>")
        same = a == b
        moved += not same
        print(f"{'ok   ' if same else 'MOVED'} {path}: old {a!r} new {b!r} "
              f"relative change {relative_change(a, b)}")
    return moved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="rerun and compare with the frozen file; write nothing")
    args = ap.parse_args(argv)
    results = run_suite()
    if args.check:
        moved = check(load_baselines(), results)
        print(f"{moved} frozen value(s) moved; rerun took {results['wall_seconds']:.1f}s")
        return 1 if moved else 0
    write_baselines(results)
    print(f"wrote {BASELINE_PATH} in {results['wall_seconds']:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

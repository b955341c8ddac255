"""Measurement loop: repeated set-up, closed-loop passes for a fixed time,
output checks, and the traced run that gives the per-layer numbers."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Pass, PassAborted

# Set-up is repeated before every pass, in a burst that lasts until
# SETUP_SECONDS have been spent (at least one set-up), and setup_s is the
# median over the run's bursts of the fastest set-up in each. A shared host
# switches between fast and slow phases every second or so, and a
# sub-millisecond set-up runs up to 1.75x slower in a slow phase (2-vCPU Xeon
# VM); the mean or median of a burst lands on whichever phase the burst saw,
# so ten-run medians of it differed by 20% between two sets of runs, while the
# fastest set-up of a burst stayed within 5%.
SETUP_SECONDS = 1.0
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scores.calls": "count",
    "scores.self_s": "s",
    "scores.gflop": "GFLOP",
    "scores.gflop_per_s": "GFLOP/s",
    "core.noise.calls": "count",
    "core.noise.scalars": "count",
    "core.noise.self_s": "s",
    "core.streams.self_s": "s",
    "filters.apply_tdas.calls": "count",
    "filters.apply_tdas.self_s": "s",
    "filters.apply_tdas.bypass_ratio": "fraction",
    "transforms.calls": "count",
    "transforms.self_s": "s",
    "sampler.chain_steps": "count",
    "sampler.self_s": "s",
    "calib.stats.self_s": "s",
    "calib.params.self_s": "s",
    "calib.kappa_points": "count",
    "validate.theorem1.self_s": "s",
    "validate.theorem2.self_s": "s",
    "validate.theorem2.draws": "count",
    "validate.metrics.self_s": "s",
    "synthdata.generate.self_s": "s",
    "trace.overhead_s": "s",
}


def machine(blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def run_pass(workload, state):
    p = Pass()
    start = time.perf_counter()
    try:
        workload.run(state, p)
    except PassAborted as exc:
        p.error = str(exc)
    p.wall = time.perf_counter() - start
    return p


def traced(fn, *args):
    """Run fn with the tracing wrappers installed; returns (result, per-layer
    metrics, names still wrapped after removal)."""
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        out = fn(*args)
    finally:
        inst.remove()
    return out, tracing.layer_metrics(tracer), tracing.leftover_wrappers()


class Run:
    """One measured run of one workload: passes, checks and metrics."""

    def __init__(self, name, seed):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.passes = []
        self.checks = []

    def setup(self, seconds=0.0):
        """Build the inputs at least once and until `seconds` have been spent;
        returns the time of each set-up."""
        times = []
        while not times or sum(times) < seconds:
            self.state = None  # free the previous inputs before building the next
            start = time.perf_counter()
            self.state = self.workload.setup(self.seed)
            times.append(time.perf_counter() - start)
        return times

    def trimmed(self, p):
        """Only the first completed pass keeps its outputs for the checks; the
        others keep their digest, so memory does not grow with the passes."""
        if p.error is None and any(q.outputs for q in self.passes):
            p.outputs = {}
        return p

    def check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))

    def check_outputs(self, extra_passes=()):
        """Oracle checks on the first completed pass; every other pass must
        reproduce its outputs bit for bit."""
        done = [p for p in self.passes if p.error is None]
        if not done:
            return
        for row in self.workload.check(self.state, done[0]):
            self.check(*row)
        same = all(p.digest == done[0].digest for p in done)
        self.check("passes_identical", same, f"{len(done)} passes, digest {done[0].digest[:12]}")
        if extra_passes:
            same = all(p.digest == done[0].digest for p in extra_passes)
            self.check("traced_identical", same, f"{len(extra_passes)} traced passes")

    def measure(self, seconds):
        bursts = []
        start = time.perf_counter()
        while True:
            bursts.append(self.setup(SETUP_SECONDS))
            self.passes.append(self.trimmed(run_pass(self.workload, self.state)))
            elapsed = time.perf_counter() - start
            typical = (statistics.median(sum(b) for b in bursts)
                       + statistics.median(p.wall for p in self.passes))
            if len(self.passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
        # Read before the checks, whose own arrays are not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check_outputs()
        done = [p for p in self.passes if p.error is None] or self.passes
        return {
            "wall_s": statistics.median(p.wall for p in done),
            "setup_s": statistics.median(min(b) for b in bursts),
            "work_per_s": statistics.median(p.rate() for p in done),
            "peak_rss_mb": peak_rss_mb,
        }

    def measure_traced(self, seconds):
        """Alternate untraced and traced passes; per-layer numbers are medians
        over the traced passes, set-up layers come from one traced set-up."""
        self.setup()
        _, setup_layers, leftovers = traced(self.workload.setup, self.seed)
        self.check("wrappers_removed", not leftovers, ", ".join(leftovers) or "setup")
        traced_passes, windows = [], []
        start = time.perf_counter()
        while True:
            self.passes.append(self.trimmed(run_pass(self.workload, self.state)))
            p, layers, leftovers = traced(run_pass, self.workload, self.state)
            traced_passes.append(self.trimmed(p))
            windows.append(layers)
            self.check("wrappers_removed", not leftovers, ", ".join(leftovers) or "pass")
            elapsed = time.perf_counter() - start
            if elapsed + self.passes[-1].wall + p.wall > seconds:
                break
        self.check_outputs(traced_passes)
        metrics = {name: statistics.median(w[name] for w in windows)
                   for name in PER_LAYER if name in windows[0]}
        metrics["synthdata.generate.self_s"] = setup_layers["synthdata.generate.self_s"]
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced_passes)
                                       - statistics.median(p.wall for p in self.passes))
        self.passes += traced_passes
        return metrics

    def result(self, metrics, units):
        attempted = sum(p.attempted for p in self.passes) + len(self.checks)
        failed = sum(p.failed for p in self.passes) + sum(not ok for _, ok, _ in self.checks)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }

    def report(self, metrics, units):
        """Human-readable lines: every metric by name and unit, the work rates
        by kind, the error rate and each check."""
        lines = [f"workload {self.workload.name} seed {self.seed}: {len(self.passes)} passes, walls "
                 + " ".join(f"{p.wall:.3f}" for p in self.passes) + " s"]
        for name, unit in units.items():
            lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
        done = [p for p in self.passes if p.error is None]
        if "work_per_s" in units and done:
            lines.append(f"    (work unit: {self.workload.work_unit})")
            for kind in sorted({k for p in done for k in p.work}):
                rate = statistics.median(p.rate([kind]) for p in done)
                lines.append(f"  {kind.replace('-', '_')}_per_s = {rate:.6g} {kind}/s")
        res = self.result(metrics, units)
        lines.append(f"  error_rate = {res['failed'] / res['attempted']:.6g} fraction "
                     f"({res['failed']}/{res['attempted']} operations)")
        for p in self.passes:
            if p.error is not None:
                lines.append(f"  pass failed: {p.error}")
        for name, ok, detail in self.checks:
            lines.append(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        return lines

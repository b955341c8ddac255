"""Per-layer tracing of tdas, installed from outside the package.

A traced pass wraps each layer's public entry points where the calling
modules bind them (module globals and class attributes), records one span per
call, and removes every wrapper afterwards. No file of the package changes,
and the wrappers only time and count: they pass arguments and results through
untouched, so traced and untraced passes compute bit-identical outputs.

A span is (layer, start, end, parent index). A layer's self time is the sum
over its spans of the span's duration minus the part of it that child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"


class Tracer:
    """Keeps spans and counters in memory until the pass is reduced."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, layer, fn, count=None):
        """Return a wrapper of fn that records a span and, on success, calls
        count(counts, result, arguments); arguments() binds the call's
        arguments to fn's parameter names, so hooks that need no argument
        pay nothing for it."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        signature = inspect.signature(fn) if count is not None else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if count is not None:
                count(counts, out, lambda: _arguments(signature, args, kwargs))
            return out

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper


def _arguments(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def covered(start, end, intervals):
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """{layer: (calls, self seconds)}. A call is a span whose parent belongs
    to another layer (or that has no parent), so re-entry into the same layer,
    such as EmpiricalScore.score calling score_batch, counts once."""
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for index, (layer, start, end, parent) in enumerate(spans):
        seconds[layer] += (end - start) - covered(start, end, children.get(index, ()))
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
    return {layer: (calls[layer], seconds[layer]) for layer in seconds}


class Installation:
    """Wrappers bound into modules and classes; remove() restores the originals."""

    def __init__(self):
        self._patched = []

    def patch(self, owner, name, replacement):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def package_modules(package="tdas"):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def bind_function(inst, tracer, layer, fn, count=None, modules=None):
    """Wrap fn in every package module that binds it (or only in `modules`)."""
    wrapper = tracer.wrap(layer, fn, count)
    for module in package_modules() if modules is None else modules:
        for name, value in list(vars(module).items()):
            if value is fn:
                inst.patch(module, name, wrapper)


def bind_method(inst, tracer, layer, cls, name, count=None):
    original = cls.__dict__[name]
    if isinstance(original, classmethod):
        inst.patch(cls, name, classmethod(tracer.wrap(layer, original.__func__, count)))
    else:
        inst.patch(cls, name, tracer.wrap(layer, original, count))


def leftover_wrappers(package="tdas"):
    """Names in the package's modules and classes that still hold a wrapper."""
    found = []
    for module in package_modules(package):
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


# Counters recorded at the layer boundaries.

def _count_gflop(counts, out, arguments):
    # Two (B, d) x (d, N) products in the softmax score: 4 * B * N * d flops.
    a = arguments()
    d = a["self"].ds.items[0].size
    counts["scores.gflop"] += 4.0 * (a["x"].size // d) * len(a["self"].ds) * d / 1e9


def _count_scalars(counts, out, arguments):
    counts["core.noise.scalars"] += out.size


def _count_bypass(counts, out, arguments):
    counts["filters.apply_tdas.bypassed"] += out is arguments()["z"]


def _count_chain_steps(counts, out, arguments):
    a = arguments()
    steps = a["cfg"].total_steps
    if a.get("max_steps") is not None:
        steps = min(steps, a["max_steps"])
    counts["sampler.chain_steps"] += steps * a.get("n_chains", 1)


def _count_kappa_points(counts, out, arguments):
    counts["calib.kappa_points"] += len(out)


def _count_draws(counts, out, arguments):
    counts["validate.theorem2.draws"] += arguments()["n_mc"]


def install(tracer):
    """Wrap every traced layer of tdas; returns the Installation to remove."""
    from tdas import calib, core, filters, sampler, scores, synthdata, transforms, validate

    inst = Installation()
    try:
        bind_method(inst, tracer, "scores", scores.GaussianScore, "score")
        bind_method(inst, tracer, "scores", scores.EmpiricalScore, "score")
        bind_method(inst, tracer, "scores", scores.EmpiricalScore, "score_batch", _count_gflop)
        bind_method(inst, tracer, "core.noise", core.NoiseSource, "normal", _count_scalars)
        bind_method(inst, tracer, "core.streams", core.NoiseSource, "for_worker")
        bind_function(inst, tracer, "filters.apply_tdas", filters.apply_tdas, _count_bypass)
        for fn in (transforms.dct2, transforms.idct2, transforms.dft2, transforms.idft2_real):
            bind_function(inst, tracer, "transforms", fn, modules=(filters, calib))
        for fn in (sampler.sample_batch, sampler.langevin_sample, sampler.vanilla_sample,
                   sampler.freq_domain_sample):
            bind_function(inst, tracer, "sampler", fn, _count_chain_steps)
        bind_function(inst, tracer, "calib.stats", calib.freq_power_stats)
        bind_function(inst, tracer, "calib.stats", calib.ratio_grid)
        bind_function(inst, tracer, "calib.params", calib.calc_freq_params)
        bind_function(inst, tracer, "calib.params", calib.kappa_curve, _count_kappa_points)
        bind_function(inst, tracer, "validate.theorem1", validate.check_theorem1)
        bind_function(inst, tracer, "validate.theorem2", validate.check_theorem2, _count_draws)
        bind_function(inst, tracer, "validate.metrics", validate.spectral_deviation)
        bind_function(inst, tracer, "validate.metrics", validate.sliced_wasserstein)
        bind_function(inst, tracer, "synthdata.generate", synthdata.generate)
    except BaseException:
        inst.remove()
        raise
    return inst


def layer_metrics(tracer):
    """Reduce one traced window to the per-layer metrics (calls, self times,
    counters and the ratios derived from them)."""
    totals = self_times(tracer.spans)
    counts = tracer.counts

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    def busy(layer):
        return totals.get(layer, (0, 0.0))[1]

    gflop = counts["scores.gflop"]
    tdas_calls = calls("filters.apply_tdas")
    return {
        "scores.calls": calls("scores"),
        "scores.self_s": busy("scores"),
        "scores.gflop": gflop,
        "scores.gflop_per_s": gflop / busy("scores") if gflop else 0.0,
        "core.noise.calls": calls("core.noise"),
        "core.noise.scalars": counts["core.noise.scalars"],
        "core.noise.self_s": busy("core.noise"),
        "core.streams.self_s": busy("core.streams"),
        "filters.apply_tdas.calls": tdas_calls,
        "filters.apply_tdas.self_s": busy("filters.apply_tdas"),
        "filters.apply_tdas.bypass_ratio":
            counts["filters.apply_tdas.bypassed"] / tdas_calls if tdas_calls else 0.0,
        "transforms.calls": calls("transforms"),
        "transforms.self_s": busy("transforms"),
        "sampler.chain_steps": counts["sampler.chain_steps"],
        "sampler.self_s": busy("sampler"),
        "calib.stats.self_s": busy("calib.stats"),
        "calib.params.self_s": busy("calib.params"),
        "calib.kappa_points": counts["calib.kappa_points"],
        "validate.theorem1.self_s": busy("validate.theorem1"),
        "validate.theorem2.self_s": busy("validate.theorem2"),
        "validate.theorem2.draws": counts["validate.theorem2.draws"],
        "validate.metrics.self_s": busy("validate.metrics"),
        "synthdata.generate.self_s": busy("synthdata.generate"),
    }

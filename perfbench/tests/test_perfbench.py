"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
installation and removal, traced/untraced identity, the oracles, and the
agreement of BENCHMARK.json with the metrics the harness prints.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import oracles
import run
import tracing
import workloads
from tdas import core, filters, sampler, scores


def test_covered_merges_and_clips_child_intervals():
    # Overlapping children merge; a child running past the parent is clipped.
    assert tracing.covered(0.0, 10.0, [(2.0, 4.0), (1.0, 3.0), (9.0, 12.0)]) == pytest.approx(4.0)
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("sampler", 0.0, 10.0, -1),
        ("scores", 1.0, 5.0, 0),
        ("scores", 2.0, 3.0, 1),   # re-entry into the same layer: one call
        ("core.noise", 6.0, 7.0, 0),
        ("core.noise", 8.0, 8.5, -1),
    ]
    totals = tracing.self_times(spans)
    assert totals["sampler"] == (1, pytest.approx(5.0))
    assert totals["scores"] == (1, pytest.approx(4.0))
    assert totals["core.noise"] == (2, pytest.approx(1.5))
    # Self times of one tree add up to the root's duration.
    assert sum(s for layer, (_, s) in totals.items()) == pytest.approx(10.0 + 0.5)


def test_wrapped_calls_nest_and_account_for_the_whole_root():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.002)

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.002)
        wrapped_inner()
        wrapped_inner()

    tracer.wrap("outer", outer)()
    (_, start, end, parent), = [s for s in tracer.spans if s[0] == "outer"]
    assert parent == -1
    assert [s[3] for s in tracer.spans if s[0] == "inner"] == [0, 0]
    totals = tracing.self_times(tracer.spans)
    assert totals["inner"][0] == 2
    assert totals["outer"][1] + totals["inner"][1] == pytest.approx(end - start)
    assert totals["inner"][1] >= 0.004


def _bindings():
    """Every (owner, name) -> object the tracer patches, read without tracing."""
    seen = {}
    for module in tracing.package_modules():
        for name, value in vars(module).items():
            if callable(value):
                seen[(module.__name__, name)] = value
    for cls in (scores.GaussianScore, scores.EmpiricalScore, core.NoiseSource):
        for name, value in vars(cls).items():
            seen[(cls.__qualname__, name)] = value
    return seen


def test_install_wraps_calling_modules_and_remove_restores_every_binding():
    before = _bindings()
    inst = tracing.install(tracing.Tracer())
    try:
        assert sampler.apply_tdas is not before[("tdas.sampler", "apply_tdas")]
        assert filters.dct2 is not before[("tdas.filters", "dct2")]
        assert "tdas.core.NoiseSource.normal" in tracing.leftover_wrappers()
    finally:
        inst.remove()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_failure_leaves_nothing_behind(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(tracing, "bind_function", broken)
    with pytest.raises(RuntimeError):
        tracing.install(tracing.Tracer())
    assert tracing.leftover_wrappers() == []


def test_traced_samples_are_bit_identical_and_counted():
    shape = (1, 16, 16)
    model = scores.GaussianScore(np.zeros(shape), 1.0)
    cfg = sampler.SamplerConfig(levels=scores.geometric_levels(1.0, 0.1, 4, 5), eps0=0.01,
                                transform=filters.DFT)
    freq = filters.build_freq_mask(filters.FreqFilterParams(0.9, 0.8, 0.3, 0.45,
                                                            transform=filters.DFT), shape)
    plain = sampler.sample_batch(model, cfg, 3, 4, freq=freq, shape=shape)
    out, layers, leftovers = harness.traced(
        lambda: sampler.sample_batch(model, cfg, 3, 4, freq=freq, shape=shape))
    assert np.array_equal(plain, out)
    assert leftovers == []
    assert layers["sampler.chain_steps"] == 4 * cfg.total_steps
    assert layers["core.noise.calls"] == 4 * (cfg.total_steps + 1)
    assert layers["core.noise.scalars"] == 4 * (cfg.total_steps + 1) * 256
    assert layers["filters.apply_tdas.calls"] == cfg.total_steps + 1
    assert layers["filters.apply_tdas.bypass_ratio"] == 0.0
    assert layers["scores.calls"] == 4 * cfg.total_steps


def test_zone_oracle_detects_a_missing_filter():
    shape = (1, 64, 64)
    params = (0.9, 0.5, 0.3, 0.45)
    cfg = sampler.SamplerConfig(levels=scores.geometric_levels(2.0, 0.05, 10, 10), eps0=3.5e-4,
                                accel_factor=20.0)
    model = scores.GaussianScore(np.zeros(shape), 1.0)
    freq = filters.build_freq_mask(filters.FreqFilterParams(*params), shape)
    filtered = sampler.sample_batch(model, cfg, 1, 16, freq=freq, shape=shape)
    unfiltered = sampler.sample_batch(model, cfg, 1, 16, shape=shape)
    assert workloads._zone_check("f", filtered, "dct", cfg, *params)[1]
    assert not workloads._zone_check("u", unfiltered, "dct", cfg, *params)[1]


def test_calibration_rule_oracle_rejects_wrong_parameters():
    rng = np.random.Generator(np.random.PCG64(5))
    r = np.hypot(*np.meshgrid(np.arange(64), np.arange(64), indexing="ij"))
    gamma = (1.0 + r) ** 1.6 * rng.gamma(50.0, 1.0 / 50.0, size=r.shape)
    from tdas import calib

    good = calib.calc_freq_params(calib.RatioGrid(gamma, "dct"), calib.SGM, "dct")
    assert oracles.calibration_rule_errors(gamma, good, "dct") == []
    for change in ({"lambda1": good.lambda1 * 1.001}, {"r2": good.r2 + 1 / 64}):
        bad = filters.FreqFilterParams(**{**good.__dict__, **change})
        assert oracles.calibration_rule_errors(gamma, bad, "dct")


def test_benchmark_json_matches_the_harness():
    doc = json.loads((Path(harness.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert run.NAMES == tuple(workloads.WORKLOADS)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER

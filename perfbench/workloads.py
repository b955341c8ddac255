"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup` (tdas only
ever sees the generated inputs), then `run` makes one pass as a closed loop:
a single caller issues each call into tdas after the previous one returns.
`check` tests a completed pass against oracles that do not use tdas code.

Sizes are scaled from the lab's acceptance experiments so that one pass takes
a few seconds on a 2-core desk machine with one BLAS thread, and several
passes fit into one measured run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import oracles
from tdas import calib, core, experiments, filters, sampler, scores, synthdata, transforms, validate

FAILURES = (sampler.DivergenceError, calib.CalibrationError)

# accel_32: the acceleration experiment's vanilla -> calibrate -> filtered
# pipeline, at 200 chains and T=100 instead of 400 chains and T=200.
ACCEL_CHAINS = 200
ACCEL_STEPS = 100
ACCEL_REFERENCE = Path(__file__).with_name("accel_32_reference.json")

# filter_256: an elementwise Gaussian score, so the filters dominate.
FILTER_SHAPE = (1, 256, 256)
FILTER_CHAINS = 8
FILTER_PARAMS = (0.9, 0.8, 0.3, 0.45)  # lambda1, lambda2, r1, r2
GAUSS_S0 = 1.0

# single_chain: the validation harnesses and single-chain sampling.
THM2_SHAPE = (1, 8, 8)
THM2_DRAWS = 30_000
THM2_EPS = 0.01
THM1_SHAPES = ((1, 16, 16), (3, 32, 32))
THM1_STEPS = 100
CHAIN_SHAPE = (1, 32, 32)
CHAINS = 10
CHAIN_STEPS = 2000

# calib_1024: calibration statistics and the radius scan at 1024^2. The
# generated set decays at 0.4 against the reference's 2.0: with a generated
# decay of 1.6 the ratio trend is too flat for kappa to reach Q_0.9, so
# calibration raises CalibrationError on every seed tried.
CALIB_SHAPE = (1, 1024, 1024)
CALIB_COUNT = 16
DECAY_REF = 2.0
DECAY_GEN = 0.4


class PassAborted(Exception):
    """An operation of the pass failed; later operations depend on it."""


class Pass:
    """One pass: its operations, the work timed inside them, and its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = {}
        self.work_s = {}
        self.outputs = {}
        self.wall = 0.0
        self.error = None
        self._digest = hashlib.sha256()

    def call(self, fn, *args, work=None, **kwargs):
        """One operation. work=(kind, amount) adds the call's time and amount
        to that kind of work."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except FAILURES as exc:
            self.failed += 1
            raise PassAborted(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc
        if work is not None:
            kind, amount = work
            self.work[kind] = self.work.get(kind, 0) + amount
            self.work_s[kind] = self.work_s.get(kind, 0.0) + time.perf_counter() - start
        return out

    def keep(self, name, value):
        """Record an output; every output enters the pass digest."""
        self.outputs[name] = value
        self._digest.update(name.encode())
        self._digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())

    @property
    def digest(self):
        return self._digest.hexdigest()

    def rate(self, kinds=None):
        kinds = self.work if kinds is None else [k for k in kinds if k in self.work]
        seconds = sum(self.work_s[k] for k in kinds)
        return sum(self.work[k] for k in kinds) / seconds if seconds else 0.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    setup: object
    run: object
    check: object


def _params_vector(p):
    return [p.lambda1, p.lambda2, p.r1, p.r2]


def _zone_check(name, x, transform, cfg, lambda1, lambda2, r1, r2):
    levels = cfg.levels
    v = oracles.langevin_variance(levels.sigmas, levels.steps_per_level, cfg.eps0,
                                  cfg.accel_factor, GAUSS_S0)
    mask = oracles.three_zone_mask(lambda1, lambda2, r1, r2, transform, *x.shape[-2:])
    rows = oracles.zone_power(x, mask, transform, v)
    ok = all(abs(ratio - 1.0) <= tol for _, ratio, tol in rows)
    detail = ", ".join(f"m={m:g}: {ratio:.4f}+-{tol:.4f}" for m, ratio, tol in rows)
    return (name, ok, f"zone power / (m^2 V), V={v:.6g}: {detail}")


# accel_32 -------------------------------------------------------------------

def accel_setup(seed):
    base = experiments.STRUCTURED_SPEC
    ds = synthdata.generate(dataclasses.replace(base, seed=base.seed + seed))
    model = scores.EmpiricalScore(ds)
    model.score_batch(ds.items[:8], 1.0)  # BLAS warm-up
    transforms.idct2(transforms.dct2(ds.items[:8]))  # FFT plan warm-up
    return {"seed": seed, "ds": ds, "model": model, "master": 2000 + seed,
            "cfg": experiments.pipeline_config(ACCEL_STEPS)}


def accel_run(st, p):
    ds, model, cfg, master = st["ds"], st["model"], st["cfg"], st["master"]
    steps = ("chain-steps", ACCEL_CHAINS * cfg.total_steps)
    van = p.call(sampler.sample_batch, model, cfg, master, ACCEL_CHAINS, shape=ds.shape, work=steps)
    vanilla = core.ImageDataset(van)
    params = p.call(experiments.calibrate_from_sets, vanilla, ds, filters.DCT, calib.SGM)
    freq = p.call(filters.build_freq_mask, params, ds.shape)
    # Same master seed as the vanilla run: paired noise, as in the experiment.
    filt = p.call(sampler.sample_batch, model, cfg, master, ACCEL_CHAINS, freq=freq,
                  shape=ds.shape, work=steps)
    filtered = core.ImageDataset(filt)
    p.keep("vanilla", van)
    p.keep("filtered", filt)
    p.keep("params", _params_vector(params))
    p.keep("quality", [
        p.call(validate.spectral_deviation, vanilla, ds, filters.DCT),
        p.call(validate.spectral_deviation, filtered, ds, filters.DCT),
        p.call(validate.sliced_wasserstein, vanilla, ds, 64, seed=7),
        p.call(validate.sliced_wasserstein, filtered, ds, 64, seed=7),
    ])


def accel_values(p):
    """The scalars recorded in accel_32_reference.json and compared on later commits."""
    van, filt = p.outputs["vanilla"], p.outputs["filtered"]
    lambda1, lambda2, r1, r2 = p.outputs["params"]
    sd_v, sd_t, sw_v, sw_t = p.outputs["quality"]
    return {
        "vanilla_norm": float(np.linalg.norm(van)), "filtered_norm": float(np.linalg.norm(filt)),
        "vanilla_abs_sum": float(np.abs(van).sum()), "filtered_abs_sum": float(np.abs(filt).sum()),
        "lambda1": lambda1, "lambda2": lambda2, "r1": r1, "r2": r2,
        "sd_vanilla": sd_v, "sd_tdas": sd_t, "sw_vanilla": sw_v, "sw_tdas": sw_t,
    }


def accel_check(st, p):
    values = accel_values(p)
    margin = values["sd_vanilla"] - values["sd_tdas"]
    rows = [("spectral_margin", margin > 0,
             f"spectral deviation vanilla={values['sd_vanilla']:.6f} tdas={values['sd_tdas']:.6f}, "
             f"sliced W2 vanilla={values['sw_vanilla']:.6f} tdas={values['sw_tdas']:.6f} (SW not gated)")]
    reference = json.loads(ACCEL_REFERENCE.read_text())
    recorded = reference["seeds"].get(str(st["seed"]))
    if recorded is not None:
        rtol = reference["rtol"]
        worst = max(abs(values[k] - v) / abs(v) for k, v in recorded.items())
        rows.append(("recorded_values", worst <= rtol,
                     f"max relative deviation {worst:.3g} from the recorded reference (rtol {rtol:g})"))
    return rows


# filter_256 -----------------------------------------------------------------

def filter_setup(seed):
    model = scores.GaussianScore(np.zeros(FILTER_SHAPE), GAUSS_S0)
    masks = {}
    for t in (filters.DFT, filters.DCT):
        masks[t] = filters.build_freq_mask(filters.FreqFilterParams(*FILTER_PARAMS, transform=t),
                                           FILTER_SHAPE)
        filters.apply_tdas(np.ones(FILTER_SHAPE), filters.identity_space_mask(FILTER_SHAPE),
                           masks[t], t)  # FFT plan warm-up
    return {"model": model, "masks": masks, "master": 5000 + seed,
            "cfg": experiments.pipeline_config(ACCEL_STEPS)}


def filter_run(st, p):
    for t in (filters.DFT, filters.DCT):
        cfg = dataclasses.replace(st["cfg"], transform=t)
        x = p.call(sampler.sample_batch, st["model"], cfg, st["master"], FILTER_CHAINS,
                   freq=st["masks"][t], shape=FILTER_SHAPE,
                   work=("chain-steps", FILTER_CHAINS * cfg.total_steps))
        p.keep(t, x)


def filter_check(st, p):
    return [_zone_check(f"zone_power_{t}", p.outputs[t], t, st["cfg"], *FILTER_PARAMS)
            for t in (filters.DFT, filters.DCT)]


# single_chain ---------------------------------------------------------------

def _independent(x_star, src):
    return src.normal(x_star.shape)


def _aligned(x_star, src):
    return x_star


def _anti(x_star, src):
    return -x_star


def single_setup(seed):
    chain_freq = filters.build_freq_mask(
        filters.FreqFilterParams(*FILTER_PARAMS, transform=filters.DCT), CHAIN_SHAPE)
    space = filters.identity_space_mask(CHAIN_SHAPE)
    filters.apply_tdas(np.ones(CHAIN_SHAPE), space, chain_freq, filters.DCT)  # FFT warm-up
    thm1_cases = [(scores.GaussianScore(np.zeros(s), 1.0), s, fmap)
                  for s in THM1_SHAPES for fmap in (None, transforms.PermutationMap(s, seed=11 + seed))]
    return {
        "seed": seed,
        "thm2_model": scores.GaussianScore(np.zeros(THM2_SHAPE), 1.0),
        "thm1_cases": thm1_cases,
        "thm1_cfg": sampler.SamplerConfig(levels=scores.geometric_levels(1.0, 0.1, 5, 20), eps0=0.01),
        "chain_model": scores.GaussianScore(np.zeros(CHAIN_SHAPE), GAUSS_S0),
        "chain_cfg": experiments.pipeline_config(CHAIN_STEPS),
        "chain_freq": chain_freq,
        "space": space,
    }


def single_run(st, p):
    seed = st["seed"]
    reports = []
    for name, gen in (("independent", _independent), ("aligned", _aligned), ("anti", _anti)):
        rep = p.call(validate.check_theorem2, st["thm2_model"], np.zeros(THM2_SHAPE), gen,
                     THM2_EPS, THM2_DRAWS, seed=3 + seed, work=("mc-draws", THM2_DRAWS))
        reports.append(rep)
        p.keep(f"theorem2_{name}", [rep.lhs, rep.rhs, rep.standard_error])
    p.outputs["theorem2_reports"] = reports
    devs = [p.call(validate.check_theorem1, model, st["thm1_cfg"], seed, THM1_STEPS, shape=shape,
                   fmap=fmap, work=("chain-steps", 2 * THM1_STEPS))
            for model, shape, fmap in st["thm1_cases"]]
    p.keep("theorem1", devs)
    chains = [p.call(sampler.langevin_sample, st["chain_model"], st["chain_cfg"],
                     core.NoiseSource(6000 + 100 * seed + c), st["space"], st["chain_freq"],
                     work=("chain-steps", st["chain_cfg"].total_steps))
              for c in range(CHAINS)]
    p.keep("chains", np.stack(chains))


def single_check(st, p):
    worst = max(p.outputs["theorem1"])
    reports = p.outputs["theorem2_reports"]
    return [
        ("theorem1", worst <= 1e-6, f"max trajectory deviation {worst:.3g} (<= 1e-6)"),
        ("theorem2", all(r.consistent() for r in reports),
         "lhs-rhs in standard errors: "
         + ", ".join(f"{(r.lhs - r.rhs) / r.standard_error:.3g}" for r in reports)),
        _zone_check("zone_power_chains", p.outputs["chains"], filters.DCT, st["chain_cfg"],
                    *FILTER_PARAMS),
    ]


# calib_1024 -----------------------------------------------------------------

def calib_setup(seed):
    def blobs(decay, s):
        return synthdata.generate(synthdata.SynthSpec(
            synthdata.LOW_FREQ_BLOBS, CALIB_COUNT, CALIB_SHAPE, spectral_decay=decay, seed=s))

    reference = blobs(DECAY_REF, 7000 + 2 * seed)
    generated = blobs(DECAY_GEN, 7001 + 2 * seed)
    transforms.dct2(reference.items[:1])  # FFT plan warm-up
    transforms.dft2(reference.items[:1])
    return {"reference": reference, "generated": generated}


def calib_run(st, p):
    images = ("images", CALIB_COUNT)
    for t in (filters.DCT, filters.DFT):
        gen = p.call(calib.freq_power_stats, st["generated"], t, work=images)
        ref = p.call(calib.freq_power_stats, st["reference"], t, work=images)
        grid = p.call(calib.ratio_grid, gen, ref, work=("images", 0))
        params = p.call(calib.calc_freq_params, grid, calib.SGM, t, work=("images", 0))
        p.keep(f"gamma_{t}", grid.gamma)
        p.keep(f"params_{t}", _params_vector(params))
        p.outputs[f"freq_params_{t}"] = params


def calib_check(st, p):
    rows = oracles.band_ratio(p.outputs["gamma_dct"], DECAY_REF - DECAY_GEN, CALIB_COUNT)
    out = [("band_ratio_dct", all(abs(mean - 1.0) <= tol for _, mean, tol in rows),
            "band mean / closed form: " + ", ".join(f"{mean:.4f}+-{tol:.4f}" for _, mean, tol in rows))]
    for t in (filters.DCT, filters.DFT):
        params = p.outputs[f"freq_params_{t}"]
        errors = oracles.calibration_rule_errors(p.outputs[f"gamma_{t}"], params, t)
        out.append((f"calibration_rule_{t}", not errors,
                    "; ".join(errors) or f"lambda=({params.lambda1:.4f}, {params.lambda2:.4f}), "
                                         f"r=({params.r1:.4f}, {params.r2:.4f})"))
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("accel_32",
                 "Core acceleration experiment: batched EmpiricalScore sampling, calibration, "
                 "filtered resampling; score BLAS and per-chain noise calls dominate",
                 "chain-steps", accel_setup, accel_run, accel_check),
        Workload("filter_256",
                 "Elementwise Gaussian score at 256^2 with DFT and DCT three-zone masks: filters, "
                 "transforms and large noise draws dominate; the score is cheap",
                 "chain-steps", filter_setup, filter_run, filter_check),
        Workload("single_chain",
                 "Validation traffic, one small tensor per call: theorem-2 Monte Carlo, theorem-1 "
                 "trajectories, single Langevin chains; per-call overhead dominates",
                 "iterations", single_setup, single_run, single_check),
        Workload("calib_1024",
                 "Calibration at the paper's 1024^2 resolution: spectral statistics and the "
                 "kappa radius scan; no sampling",
                 "images", calib_setup, calib_run, calib_check),
    )
}

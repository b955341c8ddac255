"""Acceptance gate: ten checks covering exact identities, oracle agreement,
the desk-scale acceleration experiment against frozen baselines, and the
negative control. Each test prints a single pass/fail line.

Criterion 1 checks the transforms that sampling and calibration run against
their O(d^2) definitions: dct2 and idct2 against products of dct_matrix, and
dft2, rdft2 and dht2 against dft2_naive, each gap named in its line.

Baselines in baselines/acceptance_margins.json come from scripts/run_baselines.py
and act as regression thresholds; regenerate them only deliberately.
"""

import numpy as np
import pytest

from tdas.calib import quantile
from tdas.core import NoiseSource
from tdas.experiments import (
    filter_overhead_bench,
    load_baselines,
    run_acceleration_experiment,
    run_calibration_trend,
    run_negative_control,
)
from tdas.filters import identity_space_mask
from tdas.sampler import SamplerConfig, langevin_sample, vanilla_sample
from tdas.scores import GaussianScore, geometric_levels
from tdas.transforms import (
    PermutationMap,
    dct2,
    dct_matrix,
    dft2,
    dft2_naive,
    dht2,
    idct2,
    idft2_real,
    rdft2,
)
from tdas.validate import check_theorem1, check_theorem2


def report(num, name, ok, detail):
    print(f"\ncriterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def baselines():
    return load_baselines()


@pytest.fixture(scope="module")
def accel_result():
    return run_acceleration_experiment()


def test_criterion_01_transform_correctness():
    rng = np.random.Generator(np.random.PCG64(1))
    big = rng.standard_normal((3, 256, 256))
    rt_dct = float(np.max(np.abs(idct2(dct2(big)) - big)))
    rt_dft = float(np.max(np.abs(idft2_real(dft2(big)) - big)))
    # Each fast transform the sampler or the calibration runs, against the
    # O(d^2) definitions: the DCT matrix on both axes, and the double-sum DFT.
    gaps = dict.fromkeys(("dct2", "idct2", "dft2", "rdft2", "dht2"), 0.0)
    for h in (1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32):
        for w in (1, 3, 4, 5, 8, 13, 17, 29, 32):
            t = rng.standard_normal((1, h, w))
            mh, mw = dct_matrix(h), dct_matrix(w)
            full = dft2_naive(t)
            pairs = {
                "dct2": (dct2(t), mh @ t @ mw.T),
                "idct2": (idct2(t), mh.T @ t @ mw),
                "dft2": (dft2(t), full),
                "rdft2": (rdft2(t), full[..., : w // 2 + 1]),
                "dht2": (dht2(t), (full.real - full.imag) / np.sqrt(h * w)),
            }
            for name, (fast, oracle) in pairs.items():
                gaps[name] = max(gaps[name], float(np.max(np.abs(fast - oracle))))
    ok = rt_dct <= 1e-10 and rt_dft <= 1e-10 and max(gaps.values()) <= 1e-9
    report(1, "transform correctness", ok,
           f"roundtrip dct={rt_dct:.2e} dft={rt_dft:.2e}, oracle gaps "
           + " ".join(f"{name}={gap:.2e}" for name, gap in gaps.items()) + " (<=1e-9)")


def test_criterion_02_trajectory_equivalence():
    worst = 0.0
    for shape in [(1, 16, 16), (3, 32, 32)]:
        model = GaussianScore(np.zeros(shape), 1.0)
        cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 20), eps0=0.01)
        for fmap in (None, PermutationMap(shape, seed=11)):
            dev = check_theorem1(model, cfg, seed=0, steps=100, shape=shape, fmap=fmap)
            worst = max(worst, dev)
    ok = worst <= 1e-6
    report(2, "trajectory equivalence", ok, f"max deviation={worst:.2e} over 100 steps")


def test_criterion_03_deviation_decomposition():
    shape = (1, 8, 8)
    model = GaussianScore(np.zeros(shape), 1.0)
    x_t = np.zeros(shape)
    eps, n_mc = 0.01, 100_000
    reps = {
        name: check_theorem2(model, x_t, gen, eps, n_mc, seed=3)
        for name, gen in [
            ("independent", lambda xs, src: src.normal(shape)),
            ("aligned", lambda xs, src: xs),
            ("anti", lambda xs, src: -xs),
        ]
    }
    all_consistent = all(r.consistent() for r in reps.values())
    # The aligned regime's LHS sits below the independent one by the
    # correlation term 2 sqrt(eps) E||x*||^2 (= 2 sqrt(eps) * d for the unit
    # Gaussian target).
    expected_gap = 2.0 * np.sqrt(eps) * x_t.size
    gap = reps["independent"].lhs - reps["aligned"].lhs
    se = np.hypot(reps["independent"].standard_error, reps["aligned"].standard_error)
    paired_ok = abs(gap - expected_gap) <= 4.0 * se
    ok = all_consistent and paired_ok
    report(3, "deviation decomposition", ok,
           f"consistent={all_consistent}, gap={gap:.4f} vs {expected_gap:.4f} "
           f"within 4x{se:.4f}")


def test_criterion_04_special_case_identity():
    shape = (1, 8, 8)
    model = GaussianScore(np.zeros(shape), 1.0)
    cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 8), eps0=0.01)
    space = identity_space_mask(shape)
    freq = np.ones(shape)
    identical = all(
        np.array_equal(
            vanilla_sample(model, cfg, NoiseSource(seed), shape),
            langevin_sample(model, cfg, NoiseSource(seed), space, freq),
        )
        for seed in range(10)
    )
    report(4, "all-ones masks = vanilla", identical, "bit-identical for 10 seeds")


def test_criterion_05_sampler_convergence():
    shape = (1, 8, 8)
    mu_val, s0 = 0.7, 1.0
    model = GaussianScore(np.full(shape, mu_val), s0)
    cfg = SamplerConfig(levels=geometric_levels(2.0, 0.05, 10, 200), eps0=3.5e-4)
    from tdas.sampler import sample_batch

    x = sample_batch(model, cfg, master_seed=55, n_chains=500, shape=shape)
    mean_err = abs(float(x.mean()) - mu_val)
    # Chains end at the smallest noise level, so the target variance is the
    # smoothed one, s0^2 + sigma_min^2.
    target_var = s0**2 + cfg.levels.sigma_min**2
    var_err = abs(float(x.var(axis=0).mean()) - target_var)
    ok = mean_err <= 0.05 and var_err <= 0.1
    report(5, "sampler convergence", ok,
           f"T=2000, 500 chains: |mean err|={mean_err:.4f} (<=0.05), "
           f"|var err|={var_err:.4f} (<=0.1)")


def test_criterion_06_acceleration_experiment(accel_result, baselines):
    frozen = baselines["acceleration"]
    sd_margin = accel_result["spectral_margin"]
    sw_margin = accel_result["sw_margin"]
    strictly_better = sd_margin > 0 and sw_margin > 0
    # Regression guard: margins must not collapse below the frozen run
    # (10% slack for platform-level FFT/libm drift).
    holds = (sd_margin >= 0.9 * frozen["spectral_margin"]
             and sw_margin >= 0.9 * frozen["sw_margin"])
    ok = strictly_better and holds
    report(6, "acceleration experiment", ok,
           f"spectral margin={sd_margin:.6f} (frozen {frozen['spectral_margin']:.6f}), "
           f"sw margin={sw_margin:.6f} (frozen {frozen['sw_margin']:.6f})")


def test_criterion_07_calibration_trend():
    rows = run_calibration_trend()
    l1 = [r["lambda1"] for r in rows]
    l2 = [r["lambda2"] for r in rows]
    # Rows go from 400 down to 50 iterations; both rates must not increase.
    mono = all(b <= a + 1e-12 for a, b in zip(l1, l1[1:])) and all(
        b <= a + 1e-12 for a, b in zip(l2, l2[1:])
    )
    report(7, "calibration trend", mono,
           "lambda1: " + "->".join(f"{v:.4f}" for v in l1)
           + ", lambda2: " + "->".join(f"{v:.4f}" for v in l2))


def test_criterion_08_filter_overhead():
    rows = filter_overhead_bench(sizes=(256, 1024), repeats=10)
    t256 = rows[0]["median_seconds"]
    t1024 = rows[1]["median_seconds"]
    ratio = t1024 / t256
    ok = ratio <= 20.0
    report(8, "filter overhead", ok,
           f"median 256={t256 * 1e3:.2f}ms, 1024={t1024 * 1e3:.2f}ms, ratio={ratio:.1f} (<=20)")


def test_criterion_09_quantile_oracle():
    def brute(values, alpha):
        n = len(values)
        for x in sorted(values):
            if sum(1 for y in values if y <= x) >= alpha * n - 1e-12:
                return x

    rng = np.random.Generator(np.random.PCG64(9))
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            values = rng.standard_normal(n)
        else:  # heavy ties
            values = rng.choice([0.0, 1.0, 2.5, 7.0], size=n)
        alpha = float(rng.uniform(0.01, 1.0))
        if quantile(values, alpha) != brute(values.tolist(), alpha):
            mismatches += 1
    report(9, "quantile oracle", mismatches == 0,
           f"{mismatches} mismatches over 1000 random multisets")


def test_criterion_10_negative_control(baselines):
    control = run_negative_control()
    threshold = baselines["acceleration"]["sw_margin"]
    ok = control["sw_change"] < threshold
    report(10, "negative control", ok,
           f"unstructured sw change={control['sw_change']:.6f} < structured "
           f"margin {threshold:.6f} (calibration_failed={control['calibration_failed']})")

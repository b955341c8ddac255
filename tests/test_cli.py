import json

import numpy as np
from click.testing import CliRunner

from tdas.cli import main
import pytest

from tdas.calib import freq_power_stats, kappa_curve, ratio_grid
from tdas.core import load_dataset, load_tensor, save_tensor
from tdas.filters import DCT, DFT, FreqFilterParams, SpaceFilter, build_freq_mask
from tdas.sampler import SamplerConfig, sample_batch
from tdas.scores import EmpiricalScore, geometric_levels


DROP = object()  # a change that removes its key from a run config


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def make_data(tmp_path, kind="low_freq_blobs", count=10, name="ds", seed=3):
    out = tmp_path / name
    res = invoke("make-data", str(out), "--kind", kind, "--count", str(count),
                 "--shape", "1", "8", "8", "--seed", str(seed))
    assert res.exit_code == 0, res.output
    return out


def write_run_config(tmp_path, ds_dir, **overrides):
    cfg = {
        "shape": [1, 8, 8],
        "model": {"kind": "empirical", "dataset": str(ds_dir)},
        "levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5, "steps_per_level": 2},
        "eps0": 0.001,
        "seed": 21,
        "n_samples": 3,
        "out_dir": str(tmp_path / "run"),
    }
    cfg.update(overrides)
    path = tmp_path / f"run_{abs(hash(json.dumps(cfg, sort_keys=True))) % 10**8}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestMakeData:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = make_data(tmp_path)
        ds = load_dataset(out)
        assert len(ds) == 10 and ds.shape == (1, 8, 8)
        assert (out / "run_manifest.json").exists()

    def test_bad_kind_is_usage_error(self, tmp_path):
        res = invoke("make-data", str(tmp_path / "x"), "--kind", "bogus")
        assert res.exit_code != 0

    def test_decay_is_refused_for_unstructured_data(self, tmp_path):
        # Unstructured data has no spectral decay, so the option was dropped
        # without a word; left at its default it still passes.
        out = tmp_path / "u"
        res = invoke("make-data", str(out), "--kind", "unstructured", "--decay", "1.5")
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--decay" in lines[0]
        assert not out.exists()
        assert len(load_dataset(make_data(tmp_path, kind="unstructured"))) == 10


class TestSample:
    def test_vanilla_run_produces_outputs(self, tmp_path):
        ds = make_data(tmp_path)
        cfg = write_run_config(tmp_path, ds)
        res = invoke("sample", str(cfg), "--vanilla")
        assert res.exit_code == 0, res.output
        out = load_dataset(tmp_path / "run" / "tensors")
        assert len(out) == 3
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert manifest["command"] == "sample" and manifest["seed"] == 21
        assert "total" in manifest["wall_times"]

    def test_seed_reproducible(self, tmp_path):
        ds = make_data(tmp_path)
        a_cfg = write_run_config(tmp_path, ds, out_dir=str(tmp_path / "a"))
        b_cfg = write_run_config(tmp_path, ds, out_dir=str(tmp_path / "b"))
        assert invoke("sample", str(a_cfg), "--vanilla").exit_code == 0
        assert invoke("sample", str(b_cfg), "--vanilla").exit_code == 0
        a = load_dataset(tmp_path / "a" / "tensors")
        b = load_dataset(tmp_path / "b" / "tensors")
        assert np.array_equal(a.items, b.items)

    def test_seed_flag_overrides_config(self, tmp_path):
        ds = make_data(tmp_path)
        a_cfg = write_run_config(tmp_path, ds, out_dir=str(tmp_path / "a"))
        b_cfg = write_run_config(tmp_path, ds, out_dir=str(tmp_path / "b"))
        assert invoke("sample", str(a_cfg), "--vanilla").exit_code == 0
        assert invoke("sample", str(b_cfg), "--vanilla", "--seed", "99").exit_code == 0
        a = load_dataset(tmp_path / "a" / "tensors")
        b = load_dataset(tmp_path / "b" / "tensors")
        assert not np.array_equal(a.items, b.items)

    def test_missing_config_errors_cleanly(self, tmp_path):
        res = invoke("sample", str(tmp_path / "nope.json"))
        assert res.exit_code != 0

    def test_dft_freq_params_filter_in_the_dft_basis(self, tmp_path):
        # The mask from DFT parameters has the DFT corner geometry, so the
        # sampler must filter with the DFT too.
        ds = make_data(tmp_path)
        params = FreqFilterParams(lambda1=0.6, lambda2=0.3, r1=0.2, r2=0.4, transform=DFT)
        params_path = tmp_path / "p.json"
        params_path.write_text(params.to_json())
        cfg = write_run_config(tmp_path, ds, freq_params=str(params_path))
        res = invoke("sample", str(cfg))
        assert res.exit_code == 0, res.output
        out = load_dataset(tmp_path / "run" / "tensors").items
        model = EmpiricalScore(load_dataset(ds))
        freq = build_freq_mask(params, (1, 8, 8))
        levels = geometric_levels(1.0, 0.1, 5, 2)
        expected = {t: sample_batch(model, SamplerConfig(levels=levels, eps0=0.001, transform=t),
                                    21, 3, freq=freq, shape=(1, 8, 8)) for t in (DCT, DFT)}
        assert np.array_equal(out, expected[DFT])
        assert not np.array_equal(out, expected[DCT])

    @pytest.mark.parametrize("keys", [("space_mask",), ("freq_mask",), ("space_mask", "freq_mask")])
    def test_raw_masks_filter_in_the_dct_basis(self, tmp_path, keys):
        # A raw freq_mask carries no transform, so the sampler uses the DCT.
        ds = make_data(tmp_path)
        rng = np.random.default_rng(5)
        masks = {"space_mask": rng.uniform(1 / 3, 1.0, (1, 8, 8)),
                 "freq_mask": rng.uniform(0.2, 1.0, (1, 8, 8))}
        paths = {}
        for key in keys:
            paths[key] = str(tmp_path / f"{key}.tdt")
            save_tensor(masks[key], paths[key])
        cfg = write_run_config(tmp_path, ds, **paths)
        res = invoke("sample", str(cfg))
        assert res.exit_code == 0, res.output
        out = load_dataset(tmp_path / "run" / "tensors").items
        model = EmpiricalScore(load_dataset(ds))
        space = SpaceFilter(masks["space_mask"]) if "space_mask" in keys else None
        freq = masks["freq_mask"] if "freq_mask" in keys else None
        dct_cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 2), eps0=0.001, transform=DCT)
        assert np.array_equal(out, sample_batch(model, dct_cfg, 21, 3, space=space, freq=freq,
                                                shape=(1, 8, 8)))
        assert not np.array_equal(out, sample_batch(model, dct_cfg, 21, 3, shape=(1, 8, 8)))

    def test_bad_iterations_exit_one(self, tmp_path):
        ds = make_data(tmp_path)
        cfg = write_run_config(tmp_path, ds)
        res = invoke("sample", str(cfg), "--vanilla", "--iterations", "7")
        assert res.exit_code == 1
        assert "error:" in res.output


    @pytest.mark.parametrize("override", [
        {"levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5, "steps_per_level": 2.7}},
        {"levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5.5, "steps_per_level": 2}},
        {"levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5, "steps_per_level": True}},
        {"n_samples": 2.7},
        {"n_samples": "3"},
        {"seed": 21.5},
        {"seed": True},
    ], ids=["steps_per_level", "levels", "steps_per_level-bool", "n_samples", "n_samples-str",
            "seed", "seed-bool"])
    def test_non_integral_counts_exit_one(self, tmp_path, override):
        # int() would truncate 2.7 to 2 and read true as 1.
        ds = make_data(tmp_path)
        cfg = write_run_config(tmp_path, ds, **override)
        res = invoke("sample", str(cfg), "--vanilla")
        assert res.exit_code == 1
        assert "must be an integer" in res.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change, key", [
        ({"eps0": DROP}, "'eps0'"),
        ({"out_dir": DROP}, "'out_dir'"),
        ({"n_sample": 5}, "'n_sample'"),
        ({"transform": "dft", "freq_mask": "m.tdt"}, "'transform'"),
        ({"freq_params": "p.json", "freq_mask": "m.tdt"}, "'freq_mask'"),
        ({"levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5}}, "'levels.steps_per_level'"),
        ({"levels": {"sigma_max": 1.0, "sigma_min": 0.1, "levels": 5, "steps_per_level": 2,
                     "steps": 4}}, "'levels.steps'"),
        ({"model": {"kind": "empirical"}}, "'model.dataset'"),
        ({"model": {"kind": "gaussian", "s0": 1.0, "dataset": "ds"}}, "'model.dataset'"),
        ({"model": {"dataset": "ds"}}, "'model.kind'"),
        ({"model": {"kind": "flow"}}, "'flow'"),
        ({"levels": [5, 2]}, "levels is not a JSON object"),
        ({"vanilla": "false"}, "vanilla must be true or false"),
        ({"eps0": "0.01"}, "eps0 must be a number"),
        ({"accel_factor": True}, "accel_factor must be a number"),
        ({"levels": {"sigma_max": "1.0", "sigma_min": 0.1, "levels": 5, "steps_per_level": 2}},
         "levels.sigma_max must be a number"),
        ({"model": {"kind": "gaussian", "mu": "0"}}, "model.mu must be a number"),
        ({"freq_params": ""}, "freq_params must be a non-empty string"),
        ({"space_mask": None}, "space_mask must be a non-empty string"),
        ({"shape": [1, 8, 8.5]}, "shape must be three integers"),
    ], ids=["missing-eps0", "missing-out_dir", "unknown-n_sample", "transform-beside-freq_mask",
            "freq_mask-beside-freq_params", "missing-levels-key", "unknown-levels-key",
            "missing-dataset", "gaussian-dataset", "missing-kind", "unknown-kind", "levels-list",
            "vanilla-str", "eps0-str", "accel_factor-bool", "sigma_max-str", "mu-str",
            "freq_params-empty", "space_mask-null", "shape-fractional"])
    def test_config_keys_are_checked_before_sampling(self, tmp_path, change, key):
        # A misspelt "n_sample" sampled one chain, a "transform" beside a raw
        # freq_mask was dropped, a missing eps0 printed only 'eps0', and
        # "vanilla": "false" sampled unfiltered.
        ds = make_data(tmp_path)
        cfg = {k: v for k, v in {**json.loads(write_run_config(tmp_path, ds).read_text()),
                                 **change}.items() if v is not DROP}
        path = tmp_path / "checked.json"
        path.write_text(json.dumps(cfg))
        res = invoke("sample", str(path))
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: run config")
        assert str(path) in lines[0] and key in lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, text, flags", [
        ("shape", "[1, -8, 8]", ()),
        ("shape", "[1, 0, 8]", ()),
        ("seed", "-1", ()),
        ("seed", None, ("--seed", "-1")),
        ("n_samples", "0", ()),
        ("levels.levels", "0", ()),
        ("levels.steps_per_level", "0", ()),
        ("eps0", "-1", ()),
        ("eps0", "0", ()),
        ("accel_factor", "1e400", ()),
        ("accel_factor", "NaN", ()),
        ("accel_factor", None, ("--accel", "-2")),
        ("levels.sigma_max", "Infinity", ()),
        ("levels.sigma_min", "-0.1", ()),
        ("levels.sigma_min", "0", ()),
    ], ids=["shape-negative", "shape-zero", "seed", "seed-flag", "n_samples", "levels",
            "steps_per_level", "eps0-negative", "eps0-zero", "accel_factor-overflow",
            "accel_factor-nan", "accel-flag", "sigma_max-inf", "sigma_min-negative",
            "sigma_min-zero"])
    def test_out_of_range_values_name_the_key(self, tmp_path, key, text, flags):
        # Each exited 1 with the check further down, which named neither the
        # config nor the key ("negative dimensions are not allowed").
        cfg = json.loads(write_run_config(tmp_path, None, model={"kind": "gaussian"}).read_text())
        if text is not None:
            *parents, last = key.split(".")
            section = cfg
            for name in parents:
                section = section[name]
            section[last] = "RAW"
        path = tmp_path / "ranged.json"
        path.write_text(json.dumps(cfg).replace('"RAW"', str(text)))
        res = invoke("sample", str(path), *flags)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: run config {path}: {key} must be")
        assert not (tmp_path / "run").exists()

    def test_a_config_that_is_not_an_object_exits_one(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        res = invoke("sample", str(path))
        assert res.exit_code == 1
        assert res.output == f"error: run config {path}: the config is not a JSON object\n"

    def test_tdas_flag_replaces_a_mistyped_vanilla(self, tmp_path):
        # The flag is set before the check, so the run filters as --tdas says.
        ds = make_data(tmp_path)
        mask_path = tmp_path / "freq_mask.tdt"
        mask = np.random.default_rng(5).uniform(0.2, 1.0, (1, 8, 8))
        save_tensor(mask, mask_path)
        cfg = write_run_config(tmp_path, ds, vanilla="false", freq_mask=str(mask_path))
        res = invoke("sample", str(cfg), "--tdas")
        assert res.exit_code == 0, res.output
        out = load_dataset(tmp_path / "run" / "tensors").items
        model = EmpiricalScore(load_dataset(ds))
        sampler_cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, 2), eps0=0.001)
        assert np.array_equal(out, sample_batch(model, sampler_cfg, 21, 3, freq=mask,
                                                shape=(1, 8, 8)))
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert manifest["config"]["vanilla"] is False

    def test_a_flag_supplies_a_key_the_config_lacks(self, tmp_path):
        ds = make_data(tmp_path)
        cfg = json.loads(write_run_config(tmp_path, ds).read_text())
        del cfg["seed"]
        path = tmp_path / "seedless.json"
        path.write_text(json.dumps(cfg))
        assert invoke("sample", str(path), "--vanilla", "--seed", "21").exit_code == 0
        assert json.loads((tmp_path / "run" / "run_manifest.json").read_text())["seed"] == 21

    def test_seed_flag_replaces_a_non_integral_config_seed(self, tmp_path):
        ds = make_data(tmp_path)
        cfg = write_run_config(tmp_path, ds, seed=21.5)
        assert invoke("sample", str(cfg), "--vanilla", "--seed", "21").exit_code == 0


class TestCalibrateStatsBench:
    def test_calibrate_emits_params_and_curve(self, tmp_path):
        ref = make_data(tmp_path, count=30, name="ref", seed=1)
        gen = make_data(tmp_path, kind="unstructured", count=30, name="gen", seed=2)
        params_path = tmp_path / "p.json"
        curve_path = tmp_path / "c.csv"
        res = invoke("calibrate", str(ref), str(gen), "--out", str(params_path),
                     "--curve", str(curve_path))
        assert res.exit_code == 0, res.output
        params = json.loads(params_path.read_text())
        assert {"lambda1", "lambda2", "r1", "r2"} <= set(params)
        g = ratio_grid(freq_power_stats(load_dataset(gen)), freq_power_stats(load_dataset(ref)))
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "r,kappa" and lines[1].startswith("0,")
        assert lines[1:] == [f"{r:.10g},{k:.10g}" for r, k in kappa_curve(g)]

    def test_calibrate_no_crossing_exits_two(self, tmp_path):
        # Generated set low-frequency heavy vs white reference: the ratio falls
        # with radius, so kappa can never reach the upper quantiles.
        ref = make_data(tmp_path, kind="unstructured", count=30, name="ref2", seed=1)
        gen = make_data(tmp_path, kind="low_freq_blobs", count=30, name="gen2", seed=2)
        res = invoke("calibrate", str(ref), str(gen))
        assert res.exit_code == 2

    def test_stats_writes_power_and_profile(self, tmp_path):
        ds = make_data(tmp_path)
        out = tmp_path / "s.tdt"
        prof = tmp_path / "p.csv"
        res = invoke("stats", str(ds), "--out", str(out), "--profile", str(prof))
        assert res.exit_code == 0, res.output
        power = load_tensor(out)
        assert power.shape == (1, 8, 8) and np.all(power >= 0)
        assert prof.read_text().startswith("radius,power")

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        res = invoke("bench", "--filter-overhead", "16", "--repeats", "2",
                     "--out", str(out))
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == "size,median_seconds" and lines[1].startswith("16,")

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_bench_rejects_repeats_below_one(self, tmp_path, repeats):
        # No repeat used to give a NaN median in the CSV.
        out = tmp_path / "b.csv"
        res = invoke("bench", "--filter-overhead", "16", "--repeats", repeats, "--out", str(out))
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "repeats" in lines[0]
        assert not out.exists()


class TestValidate:
    def test_theorem1_passes(self, tmp_path):
        res = invoke("validate", "theorem1", "--steps", "20", "--shape", "1", "8", "8")
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["passed"] and report["max_deviation"] <= 1e-6

    @pytest.mark.parametrize("steps", ["0", "-4", "7"])
    def test_theorem1_steps_must_fill_the_ladder(self, steps):
        # The ladder has 5 levels; 0 or -4 steps checked only the initial
        # state, and 7 silently checked 5.
        res = invoke("validate", "theorem1", "--steps", steps, "--shape", "1", "4", "4")
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--steps" in lines[0]

    def test_theorem2_report_file(self, tmp_path):
        path = tmp_path / "r.json"
        res = invoke("validate", "theorem2", "--n-mc", "200", "--report", str(path))
        assert res.exit_code == 0, res.output
        assert json.loads(path.read_text())["passed"]

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_theorem2_eps_must_be_positive_and_finite(self, eps):
        # A bad option, not a failed validation (exit 2): a NaN or infinite
        # eps would make every term NaN, which JSON cannot carry.
        res = invoke("validate", "theorem2", "--n-mc", "200", "--eps", eps)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "eps" in lines[0]

    @pytest.mark.parametrize("args, option", [
        (("theorem2", "--n-mc", "200", "--steps", "7"), "--steps"),
        (("theorem2", "--map", "permutation"), "--map"),
        (("theorem2", "--samples", "s"), "--samples"),
        (("metrics", "--eps", "0.1"), "--eps"),
        (("metrics", "--shape", "1", "4", "4"), "--shape"),
        (("theorem1", "--transform", "dft"), "--transform"),
        (("theorem1", "--regime", "aligned"), "--regime"),
    ])
    def test_options_the_mode_ignores_are_refused(self, args, option):
        # Each used to be dropped without a word.
        res = invoke("validate", *args)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and option in lines[0]

    def test_metrics_needs_dirs(self):
        res = invoke("validate", "metrics")
        assert res.exit_code == 1

    def test_no_mode_is_error(self):
        assert invoke("validate").exit_code == 1


class TestErrorBoundary:
    COMMANDS = ["make-data", "sample", "calibrate", "stats", "validate", "bench"]

    @pytest.mark.parametrize("args, needle", [
        *[((cmd, "--bogus"), "--bogus") for cmd in COMMANDS],
        (("make-data", "x", "--kind", "nope"), "--kind"),
        (("make-data", "x", "--kind", "unstructured", "--count", "ten"), "--count"),
        (("calibrate", ".", ".", "--direction", "up"), "--direction"),
        (("stats", ".", "--transform", "fft"), "--transform"),
        (("validate", "theorem3"), "theorem3"),
        (("validate", "theorem1", "--steps", "ten"), "--steps"),
        (("bench", "--filter-overhead", "big"), "--filter-overhead"),
        (("make-data",), "OUT_DIR"),
        (("sample",), "RUN_CONFIG"),
        (("calibrate", "."), "GENERATED_DIR"),
        (("stats",), "SAMPLES_DIR"),
        (("validate",), "theorem1"),
        (("bench",), "--filter-overhead"),
        (("bogus",), "bogus"),
        ((), "command"),
        (("validate", "theorem1", "theorem2"), "theorem2"),
    ])
    def test_usage_error_exits_one_with_one_line(self, args, needle):
        # Click's own handling exited 2, the code of a failed validation, with
        # a usage text of several lines.
        res = invoke(*args)
        assert res.exit_code == 1
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0]
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [("--help",), ("--version",),
                                      *[(cmd, "--help") for cmd in COMMANDS]])
    def test_help_and_version_exit_zero(self, args):
        res = invoke(*args)
        assert res.exit_code == 0 and res.stdout and res.stderr == ""

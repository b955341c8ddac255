"""Command-line frontend: dataset generation, sampling, calibration, stats,
validation harnesses, and benchmarks, each emitting a reproducibility manifest.

Exit codes: 0 success, 1 usage or runtime error (single-line message on
stderr), 2 validation failure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calib import (
    CalibrationError,
    calc_freq_params,
    freq_power_stats,
    kappa_curve,
    ratio_grid,
    write_kappa_csv,
)
from .core import (
    ImageDataset,
    NoiseSource,
    export_image,
    load_dataset,
    load_tensor,
    save_dataset,
    save_tensor,
)
from .filters import DCT, FreqFilterParams, SpaceFilter, build_freq_mask, identity_space_mask
from .sampler import SamplerConfig, sample_batch
from .scores import EmpiricalScore, GaussianScore, geometric_levels
from .synthdata import SynthSpec, generate, radial_power_profile, KINDS
from .transforms import PermutationMap
from .validate import check_theorem1, check_theorem2, sliced_wasserstein, spectral_deviation
from .experiments import filter_overhead_bench

EXIT_VALIDATION_FAILURE = 2


class ManifestWriter:
    def __init__(self, command: str, config: dict, seed):
        self.manifest = {
            "command": command,
            "config": config,
            "seed": seed,
            "version": __version__,
            "wall_times": {},
            "outputs": [],
        }
        self._t0 = time.perf_counter()
        self._phase_start = self._t0

    def phase(self, name: str):
        now = time.perf_counter()
        self.manifest["wall_times"][name] = now - self._phase_start
        self._phase_start = now

    def output(self, path):
        self.manifest["outputs"].append(str(path))

    def write(self, directory):
        self.manifest["wall_times"]["total"] = time.perf_counter() - self._t0
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "run_manifest.json"
        path.write_text(json.dumps(self.manifest, indent=2) + "\n")
        return path


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _derive_seed(master: int, label: str) -> int:
    # Stable per-purpose child seeds from one master seed.
    import zlib

    return int(np.random.SeedSequence([master, zlib.crc32(label.encode())]).generate_state(1)[0])


@click.group()
@click.version_option(__version__)
def main():
    """Spectral diffusion-sampling toolkit."""


@main.command("make-data")
@click.argument("out_dir", type=click.Path())
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--shape", nargs=3, type=int, default=(1, 32, 32), show_default=True)
@click.option("--decay", type=float, default=2.0, show_default=True,
              help="Spectral power decay exponent for structured kinds.")
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_make_data(out_dir, kind, count, shape, decay, seed):
    """Generate a synthetic dataset into OUT_DIR."""
    try:
        spec = SynthSpec(kind, count, tuple(shape), decay, seed)
        mw = ManifestWriter("make-data", {"kind": kind, "count": count, "shape": list(shape),
                                          "decay": decay}, seed)
        ds = generate(spec)
        mw.phase("generate")
        save_dataset(ds, out_dir, extra_manifest={"kind": kind, "decay": decay, "seed": seed})
        mw.output(out_dir)
        mw.write(out_dir)
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


def _build_model(cfg: dict):
    model_cfg = cfg["model"]
    kind = model_cfg["kind"]
    shape = tuple(cfg["shape"])
    if kind == "gaussian":
        mu = np.full(shape, float(model_cfg.get("mu", 0.0)))
        return GaussianScore(mu, float(model_cfg.get("s0", 1.0)))
    if kind == "empirical":
        return EmpiricalScore(load_dataset(model_cfg["dataset"]))
    raise ValueError(f"unknown model kind {kind!r}")


def _load_run_config(path, overrides: dict) -> dict:
    cfg = json.loads(Path(path).read_text())
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


@main.command("sample")
@click.argument("run_config", type=click.Path(exists=True))
@click.option("--vanilla/--tdas", "use_vanilla", default=None,
              help="Override the run-config filtering mode.")
@click.option("--iterations", type=int, default=None, help="Override total iterations.")
@click.option("--accel", type=float, default=None, help="Override the step-size multiplier.")
@click.option("--seed", type=int, default=None)
def cmd_sample(run_config, use_vanilla, iterations, accel, seed):
    """Run a batch of sampling chains described by RUN_CONFIG (JSON; flags win)."""
    try:
        cfg = _load_run_config(run_config, {"accel_factor": accel, "seed": seed})
        if use_vanilla is not None:
            cfg["vanilla"] = use_vanilla
        shape = tuple(cfg["shape"])
        lv = cfg["levels"]
        steps_per_level = int(lv["steps_per_level"])
        if iterations is not None:
            if iterations % int(lv["levels"]) != 0:
                raise ValueError("--iterations must be a multiple of the level count")
            steps_per_level = iterations // int(lv["levels"])
        levels = geometric_levels(float(lv["sigma_max"]), float(lv["sigma_min"]),
                                  int(lv["levels"]), steps_per_level)
        sampler_cfg = SamplerConfig(levels=levels, eps0=float(cfg["eps0"]),
                                    accel_factor=float(cfg.get("accel_factor", 1.0)))
        model = _build_model(cfg)
        if cfg.get("vanilla", False):
            space, freq = None, None
        else:
            space = SpaceFilter(load_tensor(cfg["space_mask"])) if cfg.get("space_mask") else None
            if cfg.get("freq_params"):
                params = FreqFilterParams.from_json(Path(cfg["freq_params"]).read_text())
                freq = build_freq_mask(params, shape)
            elif cfg.get("freq_mask"):
                freq = load_tensor(cfg["freq_mask"])
            else:
                freq = None
        master_seed = int(cfg["seed"])
        n_samples = int(cfg.get("n_samples", 1))
        mw = ManifestWriter("sample", cfg, master_seed)
        x = sample_batch(model, sampler_cfg, master_seed, n_samples,
                         space=space, freq=freq, shape=shape)
        mw.phase("sample")
        out_dir = Path(cfg["out_dir"])
        save_dataset(ImageDataset(x), out_dir / "tensors")
        mw.output(out_dir / "tensors")
        if shape[0] in (1, 3):
            img_dir = out_dir / "images"
            img_dir.mkdir(parents=True, exist_ok=True)
            lo, hi = float(x.min()), float(x.max())
            for i in range(min(n_samples, 16)):
                ext = "pgm" if shape[0] == 1 else "ppm"
                path = img_dir / f"sample_{i:03d}.{ext}"
                export_image(x[i], path, clamp=(lo, hi if hi > lo else lo + 1.0))
                mw.output(path)
        mw.phase("export")
        mw.write(out_dir)
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


@main.command("calibrate")
@click.argument("reference_dir", type=click.Path(exists=True))
@click.argument("generated_dir", type=click.Path(exists=True))
@click.option("--direction", type=click.Choice(["sgm", "ddpm"]), default="sgm", show_default=True)
@click.option("--transform", type=click.Choice(["dct", "dft"]), default="dct", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="freq_params.json", show_default=True)
@click.option("--curve", "curve_path", type=click.Path(), default=None,
              help="Optional CSV of (r, kappa) pairs.")
def cmd_calibrate(reference_dir, generated_dir, direction, transform, out_path, curve_path):
    """Estimate frequency-filter parameters from generated vs reference samples."""
    try:
        mw = ManifestWriter("calibrate", {"reference": reference_dir, "generated": generated_dir,
                                          "direction": direction, "transform": transform}, None)
        ref = load_dataset(reference_dir)
        gen = load_dataset(generated_dir)
        g = ratio_grid(freq_power_stats(gen, transform), freq_power_stats(ref, transform))
        mw.phase("stats")
        if curve_path:
            write_kappa_csv(kappa_curve(g, transform), curve_path)
            mw.output(curve_path)
        params = calc_freq_params(g, direction, transform)
        Path(out_path).write_text(params.to_json() + "\n")
        mw.output(out_path)
        mw.write(Path(out_path).parent or ".")
        click.echo(params.to_json())
    except CalibrationError as e:
        click.echo(f"error: calibration failed: {e}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


@main.command("stats")
@click.argument("samples_dir", type=click.Path(exists=True))
@click.option("--transform", type=click.Choice(["dct", "dft"]), default="dct", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="freq_stats.tdt", show_default=True)
@click.option("--profile", "profile_path", type=click.Path(), default=None,
              help="Optional CSV radial power profile.")
def cmd_stats(samples_dir, transform, out_path, profile_path):
    """Emit the average spectral power grid of a sample directory."""
    try:
        mw = ManifestWriter("stats", {"samples": samples_dir, "transform": transform}, None)
        stats = freq_power_stats(load_dataset(samples_dir), transform)
        save_tensor(stats.power[None], out_path)
        mw.output(out_path)
        if profile_path:
            radii, power = radial_power_profile(stats.power)
            lines = ["radius,power"] + [f"{r:.10g},{p:.10g}" for r, p in zip(radii, power)]
            Path(profile_path).write_text("\n".join(lines) + "\n")
            mw.output(profile_path)
        mw.phase("stats")
        mw.write(Path(out_path).parent or ".")
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


@main.command("validate")
@click.option("--theorem1", "mode", flag_value="theorem1")
@click.option("--theorem2", "mode", flag_value="theorem2")
@click.option("--metrics", "mode", flag_value="metrics")
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--shape", nargs=3, type=int, default=(1, 16, 16), show_default=True)
@click.option("--map", "map_kind", type=click.Choice(["dct", "permutation"]), default="dct",
              show_default=True, help="Orthogonal map for the trajectory-equivalence check.")
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.option("--n-mc", type=int, default=100000, show_default=True)
@click.option("--regime", type=click.Choice(["independent", "aligned", "anti"]),
              default="independent", show_default=True)
@click.option("--samples", "samples_dir", type=click.Path(), default=None)
@click.option("--reference", "reference_dir", type=click.Path(), default=None)
@click.option("--transform", type=click.Choice(["dct", "dft"]), default="dct", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_validate(mode, steps, shape, map_kind, eps, n_mc, regime, samples_dir,
                 reference_dir, transform, seed, report_path):
    """Run a numerical harness and emit a JSON report; exit 2 on failure."""
    if mode is None:
        _fail("choose one of --theorem1, --theorem2, --metrics")
    try:
        shape = tuple(shape)
        if mode == "theorem1":
            model = GaussianScore(np.zeros(shape), 1.0)
            cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, max(1, steps // 5)), eps0=0.01)
            fmap = None if map_kind == "dct" else PermutationMap(shape, _derive_seed(seed, "perm"))
            deviation = check_theorem1(model, cfg, seed, steps, shape, fmap=fmap)
            report = {"harness": "trajectory-equivalence", "max_deviation": deviation,
                      "tolerance": 1e-6, "passed": deviation <= 1e-6}
        elif mode == "theorem2":
            model = GaussianScore(np.zeros(shape), 1.0)
            gen = {
                "independent": lambda xs, src: src.normal(shape),
                "aligned": lambda xs, src: xs,
                "anti": lambda xs, src: -xs,
            }[regime]
            rep = check_theorem2(model, np.zeros(shape), gen, eps, n_mc, seed)
            report = json.loads(rep.to_json())
            report.update(harness="deviation-decomposition", regime=regime, passed=rep.consistent())
        else:
            if not samples_dir or not reference_dir:
                _fail("--metrics needs --samples and --reference")
            a = load_dataset(samples_dir)
            b = load_dataset(reference_dir)
            report = {
                "harness": "sample-quality-metrics",
                "spectral_deviation": spectral_deviation(a, b, transform),
                "sliced_wasserstein": sliced_wasserstein(a, b, 64, seed),
                "passed": True,
            }
        text = json.dumps(report, indent=2)
        if report_path:
            Path(report_path).write_text(text + "\n")
        click.echo(text)
        if not report["passed"]:
            sys.exit(EXIT_VALIDATION_FAILURE)
    except SystemExit:
        raise
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


@main.command("bench")
@click.option("--filter-overhead", "sizes", type=int, multiple=True, required=True,
              help="Grid sizes to time, e.g. --filter-overhead 256 --filter-overhead 1024.")
@click.option("--repeats", type=int, default=10, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="filter_overhead.csv", show_default=True)
def cmd_bench(sizes, repeats, out_path):
    """Time the filtered-noise application across grid sizes; emit CSV."""
    try:
        rows = filter_overhead_bench(sizes, repeats)
        lines = ["size,median_seconds"] + [f"{r['size']},{r['median_seconds']:.10g}" for r in rows]
        Path(out_path).write_text("\n".join(lines) + "\n")
        click.echo("\n".join(lines))
    except Exception as e:  # noqa: BLE001
        _fail(str(e))


if __name__ == "__main__":
    main()

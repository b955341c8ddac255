"""Command-line frontend: dataset generation, sampling, calibration, stats,
validation harnesses, and benchmarks. make-data, sample, calibrate and stats
write a reproducibility manifest, run_manifest.json. `tdas validate HARNESS`
runs one harness: theorem1, theorem2 or metrics.

Exit codes, the same for every command: 0 success (--help and --version
included), 1 usage or runtime error, 2 a failed validation or calibration.
An error is one `error:` line on stderr.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .calib import (
    CalibrationError,
    calc_freq_params,
    freq_power_stats,
    kappa_curve,
    ratio_grid,
)
from .core import (
    ImageDataset,
    _is_count,
    export_image,
    load_dataset,
    load_tensor,
    save_dataset,
    save_tensor,
)
from .filters import DCT, FreqFilterParams, SpaceFilter, build_freq_mask
from .sampler import SamplerConfig, sample_batch
from .scores import EmpiricalScore, GaussianScore, geometric_levels
from .synthdata import UNSTRUCTURED, SynthSpec, generate, radial_power_profile, KINDS
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
        (directory / "run_manifest.json").write_text(json.dumps(self.manifest, indent=2) + "\n")


def _fail(message: str, code: int = 1):
    # One line, even where click lists a choice's values a line each.
    click.echo("error: " + " ".join(message.split()), err=True)
    sys.exit(code)


class _Tdas(click.Group):
    """Every command's error boundary: with click's own handling off, a usage
    error exits 1 like any other error and a CalibrationError exits 2, each with
    one `error:` line. A harness's sys.exit(2) is no Exception and passes through."""

    def main(self, *args, **kwargs):
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except CalibrationError as e:
            _fail(f"calibration failed: {e}", EXIT_VALIDATION_FAILURE)
        except click.ClickException as e:
            _fail(e.format_message())
        except click.Abort:  # Ctrl-C, or end of input at a prompt
            _fail("aborted")
        except Exception as e:  # noqa: BLE001
            _fail(str(e))
        sys.exit(code)


def _refuse_given(names, context: str):
    """Raise naming the first of names given on the command line; a default passes."""
    ctx = click.get_current_context()
    for p in ctx.command.params:
        if p.name in names and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE:
            raise ValueError(f"{p.opts[0]} does not apply to {context}")


def _write_csv(path, header: str, rows) -> str:
    """Write rows of numbers under header, each value formatted .10g; return the text."""
    text = "\n".join([header] + [",".join(f"{v:.10g}" for v in row) for row in rows]) + "\n"
    Path(path).write_text(text)
    return text


def _derive_seed(master: int, label: str) -> int:
    # Stable per-purpose child seeds from one master seed.
    return int(np.random.SeedSequence([master, zlib.crc32(label.encode())]).generate_state(1)[0])


@click.group(cls=_Tdas, no_args_is_help=False)
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
    if kind == UNSTRUCTURED:
        _refuse_given({"decay"}, f"--kind {UNSTRUCTURED}")
    spec = SynthSpec(kind, count, tuple(shape), decay, seed)
    mw = ManifestWriter("make-data", {"kind": kind, "count": count, "shape": list(shape),
                                      "decay": decay}, seed)
    ds = generate(spec)
    mw.phase("generate")
    save_dataset(ds, out_dir, extra_manifest={"kind": kind, "decay": decay, "seed": seed})
    mw.output(out_dir)
    mw.write(out_dir)


def _build_model(cfg: dict):
    model_cfg = cfg["model"]
    kind = model_cfg["kind"]
    shape = tuple(cfg["shape"])
    if kind == "gaussian":
        mu = np.full(shape, float(model_cfg.get("mu", 0.0)))
        return GaussianScore(mu, float(model_cfg.get("s0", 1.0)))
    return EmpiricalScore(load_dataset(model_cfg["dataset"]))


# The keys cmd_sample reads, (required, optional): at top level, in levels,
# and in model by its kind.
_RUN_KEYS = ({"shape", "levels", "model", "eps0", "seed", "out_dir"},
             {"vanilla", "space_mask", "freq_params", "freq_mask", "accel_factor", "n_samples"})
_LEVEL_KEYS = ({"levels", "steps_per_level", "sigma_max", "sigma_min"}, set())
_MODEL_KEYS = {"gaussian": ({"kind"}, {"mu", "s0"}), "empirical": ({"kind", "dataset"}, set())}


def _check_keys(section, keys, name: str, path):
    """Refuse a section of the run config at path that is not a JSON object,
    lacks a required key or holds a key that is never read."""
    if not isinstance(section, dict):
        raise ValueError(f"run config {path}: {name or 'the config'} is not a JSON object")
    required, optional = keys
    prefix = name + "." if name else ""
    for key in sorted(required - section.keys()):
        raise ValueError(f"run config {path} lacks the key {prefix + key!r}")
    for key in sorted(section.keys() - required - optional):
        raise ValueError(f"run config {path} has the key {prefix + key!r}, which is never read")


def _load_run_config(path, overrides: dict) -> dict:
    """The run config at path with each override that is not None set, once
    its keys are checked against the ones cmd_sample reads."""
    cfg = json.loads(Path(path).read_text())
    if isinstance(cfg, dict):
        cfg.update((key, value) for key, value in overrides.items() if value is not None)
    _check_keys(cfg, _RUN_KEYS, "", path)
    _check_keys(cfg["levels"], _LEVEL_KEYS, "levels", path)
    kind = cfg["model"].get("kind") if isinstance(cfg["model"], dict) else None
    if kind is not None and kind not in tuple(_MODEL_KEYS):  # == only: kind may be a list
        raise ValueError(f"run config {path}: unknown model kind {kind!r}")
    _check_keys(cfg["model"], _MODEL_KEYS.get(kind, ({"kind"}, set())), "model", path)
    if cfg.get("freq_params") and cfg.get("freq_mask"):
        raise ValueError(f"run config {path} has the key 'freq_mask', which is never read "
                         "beside 'freq_params'")
    return cfg


def _config_int(value, name: str) -> int:
    """A run-config count, which must be a JSON integer: int() would truncate
    2.7 to 2 and take true for 1."""
    if not _is_count(value):
        raise ValueError(f"run config {name!r} must be an integer, got {value!r}")
    return value


@main.command("sample")
@click.argument("run_config", type=click.Path(exists=True))
@click.option("--vanilla/--tdas", "use_vanilla", default=None,
              help="Override the run-config filtering mode.")
@click.option("--iterations", type=int, default=None, help="Override total iterations.")
@click.option("--accel", type=float, default=None, help="Override the step-size multiplier.")
@click.option("--seed", type=int, default=None)
def cmd_sample(run_config, use_vanilla, iterations, accel, seed):
    """Run a batch of sampling chains described by RUN_CONFIG (JSON; flags win)."""
    cfg = _load_run_config(run_config, {"accel_factor": accel, "seed": seed})
    if use_vanilla is not None:
        cfg["vanilla"] = use_vanilla
    shape = tuple(cfg["shape"])
    lv = cfg["levels"]
    n_levels = _config_int(lv["levels"], "levels.levels")
    steps_per_level = _config_int(lv["steps_per_level"], "levels.steps_per_level")
    if iterations is not None:
        if iterations % n_levels != 0:
            raise ValueError("--iterations must be a multiple of the level count")
        steps_per_level = iterations // n_levels
    levels = geometric_levels(float(lv["sigma_max"]), float(lv["sigma_min"]), n_levels,
                              steps_per_level)
    model = _build_model(cfg)
    space, freq, transform = None, None, DCT
    if not cfg.get("vanilla", False):
        space = SpaceFilter(load_tensor(cfg["space_mask"])) if cfg.get("space_mask") else None
        if cfg.get("freq_params"):
            params = FreqFilterParams.from_json(Path(cfg["freq_params"]).read_text())
            freq, transform = build_freq_mask(params, shape), params.transform
        elif cfg.get("freq_mask"):
            freq = load_tensor(cfg["freq_mask"])
    sampler_cfg = SamplerConfig(levels=levels, eps0=float(cfg["eps0"]),
                                accel_factor=float(cfg.get("accel_factor", 1.0)),
                                transform=transform)
    master_seed = _config_int(cfg["seed"], "seed")
    n_samples = _config_int(cfg.get("n_samples", 1), "n_samples")
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
    mw = ManifestWriter("calibrate", {"reference": reference_dir, "generated": generated_dir,
                                      "direction": direction, "transform": transform}, None)
    ref = load_dataset(reference_dir)
    gen = load_dataset(generated_dir)
    g = ratio_grid(freq_power_stats(gen, transform), freq_power_stats(ref, transform))
    mw.phase("stats")
    if curve_path:
        _write_csv(curve_path, "r,kappa", kappa_curve(g))
        mw.output(curve_path)
    params = calc_freq_params(g, direction)
    Path(out_path).write_text(params.to_json() + "\n")
    mw.output(out_path)
    mw.write(Path(out_path).parent or ".")
    click.echo(params.to_json())


@main.command("stats")
@click.argument("samples_dir", type=click.Path(exists=True))
@click.option("--transform", type=click.Choice(["dct", "dft"]), default="dct", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="freq_stats.tdt", show_default=True)
@click.option("--profile", "profile_path", type=click.Path(), default=None,
              help="Optional CSV radial power profile.")
def cmd_stats(samples_dir, transform, out_path, profile_path):
    """Emit the average spectral power grid of a sample directory."""
    mw = ManifestWriter("stats", {"samples": samples_dir, "transform": transform}, None)
    stats = freq_power_stats(load_dataset(samples_dir), transform)
    save_tensor(stats.power[None], out_path)
    mw.output(out_path)
    if profile_path:
        _write_csv(profile_path, "radius,power", zip(*radial_power_profile(stats.power)))
        mw.output(profile_path)
    mw.phase("stats")
    mw.write(Path(out_path).parent or ".")


@main.command("validate")
@click.argument("harness", type=click.Choice(["theorem1", "theorem2", "metrics"]))
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
def cmd_validate(harness, steps, shape, map_kind, eps, n_mc, regime, samples_dir,
                 reference_dir, transform, seed, report_path):
    """Run HARNESS and emit its JSON report; exit 2 on failure."""
    _refuse_given({  # the options this harness ignores
        "theorem1": {"eps", "n_mc", "regime", "samples_dir", "reference_dir", "transform"},
        "theorem2": {"steps", "map_kind", "samples_dir", "reference_dir", "transform"},
        "metrics": {"steps", "shape", "map_kind", "eps", "n_mc", "regime"},
    }[harness], harness)
    shape = tuple(shape)
    if harness == "theorem1":
        if steps < 1 or steps % 5 != 0:
            raise ValueError("--steps must be a positive multiple of the ladder's 5 levels")
        model = GaussianScore(np.zeros(shape), 1.0)
        cfg = SamplerConfig(levels=geometric_levels(1.0, 0.1, 5, steps // 5), eps0=0.01)
        fmap = None if map_kind == "dct" else PermutationMap(shape, _derive_seed(seed, "perm"))
        deviation = check_theorem1(model, cfg, seed, steps, shape, fmap=fmap)
        report = {"harness": "trajectory-equivalence", "max_deviation": deviation,
                  "tolerance": 1e-6, "passed": deviation <= 1e-6}
    elif harness == "theorem2":
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
            raise ValueError("metrics needs --samples and --reference")
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


@main.command("bench")
@click.option("--filter-overhead", "sizes", type=int, multiple=True, required=True,
              help="Grid sizes to time, e.g. --filter-overhead 256 --filter-overhead 1024.")
@click.option("--repeats", type=int, default=10, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="filter_overhead.csv", show_default=True)
def cmd_bench(sizes, repeats, out_path):
    """Time the filtered-noise application across grid sizes; emit CSV."""
    rows = [(r["size"], r["median_seconds"]) for r in filter_overhead_bench(sizes, repeats)]
    click.echo(_write_csv(out_path, "size,median_seconds", rows), nl=False)


if __name__ == "__main__":
    main()

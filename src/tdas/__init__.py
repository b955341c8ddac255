"""Spectral diffusion-sampling toolkit: annealed Langevin sampling with exact
score models, space-frequency noise filtering, automated filter calibration,
and numerical validation harnesses."""

__version__ = "0.1.0"

from .core import (
    ImageDataset,
    NoiseSource,
    draw_normal,
    export_image,
    load_dataset,
    load_tensor,
    save_dataset,
    save_tensor,
)
from .filters import (
    DCT,
    DFT,
    FreqFilterParams,
    SpaceFilter,
    apply_tdas,
    build_freq_mask,
    build_space_mask,
    identity_space_mask,
)
from .scores import EmpiricalScore, GaussianScore, NoiseLevels, ScoreModel, geometric_levels
from .sampler import (
    DivergenceError,
    SamplerConfig,
    freq_domain_sample,
    langevin_sample,
    sample_batch,
    vanilla_sample,
)
from .calib import (
    CalibrationError,
    FreqStats,
    RatioGrid,
    calc_freq_params,
    freq_power_stats,
    kappa,
    kappa_curve,
    quantile,
    ratio_grid,
)
from .validate import (
    DeviationReport,
    check_theorem1,
    check_theorem2,
    sliced_wasserstein,
    spectral_deviation,
)
from .synthdata import SynthSpec, generate

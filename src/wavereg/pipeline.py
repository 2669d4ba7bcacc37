"""The three registration strategies and their shared evaluation.

``register_pyramid`` is the spatial-domain baseline: coarse-to-fine MI
maximization over a Gaussian pyramid. ``register_wavelet`` optimizes a
single shared transform in Haar sub-band coordinates at one resolution.
``register_dwt_pyramid`` combines both: Gaussian pyramids are built on
each of the four sub-bands and one shared transform is refined coarse to
fine, then the warped sub-bands are inverse transformed into the
registered image.

A single transform is shared across the four sub-bands (the sum of the
band-pair MI values is the objective by default) because four independent
band transforms could not be recombined into one coherent image by the
inverse DWT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metric import MetricConfig, correlation_coefficient, mi_between
from .optimizer import OptimizerConfig, OptimizerTrace, optimize
from .pyramid import build_pyramid
from .transform import (
    AffineParams,
    scale_params_between_levels,
    warp,
)
from .wavelet import SubBands, dwt2, idwt2

METHODS = ("pyramid", "wavelet", "dwt_pyramid")

MIN_IMAGE_SIZE = 32

class RegistrationError(Exception):
    """Raised when a registration run cannot proceed."""


@dataclass
class RegistrationConfig:
    method: str = "dwt_pyramid"
    pyramid_levels: int = 3
    metric: MetricConfig = field(default_factory=MetricConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    parameter_mask: tuple[bool, ...] = (True,) * 6
    subband_objective: str = "sum_all_bands"  # or "ll_only"
    initial_params: AffineParams = field(default_factory=AffineParams)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.subband_objective not in ("sum_all_bands", "ll_only"):
            raise ValueError(f"unknown subband objective {self.subband_objective!r}")
        if len(self.parameter_mask) != 6:
            raise ValueError("parameter_mask must have 6 flags")


@dataclass
class RegistrationResult:
    params: AffineParams  # full-resolution coordinates
    registered: np.ndarray
    mask: np.ndarray
    max_mi_bits: float  # best objective value attained, native objective space
    final_mi_bits: float  # spatial-domain MI between fixed and registered
    cc: float
    traces: list[OptimizerTrace]  # ordered coarsest to finest
    method: str


def _check_inputs(fixed: np.ndarray, moving: np.ndarray) -> None:
    if fixed.ndim != 2 or moving.ndim != 2:
        raise ValueError("images must be 2-D")
    if fixed.shape != moving.shape:
        raise ValueError(
            f"fixed and moving images differ in shape: {fixed.shape} vs {moving.shape}"
        )
    if min(fixed.shape) < MIN_IMAGE_SIZE:
        raise ValueError(f"images must be at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}")
    for name, image in (("fixed", fixed), ("moving", moving)):
        if not np.isfinite(image).all():
            raise ValueError(f"{name} image has non-finite pixels (NaN or Inf)")


# candidates keeping less than this fraction of a level in overlap are
# treated as having lost the registration
MIN_OVERLAP_FRACTION = 0.5


def _level_metric(metric_cfg: MetricConfig, image: np.ndarray) -> MetricConfig:
    """Clamp the bin count so small pyramid levels keep several samples per
    bin; with 50 bins on a 16x16 level the estimation bias of MI otherwise
    rewards shrinking the overlap instead of aligning."""
    bins = min(metric_cfg.histogram_bins, max(2, math.isqrt(image.size) // 2))
    if bins == metric_cfg.histogram_bins:
        return metric_cfg
    return replace(metric_cfg, histogram_bins=bins)


def _masked_optimizer(config: RegistrationConfig, level: int) -> OptimizerConfig:
    scales = tuple(
        s if free else 0.0
        for s, free in zip(config.optimizer.param_scales, config.parameter_mask)
    )
    return replace(config.optimizer, seed=config.optimizer.seed + level,
                   param_scales=scales)


def _coarse_to_fine(objectives, config: RegistrationConfig):
    """Run the optimizer per level, coarsest first, warm-starting finer levels.

    ``objectives[i]`` is the objective at pyramid level i (0 = finest).
    Returns the finest-level parameters and traces ordered coarsest first.
    """
    num_levels = len(objectives)
    params = scale_params_between_levels(
        config.initial_params, 0.5 ** (num_levels - 1)
    )
    traces: list[OptimizerTrace] = []
    for level in range(num_levels - 1, -1, -1):
        objective = objectives[level]
        if not math.isfinite(objective(params)):
            raise RegistrationError("registration lost overlap")
        params, trace = optimize(objective, params, _masked_optimizer(config, level))
        traces.append(trace)
        if level > 0:
            params = scale_params_between_levels(params, 2.0)
    return params, traces


def _expand_mask(mask: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor 2x upsampling of a sub-band mask, cropped to size."""
    big = np.kron(mask, np.ones((2, 2), dtype=bool))
    return big[:height, :width]


def _reconstruct_from_bands(
    moving_bands: SubBands, params: AffineParams
) -> tuple[np.ndarray, np.ndarray]:
    """Warp the four moving sub-bands with one sub-band-space transform and
    inverse transform into the registered full-resolution image."""
    warped, mask = warp(np.stack(moving_bands.planes), params)
    registered = idwt2(
        SubBands(
            *warped,
            original_width=moving_bands.original_width,
            original_height=moving_bands.original_height,
        )
    )
    full_mask = _expand_mask(
        mask, moving_bands.original_width, moving_bands.original_height
    )
    return registered, full_mask


def _finalize(
    fixed: np.ndarray,
    registered: np.ndarray,
    mask: np.ndarray,
    params: AffineParams,
    traces: list[OptimizerTrace],
    method: str,
    metric_cfg: MetricConfig,
) -> RegistrationResult:
    if not mask.any():
        raise RegistrationError("registration lost overlap")
    final_mi = mi_between(fixed, registered, mask, metric_cfg)
    cc = correlation_coefficient(registered, fixed, mask)
    max_mi = max(t.best_value for t in traces) if traces else final_mi
    return RegistrationResult(
        params=params, registered=registered, mask=mask,
        max_mi_bits=max_mi, final_mi_bits=final_mi, cc=cc,
        traces=traces, method=method,
    )


def register_pyramid(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Baseline: spatial-domain MI registration over a Gaussian pyramid."""
    config.validate()
    _check_inputs(fixed, moving)
    pyr_f = build_pyramid(fixed, config.pyramid_levels)
    pyr_m = build_pyramid(moving, config.pyramid_levels)
    num_levels = min(len(pyr_f), len(pyr_m))

    objectives = [
        _stack_objective([pyr_f.levels[i]], [pyr_m.levels[i]], config.metric)
        for i in range(num_levels)
    ]
    params, traces = _coarse_to_fine(objectives, config)
    registered, mask = warp(moving, params)
    return _finalize(fixed, registered, mask, params, traces, "pyramid", config.metric)


def _stack_objective(fixed_planes, moving_planes, metric_cfg: MetricConfig):
    """Objective summing the MI of each plane pair, in the given order, under
    one shared transform; -inf when the overlap is lost or any pair fails.
    The moving planes are stacked once so each evaluation is one warp."""
    moving = np.stack(moving_planes)
    cfgs = [_level_metric(metric_cfg, f_img) for f_img in fixed_planes]

    def objective(p: AffineParams) -> float:
        warped, mask = warp(moving, p)
        if np.count_nonzero(mask) < MIN_OVERLAP_FRACTION * mask.size:
            return -math.inf
        total = 0.0
        for f_img, m_img, cfg in zip(fixed_planes, warped, cfgs):
            try:
                total += mi_between(f_img, m_img, mask, cfg)
            except ValueError:
                return -math.inf
        return total

    return objective


def _objective_bands(config: RegistrationConfig) -> int:
    """How many sub-bands, in ``SubBands.planes`` order, the objective sums."""
    return 1 if config.subband_objective == "ll_only" else 4


def _subband_config(config: RegistrationConfig) -> RegistrationConfig:
    """Initial parameters are given in full-resolution coordinates; the
    sub-band optimizations run at half resolution."""
    return replace(
        config,
        initial_params=scale_params_between_levels(config.initial_params, 0.5),
    )


def register_wavelet(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Baseline: single-resolution registration in Haar sub-band coordinates."""
    config.validate()
    _check_inputs(fixed, moving)
    fixed_bands = dwt2(fixed)
    moving_bands = dwt2(moving)
    n = _objective_bands(config)
    objectives = [_stack_objective(fixed_bands.planes[:n], moving_bands.planes[:n],
                                   config.metric)]
    sub_params, traces = _coarse_to_fine(objectives, _subband_config(config))
    registered, mask = _reconstruct_from_bands(moving_bands, sub_params)
    full_params = scale_params_between_levels(sub_params, 2.0)
    return _finalize(
        fixed, registered, mask, full_params, traces, "wavelet", config.metric
    )


def register_dwt_pyramid(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Proposed method: Gaussian pyramids on the four Haar sub-bands, one
    shared transform refined coarse to fine, then inverse DWT."""
    config.validate()
    _check_inputs(fixed, moving)
    fixed_bands = dwt2(fixed)
    moving_bands = dwt2(moving)
    pyrs_f = [build_pyramid(p, config.pyramid_levels) for p in fixed_bands.planes]
    pyrs_m = [build_pyramid(p, config.pyramid_levels) for p in moving_bands.planes]
    num_levels = min(len(p) for p in pyrs_f + pyrs_m)
    n = _objective_bands(config)
    objectives = [
        _stack_objective([p.levels[i] for p in pyrs_f[:n]],
                         [p.levels[i] for p in pyrs_m[:n]], config.metric)
        for i in range(num_levels)
    ]
    sub_params, traces = _coarse_to_fine(objectives, _subband_config(config))
    registered, mask = _reconstruct_from_bands(moving_bands, sub_params)
    full_params = scale_params_between_levels(sub_params, 2.0)
    return _finalize(
        fixed, registered, mask, full_params, traces, "dwt_pyramid", config.metric
    )


_REGISTER_FNS = {
    "pyramid": register_pyramid,
    "wavelet": register_wavelet,
    "dwt_pyramid": register_dwt_pyramid,
}


def register(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Dispatch on ``config.method``."""
    config.validate()
    return _REGISTER_FNS[config.method](fixed, moving, config)


def evaluate(
    fixed: np.ndarray, result: RegistrationResult, metric_cfg: MetricConfig
) -> dict:
    """Recompute the spatial-domain metrics of a result; idempotent."""
    if fixed.shape != result.registered.shape:
        raise ValueError("dimension mismatch between fixed and registered image")
    mi = mi_between(fixed, result.registered, result.mask, metric_cfg)
    cc = correlation_coefficient(result.registered, fixed, result.mask)
    return {
        "mi_bits": mi,
        "cc": cc,
        "overlap_pixels": int(np.count_nonzero(result.mask)),
    }

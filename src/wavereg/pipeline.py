"""One coarse-to-fine registration loop for the three methods.

Every method is the same loop: split each image into planes, build a
Gaussian pyramid on each plane, maximize the summed plane-pair MI under
one shared transform from the coarsest level to the finest, then map the
result back to the full-resolution image. The methods differ only in the
planes and the number of levels:

- ``pyramid``: the image itself, ``pyramid_levels`` levels (the
  spatial-domain baseline);
- ``wavelet``: the Haar sub-bands, one level;
- ``dwt_pyramid``: the Haar sub-bands, ``pyramid_levels`` levels (the
  proposed method).

The sub-band methods optimize in half-resolution coordinates and inverse
transform the warped sub-bands into the registered image. One transform is
shared across the sub-bands because independent band transforms could not
be recombined into one coherent image by the inverse DWT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metric import correlation_coefficient, mi_between
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
    histogram_bins: int = 50
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    subband_objective: str = "sum_all_bands"  # or "ll_only"
    initial_params: AffineParams = field(default_factory=AffineParams)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.subband_objective not in ("sum_all_bands", "ll_only"):
            raise ValueError(f"unknown subband objective {self.subband_objective!r}")
        if self.histogram_bins < 2:
            raise ValueError(f"histogram_bins must be >= 2, got {self.histogram_bins}")
        self.optimizer.validate()


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
        if image.min() == image.max():
            raise ValueError(f"{name} image is constant; it has no structure to register")


# candidates keeping less than this fraction of a level in overlap are
# treated as having lost the registration
MIN_OVERLAP_FRACTION = 0.5


def _level_bins(bins: int, image: np.ndarray) -> int:
    """Clamp the bin count so small pyramid levels keep several samples per
    bin; with 50 bins on a 16x16 level the estimation bias of MI otherwise
    rewards shrinking the overlap instead of aligning."""
    return min(bins, max(2, math.isqrt(image.size) // 2))


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
        seeded = replace(config.optimizer, seed=config.optimizer.seed + level)
        params, trace = optimize(objective, params, seeded)
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


def _stack_objective(fixed_planes, moving_planes, bins: int):
    """Objective summing the MI of each plane pair, in the given order, under
    one shared transform; -inf when the overlap is lost or any pair fails.
    The moving planes are stacked once so each evaluation is one warp."""
    moving = np.stack(moving_planes)
    level_bins = _level_bins(bins, moving[0])

    def objective(p: AffineParams) -> float:
        warped, mask = warp(moving, p)
        if np.count_nonzero(mask) < MIN_OVERLAP_FRACTION * mask.size:
            return -math.inf
        total = 0.0
        for f_img, m_img in zip(fixed_planes, warped):
            try:
                total += mi_between(f_img, m_img, mask, level_bins)
            except ValueError:
                return -math.inf
        return total

    return objective


def register(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` with ``config.method``.

    ``initial_params`` and the returned params are in full-resolution
    coordinates; the sub-band methods halve them on the way in and double
    them on the way out. ``ll_only`` keeps only the LL band's MI.
    """
    config.validate()
    _check_inputs(fixed, moving)
    haar = config.method != "pyramid"
    levels = 1 if config.method == "wavelet" else config.pyramid_levels
    if haar:
        fixed_bands, moving_bands = dwt2(fixed), dwt2(moving)
        n = 1 if config.subband_objective == "ll_only" else 4
        fixed_planes, moving_planes = fixed_bands.planes[:n], moving_bands.planes[:n]
        run_config = replace(config, initial_params=scale_params_between_levels(
            config.initial_params, 0.5))
    else:
        fixed_planes, moving_planes, run_config = [fixed], [moving], config
    pyrs_f = [build_pyramid(p, levels) for p in fixed_planes]
    pyrs_m = [build_pyramid(p, levels) for p in moving_planes]
    num_levels = min(len(p) for p in pyrs_f + pyrs_m)
    objectives = [
        _stack_objective([p[i] for p in pyrs_f], [p[i] for p in pyrs_m],
                         config.histogram_bins)
        for i in range(num_levels)
    ]
    params, traces = _coarse_to_fine(objectives, run_config)
    if haar:
        registered, mask = _reconstruct_from_bands(moving_bands, params)
        params = scale_params_between_levels(params, 2.0)
    else:
        registered, mask = warp(moving, params)
    final_mi = mi_between(fixed, registered, mask, config.histogram_bins)
    cc = correlation_coefficient(registered, fixed, mask)
    return RegistrationResult(
        params=params, registered=registered, mask=mask,
        max_mi_bits=max(t.best_value for t in traces), final_mi_bits=final_mi,
        cc=cc, traces=traces, method=config.method,
    )

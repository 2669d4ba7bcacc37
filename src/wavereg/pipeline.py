"""One coarse-to-fine registration loop for the three methods.

Every method is the same loop: split each image into a (k, H, W) stack of
planes, build one Gaussian pyramid of each stack, maximize the summed
plane-pair MI under one shared transform from the coarsest level to the
finest, then map the result back to the full-resolution image. The methods
differ only in the planes and the number of levels:

- ``pyramid``: the image itself, ``pyramid_levels`` levels (the
  spatial-domain baseline);
- ``wavelet``: the Haar sub-bands, one level;
- ``dwt_pyramid``: the Haar sub-bands, ``pyramid_levels`` levels (the
  proposed method).

The sub-band methods optimize in half-resolution coordinates and inverse
transform the warped sub-bands into the registered image. One transform is
shared across the sub-bands because independent band transforms could not
be recombined into one coherent image by the inverse DWT. A level's
objective scores all its planes in one pass over the masked pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metric import _bin_index, _degenerate, _mi_bits, correlation_coefficient, mi_between
from .optimizer import OptimizerConfig, OptimizerTrace, optimize
from .pyramid import build_pyramid
from .transform import AffineParams, resample, scale_params_between_levels, warp
from .wavelet import dwt2, idwt2

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
        lo, hi = float(image.min()), float(image.max())
        if _degenerate(lo, hi, lo, hi):
            raise ValueError(f"{name} image is constant; it has no structure to register")


# candidates keeping less than this fraction of a level in overlap are
# treated as having lost the registration
MIN_OVERLAP_FRACTION = 0.5


def _coarse_to_fine(objectives, config: RegistrationConfig):
    """Run the optimizer per level, the coarsest from the identity, each finer
    level warm-started from the one above it.

    ``objectives[i]`` is the objective at pyramid level i (0 = finest).
    Returns the finest-level parameters and traces ordered coarsest first.
    """
    params = AffineParams()
    traces: list[OptimizerTrace] = []
    for level in range(len(objectives) - 1, -1, -1):
        objective = objectives[level]
        if not math.isfinite(objective(params)):
            raise RegistrationError("registration lost overlap")
        seeded = replace(config.optimizer, seed=config.optimizer.seed + level)
        params, trace = optimize(objective, params, seeded)
        traces.append(trace)
        if level > 0:
            params = scale_params_between_levels(params, 2.0)
    return params, traces


def _reconstruct_from_bands(
    moving_bands: np.ndarray, params: AffineParams, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Warp the (4, H', W') moving sub-band stack with one sub-band-space
    transform and inverse transform into the registered image of ``shape``;
    the mask is the sub-band mask upsampled 2x (nearest neighbor) and cropped."""
    warped, mask = warp(moving_bands, params)
    full_mask = np.kron(mask, np.ones((2, 2), dtype=bool))[:shape[0], :shape[1]]
    return idwt2(warped, shape), full_mask


# masked ranges of each fixed plane whose binned plane is kept
_MEMO_SIZE = 8


class _LevelObjective:
    """One level's objective, bit for bit the sum of ``mi_between`` over the
    plane pairs of ``fixed`` and ``warp(moving, p)`` in stack order, or -inf
    on a lost overlap. A bin depends only on the value and the range, so a
    fixed plane is binned whole (clipped into the range, which leaves the
    masked values as they are) once per masked range, for its last
    ``_MEMO_SIZE`` ranges, and kept as histogram cell offsets."""

    def __init__(self, fixed: np.ndarray, moving: np.ndarray, bins: int):
        self.fixed, self.moving = fixed.reshape(len(fixed), -1), moving
        # small levels keep several samples per bin: with 50 bins on a 16x16
        # level the estimation bias of MI rewards shrinking the overlap
        self.bins = min(bins, max(2, math.isqrt(moving[0].size) // 2))
        self.cells = len(fixed) * self.bins * self.bins
        self.memo = [{} for _ in fixed]  # (lo, hi) -> cell offsets, oldest first

    def __call__(self, p: AffineParams) -> float:
        samples, mask = resample(self.moving, p)
        n = samples.shape[1]
        if n < MIN_OVERLAP_FRACTION * mask.size:
            return -math.inf
        inside = mask.ravel()
        fixed = np.compress(inside, self.fixed, axis=1)
        flo, fhi = fixed.min(axis=1).tolist(), fixed.max(axis=1).tolist()
        mlo, mhi = samples.min(axis=1), samples.max(axis=1)
        try:
            live = [plane for plane, ranges in enumerate(zip(flo, fhi, mlo.tolist(), mhi.tolist()))
                    if not _degenerate(*ranges)]
        except ValueError:
            return -math.inf
        if not live:
            return 0.0
        if len(live) < len(samples):
            samples, mlo, mhi = samples[live], mlo[live], mhi[live]
        cell = _bin_index(samples, mlo, mhi, self.bins)
        for row, plane in zip(cell, live):
            memo, key = self.memo[plane], (flo[plane], fhi[plane])
            cells = memo.pop(key, None)  # re-inserted below as the newest
            if cells is None:
                if len(memo) == _MEMO_SIZE:
                    del memo[next(iter(memo))]
                index = _bin_index(np.clip(self.fixed[plane], *key), *key, self.bins)
                cells = ((index + plane * self.bins) * self.bins).astype(
                    np.min_scalar_type(self.cells - 1))
            row += np.compress(inside, memo.setdefault(key, cells))
        counts = np.bincount(cell.ravel(), minlength=self.cells)
        # a flat pair's 0 is left out: adding +0.0 never changes the sum
        total = 0.0
        for mi in _mi_bits(counts.reshape(-1, self.bins, self.bins)[live], n):
            total += mi
        return total


def register(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` with ``config.method``.

    Every method starts its coarsest level from the identity. The returned
    params are in full-resolution coordinates: the sub-band methods double
    their half-resolution result. ``ll_only`` keeps only the LL band's MI.
    """
    config.validate()
    _check_inputs(fixed, moving)
    haar = config.method != "pyramid"
    levels = 1 if config.method == "wavelet" else config.pyramid_levels
    if haar:
        moving_bands = dwt2(moving)
        n = 1 if config.subband_objective == "ll_only" else 4
        fixed_planes, moving_planes = dwt2(fixed)[:n], moving_bands[:n]
    else:
        fixed_planes, moving_planes = fixed[None], moving[None]
    objectives = [
        _LevelObjective(f, m, config.histogram_bins)
        for f, m in zip(build_pyramid(fixed_planes, levels),
                        build_pyramid(moving_planes, levels))
    ]
    params, traces = _coarse_to_fine(objectives, config)
    if haar:
        registered, mask = _reconstruct_from_bands(moving_bands, params, fixed.shape)
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

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
objective scores all its planes, and small levels several candidates, at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metric import _bin_index, _degenerate, _mi_bits, correlation_coefficient, mi_between
from .optimizer import OptimizerConfig, OptimizerTrace, optimize
from .pyramid import build_pyramid
from .transform import _PASS, AffineParams, resample, scale_params_between_levels, warp
from .wavelet import dwt2, idwt2

METHODS = ("pyramid", "wavelet", "dwt_pyramid")

MIN_IMAGE_SIZE = 32
MAX_HISTOGRAM_BINS = 1024  # a joint histogram holds bins * bins counts: 8 MiB here

class RegistrationError(Exception):
    """Raised when a registration run cannot proceed."""


@dataclass
class RegistrationConfig:
    method: str = "dwt_pyramid"
    pyramid_levels: int = 3
    histogram_bins: int = 50
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 2 <= self.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ValueError(f"histogram_bins must be >= 2 and <= {MAX_HISTOGRAM_BINS}, "
                             f"got {self.histogram_bins}")
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


# (plane, range) tables of binned fixed planes kept per plane of a level
_MEMO_SIZE = 8


class _LevelObjective:
    """One level's objective, bit for bit the sum of ``mi_between`` over the
    plane pairs of ``fixed`` and ``warp(moving, p)`` in stack order, or -inf
    on a lost overlap. A call also scores ``ahead`` rows in its ``resample``
    pass (7 up to 16x16, 3 at 32x32, none from 64x64 on) and answers a later
    call from them when its parameter vector matches one byte for byte. A bin
    depends only on the value and the range, so a fixed plane is binned whole
    (clipped into the range) once per masked range and kept as histogram cell
    offsets in one ``lru_cache`` of the level's last ``_MEMO_SIZE * k``
    (plane, range) pairs, k the level's planes."""

    def __init__(self, fixed: np.ndarray, moving: np.ndarray, bins: int):
        self.fixed, self.moving = fixed.reshape(len(fixed), -1), moving
        # small levels keep several samples per bin: with 50 bins on a 16x16
        # level the estimation bias of MI rewards shrinking the overlap
        self.bins = min(bins, max(2, math.isqrt(moving[0].size) // 2))
        self.cells = len(fixed) * self.bins * self.bins  # per candidate
        # fixed plane clipped into [lo, hi] -> its cell offsets; a closure over
        # the planes, as a bound method of self would make a reference cycle
        planes, bins, kind = self.fixed, self.bins, np.min_scalar_type(self.cells - 1)
        self.binned = functools.lru_cache(_MEMO_SIZE * len(fixed))(lambda p, lo, hi: (
            (_bin_index(np.clip(planes[p], lo, hi), lo, hi, bins) + p * bins) * bins).astype(kind))
        self.batch = max(1, _PASS // moving[0].size)
        self.kept = {}  # parameter vector bytes -> value, of the last pass

    def __call__(self, p: AffineParams, ahead=()) -> float:
        vector = p.as_vector()
        if vector.tobytes() not in self.kept:
            vectors = vector[None] if self.batch == 1 else np.concatenate(
                ([vector], np.reshape(ahead, (-1, 6))[:self.batch - 1]))
            self.kept = dict(zip(map(np.ndarray.tobytes, vectors), self._score(vectors)))
        return self.kept[vector.tobytes()]

    def _score(self, vectors: np.ndarray) -> list[float]:
        samples, masks = resample(self.moving, vectors)
        inside = masks.reshape(len(masks), -1)
        parts = [np.compress(mask, self.fixed, axis=1) for mask in inside]
        counts = [part.shape[1] for part in parts]
        starts = [0, *itertools.accumulate(counts[:-1])]
        try:
            if min(counts) < MIN_OVERLAP_FRACTION * inside.shape[1]:
                raise ValueError("lost overlap")
            fixed = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            bounds = [f.reduceat(x, starts, 1) for x in (fixed, samples)
                      for f in (np.minimum, np.maximum)]
            ranges = [b.tolist() for b in bounds]  # [plane][candidate]
            flat = [[_degenerate(*pair) for pair in zip(*plane)] for plane in zip(*ranges)]
        except ValueError:  # a lost overlap or a non-finite range: each alone
            return [-math.inf] if len(vectors) == 1 else [self._score(v[None])[0] for v in vectors]
        if any(map(any, flat)):  # a flat pair's cells are never read: any range holding its values
            bounds[1::2] = [np.where(flat, b + abs(b) + 1.0, b) for b in bounds[1::2]]
        cell = _bin_index(samples, *bounds[2:], self.bins, counts)
        keys = zip(ranges[0], bounds[1].tolist())  # [plane]: (lows, highs)
        cell += np.compress(inside.ravel(), np.array(
            [[self.binned(plane, *key) for key in zip(*row)] for plane, row in enumerate(keys)]
        ).reshape(len(cell), -1), axis=1)
        if len(counts) > 1:
            cell += np.repeat(np.arange(0, len(counts) * self.cells, self.cells), counts)
        hist = np.bincount(cell.ravel(), minlength=len(counts) * self.cells)
        mis = iter(_mi_bits(hist.reshape(-1, self.bins, self.bins),
                            np.repeat(counts, len(cell))[:, None, None]))
        # a flat pair's 0 is left out: adding +0.0 never changes the sum
        return [functools.reduce(float.__add__, (mi for f, mi in zip(row, mis) if not f), 0.0)
                for row in zip(*flat)]


def register(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` with ``config.method``.

    Every method starts its coarsest level from the identity. The returned
    params are in full-resolution coordinates: the sub-band methods double
    their half-resolution result.
    """
    config.validate()
    _check_inputs(fixed, moving)
    haar = config.method != "pyramid"
    levels = 1 if config.method == "wavelet" else config.pyramid_levels
    if haar:
        fixed_planes, moving_planes = dwt2(fixed), dwt2(moving)
    else:
        fixed_planes, moving_planes = fixed[None], moving[None]
    objectives = [
        _LevelObjective(f, m, config.histogram_bins)
        for f, m in zip(build_pyramid(fixed_planes, levels),
                        build_pyramid(moving_planes, levels))
    ]
    params, traces = _coarse_to_fine(objectives, config)
    if haar:
        registered, mask = _reconstruct_from_bands(moving_planes, params, fixed.shape)
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

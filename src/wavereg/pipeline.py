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

from .metric import (_bin_index, _check_bins, _degenerate, _mi_bits, correlation_coefficient,
                     mi_between)
from .optimizer import WINDOW, OptimizerConfig, OptimizerTrace, _check_integers, optimize
from .pyramid import build_pyramid
from .transform import _PASS, AffineParams, _buffer, resample, scale_params_between_levels, warp
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

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        _check_integers(1, pyramid_levels=self.pyramid_levels)
        _check_bins(self.histogram_bins)
        self.optimizer.validate()


@dataclass
class RegistrationResult:
    params: AffineParams  # full-resolution coordinates
    registered: np.ndarray
    mask: np.ndarray
    max_mi_bits: float  # best objective value attained, native objective space
    final_mi_bits: float  # spatial-domain MI between fixed and registered
    cc: float
    traces: list[OptimizerTrace]  # coarsest to finest; 36 KiB of table a 500-iteration level
    method: str


def _check_inputs(fixed, moving) -> tuple[np.ndarray, np.ndarray]:
    fixed, moving = np.asarray(fixed), np.asarray(moving)
    if fixed.ndim != 2 or moving.ndim != 2:
        raise ValueError("images must be 2-D")
    if fixed.shape != moving.shape:
        raise ValueError(
            f"fixed and moving images differ in shape: {fixed.shape} vs {moving.shape}")
    if min(fixed.shape) < MIN_IMAGE_SIZE:
        raise ValueError(f"images must be at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}")
    for name, image in (("fixed", fixed), ("moving", moving)):
        if image.dtype.kind not in "biuf":
            raise ValueError(
                f"{name} image must be real-valued (bool, integer or float), got {image.dtype}")
        if not np.isfinite(image).all():
            raise ValueError(f"{name} image has non-finite pixels (NaN or Inf)")
        lo, hi = float(image.min()), float(image.max())
        if max(-lo, hi) > 2.0 ** 1020:  # 16x below float64's largest: no later sum overflows
            raise ValueError(f"{name} image range [{lo:.6g}, {hi:.6g}] overflows float64 sums")
        if _degenerate(lo, hi, lo, hi):
            raise ValueError(f"{name} image is constant; it has no structure to register")
    return fixed, moving


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
        if not math.isfinite(objective(params.as_vector())):
            raise RegistrationError("registration lost overlap")
        seeded = replace(config.optimizer, seed=config.optimizer.seed + level)
        params, trace = optimize(objective, params, seeded)
        traces.append(trace)
        if level > 0:
            params = scale_params_between_levels(params)
    return params, traces


# (plane, range) tables of binned fixed planes kept per plane of a level
_MEMO_SIZE = 8
_ENDS = 32  # lowest and highest pixels kept per fixed plane


class _LevelObjective:
    """One level's objective of a (6,) ``AffineParams.as_vector`` row, bit for bit
    the sum of ``mi_between`` over the plane pairs of ``fixed`` and
    ``warp(moving, AffineParams(*row))`` in stack order, or -inf on a lost
    overlap. A call also scores ``ahead`` rows, as many candidates as hold 4 *
    ``_PASS`` (65,536) values (k * H * W each) up to ``WINDOW``, and answers a
    later call from them when its row matches one byte for byte: 16 up to 64x64
    or 4x32x32, 4 at 128x128 or 4x64x64, 1 from 256x256 or 4x128x128 on. A fixed
    plane's masked range is that of its masked ``_ENDS`` lowest and highest
    pixels, the ends of one stable argsort (ties in raster order; no other pixel
    is lower or higher), or of all its masked pixels where none of those is
    masked. A bin depends only on the value and the range, so a fixed plane is
    binned whole (clipped into the range) once per masked range and kept as cell
    offsets in one ``lru_cache`` of the level's last ``_MEMO_SIZE * k`` (plane,
    range) pairs, k the level's planes, looked up once per run of consecutive
    candidates that share a plane's range."""

    def __init__(self, fixed: np.ndarray, moving: np.ndarray, bins: int):
        self.fixed, self.moving = fixed.reshape(len(fixed), -1), moving
        # small levels keep several samples per bin: with 50 bins on a 16x16
        # level the estimation bias of MI rewards shrinking the overlap
        self.bins = min(bins, max(2, math.isqrt(moving[0].size) // 2))
        self.cells = len(fixed) * self.bins * self.bins  # per candidate
        self.batch = min(WINDOW, max(1, 4 * _PASS // moving.size))
        # fixed plane clipped into [lo, hi] -> its cell offsets; a closure over
        # the planes, as a bound method of self would make a reference cycle
        planes, bins, kind = self.fixed, self.bins, np.min_scalar_type(self.cells - 1)
        start = 16 * self.batch * moving.size  # arena bytes past any call's cells (see _score)
        self.binned = functools.lru_cache(_MEMO_SIZE * len(fixed))(lambda p, lo, hi: ((_bin_index(
            np.clip(planes[p], lo, hi), lo, hi, bins, start=start) + p * bins) * bins).astype(kind))
        order = np.argsort(self.fixed, 1, kind="stable")  # ties in raster order
        self.ends = np.stack((order[:, :_ENDS], order[:, :-_ENDS - 1:-1]), 1)  # (k, 2, _ENDS)
        self.end_values = self.fixed[np.arange(len(fixed))[:, None, None], self.ends] * [[1], [-1]]
        self.kept = {}  # row bytes -> value, of the last pass

    def __call__(self, row: np.ndarray, ahead=()) -> float:
        if row.tobytes() not in self.kept:
            vectors = np.concatenate(([row], np.reshape(ahead, (-1, 6))[:self.batch - 1]))
            self.kept = dict(zip(map(np.ndarray.tobytes, vectors), self._score(vectors)))
        return self.kept[row.tobytes()]

    def _score(self, vectors: np.ndarray) -> list[float]:
        # arena phases (S = 8 * B * k * H * W bytes): samples in [0, S), resample's pass
        # temporaries behind; cells in [S, 2S), then _bin_index's; cell tables over the dead
        # samples (binned misses past 2S of a full batch); _mi_bits from 0
        front = 8 * len(vectors) * self.moving.size
        samples, masks = resample(self.moving, vectors)
        inside = masks.reshape(len(masks), -1)
        counts = list(map(np.count_nonzero, inside))
        starts = [0, *itertools.accumulate(counts[:-1])]
        if min(counts) < MIN_OVERLAP_FRACTION * inside.shape[1]:  # a lost overlap: each alone
            return [-math.inf] if len(vectors) == 1 else [self._score(v[None])[0] for v in vectors]
        # the range of the masked end pixels; of all masked ones where none is (inf)
        ends = (np.where(inside[:, self.ends], self.end_values, np.inf).min(3) * [1, -1]).T
        for b in np.flatnonzero(np.isinf(ends).any((0, 1))) if np.isinf(ends).any() else ():
            ends[:, :, b] = [f(self.fixed[:, inside[b]], 1) for f in (np.min, np.max)]
        bounds = [*ends, *(f.reduceat(samples, starts, 1) for f in (np.minimum, np.maximum))]
        flat = _degenerate(*bounds)  # [plane, candidate]
        if flat.any():  # a flat pair's cells are never read: any range holding its values
            bounds[1::2] = [np.where(flat, b + abs(b) + 1.0, b) for b in bounds[1::2]]
        cell = _bin_index(samples, *bounds[2:], self.bins, counts,
                          out=_buffer(samples.shape, np.intp, front), start=2 * front)
        tables = _buffer((len(cell), *inside.shape), np.uint32)
        for plane, ranges in enumerate(zip(bounds[0].tolist(), bounds[1].tolist())):
            done = 0
            for key, run in itertools.groupby(zip(*ranges)):  # consecutive candidates, one range
                n = len(list(run))
                tables[plane, done:done + n] = self.binned(plane, *key)
                done += n
        if len(counts) > 1:  # candidate j's cells from j * cells
            tables += np.arange(0, len(counts) * self.cells, self.cells, dtype=np.uint32)[:, None]
        cell += tables[np.broadcast_to(inside, tables.shape).copy()].reshape(cell.shape)
        hist = np.bincount(cell.ravel(), minlength=len(counts) * self.cells)
        mis = _mi_bits(hist.reshape(-1, self.bins, self.bins),
                       np.repeat(counts, len(cell))).reshape(len(counts), -1)
        # a flat pair adds +0.0, which never changes a sum from +0.0 of MIs
        return np.add.reduce(np.where(flat, 0.0, mis.T), 0, initial=0.0).tolist()


def register(
    fixed: np.ndarray, moving: np.ndarray, config: RegistrationConfig
) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` with ``config.method``.

    Every method starts its coarsest level from the identity and warps the finest
    moving level once: the image, or the sub-bands that the sub-band methods inverse
    transform. Only that level outlives the search, which frees the objectives, their
    cached tables and the other levels. The returned params are in full-resolution
    coordinates: the sub-band methods double their half-resolution result.
    """
    config.validate()
    fixed, moving = _check_inputs(fixed, moving)
    haar = config.method != "pyramid"
    levels = 1 if config.method == "wavelet" else config.pyramid_levels
    objectives = [_LevelObjective(f, m, config.histogram_bins) for f, m in zip(*(
        build_pyramid(dwt2(x) if haar else x[None], levels) for x in (fixed, moving)))]
    finest = objectives[0].moving
    params, traces = _coarse_to_fine(objectives, config)
    del objectives  # and with them every level but the finest moving one
    warped, mask = warp(finest, params)  # the finest moving level, for every method
    registered = idwt2(warped, fixed.shape) if haar else warped[0]
    if haar:  # the sub-band mask upsampled 2x (nearest neighbor) and cropped
        mask = np.kron(mask, np.ones((2, 2), dtype=bool))[:fixed.shape[0], :fixed.shape[1]]
        params = scale_params_between_levels(params)
    final_mi = mi_between(fixed, registered, mask, config.histogram_bins)
    cc = correlation_coefficient(registered, fixed, mask)
    return RegistrationResult(
        params=params, registered=registered, mask=mask,
        max_mi_bits=max(t.best_value for t in traces), final_mi_bits=final_mi,
        cc=cc, traces=traces, method=config.method,
    )

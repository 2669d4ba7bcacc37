"""Gaussian pyramid construction with a separable 5-tap generating kernel.

Each level is produced by correlating the previous one with the outer
product of the 1-D kernel and keeping every second row and column:

    G_l(x, y) = sum_{m,n = -2..2} w(m) w(n) G_{l-1}(2x + m, 2y + n)

Borders are handled by symmetric reflection. The default kernel is the
classical binomial [1, 4, 6, 4, 1] / 16, which is normalized, symmetric
and separable, and gives every parent node equal total weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

GENERATING_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

MIN_LEVEL_SIZE = 8


@dataclass(frozen=True)
class GaussianPyramid:
    levels: list[np.ndarray]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.levels)


def reduce_image(image: np.ndarray, kernel: np.ndarray = GENERATING_KERNEL) -> np.ndarray:
    """Low-pass filter and subsample by two; output is ceil(W/2) x ceil(H/2)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or min(image.shape) < 2:
        raise ValueError("image too small to reduce (needs at least 2x2)")
    kernel = np.asarray(kernel, dtype=np.float64)
    smoothed = correlate1d(image, kernel, axis=0, mode="reflect")
    smoothed = correlate1d(smoothed, kernel, axis=1, mode="reflect")
    return smoothed[::2, ::2]


def build_pyramid(
    image: np.ndarray,
    num_levels: int,
    kernel: np.ndarray = GENERATING_KERNEL,
    min_size: int = MIN_LEVEL_SIZE,
) -> GaussianPyramid:
    """Build a pyramid with level 0 the original image.

    Levels whose smaller dimension would drop below ``min_size`` are not
    built; the result is flagged as truncated instead.
    """
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    image = np.asarray(image, dtype=np.float64)
    levels = [image]
    truncated = False
    for _ in range(num_levels - 1):
        h, w = levels[-1].shape
        if min(-(-h // 2), -(-w // 2)) < min_size:
            truncated = True
            break
        levels.append(reduce_image(levels[-1], kernel))
    return GaussianPyramid(levels=levels, truncated=truncated)

"""Gaussian pyramid construction with a separable 5-tap generating kernel.

Each level is produced by correlating the previous one with the outer
product of the 1-D kernel and keeping every second row and column:

    G_l(x, y) = sum_{m,n = -2..2} w(m) w(n) G_{l-1}(2x + m, 2y + n)

Borders are handled by symmetric reflection. The kernel is the classical
binomial [1, 4, 6, 4, 1] / 16, which is normalized, symmetric and
separable, and gives every parent node equal total weight.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d

GENERATING_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

MIN_LEVEL_SIZE = 8


def reduce_image(image: np.ndarray) -> np.ndarray:
    """Low-pass filter and subsample by two; output is ceil(W/2) x ceil(H/2)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or min(image.shape) < 2:
        raise ValueError("image too small to reduce (needs at least 2x2)")
    smoothed = correlate1d(image, GENERATING_KERNEL, axis=0, mode="reflect")
    smoothed = correlate1d(smoothed, GENERATING_KERNEL, axis=1, mode="reflect")
    return smoothed[::2, ::2]


def build_pyramid(image: np.ndarray, num_levels: int) -> list[np.ndarray]:
    """Build a pyramid as a list of levels, level 0 the original image.

    Levels whose smaller dimension would drop below ``MIN_LEVEL_SIZE`` are
    not built, so the list can be shorter than ``num_levels``.
    """
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    levels = [np.asarray(image, dtype=np.float64)]
    for _ in range(num_levels - 1):
        h, w = levels[-1].shape
        if min(-(-h // 2), -(-w // 2)) < MIN_LEVEL_SIZE:
            break
        levels.append(reduce_image(levels[-1]))
    return levels

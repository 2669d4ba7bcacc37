"""Gaussian pyramid construction with a separable 5-tap generating kernel.

Each level is produced by correlating the previous one with the outer
product of the 1-D kernel and keeping every second row and column:

    G_l(x, y) = sum_{m,n = -2..2} w(m) w(n) G_{l-1}(2x + m, 2y + n)

Borders are handled by symmetric reflection. The kernel is the classical
binomial [1, 4, 6, 4, 1] / 16, which is normalized, symmetric and
separable, and gives every parent node equal total weight.

The filter is plain NumPy (``_correlate_reflect``) and only computes the
rows, then the columns, that a level keeps. Every plane, alone or in a
(k, H, W) stack, gets the bytes of ``scipy.ndimage.correlate1d(mode=
"reflect")`` along its axis 0 then axis 1 followed by ``[::2, ::2]``;
SciPy is the test oracle, not a dependency.
"""

from __future__ import annotations

import numpy as np

from .optimizer import _check_integers

GENERATING_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

MIN_LEVEL_SIZE = 8


def _correlate_reflect(x: np.ndarray, weights: np.ndarray, axis: int,
                       step: int = 1) -> np.ndarray:
    """Correlate a float64 array along ``axis`` with an odd, symmetric
    kernel, extending the borders by reflection, and return positions
    ``0, step, 2 * step, ...`` of that axis.

    The summation follows SciPy's symmetric-kernel rule in
    ``NI_Correlate1D``: ``out = x[i] * w[c]``, then for ``j = r .. 1`` (the
    farthest pair first) ``out += (x[i - j] + x[i + j]) * w[c - j]``, so
    every value has the same bytes as ``correlate1d(mode="reflect")``.
    """
    radius = len(weights) // 2
    axis %= x.ndim
    n = x.shape[axis]
    # source index of positions -radius .. n - 1 + radius: half-sample
    # symmetric extension (d c b a | a b c d | d c b a), periodic for any radius
    k = np.arange(-radius, n + radius) % (2 * n)
    padded = np.take(x, np.where(k < n, k, 2 * n - 1 - k), axis=axis)
    stop = step * ((n - 1) // step) + 1

    def tap(offset: int) -> np.ndarray:
        # padded position ``offset`` is source position ``offset - radius``
        taps = slice(offset, offset + stop, step)
        return padded[(slice(None),) * axis + (taps,)]

    out = tap(radius) * weights[radius]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(tap(radius - j), tap(radius + j), out=pair)
        pair *= weights[radius - j]
        out += pair
    return out


def reduce_image(image: np.ndarray) -> np.ndarray:
    """Low-pass filter and subsample by two one (H, W) plane or each plane
    of a (k, H, W) stack; a plane's output is ceil(W/2) x ceil(H/2)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3) or min(image.shape[-2:]) < 2:
        raise ValueError("image too small to reduce (needs at least 2x2)")
    rows = _correlate_reflect(image, GENERATING_KERNEL, axis=-2, step=2)
    return _correlate_reflect(rows, GENERATING_KERNEL, axis=-1, step=2)


def build_pyramid(image: np.ndarray, num_levels: int) -> list[np.ndarray]:
    """Build a pyramid of one (H, W) plane or a (k, H, W) stack as a list
    of levels, level 0 the original image.

    Levels whose smaller dimension would drop below ``MIN_LEVEL_SIZE`` are
    not built, so the list can be shorter than ``num_levels``.
    """
    _check_integers(1, num_levels=num_levels)
    levels = [np.asarray(image, dtype=np.float64)]
    if levels[0].ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (k, H, W) array, got shape {levels[0].shape}")
    for _ in range(num_levels - 1):
        h, w = levels[-1].shape[-2:]
        if min(-(-h // 2), -(-w // 2)) < MIN_LEVEL_SIZE:
            break
        levels.append(reduce_image(levels[-1]))
    return levels

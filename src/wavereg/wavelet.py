"""Single-level 2-D orthonormal Haar analysis and synthesis.

The forward transform operates on non-overlapping 2x2 blocks ``[[a, b], [c, d]]``::

    LL = (a + b + c + d) / 2      LH = (a - b + c - d) / 2
    HL = (a + b - c - d) / 2      HH = (a - b - c + d) / 2

LH carries column-wise (horizontal) differences, HL row-wise (vertical)
ones. Odd dimensions are edge-replicated to even size before blocking. The
transform is its own inverse: synthesis is ``dwt2`` of the bands laid out as
the blocks ``[[LL, LH], [HL, HH]]``, its planes laid out alike, then cropped.
"""

from __future__ import annotations

import numpy as np


def dwt2(image: np.ndarray) -> np.ndarray:
    """Decompose an image into its four half-resolution Haar sub-bands,
    returned as one (4, H', W') stack in the order LL, LH, HL, HH."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected (H, W) array, got shape {image.shape}")
    height, width = image.shape
    if width < 2 or height < 2:
        raise ValueError("image too small for DWT (needs at least 2x2)")
    if height % 2 or width % 2:  # a copy; an even image is blocked in place
        image = np.pad(image, ((0, height % 2), (0, width % 2)), mode="edge")
    (a, b), (c, d) = image.reshape(len(image) // 2, 2, -1, 2).transpose(1, 3, 0, 2)
    out = np.empty((4, *a.shape))  # each band's sum in place, in the order above
    np.add(a, b, out=out[0])
    np.subtract(a, b, out=out[1])
    np.subtract(out[:2], c, out=out[2:])
    out[:2] += c
    out[::3] += d
    out[1:3] -= d
    out /= 2.0
    return out


def idwt2(bands: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Invert :func:`dwt2` on a (4, H', W') stack, cropping to the (height, width) ``shape``."""
    _, h, w = np.shape(bands)

    def blocks(planes):  # planes 0-3 as the 2x2 blocks [[0, 1], [2, 3]] of one (2h, 2w) image
        return np.reshape(planes, (2, 2, h, w)).transpose(2, 0, 3, 1).reshape(2 * h, 2 * w)
    return blocks(dwt2(blocks(bands)))[: shape[0], : shape[1]]

"""Six-parameter affine model, center-adjusted matrices and warping.

Parameter conventions (reported, not internally flipped):
  - positive tx shifts image content left, positive ty shifts it up;
  - theta is measured counterclockwise from the x-axis;
  - k is the shear factor along x; sx, sy are positive scales.

The linear part A chains Rotation * Skew * Scaling. Applied about a center
pixel c with the translation t it is the 3x3 H, H @ v == A @ (v - c) + c + t,
whose top two rows [A | c + t - A @ c] ``_center_adjusted`` returns. ``warp``
treats that map, about the image center, as the map from output (fixed-grid)
coordinates to source coordinates in the moving image and resamples
bilinearly, which makes the sign conventions above hold for the rendered image.

``resample`` is a NumPy gather kernel for a stack of candidate transforms.
It finds each masked pixel's four source corners and weights once for all
planes of a stack, gathers the corner values with one ``take`` and sums
the weighted terms with SciPy's own order-1 weights and summation order,
so its bytes equal ``scipy.ndimage.map_coordinates(order=1,
mode="constant")`` (the test oracle) in about half the time per pixel. It
returns only the masked samples, all the registration objective reads, at
the front of the per-thread arena (``_buffer``) that its next call reuses;
``warp`` scatters one candidate's into new zeros. A pass is sized by the bytes
of its temporaries (16,384 pixels of one plane, 7,447 of a four-plane stack),
which it keeps, but the masked pixels' list, behind the samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class AffineParams:
    tx: float = 0.0
    ty: float = 0.0
    theta: float = 0.0
    sx: float = 1.0
    sy: float = 1.0
    k: float = 0.0

    def as_vector(self) -> np.ndarray:
        """The (6,) row of the parameters in field order, each finite."""
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        return np.array([self.tx, self.ty, self.theta, self.sx, self.sy, self.k])


def image_center(image: np.ndarray) -> tuple[float, float]:
    """Center pixel (x_t, y_t) of an (H, W) image or a (k, H, W) stack, with
    pixel centers at integer coordinates."""
    height, width = np.asarray(image).shape[-2:]
    return ((width - 1) / 2.0, (height - 1) / 2.0)


def _center_adjusted(vectors, center: tuple[float, float]) -> np.ndarray:
    """The (B, 2, 3) top rows of H about ``center`` for each row of a (B, 6)
    stack, with the bytes of a row's own call: one stacked ``a @ c`` equals a
    product per matrix (``einsum`` or the written-out sum would not)."""
    vectors = np.reshape(vectors, (-1, 6))
    rows = vectors.tolist()
    for *_, sx, sy, _ in rows:
        if sx <= 0 or sy <= 0:
            raise ValueError(f"scales must be positive, got sx={sx}, sy={sy}")
    cos, sin = np.cos(vectors[:, 2]).tolist(), np.sin(vectors[:, 2]).tolist()
    a = np.array([[[sx * c, sy * (k * c - s)], [sx * s, sy * (k * s + c)]]
                  for (*_, sx, sy, k), c, s in zip(rows, cos, sin)])
    center = np.array(center, dtype=np.float64)
    return np.concatenate((a, (vectors[:, :2] + center - a @ center)[:, :, None]), 2)


def invert_params(params: AffineParams) -> AffineParams:
    """Exact parameter-space inverse under the center-adjusted convention.

    The linear part inverts and re-factors as rotation times upper
    triangular (positive diagonal); the translation inverts to -A^{-1} t,
    independent of the center. Params must be finite; then a non-finite inverse means a singular A.
    """
    a = _center_adjusted(params.as_vector(), (0.0, 0.0))[0, :, :2]
    with np.errstate(all="ignore"):  # a zero det, or one whose 1 / det overflows: inf or NaN
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
        theta = float(np.arctan2(a_inv[1, 0], a_inv[0, 0]))
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, s], [-s, c]]) @ a_inv  # rotation^T @ A^{-1}: upper triangular
        t = -a_inv @ np.array([params.tx, params.ty])
        inverse = (*t.tolist(), theta, float(u[0, 0]), float(u[1, 1]), float(u[0, 1] / u[1, 1]))
    if not all(map(math.isfinite, inverse)):
        raise ValueError("singular affine matrix")
    return AffineParams(*inverse)


def scale_params_between_levels(params: AffineParams) -> AffineParams:
    """The parameters one level finer: twice the translation, the rest unchanged."""
    return replace(params, tx=params.tx * 2.0, ty=params.ty * 2.0)


# pixels of a one-plane ``resample`` pass (any pass keeps 10 * _PASS floats of temporaries),
# a quarter of a look-ahead batch's values in ``pipeline``, the arena's step in float64s
_PASS = 16384

_local = threading.local()


def _buffer(shape, dtype=np.float64, start=0) -> np.ndarray:
    """A view of ``shape`` at byte ``start`` of the one scratch block kept per
    thread (the arena), grown in whole ``_PASS`` float64s when the view ends past
    it: no call allocates, or page-faults, its temporaries. Views alias, so each
    caller places an array where nothing it still reads lives (see ``_score`` in
    ``pipeline``); a view into a block that grew keeps that block alive."""
    end = start + math.prod(shape) * np.dtype(dtype).itemsize
    arena = getattr(_local, "arena", None)
    if arena is None or arena.size < end:
        arena = _local.arena = np.empty(-(-end // (8 * _PASS)) * 8 * _PASS, np.uint8)
    return np.ndarray(shape, dtype, arena, start)


def resample(moving: np.ndarray, vectors) -> tuple[np.ndarray, np.ndarray]:
    """``warp``'s masked pixels under each row of a (B, 6) stack of
    ``AffineParams.as_vector``s: the (B, H, W) masks, and the (k, n) samples
    of one candidate after another, each equal to ``warp(moving, p)[0][:,
    mask]`` byte for byte, from byte 0 of the arena, which the next call reuses.

    A pass resamples the whole planes of as many candidates as fit in
    temporaries of 10 * ``_PASS`` floats, (4k + 6) a pixel, or else a block of
    rows (or one row) of one. A pixel's weights follow SciPy's order-1 rule:
    with f the fraction of a source coordinate, w0 = 1 - f and w1 = 1 - w0
    (not always equal to f). Each corner term is (v * wy) * wx, and one
    ``einsum`` adds the four to a zeroed output in SciPy's order, which turns
    a -0.0 total into +0.0. On the last column or row the second corner lies
    outside the plane, where its weight is exactly 0: its index reads the next
    row's first pixel, or is clipped to the last pixel. So the planes must be
    finite (0 * NaN is NaN, where SciPy adds 0), which ``warp`` checks.
    """
    moving = np.asarray(moving, dtype=np.float64)
    height, width = moving.shape[-2:]
    m = _center_adjusted(vectors, image_center(moving))[:, ::-1].T[..., None, None]  # [x/y/1, y/x]
    xs, ys = np.arange(width), np.arange(height)[:, None]  # the pixel columns and rows
    upper = np.array([height - 1.0, width - 1.0])[:, None, None, None]  # the mask's upper bounds
    corners = np.array([1, width, width + 1])[:, None]  # flat offsets of three corners from the first
    planes = moving.reshape(-1, height * width)
    k = len(planes)
    masks = np.empty((m.shape[2], height, width), dtype=bool)
    rows = max(1, 10 * _PASS // ((4 * k + 6) * width))  # temporaries of 10 * _PASS floats
    group = min(len(masks), rows // height) or 1  # candidates per pass
    size = group * min(rows, height) * width  # pixels per pass
    # one request: the samples, then a pass's corner values (first its coordinates, flags
    # and floors), corner index (then weights) and fractions: (4k + 6) floats a pixel
    buf = _buffer((k * masks.size + (4 * k + 6) * size,))
    samples, gathered = buf[:k * masks.size].reshape(k, -1), buf[k * masks.size:]
    weights, fractions = gathered[4 * k * size:], gathered[(4 * k + 4) * size:]
    flags, index = gathered[2 * size:].view(bool), weights.view(np.intp)
    done = 0
    for first in range(0, len(masks), group):
        pass_m = m[:, :, first:first + group]
        cols = pass_m[0] * xs
        for top in range(0, height, rows):
            block = masks[first:first + group, top:top + rows]  # a view
            coords = gathered[:2 * block.size].reshape(2, *block.shape)
            np.add(cols, pass_m[1] * ys[top:top + rows], out=coords)
            coords += pass_m[2]
            inside, below = flags[:4 * block.size].reshape(2, *coords.shape)
            np.greater_equal(coords, 0.0, out=inside)
            inside &= np.less_equal(coords, upper, out=below)
            np.logical_and(inside[0], inside[1], out=block)
            pixels = block.ravel().nonzero()[0]
            n = pixels.size
            # f holds the masked (y, x) coordinates, then their fractions;
            # "clip" lets take write into its out= argument without a copy
            f = fractions[:2 * n].reshape(2, n)
            coords.reshape(2, -1).take(pixels, axis=1, out=f, mode="clip")
            floor = np.floor(f, out=gathered[:2 * n].reshape(2, n))  # over the read coordinates
            f -= floor
            floor[0] *= width
            floor[0] += floor[1]  # the first corner's flat index, exact in float64
            corner = index[:4 * n].reshape(4, n)
            corner[0] = floor[0]
            np.add(corner[0], corners, out=corner[1:])
            # v[p, a, b] is plane p at source corner (y + a, x + b)
            v = gathered[:k * 4 * n].reshape(k, 2, 2, n)
            planes.take(corner.reshape(2, 2, n), axis=1, out=v, mode="clip")
            w = weights[:4 * n].reshape(2, 2, n)  # (wy0, wx0) and (wy1, wx1), over the read index
            np.subtract(1.0, f, out=w[0])
            np.subtract(1.0, w[0], out=w[1])
            if n != 1:  # einsum adds each (v * wy) * wx to a zeroed output in (a, b) order
                np.einsum("pabn,an,bn->pn", v, w[:, 0], w[:, 1], out=samples[:, done:done + n])
            else:  # where it would add a lone pixel's four terms in another order
                samples[:, done] = sum((v * w[:, 0, None] * w[:, 1]).reshape(k, 4).T, 0.0)
            done += n
    return samples[:, :done], masks


def warp(moving: np.ndarray, params: AffineParams) -> tuple[np.ndarray, np.ndarray]:
    """Resample the moving image on its own grid under ``params``, applied
    about the image center.

    ``moving`` is one (H, W) plane or a (k, H, W) stack of planes that
    share a grid, all finite. Returns the warped plane or stack, in the
    input's shape, and one (H, W) validity mask that is set only where the
    source coordinate lies fully inside the bilinear support; everywhere
    else the output is 0. Each plane equals its own 2-D ``warp`` bit for
    bit, and ``scipy.ndimage.map_coordinates(order=1, mode="constant")``
    byte for byte: it is ``resample``'s samples, scattered into zeros.
    """
    moving = np.asarray(moving, dtype=np.float64)
    if moving.ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (k, H, W) array, got shape {moving.shape}")
    if not np.isfinite(moving).all():
        raise ValueError("moving image has non-finite pixels (NaN or Inf)")
    samples, (mask,) = resample(moving, params.as_vector())
    out = np.zeros((len(samples), mask.size))
    out[:, mask.ravel()] = samples
    return out.reshape(moving.shape), mask


def params_to_dict(params: AffineParams, center: tuple[float, float]) -> dict:
    return {"tx": params.tx, "ty": params.ty, "theta_rad": params.theta, "sx": params.sx,
            "sy": params.sy, "k": params.k, "center": [center[0], center[1]]}

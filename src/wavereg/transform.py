"""Six-parameter affine model, center-adjusted matrices and warping.

Parameter conventions (reported, not internally flipped):
  - positive tx shifts image content left, positive ty shifts it up;
  - theta is measured counterclockwise from the x-axis;
  - k is the shear factor along x; sx, sy are positive scales.

The linear part A chains Rotation * Skew * Scaling. ``center_adjusted``
applies it about a center pixel c and adds the translation t, so
H @ v == A @ (v - c) + c + t. ``warp`` treats that matrix, about the
image center, as the map from output (fixed-grid) coordinates to source
coordinates in the moving image and resamples bilinearly, which makes the
sign conventions above hold for the rendered image.

``warp`` is a NumPy gather kernel. It finds each masked pixel's four
source corners and weights once for all planes of a stack, gathers the
corner values with one ``take`` and sums the weighted terms with SciPy's
own order-1 weights and summation order, so its bytes equal
``scipy.ndimage.map_coordinates(order=1, mode="constant")`` (the test
oracle) in about half the time per pixel. Rows are resampled in passes of
about 4,096 pixels, and the largest temporary is reused across calls, so
a 128x128 or 256x256 call does not page-fault fresh heap memory.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

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
        return np.array([self.tx, self.ty, self.theta, self.sx, self.sy, self.k])

    @staticmethod
    def from_vector(v) -> "AffineParams":
        tx, ty, theta, sx, sy, k = (float(x) for x in v)
        return AffineParams(tx=tx, ty=ty, theta=theta, sx=sx, sy=sy, k=k)


def image_center(image: np.ndarray) -> tuple[float, float]:
    """Center pixel (x_t, y_t) of an (H, W) image or a (k, H, W) stack, with
    pixel centers at integer coordinates."""
    height, width = np.asarray(image).shape[-2:]
    return ((width - 1) / 2.0, (height - 1) / 2.0)


def _linear_part(params: AffineParams) -> np.ndarray:
    if params.sx <= 0 or params.sy <= 0:
        raise ValueError(f"scales must be positive, got sx={params.sx}, sy={params.sy}")
    c, s = np.cos(params.theta), np.sin(params.theta)
    sx, sy, k = params.sx, params.sy, params.k
    return np.array([
        [sx * c, sy * (k * c - s)],
        [sx * s, sy * (k * s + c)],
    ])


def center_adjusted(params: AffineParams, center: tuple[float, float]) -> np.ndarray:
    """Matrix applying the linear part about ``center`` plus the translation."""
    a = _linear_part(params)
    cx, cy = center
    ax, ay = a @ np.array([cx, cy])
    return np.array([
        [a[0, 0], a[0, 1], params.tx + cx - ax],
        [a[1, 0], a[1, 1], params.ty + cy - ay],
        [0.0, 0.0, 1.0],
    ])


def invert_params(params: AffineParams) -> AffineParams:
    """Exact parameter-space inverse under the center-adjusted convention.

    The linear part inverts and re-factors as rotation times upper
    triangular (positive diagonal); the translation inverts to -A^{-1} t,
    independent of the center.
    """
    a = _linear_part(params)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det == 0:
        raise ValueError("singular affine matrix")
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    theta = float(np.arctan2(a_inv[1, 0], a_inv[0, 0]))
    c, s = np.cos(theta), np.sin(theta)
    rot_t = np.array([[c, s], [-s, c]])
    u = rot_t @ a_inv
    sx = float(u[0, 0])
    sy = float(u[1, 1])
    k = float(u[0, 1] / sy)
    t = -a_inv @ np.array([params.tx, params.ty])
    return AffineParams(tx=float(t[0]), ty=float(t[1]), theta=theta, sx=sx, sy=sy, k=k)


def scale_params_between_levels(params: AffineParams, factor: float) -> AffineParams:
    """Rescale the translation for a resolution change; other terms are
    resolution independent."""
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    return replace(params, tx=params.tx * factor, ty=params.ty * factor)


# pixels per resampling pass: a pass's temporaries stay small enough to be
# reused from the heap's free lists instead of page-faulted in every call
_PASS = 4096

_local = threading.local()


def _gather_buffer(size: int) -> np.ndarray:
    """A float64 buffer of at least ``size`` values, kept per thread, that
    takes each pass's corner values. It is the largest temporary of a
    ``warp`` call (four values per plane and pixel), so reusing it keeps a
    call from allocating, and page-faulting, that much memory."""
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < size:
        buf = _local.buf = np.empty(size)
    return buf


@lru_cache(maxsize=16)
def _grid(height: int, width: int):
    """Constants of ``warp`` for one grid shape: the pixel columns and rows,
    the mask's upper bounds and the flat offsets of the four corners."""
    constants = (np.arange(width), np.arange(height)[:, None],
                 np.array([height - 1.0, width - 1.0])[:, None, None],
                 np.array([[[0], [1]], [[width], [width + 1]]]))
    for array in constants:  # shared by every call on this shape
        array.flags.writeable = False
    return constants


def warp(moving: np.ndarray, params: AffineParams) -> tuple[np.ndarray, np.ndarray]:
    """Resample the moving image on its own grid under ``params``, applied
    about the image center.

    ``moving`` is one (H, W) plane or a (k, H, W) stack of planes that
    share a grid. Returns the warped plane or stack, in the input's shape,
    and one (H, W) validity mask that is set only where the source
    coordinate lies fully inside the bilinear support; everywhere else the
    output is 0. The source coordinates, the mask, the corner indices and
    the weights are computed once for all planes, and each plane equals
    its own 2-D ``warp`` bit for bit.

    The result equals ``scipy.ndimage.map_coordinates(order=1,
    mode="constant")`` byte for byte. The masked pixels are resampled one
    block of rows at a time, in passes of at most ``_PASS`` pixels (or one
    row, if a row is longer). A pixel's weights follow SciPy's order-1
    rule: with f the fraction of a source coordinate, w0 = 1 - f and
    w1 = 1 - w0 (not always equal to f). Each corner term is
    (v * wy) * wx, and the four terms are summed in SciPy's order; adding
    0.0 last matches SciPy's sum starting from 0.0, which turns a -0.0
    total into +0.0. On the last column or row the second corner lies
    outside the plane, where its weight is exactly 0: its index reads the
    next row's first pixel, or is clipped to the last pixel. That is why
    the planes must be finite: 0 * NaN is NaN, where SciPy adds 0.
    """
    moving = np.asarray(moving, dtype=np.float64)
    height, width = moving.shape[-2:]
    m = center_adjusted(params, image_center(moving))[1::-1, :, None, None]  # rows: y, x
    xs, ys, upper, corners = _grid(height, width)
    planes = moving.reshape(-1, height * width)
    k = len(planes)
    out = np.zeros(planes.shape)
    mask = np.empty((height, width), dtype=bool)
    cols = m[:, 0] * xs
    rows = max(1, _PASS // width)
    gathered = _gather_buffer(k * 4 * min(rows, height) * width)
    for top in range(0, height, rows):
        coords = cols + m[:, 1] * ys[top:top + rows]
        coords += m[:, 2]
        inside = coords >= 0.0
        inside &= coords <= upper
        block = mask[top:top + rows]
        np.logical_and(inside[0], inside[1], out=block)
        pixels = block.ravel().nonzero()[0]
        n = pixels.size
        # w[0] and w[1] hold (wy0, wx0) and (wy1, wx1); "clip" lets take
        # write into its out= argument without a buffer copy
        w = np.empty((2, 2, n))
        coords.reshape(2, -1).take(pixels, axis=1, out=w[1], mode="clip")
        corner = w[1].astype(np.intp)  # truncation is floor: coords >= 0
        w[1] -= corner
        np.subtract(1.0, w[1], out=w[0])
        np.subtract(1.0, w[0], out=w[1])
        index = corner[0] * width
        index += corner[1]
        # v[p, a, b] is plane p at source corner (y + a, x + b)
        v = gathered[:k * 4 * n].reshape(k, 2, 2, n)
        planes.take(index + corners, axis=1, out=v, mode="clip")
        v *= w[:, 0, None]
        v *= w[:, 1]
        acc = v[:, 0, 0]
        acc += v[:, 0, 1]
        acc += v[:, 1, 0]
        acc += v[:, 1, 1]
        acc += 0.0
        out[:, top * width:(top + rows) * width][:, pixels] = acc
    return out.reshape(moving.shape), mask


def params_to_dict(params: AffineParams, center: tuple[float, float]) -> dict:
    return {
        "tx": params.tx,
        "ty": params.ty,
        "theta_rad": params.theta,
        "sx": params.sx,
        "sy": params.sy,
        "k": params.k,
        "center": [center[0], center[1]],
    }


def save_params(params: AffineParams, center: tuple[float, float], path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_dict(params, center), fh, indent=2)
        fh.write("\n")

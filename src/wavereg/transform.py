"""Six-parameter affine model, center-pixel matrix composition and warping.

Parameter conventions (reported, not internally flipped):
  - positive tx shifts image content left, positive ty shifts it up;
  - theta is measured counterclockwise from the x-axis;
  - k is the shear factor along x; sx, sy are positive scales.

``compose_matrix`` chains Translation * Rotation * Skew * Scaling.
``center_adjusted`` rebases the linear part on the image center pixel
(x_t, y_t), so H @ v == A @ (v - c) + c + t. ``warp`` treats that matrix
as the map from output (fixed-grid) coordinates to source coordinates in
the moving image and resamples bilinearly, which makes the sign
conventions above hold for the rendered image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import map_coordinates


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


IDENTITY = AffineParams()


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


def compose_matrix(params: AffineParams) -> np.ndarray:
    """Homogeneous 3x3 matrix: translation * rotation * skew * scaling."""
    m = np.eye(3)
    m[:2, :2] = _linear_part(params)
    m[0, 2] = params.tx
    m[1, 2] = params.ty
    return m


def center_adjusted(params: AffineParams, center: tuple[float, float]) -> np.ndarray:
    """Matrix applying the linear part about ``center`` plus the translation."""
    a = _linear_part(params)
    cx, cy = center
    c = np.array([cx, cy])
    m = np.eye(3)
    m[:2, :2] = a
    m[:2, 2] = np.array([params.tx, params.ty]) + c - a @ c
    return m


def invert_matrix(m: np.ndarray) -> np.ndarray:
    """Invert a homogeneous affine matrix, keeping the bottom row exact."""
    a = np.asarray(m, dtype=np.float64)[:2, :2]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det == 0:
        raise ValueError("singular affine matrix")
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    out = np.eye(3)
    out[:2, :2] = a_inv
    out[:2, 2] = -a_inv @ np.asarray(m, dtype=np.float64)[:2, 2]
    return out


def invert_params(params: AffineParams) -> AffineParams:
    """Exact parameter-space inverse under the center-adjusted convention.

    The linear part inverts and re-factors as rotation times upper
    triangular (positive diagonal); the translation inverts to -A^{-1} t,
    independent of the center.
    """
    a_inv = invert_matrix(compose_matrix(params))[:2, :2]
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


def warp(
    moving: np.ndarray,
    params: AffineParams,
    center: tuple[float, float] | None = None,
    fill: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Resample the moving image on its own grid under ``params``.

    ``moving`` is one (H, W) plane or a (k, H, W) stack of planes that
    share a grid. Returns the warped plane or stack, in the input's shape,
    and one (H, W) validity mask that is set only where the source
    coordinate lies fully inside the bilinear support; everywhere else the
    output takes ``fill``. The source coordinates and the mask are computed
    once, so a stack costs one coordinate pass plus one resampling per
    plane, and each plane equals its own 2-D ``warp`` bit for bit.
    """
    moving = np.asarray(moving, dtype=np.float64)
    height, width = moving.shape[-2:]
    if center is None:
        center = image_center(moving)
    m = center_adjusted(params, center)
    xs = np.arange(width)
    ys = np.arange(height)[:, None]
    coords = np.empty((2, height, width))
    src_y, src_x = coords
    np.add(m[0, 0] * xs + m[0, 1] * ys, m[0, 2], out=src_x)
    np.add(m[1, 0] * xs + m[1, 1] * ys, m[1, 2], out=src_y)
    mask = (
        (src_x >= 0.0) & (src_x <= width - 1.0)
        & (src_y >= 0.0) & (src_y <= height - 1.0)
    )
    outside = ~mask
    out = np.empty(moving.shape)
    for plane, warped in zip(moving.reshape(-1, height, width),
                             out.reshape(-1, height, width)):
        map_coordinates(plane, coords, output=warped, order=1,
                        mode="constant", cval=fill)
        warped[outside] = fill
    return out, mask


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


def params_from_dict(d: dict) -> tuple[AffineParams, tuple[float, float]]:
    params = AffineParams(
        tx=float(d["tx"]), ty=float(d["ty"]), theta=float(d["theta_rad"]),
        sx=float(d["sx"]), sy=float(d["sy"]), k=float(d["k"]),
    )
    cx, cy = d["center"]
    return params, (float(cx), float(cy))


def save_params(params: AffineParams, center: tuple[float, float], path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_dict(params, center), fh, indent=2)
        fh.write("\n")


def load_params(path) -> tuple[AffineParams, tuple[float, float]]:
    with open(path) as fh:
        return params_from_dict(json.load(fh))

"""Synthetic ground-truth fixture pairs for desk-scale verification.

``generate_pair`` renders a base pattern as the fixed image, remaps its
intensities to fake a second modality, warps it with a known transform
and adds seeded Gaussian noise. The transform that realigns the pair is
the parameter-space inverse of the applied one; both are emitted in the
sidecar so consumers never re-derive the convention.

The ``noise_smoothed`` pattern is a difference of two Gaussian-smoothed
noise fields. The smoothing is the pyramid's NumPy reflect correlation
with SciPy's truncated Gaussian kernel, applied along axis 0 then axis 1,
so it has the same bytes as ``scipy.ndimage.gaussian_filter`` (the test
oracle) without importing SciPy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .imageio import remap_intensity, save_pgm
from .pyramid import _correlate_reflect
from .transform import (
    AffineParams,
    invert_params,
    params_to_dict,
    warp,
)

PATTERNS = ("phantom_ellipses", "checker", "noise_smoothed")

INTENSITY_RANGE = 255.0

# (cx, cy, a, b, angle_rad, intensity) in unit coordinates; painted in order
_PHANTOM_ELLIPSES = [
    (0.50, 0.50, 0.44, 0.40, 0.0, 40.0),    # outer shell
    (0.50, 0.50, 0.40, 0.36, 0.0, 230.0),   # skull
    (0.50, 0.50, 0.36, 0.32, 0.0, 110.0),   # brain matter
    (0.38, 0.42, 0.10, 0.16, 0.35, 170.0),  # left lobe
    (0.63, 0.42, 0.10, 0.16, -0.35, 60.0),  # right lobe
    (0.50, 0.68, 0.14, 0.08, 0.0, 200.0),   # lower structure
    (0.42, 0.67, 0.035, 0.035, 0.0, 90.0),
    (0.58, 0.67, 0.035, 0.035, 0.0, 255.0),
    (0.50, 0.30, 0.06, 0.04, 0.8, 20.0),
    (0.32, 0.62, 0.04, 0.06, 0.0, 140.0),
]


@dataclass
class FixtureSpec:
    base_pattern: str = "phantom_ellipses"
    size: int = 128
    truth: AffineParams = field(default_factory=AffineParams)
    remap: str = "none"  # none | invert | gamma | neglog
    gamma: float = 2.0
    noise_sigma: float = 0.0  # fraction of the intensity range
    seed: int = 0

    def validate(self) -> None:
        if self.base_pattern not in PATTERNS:
            raise ValueError(f"unknown base pattern {self.base_pattern!r}")
        if self.size < 64:
            raise ValueError(f"size must be >= 64, got {self.size}")
        if not 0 <= self.noise_sigma < math.inf:  # also rejects NaN
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.remap == "gamma" and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be > 0 and finite, got {self.gamma}")


def _render_phantom(size: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size] / (size - 1)
    img = np.zeros((size, size))
    for cx, cy, a, b, angle, intensity in _PHANTOM_ELLIPSES:
        dx = xs - cx
        dy = ys - cy
        u = dx * np.cos(angle) + dy * np.sin(angle)
        v = -dx * np.sin(angle) + dy * np.cos(angle)
        img[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = intensity
    return img


def _render_checker(size: int) -> np.ndarray:
    block = max(size // 16, 2)
    ys, xs = np.mgrid[0:size, 0:size]
    tiles = ((xs // block + ys // block) % 2).astype(np.float64)
    # radial modulation breaks the tiling's translational ambiguity
    r2 = ((xs - size / 2) ** 2 + (ys - size / 2) ** 2) / (size / 2) ** 2
    envelope = np.exp(-1.5 * r2)
    return (64.0 + 160.0 * tiles) * envelope


def _gaussian_smooth(image: np.ndarray, sigma: float) -> np.ndarray:
    """``gaussian_filter(image, sigma)`` (``mode="reflect"``, truncated at
    ``int(4 sigma + 0.5)``): the kernel is built as SciPy builds it,
    normalized and reversed for correlation."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[::-1]
    rows = _correlate_reflect(image, weights, axis=0)
    return _correlate_reflect(rows, weights, axis=1)


def _render_noise(size: int, seed: int) -> np.ndarray:
    # band-pass texture: fine-grained enough that heavily reduced pyramid
    # levels flatten it while Haar detail bands still carry alignment cues
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((size, size))
    raw = _gaussian_smooth(noise, 1.5) - _gaussian_smooth(noise, 6.0)
    lo, hi = raw.min(), raw.max()
    return INTENSITY_RANGE * (raw - lo) / (hi - lo)


def render_pattern(spec: FixtureSpec) -> np.ndarray:
    if spec.base_pattern == "phantom_ellipses":
        return _render_phantom(spec.size)
    if spec.base_pattern == "checker":
        return _render_checker(spec.size)
    return _render_noise(spec.size, spec.seed)


def generate_pair(spec: FixtureSpec):
    """Return (fixed, moving, truth); moving = warp(remap(fixed), truth) + noise."""
    spec.validate()
    fixed = render_pattern(spec)
    if spec.remap == "none":
        source = fixed
    else:
        source = remap_intensity(fixed, spec.remap, gamma=spec.gamma)
    moving, mask = warp(source, spec.truth)
    if np.count_nonzero(mask) < 0.5 * mask.size:
        raise ValueError("fixture unusable: transform pushes over half the image out of bounds")
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed + 1)
        moving = moving + rng.normal(
            0.0, spec.noise_sigma * INTENSITY_RANGE, moving.shape
        )
        moving = np.clip(moving, 0.0, None)
    return fixed, moving, spec.truth


def sidecar_dict(spec: FixtureSpec) -> dict:
    """Truth transform, its realigning inverse, and an echo of the spec."""
    center = ((spec.size - 1) / 2.0, (spec.size - 1) / 2.0)
    return {
        "truth": params_to_dict(spec.truth, center),
        "recovery": params_to_dict(invert_params(spec.truth), center),
        "spec": {
            "base_pattern": spec.base_pattern,
            "size": spec.size,
            "remap": spec.remap,
            "gamma": spec.gamma,
            "noise_sigma": spec.noise_sigma,
            "seed": spec.seed,
        },
    }


def write_fixture(spec: FixtureSpec, out_dir) -> None:
    """Emit fixed.pgm, moving.pgm and truth.json into ``out_dir``."""
    import os

    fixed, moving, _ = generate_pair(spec)
    os.makedirs(out_dir, exist_ok=True)
    save_pgm(fixed, os.path.join(out_dir, "fixed.pgm"))
    save_pgm(moving, os.path.join(out_dir, "moving.pgm"))
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(sidecar_dict(spec), fh, indent=2)
        fh.write("\n")

"""Synthetic ground-truth fixture pairs for desk-scale verification.

``generate_pair`` and ``write_fixture`` are the entry points; each validates
the spec first. ``generate_pair`` renders a base pattern as the fixed image,
remaps its intensities (``REMAP_MODES``) to fake a second modality, warps it
with a known transform and adds seeded Gaussian noise. ``write_fixture``
saves the pair and a sidecar with the transform and its realigning
parameter-space inverse, so consumers never re-derive the convention.

The ``noise_smoothed`` pattern is a difference of two Gaussian-smoothed
noise fields. The smoothing is the pyramid's NumPy reflect correlation
with SciPy's truncated Gaussian kernel, applied along axis 0 then axis 1,
so it has the same bytes as ``scipy.ndimage.gaussian_filter`` (the test
oracle) without importing SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .imageio import save_json, save_pgm
from .optimizer import _check_integers
from .pyramid import _correlate_reflect
from .transform import AffineParams, image_center, invert_params, params_to_dict, warp

PATTERNS = ("phantom_ellipses", "checker", "noise_smoothed")
REMAP_MODES = ("invert", "gamma", "neglog")  # the modes of _remap

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
    remap: str = "none"  # "none" or one of REMAP_MODES
    gamma: float = 2.0
    noise_sigma: float = 0.0  # fraction of the intensity range
    seed: int = 0

    def validate(self) -> None:
        if self.base_pattern not in PATTERNS:
            raise ValueError(f"unknown base pattern {self.base_pattern!r}")
        if self.remap not in ("none", *REMAP_MODES):
            raise ValueError(f"unknown remap mode {self.remap!r}")
        _check_integers(64, size=self.size)
        _check_integers(0, seed=self.seed)
        # NumPy's normal deviates are under 13 (its ziggurat's tail): the noise stays finite
        if not 0 <= self.noise_sigma * INTENSITY_RANGE * 16 < math.inf:  # also rejects NaN
            raise ValueError(f"noise_sigma must be >= 0 with finite noise, got {self.noise_sigma}")
        # a NaN gamma would reach truth.json as the non-JSON token NaN
        if not math.isfinite(self.gamma) or self.remap == "gamma" and self.gamma <= 0:
            raise ValueError(f"gamma must be > 0 and finite, got {self.gamma}")
        invert_params(self.truth)  # names a non-finite parameter, and refuses a singular truth


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
    block = size // 16
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


def _remap(image: np.ndarray, mode: str, gamma: float) -> np.ndarray:
    """A second modality from a rendered pattern (float64, non-negative, never constant):
    ``invert`` reflects about the min/max midpoint, ``gamma`` is a power law on the
    normalized range, ``neglog`` is negated log1p rescaled back to the input range."""
    lo, hi = image.min(), image.max()
    if mode == "invert":
        return (lo + hi) - image
    if mode == "gamma":
        span = hi - lo
        return lo + span * ((image - lo) / span) ** gamma
    mapped = -np.log1p(image)
    mlo, mhi = mapped.min(), mapped.max()
    return lo + (hi - lo) * (mapped - mlo) / (mhi - mlo)


def generate_pair(spec: FixtureSpec):
    """Return (fixed, moving, truth); moving = warp(remap(fixed), truth) + noise."""
    spec.validate()
    fixed = (_render_phantom(spec.size) if spec.base_pattern == "phantom_ellipses" else
             _render_checker(spec.size) if spec.base_pattern == "checker" else
             _render_noise(spec.size, spec.seed))
    source = fixed if spec.remap == "none" else _remap(fixed, spec.remap, spec.gamma)
    moving, mask = warp(source, spec.truth)
    if np.count_nonzero(mask) < 0.5 * mask.size:
        raise ValueError("fixture unusable: transform pushes over half the image out of bounds")
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed + 1)
        moving = moving + rng.normal(0.0, spec.noise_sigma * INTENSITY_RANGE, moving.shape)
        moving = np.clip(moving, 0.0, None)
    return fixed, moving, spec.truth


def write_fixture(spec: FixtureSpec, out_dir) -> None:
    """Emit fixed.pgm, moving.pgm and truth.json (truth, recovery, spec) into ``out_dir``."""
    import os

    fixed, moving, truth = generate_pair(spec)
    center = image_center(fixed)
    sidecar = {  # before any file, so a failure leaves none behind
        "truth": params_to_dict(truth, center),
        "recovery": params_to_dict(invert_params(truth), center),
        "spec": {name: getattr(spec, name) for name in
                 ("base_pattern", "size", "remap", "gamma", "noise_sigma", "seed")}
        | {"size": int(spec.size), "seed": int(spec.seed)},  # NumPy integers are not JSON
    }
    os.makedirs(out_dir, exist_ok=True)
    save_pgm(fixed, os.path.join(out_dir, "fixed.pgm"))
    save_pgm(moving, os.path.join(out_dir, "moving.pgm"))
    save_json(sidecar, os.path.join(out_dir, "truth.json"))

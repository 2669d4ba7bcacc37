"""Binary Netpbm (PGM/PPM) I/O, intensity remapping, and difference overlays.

Images are 2-D float64 arrays indexed ``[row, col]`` (y down, x right).
Masks are boolean arrays of the same shape. RGB overlays are
``(H, W, 3)`` uint8 arrays.
"""

from __future__ import annotations

import json

import numpy as np


class PnmError(Exception):
    """Malformed or unsupported Netpbm file."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PnmError("truncated header")
    return data[start:pos], pos


def _parse_header(data: bytes) -> tuple[int, int, int, int]:
    if data[:2] != b"P5":
        raise PnmError(f"unsupported magic {data[:2]!r} (expected P5)")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        try:
            value = int(tok)
        except ValueError:
            raise PnmError(f"invalid {name} field {tok!r}") from None
        fields.append(value)
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PnmError(f"invalid maxval {maxval}")
    # exactly one whitespace byte separates the header from the samples
    return width, height, maxval, pos + 1


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5). 16-bit samples are big-endian."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, maxval, offset = _parse_header(data)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    payload = data[offset:offset + count * dtype.itemsize]
    if len(payload) < count * dtype.itemsize:
        raise PnmError(
            f"truncated payload: expected {count * dtype.itemsize} bytes, "
            f"got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=dtype, count=count)
    top = int(pixels.max())
    if top > maxval:
        raise PnmError(f"sample {top} exceeds maxval {maxval}")
    return pixels.reshape(height, width).astype(np.float64)


def save_pgm(image: np.ndarray, path) -> None:
    """Write an 8-bit binary PGM (P5); intensities are rounded half-up and
    clamped into [0, 255]. Non-finite pixels raise ``ValueError``."""
    image = np.atleast_2d(np.asarray(image, dtype=np.float64))
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite pixels (NaN or Inf)")
    height, width = image.shape
    samples = np.clip(np.floor(image + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(samples.tobytes())


def save_ppm(rgb: np.ndarray, path) -> None:
    """Write a binary PPM (P6) from an (H, W, 3) uint8 array."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got shape {rgb.shape}")
    height, width = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode())
        fh.write(rgb.astype(np.uint8).tobytes())


def save_json(data, path) -> None:
    """Write ``data`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _image_mask(a, b, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two images as float64 and a mask as bool, all of one shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if a.shape != b.shape or a.shape != mask.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape} vs {mask.shape}")
    return a, b, mask


def remap_intensity(image: np.ndarray, mode: str, gamma: float = 2.0) -> np.ndarray:
    """Synthesize a second 'modality' by remapping intensities pixelwise.

    Modes: ``invert`` (reflect about the image's min/max midpoint),
    ``gamma`` (power law on the normalized range), ``neglog``
    (negated log1p, rescaled back to the input range).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.size == 0:
        raise ValueError("empty image")
    lo, hi = image.min(), image.max()
    if mode == "invert":
        return (lo + hi) - image
    if mode == "gamma":
        if not 0 < gamma < np.inf:  # also rejects NaN
            raise ValueError(f"gamma must be > 0 and finite, got {gamma}")
        span = hi - lo
        if span == 0:
            return image.copy()
        return lo + span * ((image - lo) / span) ** gamma
    if mode == "neglog":
        if lo < 0:
            raise ValueError("neglog requires nonnegative intensities")
        mapped = -np.log1p(image)
        mlo, mhi = mapped.min(), mapped.max()
        if mhi == mlo:
            return image.copy()
        return lo + (hi - lo) * (mapped - mlo) / (mhi - mlo)
    raise ValueError(f"unknown remap mode {mode!r}")


def overlay_diff(
    fixed: np.ndarray,
    registered: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Grey/fuchsia difference overlay.

    Both images are normalized to their joint masked intensity range.
    Agreeing pixels (within 0.1 of that range) render grey, disagreeing
    pixels fuchsia, masked-out pixels black.
    """
    fixed, registered, mask = _image_mask(fixed, registered, mask)
    out = np.zeros(fixed.shape + (3,), dtype=np.uint8)
    if not mask.any():
        return out
    values = np.concatenate([fixed[mask], registered[mask]])
    lo, hi = values.min(), values.max()
    span = hi - lo if hi > lo else 1.0
    nf = (fixed - lo) / span
    nr = (registered - lo) / span
    grey = np.clip(np.round(255.0 * nf), 0, 255).astype(np.uint8)
    agree = np.abs(nf - nr) <= 0.1
    out[..., 0] = np.where(agree, grey, 255)
    out[..., 1] = np.where(agree, grey, (grey * 0.3).astype(np.uint8))
    out[..., 2] = np.where(agree, grey, 255)
    out[~mask] = 0
    return out

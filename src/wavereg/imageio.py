"""Binary Netpbm (PGM/PPM) I/O, JSON output and difference overlays.

Images are 2-D float64 arrays indexed ``[row, col]`` (y down, x right).
Masks are boolean arrays of the same shape. RGB overlays are
``(H, W, 3)`` uint8 arrays.
"""

from __future__ import annotations

import json
import re

import numpy as np


class PnmError(Exception):
    """Malformed or unsupported Netpbm file."""


# one header token after whitespace and "#" comments; empty at the end of data
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _parse_header(data: bytes) -> tuple[int, int, int, int]:
    magic = re.match(rb"[^\s#]{0,16}", data)[0]  # whitespace or "#" ends it, as any token
    if magic != b"P5":
        raise PnmError(f"unsupported magic {magic!r} (expected P5)")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        match = _TOKEN.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise PnmError("truncated header")
        try:
            if not re.fullmatch(rb"\+?[0-9]+", tok):  # int() alone also takes "-" and "_"
                raise ValueError
            fields.append(int(tok))  # which refuses more digits than Python's limit (4,300)
        except ValueError:
            raise PnmError(f"invalid {name} field {tok!r}") from None
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


def _save_pnm(magic: str, data: np.ndarray, path) -> None:
    """Write an (H, W) or (H, W, 3) uint8 array after its P5 or P6 header."""
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{data.shape[1]} {data.shape[0]}\n255\n".encode() + data.tobytes())


def save_pgm(image: np.ndarray, path) -> None:
    """Write an 8-bit binary PGM (P5); intensities are rounded half-up and
    clamped into [0, 255]. Non-finite pixels raise ``ValueError``."""
    image = np.atleast_2d(np.asarray(image, dtype=np.float64))
    if image.ndim != 2 or not image.size:  # load_pgm reads no empty image back
        raise ValueError(f"expected a non-empty (H, W) array, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite pixels (NaN or Inf)")
    _save_pnm("P5", np.clip(np.floor(image + 0.5), 0, 255).astype(np.uint8), path)


def save_ppm(rgb: np.ndarray, path) -> None:
    """Write a binary PPM (P6) from an (H, W, 3) uint8 array."""
    rgb = np.asarray(rgb)
    if rgb.dtype != np.uint8 or rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) uint8 array, got {rgb.dtype} of shape {rgb.shape}")
    _save_pnm("P6", rgb, path)


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


def overlay_diff(fixed: np.ndarray, registered: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Grey/fuchsia difference overlay.

    Both images are normalized to their joint masked intensity range (a non-finite
    masked pixel, or a range that overflows float64, raises ValueError). Agreeing pixels
    (within 0.1 of that range) render grey, disagreeing pixels fuchsia, masked-out pixels black.
    """
    fixed, registered, mask = _image_mask(fixed, registered, mask)
    out = np.zeros(fixed.shape + (3,), dtype=np.uint8)
    if not mask.any():
        return out
    values = np.concatenate([fixed[mask], registered[mask]])
    if not np.isfinite(values).all():
        raise ValueError("non-finite intensities in the overlap")
    lo, hi = float(values.min()), float(values.max())  # Python floats: hi - lo warns nothing
    if np.isinf(hi - lo):
        raise ValueError(f"intensity range [{lo:.6g}, {hi:.6g}] overflows float64")
    span = hi - lo if hi > lo else 1.0
    nf, nr = ((np.where(mask, x, lo) - lo) / span for x in (fixed, registered))
    grey = np.clip(np.round(255.0 * nf), 0, 255).astype(np.uint8)
    agree = np.abs(nf - nr) <= 0.1
    out[..., 0] = out[..., 2] = np.where(agree, grey, 255)
    out[..., 1] = np.where(agree, grey, (grey * 0.3).astype(np.uint8))
    out[~mask] = 0
    return out

"""Mask-aware joint-histogram mutual information and Pearson correlation.

MI is reported in bits (log base 2). Binning is hard: each masked pixel
pair contributes one count to exactly one cell, with the bin edges spread
linearly over each image's masked intensity range (top edge inclusive).
Ranges are recomputed from the masked region at every evaluation so warp
fill values never stretch the bins.

Bin indices are computed arithmetically, ``(v - lo) / (hi - lo) * bins``,
and then corrected against the ``np.linspace`` edges, as NumPy's own 1-D
``histogram`` does for uniform bins. After the correction every sample sits
in the bin ``np.histogram2d`` would give it: the last edge not above it,
with the top edge counted in the last bin. ``np.bincount`` over the
flattened (fixed, moving) index then fills the joint histogram, in passes of
at most ``_CHUNK`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class JointHistogram:
    counts: np.ndarray  # [fixed_bin, moving_bin]
    total: float
    degenerate: bool = False


# samples binned per pass. A pass's temporaries (128 KiB each) are reused
# from the allocator's free lists; whole-overlap temporaries on a 256x256
# level push the heap past glibc's trim threshold, so each call would give
# about 2 MB back to the kernel and page-fault it in again.
_CHUNK = 16384


def _bin_index(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Index of the ``linspace(lo, hi, bins + 1)`` bin holding each value in
    [lo, hi]: the last edge not above it, the top edge in the last bin."""
    edges = np.linspace(lo, hi, bins + 1)
    lower = edges[:-1]
    upper = edges[1:].copy()
    upper[-1] = np.inf  # the last bin includes the top edge
    index = ((values - lo) / (hi - lo) * bins).astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    # the arithmetic index can miss an edge by an ULP; when edges closer
    # than an ULP repeat, one step is not always enough
    while True:
        down = values < lower[index]
        up = values >= upper[index]
        if not (down.any() or up.any()):
            return index
        index -= down
        index += up


def joint_histogram(
    fixed: np.ndarray,
    moving: np.ndarray,
    mask: np.ndarray,
    bins: int = 50,
) -> JointHistogram:
    """Accumulate the joint intensity histogram over the masked overlap."""
    if bins < 2:
        raise ValueError(f"histogram_bins must be >= 2, got {bins}")
    fixed = np.asarray(fixed, dtype=np.float64)
    moving = np.asarray(moving, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if fixed.shape != moving.shape or fixed.shape != mask.shape:
        raise ValueError(
            f"dimension mismatch: {fixed.shape} vs {moving.shape} vs {mask.shape}"
        )
    fvals = fixed[mask]
    mvals = moving[mask]
    if fvals.size == 0:
        raise ValueError("no overlap: empty mask")
    fmin, fmax = float(fvals.min()), float(fvals.max())
    mmin, mmax = float(mvals.min()), float(mvals.max())
    if not (math.isfinite(fmin) and math.isfinite(fmax)
            and math.isfinite(mmin) and math.isfinite(mmax)):
        raise ValueError("non-finite intensities in the overlap")
    # a range within 16 eps of its magnitude is flat: bilinear warping
    # leaves a constant region up to about 2.5 eps of rounding spread
    tol = 16 * np.finfo(np.float64).eps
    if fmax - fmin <= tol * max(-fmin, fmax) or mmax - mmin <= tol * max(-mmin, mmax):
        counts = np.zeros((bins, bins))
        counts[0, 0] = fvals.size
        return JointHistogram(counts=counts, total=float(fvals.size), degenerate=True)
    counts = np.zeros(bins * bins)
    for start in range(0, fvals.size, _CHUNK):
        stop = start + _CHUNK
        cell = _bin_index(fvals[start:stop], fmin, fmax, bins) * bins
        cell += _bin_index(mvals[start:stop], mmin, mmax, bins)
        counts += np.bincount(cell, minlength=bins * bins)
    counts = counts.reshape(bins, bins)
    return JointHistogram(counts=counts, total=float(counts.sum()))


def mutual_information(hist: JointHistogram) -> float:
    """MI in bits: sum p(l,k) log2[p(l,k) / (p_Z(k) p_N(l))], zero cells skipped."""
    if hist.degenerate:
        return 0.0
    p = hist.counts / hist.total
    p_fixed = p.sum(axis=1)
    p_moving = p.sum(axis=0)
    nz = p > 0
    outer = np.outer(p_fixed, p_moving)
    return float(np.sum(p[nz] * np.log2(p[nz] / outer[nz])))


def mi_between(
    fixed: np.ndarray,
    moving: np.ndarray,
    mask: np.ndarray,
    bins: int = 50,
) -> float:
    """Convenience: joint histogram then MI."""
    return mutual_information(joint_histogram(fixed, moving, mask, bins))


def correlation_coefficient(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """Pearson r between the masked intensities of two images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if a.shape != b.shape or a.shape != mask.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape} vs {mask.shape}")
    x = a[mask]
    y = b[mask]
    if x.size < 2:
        raise ValueError("need at least 2 masked pixels for correlation")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
    if denom == 0:
        raise ValueError("undefined correlation: zero variance over the mask")
    r = float(np.sum(dx * dy) / denom)
    return min(1.0, max(-1.0, r))

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
with the top edge counted in the last bin; the binning's temporaries live
in per-thread memory reused from call to call (``transform._buffer``), and
every array returned is new. One ``np.bincount`` fills the joint histogram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .imageio import _image_mask
from .transform import _PASS, _buffer


@dataclass
class JointHistogram:
    counts: np.ndarray  # [fixed_bin, moving_bin]
    total: float
    degenerate: bool = False


# a range within 16 eps of its magnitude is flat: bilinear warping leaves a
# constant region up to about 2.5 eps of rounding spread
_FLAT_TOL = 16 * np.finfo(np.float64).eps


def _degenerate(fmin: float, fmax: float, mmin: float, mmax: float) -> bool:
    """Whether either masked range is flat; ValueError if a bound is not finite."""
    if not all(map(math.isfinite, (fmin, fmax, mmin, mmax))):
        raise ValueError("non-finite intensities in the overlap")
    return (fmax - fmin <= _FLAT_TOL * max(-fmin, fmax)
            or mmax - mmin <= _FLAT_TOL * max(-mmin, mmax))


def _bin_index(values: np.ndarray, lo, hi, bins: int, counts=None) -> np.ndarray:
    """Index of the ``linspace(lo, hi, bins + 1)`` bin holding each value in
    [lo, hi]: the last edge not above it, the top edge in the last bin.
    ``values`` is one row with scalar bounds, or (r, n) rows with (r,) or, in
    runs of ``counts`` values, (r, s) bounds, each binned exactly as if alone.
    Returns a new array. Its (r, n) temporaries live in reused ``_buffer``s, but
    per-value bounds of a pass of values or fewer, which the heap recycles."""
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    rows = np.atleast_2d(values)
    step = (hi - lo) / bins
    if step.all():  # linspace's edges; it divides first where the step underflows
        edges = np.arange(bins + 1.0) * step + lo
    else:
        edges = np.array([np.linspace(a, b, bins + 1) for a, b in zip(lo[:, 0], hi[:, 0])])
    edges[:, -1] = np.inf  # the last bin includes the top edge
    lower = edges.ravel()  # and lower[1:] the upper edges
    # bounds r's edges start at r * (bins + 1); no value leaves its own, as
    # index 0 never steps down and the last bin never steps up
    offsets = np.arange(0, lo.size * (bins + 1), bins + 1)[:, None] if lo.size > 1 else 0
    guess = edge = _buffer("edges", rows.shape)
    down, up = _buffer("flags", (2, *rows.shape), bool)
    if lo.size > len(rows) and rows.size <= _PASS:  # a pass: the heap recycles the repeats
        lo, hi, offsets = (x.reshape(len(rows), -1).repeat(counts, 1) for x in (lo, hi, offsets))
    if lo.size > len(rows) and rows.size > _PASS:  # row p's values in run j: bounds p * s + j
        ids, bound = _buffer("bound_ids", rows.shape, np.intp), _buffer("bounds", rows.shape)
        for j, (a, b) in enumerate(itertools.pairwise(itertools.accumulate([0, *counts]))):
            ids[:, a:b] = np.arange(j, lo.size, len(counts))[:, None]
        np.subtract(rows, lo.take(ids, out=bound, mode="clip"), out=guess)
        guess /= (hi - lo).take(ids, out=bound, mode="clip")
        offsets = np.multiply(ids, bins + 1, out=ids)
    else:
        np.subtract(rows, lo, out=guess)
        guess /= hi - lo
    guess *= bins
    index = guess.astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    index += offsets
    # the arithmetic index can miss an edge by an ULP, and by more where edges
    # repeat; "clip" takes write straight into out= (every index is in range)
    while True:
        np.less(rows, lower.take(index, out=edge, mode="clip"), out=down)
        np.greater_equal(rows, lower[1:].take(index, out=edge, mode="clip"), out=up)
        if not (down.any() or up.any()):
            index -= offsets
            return index.reshape(values.shape)
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
    fixed, moving, mask = _image_mask(fixed, moving, mask)
    fvals, mvals = fixed[mask], moving[mask]
    if fvals.size == 0:
        raise ValueError("no overlap: empty mask")
    fmin, fmax = float(fvals.min()), float(fvals.max())
    mmin, mmax = float(mvals.min()), float(mvals.max())
    if _degenerate(fmin, fmax, mmin, mmax):
        counts = np.zeros((bins, bins))
        counts[0, 0] = fvals.size
        return JointHistogram(counts=counts, total=float(fvals.size), degenerate=True)
    cell = _bin_index(fvals, fmin, fmax, bins) * bins
    cell += _bin_index(mvals, mmin, mmax, bins)
    counts = np.bincount(cell, minlength=bins * bins).reshape(bins, bins)
    return JointHistogram(counts=counts.astype(np.float64), total=float(fvals.size))


def _mi_bits(counts: np.ndarray, total) -> list[float]:
    """MI in bits of each (b, b) histogram of ``total`` samples (or (n, 1, 1) totals) in a
    stack of counts: ``np.sum``'s pairwise ``np.add.reduce`` over its own nonzero cells."""
    p = counts / total
    outer = np.add.reduce(p, 2)[:, :, None] * np.add.reduce(p, 1)[:, None, :]
    nz = p > 0
    cells = p[nz]
    terms = cells * np.log2(cells / outer[nz])
    stops = nz.reshape(len(p), -1).sum(1).cumsum().tolist()
    return [float(np.add.reduce(terms[a:b])) for a, b in zip([0] + stops, stops)]


def mutual_information(hist: JointHistogram) -> float:
    """MI in bits: sum p(l,k) log2[p(l,k) / (p_Z(k) p_N(l))], zero cells skipped."""
    return 0.0 if hist.degenerate else _mi_bits(hist.counts[None], hist.total)[0]


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
    a, b, mask = _image_mask(a, b, mask)
    dx, dy = a[mask], b[mask]  # new arrays, centered in place
    if dx.size < 2:
        raise ValueError("need at least 2 masked pixels for correlation")
    if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
        raise ValueError("non-finite intensities in the overlap")
    dx -= dx.mean()
    dy -= dy.mean()
    denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
    if denom == 0:
        raise ValueError("undefined correlation: zero variance over the mask")
    r = float(np.sum(dx * dy) / denom)
    return min(1.0, max(-1.0, r))

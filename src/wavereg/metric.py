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
with the top edge counted in the last bin. The public functions work on
fresh masked copies; only ``_bin_index`` and ``_mi_bits`` keep temporaries
in the per-thread arena (``transform._buffer``). One ``np.bincount`` fills
the joint histogram. MI is H(F) + H(M) - H(F, M) from the integer counts,
one ``np.add.reduce`` per histogram of a stack, clamped at 0: never below 0
and never -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imageio import _image_mask
from .optimizer import _check_integers
from .transform import _buffer


@dataclass
class JointHistogram:
    counts: np.ndarray  # [fixed_bin, moving_bin]
    total: float
    degenerate: bool = False


# a range within 16 eps of its magnitude is flat: bilinear warping leaves a
# constant region up to about 2.5 eps of rounding spread
_FLAT_TOL = 16 * np.finfo(np.float64).eps


def _degenerate(fmin, fmax, mmin, mmax):
    """Whether either masked range is flat, element by element for arrays of
    bounds; ValueError if a bound is not finite."""
    if not np.isfinite([fmin, fmax, mmin, mmax]).all():
        raise ValueError("non-finite intensities in the overlap")
    return ((fmax - fmin <= _FLAT_TOL * np.maximum(-fmin, fmax))
            | (mmax - mmin <= _FLAT_TOL * np.maximum(-mmin, mmax)))


def _bin_index(values, lo, hi, bins: int, counts=None, out=None, start=0) -> np.ndarray:
    """Index of the ``linspace(lo, hi, bins + 1)`` bin holding each value in
    [lo, hi]: the last edge not above it, the top edge in the last bin.
    ``values`` is one row with scalar bounds, or (r, n) rows with (r,) or, in
    runs of ``counts`` values, (r, s) bounds, each binned exactly as if alone.
    Returns a new array, or ``out``; its arena temporaries start at ``start``."""
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
    offsets = np.arange(0, lo.size * (bins + 1), bins + 1)[:, None]
    if lo.size > len(rows):  # row p's run j: bounds p * s + j, repeated over the run
        per = np.repeat(np.reshape([lo, hi - lo], (2, len(rows), -1)), counts, 2)
        offsets = np.repeat(offsets.reshape(len(rows), -1), counts, 1)
        guess, span = np.subtract(rows, per[0], out=per[0]), per[1]
    else:
        guess, span = np.subtract(rows, lo, out=_buffer(rows.shape, start=start)), hi - lo
    guess /= span
    edge, (down, up) = guess, _buffer((2, *rows.shape), bool, start + guess.nbytes)
    index = np.empty(rows.shape, np.intp) if out is None else out.reshape(rows.shape)
    guess *= bins
    np.copyto(index, guess, casting="unsafe")  # truncated, as astype
    np.minimum(index, bins - 1, out=index)
    if lo.size > 1:  # one row of bounds has offset 0: no pass adds it
        index += offsets
    # the arithmetic index can miss an edge by an ULP, and by more where edges
    # repeat; "clip" takes write straight into out= (every index is in range)
    while True:
        np.less(rows, lower.take(index, out=edge, mode="clip"), out=down)
        np.greater_equal(rows, lower[1:].take(index, out=edge, mode="clip"), out=up)
        if not (down.any() or up.any()):
            if lo.size > 1:
                index -= offsets
            return index.reshape(values.shape)
        index -= down
        index += up


MAX_HISTOGRAM_BINS = 1024  # a joint histogram holds bins * bins counts: 8 MiB here


def _check_bins(bins) -> None:
    _check_integers(2, histogram_bins=bins)
    if bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"histogram_bins must be >= 2 and <= {MAX_HISTOGRAM_BINS}, got {bins}")


def joint_histogram(fixed: np.ndarray, moving: np.ndarray, mask: np.ndarray,
                    bins: int = 50) -> JointHistogram:
    """Joint intensity histogram of the masked overlap, from fresh masked copies."""
    _check_bins(bins)
    fixed, moving, mask = _image_mask(fixed, moving, mask)
    total = np.count_nonzero(mask)
    if total == 0:
        raise ValueError("no overlap: empty mask")
    ranges = [[float(f.reduce(x, None, where=mask, initial=i)) for f, i in
               ((np.minimum, np.inf), (np.maximum, -np.inf))] for x in (fixed, moving)]
    degenerate = _degenerate(*ranges[0], *ranges[1])  # raises first on a non-finite bound
    for name, (lo, hi) in zip(("fixed", "moving"), ranges):
        if math.isinf(hi - lo):
            raise ValueError(f"{name} intensity range [{lo:.6g}, {hi:.6g}] overflows float64")
    if degenerate:
        counts = np.zeros((bins, bins))
        counts[0, 0] = total
        return JointHistogram(counts=counts, total=float(total), degenerate=True)
    cell, index = (_bin_index(x[mask], lo, hi, bins) for x, (lo, hi) in zip((fixed, moving), ranges))
    counts = np.bincount(cell * bins + index, minlength=bins * bins)
    return JointHistogram(counts=counts.reshape(bins, bins).astype(np.float64), total=float(total))


def _mi_bits(counts: np.ndarray, total) -> np.ndarray:
    """MI in bits (>= 0) of each histogram in an (n, b, b) stack of counts of ``total`` (or
    (n,)) samples: log2 n + (sum c log2 c over the cells - over the row and column sums) / n.
    Its temporaries fill the arena from byte 0, so neither argument may live there."""
    n, b = len(counts), counts.shape[-1]
    c, terms = _buffer((2, n, b * b + 2 * b))  # the cells, then the row and column sums
    cells = c[:, :b * b].reshape(n, b, b)
    np.copyto(cells, counts)
    np.einsum("nij->ni", cells, out=c[:, b * b:-b])  # integers below 2**53: exact in any order
    np.einsum("nij->nj", cells, out=c[:, -b:])
    np.log2(np.maximum(c, 1.0, out=terms), out=terms)  # an empty cell adds 0 * log2 1
    terms *= c
    terms[:, b * b:] *= -1
    return np.maximum(np.add.reduce(terms, 1) / total + np.log2(total), 0.0)


def mutual_information(hist: JointHistogram) -> float:
    """MI in bits, H(F) + H(M) - H(F, M) of the counts; 0.0 for a degenerate histogram."""
    return 0.0 if hist.degenerate else float(_mi_bits(hist.counts[None], hist.total)[0])


def mi_between(fixed: np.ndarray, moving: np.ndarray, mask: np.ndarray, bins: int = 50) -> float:
    """Convenience: joint histogram then MI."""
    return mutual_information(joint_histogram(fixed, moving, mask, bins))


def correlation_coefficient(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """Pearson r of two images' masked intensities, ``np.sum``s over fresh masked copies."""
    a, b, mask = _image_mask(a, b, mask)
    dx, dy = a[mask], b[mask]
    if dx.size < 2:
        raise ValueError("need at least 2 masked pixels for correlation")
    for d in (dx, dy):
        top = np.abs(d).max()
        if not np.isfinite(top):
            raise ValueError("non-finite intensities in the overlap")
        np.ldexp(d, -np.frexp(top)[1], out=d)  # a power of two (exact): no sum overflows
        d -= d.mean()
    denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
    if denom == 0:
        raise ValueError("undefined correlation: zero variance over the mask")
    r = float(np.sum(dx * dy) / denom)
    return min(1.0, max(-1.0, r))

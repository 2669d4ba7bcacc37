"""Joint histogram, mutual information and correlation tests."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from wavereg.metric import (
    _FLAT_TOL,
    JointHistogram,
    _bin_index,
    _degenerate,
    _mi_bits,
    correlation_coefficient,
    joint_histogram,
    mi_between,
    mutual_information,
)
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg import transform
from wavereg.transform import AffineParams, invert_params, warp


def _diag_hist(n):
    counts = np.eye(n) * 10.0
    return JointHistogram(counts=counts, total=float(counts.sum()))


def test_identical_images_diagonal_histogram():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    h = joint_histogram(img, img, np.ones((2, 2), bool), bins=4)
    assert np.array_equal(h.counts, np.eye(4))
    assert h.total == 4.0


def test_independent_pair_uniform_histogram():
    fixed = np.array([[0.0, 0.0, 1.0, 1.0]])
    moving = np.array([[0.0, 1.0, 0.0, 1.0]])
    h = joint_histogram(fixed, moving, np.ones((1, 4), bool), bins=2)
    assert np.array_equal(h.counts, np.ones((2, 2)))


def test_mask_excludes_pixels():
    img = np.arange(16.0).reshape(4, 4)
    mask = np.zeros((4, 4), bool)
    mask[:2] = True
    h = joint_histogram(img, img, mask)
    assert h.total == 8.0


def test_empty_mask_raises():
    img = np.zeros((4, 4))
    with pytest.raises(ValueError, match="no overlap"):
        joint_histogram(img, img, np.zeros((4, 4), bool))


def test_top_edge_inclusive():
    img = np.array([[0.0, 10.0]])
    h = joint_histogram(img, img, np.ones((1, 2), bool), bins=2)
    assert h.counts[1, 1] == 1.0
    assert h.total == 2.0


def test_mi_diagonal_bits():
    assert mutual_information(_diag_hist(2)) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information(_diag_hist(4)) == pytest.approx(2.0, abs=1e-12)
    assert mutual_information(_diag_hist(8)) == pytest.approx(3.0, abs=1e-12)


def test_mi_independent_zero():
    h = JointHistogram(counts=np.ones((2, 2)), total=4.0)
    assert mutual_information(h) == pytest.approx(0.0, abs=1e-12)


def test_mi_degenerate_constant_image():
    const = np.full((8, 8), 3.0)
    other = np.random.default_rng(0).uniform(0, 1, (8, 8))
    assert mi_between(const, other, np.ones((8, 8), bool)) == 0.0


def test_mi_symmetry_and_bounds():
    rng = np.random.default_rng(4)
    bins = 16
    mask = np.ones((32, 32), bool)
    for _ in range(20):
        a = rng.uniform(0, 255, (32, 32))
        b = rng.uniform(0, 255, (32, 32))
        ab = mi_between(a, b, mask, bins)
        ba = mi_between(b, a, mask, bins)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab >= -1e-12
        # MI is bounded by each marginal entropy
        ha = joint_histogram(a, a, mask, bins)
        entropy = mutual_information(ha)
        assert mi_between(a, b, mask, bins) <= entropy + 1e-9


def test_mi_relabel_invariance():
    # monotone intensity remapping preserves hard-binned MI when the bin
    # populations are preserved; use equi-frequent integer labels
    rng = np.random.default_rng(9)
    a = rng.integers(0, 8, (64, 64)).astype(float)
    b = rng.integers(0, 8, (64, 64)).astype(float)
    mask = np.ones((64, 64), bool)
    bins = 8
    base = mi_between(a, b, mask, bins)
    relabeled = mi_between(2.0 * a + 5.0, b, mask, bins)
    assert relabeled == pytest.approx(base, abs=1e-12)


def test_mi_self_is_entropy():
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, (32, 32))
    mask = np.ones((32, 32), bool)
    h = joint_histogram(img, img, mask)
    p = h.counts.sum(axis=1) / h.total
    p = p[p > 0]
    entropy = float(-(p * np.log2(p)).sum())
    assert mi_between(img, img, mask) == pytest.approx(entropy, abs=1e-9)


@pytest.mark.parametrize("pattern", ["phantom_ellipses", "noise_smoothed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mi_peaks_at_the_recovery_of_a_folded_pair(pattern, seed):
    """A fold |2x - (lo + hi)| is not monotone, so Pearson's r barely sees it
    (|r| at the recovery reads 0.18-0.65 on these pairs, so it is not pinned),
    while MI at the recovery beats MI 2 px off: 2.15 against 1.75 bits on the
    phantom and 2.04-2.27 against 0.17-0.24 bits on the noise pattern."""
    fixed = generate_pair(FixtureSpec(base_pattern=pattern, size=128, seed=seed))[0]
    folded = np.abs(2 * fixed - (fixed.min() + fixed.max()))
    truth = AffineParams(tx=4, ty=-3, theta=math.radians(5))
    moving = warp(folded, truth)[0]
    noise = np.random.default_rng(seed).normal(0, 0.01 * 255, moving.shape)
    moving = np.clip(moving + noise, 0, None)
    recovery = invert_params(truth)
    at_truth, off = (mi_between(fixed, *warp(moving, params))
                     for params in (recovery, replace(recovery, tx=recovery.tx + 2)))
    assert at_truth > off


def _nonzero_cell_mi(counts, total):
    """The oracle: MI of one histogram as the sum of p log2(p / (p_row p_col))
    over its nonzero cells."""
    p = counts / total
    outer = np.outer(p.sum(1), p.sum(0))
    nz = p > 0
    return float(np.sum(p[nz] * np.log2(p[nz] / outer[nz])))


def _random_histograms(rng):
    """(b, counts) stacks of 2 to 64 bins, sparse to full, with single-cell
    histograms, empty rows and columns, and totals up to 2**20."""
    for b in (2, 3, 4, 7, 8, 16, 25, 32, 50, 64):
        for n in (1, 5):
            dense = rng.multinomial(int(rng.integers(1, 2 ** 20 + 1)),
                                    rng.dirichlet(np.full(b * b, 0.3)), size=n)
            stack = dense.reshape(n, b, b)
            stack[:, rng.integers(b)] = 0  # an empty row
            stack[:, :, rng.integers(b)] = 0  # and column
            stack[0, rng.integers(b), rng.integers(b)] += 1  # no histogram is empty
            yield b, stack
        single = np.zeros((3, b, b), np.int64)
        single[np.arange(3), rng.integers(b, size=3), rng.integers(b, size=3)] = [1, 7, 2 ** 20]
        yield b, single
        sparse = rng.multinomial(int(rng.integers(1, 40)), np.full(b * b, 1.0 / (b * b)), size=4)
        yield b, sparse.reshape(4, b, b)


def test_mi_bits_matches_the_nonzero_cell_formula():
    """MI from counts, log2 n + (sum c log2 c - the margins' sums) / n, agrees
    within 1e-12 bits with the nonzero-cell formula, and is never -0.0."""
    rng = np.random.default_rng(33)
    for b, stack in _random_histograms(rng):
        totals = stack.sum((1, 2))
        got = _mi_bits(stack, totals)
        expected = [_nonzero_cell_mi(h, t) for h, t in zip(stack, totals)]
        assert got == pytest.approx(expected, rel=0, abs=1e-12), b
        assert all(math.copysign(1.0, v) == 1.0 for v in got.tolist())


def test_mi_bits_batched_row_is_its_lone_call():
    """A histogram's MI in a stack is its lone call's bit for bit, from int64 or
    float64 counts alike, so the objective's batched sum equals ``mi_between``."""
    rng = np.random.default_rng(34)
    for _, stack in _random_histograms(rng):
        totals = stack.sum((1, 2))
        batched = _mi_bits(stack, totals).tolist()
        lone = [mutual_information(JointHistogram(counts=h.astype(np.float64), total=float(t)))
                for h, t in zip(stack, totals)]
        assert [v.hex() for v in batched] == [v.hex() for v in lone]
        assert _mi_bits(stack.astype(np.float64), totals).tolist() == batched


def test_mi_of_independent_histograms_is_not_negative():
    """An outer product of two margins is exactly independent: its MI is 0 and
    reads >= 0, never -0.0 (the nonzero-cell formula read below 0 on 771 of these,
    down to -4.1e-16, which a check on final MI counts as a failed result)."""
    rng = np.random.default_rng(35)
    stacks = []
    for _ in range(2000):
        margins = rng.integers(0, 40, size=(2, int(rng.integers(2, 33))))
        margins[:, 0] += 1  # no histogram is empty
        stacks.append(np.outer(*margins))
    values = [mutual_information(JointHistogram(counts=h.astype(np.float64), total=float(h.sum())))
              for h in stacks]
    assert min(values) >= 0.0
    assert all(math.copysign(1.0, v) == 1.0 for v in values)
    assert max(values) < 1e-12


def _random_samples(rng, kind, n, bins):
    """One of the value sets the binning must agree with ``histogram2d`` on."""
    if kind == "magnitude":  # 1e-8 .. 1e8, signed
        scale = 10.0 ** rng.uniform(-8, 8)
        return rng.uniform(0, 1, n) * scale, rng.normal(size=n) * scale
    if kind == "offset":  # tiny range on a huge value
        return 1e6 + rng.uniform(0, 1, n), -3e5 + rng.uniform(0, 1, n)
    if kind == "integer":
        return (rng.integers(0, 256, n).astype(float),
                rng.integers(0, 65536, n).astype(float))
    if kind == "on_edges":  # every sample on a linspace edge, both ends present
        out = []
        for _ in range(2):
            lo, hi = np.sort(rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3))
            edges = np.linspace(lo, hi, bins + 1)
            v = rng.choice(edges, n)
            v[:2] = lo, hi
            out.append(v)
        return tuple(out)
    # "ulp_range": a range of 1 to 40 ULPs, where linspace repeats edges and
    # the arithmetic index can be several bins off
    out = []
    for _ in range(2):
        lo = rng.uniform(-1e3, 1e3)
        hi = lo + int(rng.integers(1, 41)) * np.spacing(abs(lo))
        grid = np.concatenate([np.linspace(lo, hi, bins + 1),
                               np.linspace(lo, hi, int(rng.integers(2, 42)))])
        v = rng.choice(grid, n)
        v[:2] = lo, hi
        out.append(v)
    return tuple(out)


def _flat(v):
    """``joint_histogram``'s rule: a range within 16 eps of its largest
    magnitude is flat."""
    return v.max() - v.min() <= 16 * np.finfo(np.float64).eps * np.abs(v).max()


@pytest.mark.parametrize(
    "seed, kind", enumerate(["magnitude", "offset", "integer", "on_edges", "ulp_range"]))
def test_binning_matches_histogram2d(seed, kind):
    rng = np.random.default_rng(seed)
    for trial in range(300):
        if trial < 20:
            n = 2
        elif trial == 20:
            n = 32771  # a large overlap, binned in one call
        else:
            n = int(rng.integers(2, 500))
        bins = 2 + trial % 59  # 2 .. 60
        f, m = _random_samples(rng, kind, n, bins)
        if f.min() == f.max() or m.min() == m.max():
            continue  # a zero range has no bins
        h = joint_histogram(f[None], m[None], np.ones((1, n), bool), bins=bins)
        oracle, _, _ = np.histogram2d(
            f, m, bins=bins, range=[[f.min(), f.max()], [m.min(), m.max()]])
        if _flat(f) or _flat(m):
            # joint_histogram does not bin a flat range, but the binning
            # itself must still agree with histogram2d on it
            assert h.degenerate
            cell = _bin_index(f, f.min(), f.max(), bins) * bins
            cell += _bin_index(m, m.min(), m.max(), bins)
            assert np.array_equal(np.bincount(cell, minlength=bins * bins),
                                  oracle.ravel()), (kind, trial, n, bins)
            continue
        assert h.counts.dtype == oracle.dtype
        assert np.array_equal(h.counts, oracle), (kind, trial, n, bins)
        assert h.total == n
        # the row form bins each row over its own range as a 1-D call does;
        # two extra rows span 1 to 40 ULPs, and a subnormal range makes
        # linspace's step underflow to 0
        extra = _random_samples(np.random.default_rng([seed, trial]), "ulp_range", n, bins)
        subnormal = np.arange(n) % 11 * 5e-324
        rows = np.stack([f, m, *extra, subnormal])
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        alone = [_bin_index(r, a, b, bins) for r, a, b in zip(rows, lo, hi)]
        assert np.array_equal(_bin_index(rows, lo, hi, bins), alone), (kind, trial)
        assert np.array_equal(_bin_index(rows[:-1], lo[:-1], hi[:-1], bins), alone[:-1])
        edges = np.linspace(lo[-1], hi[-1], bins + 1)
        assert np.array_equal(alone[-1], np.searchsorted(edges[1:-1], subnormal, "right"))
        # the per-run form: the rows cut into 1 to 16 runs (a small level's
        # look-ahead batch), each with its own (r, s) bounds (a one-value
        # range widened), bins each run as a call on it alone; trial 20's
        # 5 x 32771 values are more than one 4,096-value pass, the others' fewer
        cut_rng = np.random.default_rng([seed, trial, 1])
        cuts = np.sort(cut_rng.choice(np.arange(1, n), min(trial % 16, n - 1), replace=False))
        parts = np.split(rows, cuts, axis=1)
        run_lo = np.stack([part.min(axis=1) for part in parts], axis=1)
        run_hi = np.stack([part.max(axis=1) for part in parts], axis=1)
        run_hi = np.where(run_hi > run_lo, run_hi, run_lo + 1.0)
        by_run = _bin_index(rows, run_lo, run_hi, bins, [part.shape[1] for part in parts])
        kept = by_run.copy()
        # calls of other sizes reuse the memory, but never the index returned
        per_run = [_bin_index(part, a, b, bins) for part, a, b in zip(parts, run_lo.T, run_hi.T)]
        assert by_run.tobytes() == np.concatenate(per_run, axis=1).tobytes(), (kind, trial)
        assert by_run.tobytes() == kept.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_range_raises(bad):
    img = np.arange(16.0).reshape(4, 4)
    other = img.copy()
    other[1, 2] = bad
    mask = np.ones((4, 4), bool)
    with pytest.raises(ValueError, match="non-finite"):
        joint_histogram(img, other, mask)
    with pytest.raises(ValueError, match="non-finite"):
        joint_histogram(other, img, mask)
    mask[1, 2] = False
    assert joint_histogram(img, other, mask).total == 15.0


def test_overflowing_range_raises():
    # max - min of these finite values is inf; binning used to fail inside
    # np.bincount on negative indices, or give MI 0 on the self-pair
    huge = np.array([[-1.0, 0.5], [0.9, 0.1]]) * 1.7e308
    img = np.arange(4.0).reshape(2, 2)
    mask = np.ones((2, 2), bool)
    for fixed, moving, which in ((huge, img, "fixed"), (img, huge, "moving"), (huge, huge, "fixed")):
        for metric in (joint_histogram, mi_between):
            with pytest.raises(ValueError, match=f"{which} intensity range .* overflows float64"):
                metric(fixed, moving, mask)


def test_metric_config_validation():
    img = np.arange(16.0).reshape(4, 4)
    mask = np.ones((4, 4), bool)
    for bins in (1, 0):
        with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
            joint_histogram(img, img, mask, bins=bins)
        with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
            mi_between(img, img, mask, bins=bins)
    # the config's bound, which a direct call used to pass: np.bincount was
    # asked for bins * bins counts
    with pytest.raises(ValueError, match="histogram_bins must be >= 2 and <= 1024, got 1025"):
        mi_between(img, img, mask, bins=1025)
    mi_between(img, img, mask, bins=1024)
    # a non-integer count used to die in _bin_index with a UFuncTypeError
    for call in (joint_histogram, mi_between):
        with pytest.raises(ValueError, match=r"^histogram_bins must be an integer, got 20\.5$"):
            call(img, img, mask, bins=20.5)
        # a bool is a numbers.Integral, and bins=True read "must be >= 2"
        with pytest.raises(ValueError, match=r"^histogram_bins must be an integer, got True$"):
            call(img, img, mask, bins=True)


@pytest.mark.parametrize("value", [0.5, 117.0, 1e-3, -3.25, 1e6])
def test_warped_constant_is_degenerate(value):
    """A bilinearly warped constant keeps a few ULPs of spread; that is
    rounding, so the histogram is degenerate and the MI 0, on either side."""
    flat, mask = warp(np.full((64, 64), value), AffineParams(theta=0.3))
    spread = flat[mask].max() - flat[mask].min()
    assert 0 < spread <= 3 * np.finfo(np.float64).eps * abs(value)
    other = np.random.default_rng(1).uniform(0, 255, (64, 64))
    for h in (joint_histogram(flat, other, mask), joint_histogram(other, flat, mask)):
        assert h.degenerate and mutual_information(h) == 0.0
        assert h.total == np.count_nonzero(mask)
    # a relative spread of 1e-12 is structure, and is binned
    other[mask] = value * (1 + 1e-12 * np.linspace(0, 1, np.count_nonzero(mask)))
    assert not joint_histogram(other, other, mask).degenerate


def test_cc_canonical_cases():
    mask = np.ones((2, 2), bool)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert correlation_coefficient(a, a, mask) == pytest.approx(1.0, abs=1e-9)
    assert correlation_coefficient(a, -a, mask) == pytest.approx(-1.0, abs=1e-9)
    assert correlation_coefficient(a, 2.0 * a, mask) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1e200, 4e307])
def test_cc_large_magnitude(scale):
    # the sums of squares and the mean's sum used to overflow, and the
    # clamp turned their NaN into -1.0 for both pairs
    mask = np.ones((2, 2), bool)
    a = np.array([[1.0, 2.0], [3.0, 4.0]]) * scale
    assert correlation_coefficient(a, a, mask) == pytest.approx(1.0, abs=1e-9)
    assert correlation_coefficient(a, -a, mask) == pytest.approx(-1.0, abs=1e-9)


def test_cc_zero_variance_raises():
    mask = np.ones((2, 2), bool)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="undefined correlation"):
        correlation_coefficient(a, np.full((2, 2), 5.0), mask)


def test_cc_needs_two_pixels():
    mask = np.zeros((2, 2), bool)
    mask[0, 0] = True
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        correlation_coefficient(a, a, mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cc_non_finite_masked_value_raises(bad):
    """A NaN or infinite masked value fails as in ``mi_between``; it is not
    clamped into -1.0, "perfect anticorrelation". Masked out, it is ignored."""
    mask = np.ones((2, 2), bool)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = a.copy()
    b[1, 1] = bad
    for x, y in ((a, b), (b, a)):
        for metric in (correlation_coefficient, mi_between):
            with pytest.raises(ValueError, match="non-finite intensities in the overlap"):
                metric(x, y, mask)
    mask[1, 1] = False
    assert correlation_coefficient(a, b, mask) == pytest.approx(1.0, abs=1e-9)


def test_cc_clipped_to_unit_interval():
    rng = np.random.default_rng(17)
    mask = np.ones((16, 16), bool)
    for _ in range(50):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        r = correlation_coefficient(a, b, mask)
        assert -1.0 <= r <= 1.0


def test_degenerate_of_arrays_is_the_scalar_rule_element_by_element():
    """``_degenerate`` on arrays of bounds flags each element as the rule does
    for Python floats: on signed zeros, ties, ranges exactly at ``_FLAT_TOL``
    of their magnitude and just above it; a non-finite bound anywhere raises."""
    def scalar_rule(fmin, fmax, mmin, mmax):
        return (fmax - fmin <= _FLAT_TOL * max(-fmin, fmax)
                or mmax - mmin <= _FLAT_TOL * max(-mmin, mmax))

    at = 2.0 ** 40 * _FLAT_TOL  # a range of 2**40 exactly at the tolerance of 2**40
    values = [-0.0, 0.0, 1.0, -1.0, 2.0 ** 40, 2.0 ** 40 - at, 2.0 ** 40 + at,
              np.nextafter(2.0 ** 40 + at, np.inf), -(2.0 ** 40), 1e300, -1e300]
    assert scalar_rule(2.0 ** 40 - at, 2.0 ** 40, 0.0, 1.0)
    assert not scalar_rule(2.0 ** 40, np.nextafter(2.0 ** 40 + at, np.inf), 0.0, 1.0)
    grid = np.array(np.meshgrid(values, values, values, values)).reshape(4, -1)
    flat = _degenerate(*grid)
    assert flat.shape == grid.shape[1:] and flat.dtype == bool
    assert flat.tolist() == [scalar_rule(*bounds) for bounds in grid.T.tolist()]
    assert flat.tolist() == [bool(_degenerate(*bounds)) for bounds in grid.T.tolist()]
    assert flat.any() and not flat.all()
    for position in range(4):
        for bad in (np.nan, np.inf, -np.inf):
            broken = grid.reshape(4, 11, -1).copy()
            broken[position, 3, 5] = bad
            with pytest.raises(ValueError, match="non-finite intensities"):
                _degenerate(*broken)
            with pytest.raises(ValueError, match="non-finite intensities"):
                _degenerate(*broken[:, 3, 5].tolist())


def _fresh_copy_correlation(a, b, mask):
    """Pearson r from fresh masked copies, written out without the refusals."""
    dx, dy = a[mask], b[mask]
    for d in (dx, dy):
        np.ldexp(d, -np.frexp(np.abs(d).max())[1], out=d)
        d -= d.mean()
    r = float(np.sum(dx * dy) / (np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))))
    return min(1.0, max(-1.0, r))


def test_repeated_correlation_allocates_under_three_copies_of_the_overlap():
    """After one warm call on a 256x256 pair, a repeated ``correlation_coefficient``
    call peaks under three float64 copies of the masked overlap plus 64 KiB of
    traced memory: its two masked copies and one product (1,561,944 bytes over
    65,025 masked pixels), and it returns the bits of fresh copies."""
    rng = np.random.default_rng(5)
    fixed = rng.uniform(size=(256, 256))
    moving, mask = warp(rng.uniform(size=(256, 256)), AffineParams(tx=0.5, ty=-0.25))
    expected = correlation_coefficient(moving, fixed, mask)
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(3):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            value = correlation_coefficient(moving, fixed, mask)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert value.hex() == expected.hex() == _fresh_copy_correlation(moving, fixed, mask).hex()
    assert max(peaks) < 3 * 8 * np.count_nonzero(mask) + 64 * 1024


@pytest.mark.parametrize("shape", [(256, 256), (97, 131), (2, 3)])
def test_correlation_right_after_mi_between_has_the_bits_of_fresh_copies(shape):
    # mi_between leaves its binning temporaries in the arena; the correlation
    # that follows, of fresh masked copies, is unaffected bit for bit
    rng = np.random.default_rng(6)
    fixed = rng.normal(size=shape) * 1e150
    moving = 3.0 - 2.0 * fixed + rng.uniform(-1e149, 1e149, size=shape)
    mask = rng.uniform(size=shape) < 0.8
    mask.flat[:2] = True
    mi_between(fixed, moving, mask)
    assert correlation_coefficient(moving, fixed, mask).hex() == \
        _fresh_copy_correlation(moving, fixed, mask).hex()


def test_repeated_mi_between_allocates_under_three_copies_of_the_overlap():
    """After one warm call on a 256x256 pair, a repeated ``mi_between`` call
    peaks under three float64-sized copies of the masked overlap plus 64 KiB of
    traced memory, as no more than three of the masked pixels, the two bin
    indices and their cells are alive at once (1,512,752 bytes over 62,149
    masked pixels), and it returns the same bits."""
    rng = np.random.default_rng(4)
    fixed = rng.uniform(size=(256, 256))
    moving, mask = warp(rng.uniform(size=(256, 256)), AffineParams(tx=3.5, ty=-2.0, theta=0.1))
    expected = mi_between(fixed, moving, mask)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = mi_between(fixed, moving, mask)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert value.hex() == expected.hex()
    assert peak < 3 * 8 * np.count_nonzero(mask) + 64 * 1024


def test_final_metrics_leave_the_arena_as_a_warp_laid_it_out():
    """In a fresh thread, whose arena starts empty, a 256x256 warp lays out the
    arena at 1,792 KiB; ``mi_between`` and ``correlation_coefficient`` on 256x256
    images then leave its size as it was."""
    def run():
        rng = np.random.default_rng(8)
        fixed = rng.uniform(size=(256, 256))
        moving, mask = warp(rng.uniform(size=(256, 256)), AffineParams(tx=1.5, theta=0.05))
        before = transform._local.arena.size
        mi_between(fixed, moving, mask)
        correlation_coefficient(moving, fixed, mask)
        return before, transform._local.arena.size

    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(run).result() == (1792 * 1024, 1792 * 1024)

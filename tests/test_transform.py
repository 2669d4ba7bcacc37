"""Affine parameterization, center-adjusted matrices and warping tests."""

import json
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from wavereg import AffineParams, invert_params, transform
from wavereg.imageio import save_json
from wavereg.transform import (
    _center_adjusted,
    image_center,
    params_to_dict,
    resample,
    scale_params_between_levels,
    warp,
)


ORIGIN = (0.0, 0.0)


def _linear_part(params):
    """Rotation * Skew * Scaling, written out one matrix at a time."""
    c, s = np.cos(params.theta), np.sin(params.theta)
    sx, sy, k = params.sx, params.sy, params.k
    return np.array([[sx * c, sy * (k * c - s)], [sx * s, sy * (k * s + c)]])


def _homogeneous(params, center):
    """The 3x3 matrix H of ``params`` about ``center``: ``_center_adjusted``'s
    two rows over (0, 0, 1)."""
    return np.vstack((_center_adjusted(params.as_vector(), center)[0], (0.0, 0.0, 1.0)))


def _matrix(params):
    """Translation * rotation * skew * scaling: the matrix about the origin."""
    return _homogeneous(params, ORIGIN)


def test_identity_matrix():
    assert np.array_equal(_matrix(AffineParams()), np.eye(3))


def test_pure_translation_matrix():
    m = _matrix(AffineParams(tx=3, ty=-2))
    expected = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(m, expected)


def test_quarter_turn_linear_block():
    m = _matrix(AffineParams(theta=math.pi / 2))
    assert np.allclose(m[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_nonpositive_scale_rejected():
    with pytest.raises(ValueError, match="scales must be positive"):
        _matrix(AffineParams(sx=0.0))
    with pytest.raises(ValueError, match="scales must be positive"):
        _matrix(AffineParams(sy=-1.0))


def test_center_adjusted_identity_any_center():
    assert np.array_equal(_homogeneous(AffineParams(), (17.0, -4.0)), np.eye(3))


def test_center_adjusted_translation_center_free():
    p = AffineParams(tx=5, ty=1)
    assert np.allclose(_homogeneous(p, (10.0, 10.0)), _matrix(p))


def test_center_adjusted_quarter_turn():
    m = _homogeneous(AffineParams(theta=math.pi / 2), (10.0, 10.0))
    assert np.allclose(m[:2, 2], [20.0, 0.0], atol=1e-12)
    # x' = -(y - 10) + 10, y' = (x - 10) + 10
    assert np.allclose(m @ [10.0, 10.0, 1.0], [10.0, 10.0, 1.0], atol=1e-12)
    assert np.allclose(m @ [12.0, 10.0, 1.0], [10.0, 12.0, 1.0], atol=1e-12)


def test_invert_params_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = AffineParams(
            tx=rng.uniform(-20, 20), ty=rng.uniform(-20, 20),
            theta=rng.uniform(-1.2, 1.2), sx=rng.uniform(0.5, 2.0),
            sy=rng.uniform(0.5, 2.0), k=rng.uniform(-0.5, 0.5),
        )
        q = invert_params(p)
        prod = _matrix(p) @ _matrix(q)
        assert np.abs(prod - np.eye(3)).max() < 1e-9
        assert q.sx > 0 and q.sy > 0


def test_invert_params_translation():
    q = invert_params(AffineParams(tx=3, ty=-2))
    assert (q.tx, q.ty, q.theta, q.sx, q.sy, q.k) == (-3.0, 2.0, 0.0, 1.0, 1.0, 0.0)


def test_invert_params_singular_linear_part():
    # positive scales whose product underflows leave a zero determinant
    with pytest.raises(ValueError, match="singular"):
        invert_params(AffineParams(sx=1e-200, sy=1e-200))


@pytest.mark.parametrize("params", [AffineParams(sx=1e-320), AffineParams(tx=1e10, sx=1e-300)],
                         ids=["reciprocal-overflows", "translation-overflows"])
def test_invert_params_refuses_a_non_finite_inverse(params):
    # a determinant of 1e-320 is not 0, but 1 / det overflowed with a
    # RuntimeWarning into an inverse of inf and NaN, which synth wrote into
    # truth.json; with det 1e-300 the inverse translation overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^singular affine matrix$"):
            invert_params(params)


@pytest.mark.parametrize("field, value", [("theta", math.nan), ("tx", math.inf), ("sx", math.nan),
                                          ("sy", -math.inf), ("k", math.nan)])
def test_invert_params_names_a_non_finite_parameter(field, value):
    # theta=nan was called a "singular affine matrix", and sy=-inf "scales
    # must be positive"; a finite singular input keeps the first message
    # (test_invert_params_refuses_a_non_finite_inverse)
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
        invert_params(replace(AffineParams(), **{field: value}))


@pytest.mark.parametrize("field, value", [("theta", math.nan), ("tx", math.inf), ("sx", math.nan),
                                          ("sy", -math.inf), ("k", math.inf)])
def test_warp_names_a_non_finite_parameter(field, value):
    # theta=nan, tx=inf and sx=nan warped to all zeros under an empty mask
    # without an error, and k=inf did so with RuntimeWarnings
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
        warp(np.ones((8, 8)), replace(AffineParams(), **{field: value}))


def test_scale_params_between_levels():
    p = AffineParams(tx=1.5, ty=-2, theta=0.3, sx=1.1, sy=0.9, k=0.05)
    q = scale_params_between_levels(p)
    assert (q.tx, q.ty) == (3.0, -4.0)
    assert (q.theta, q.sx, q.sy, q.k) == (p.theta, p.sx, p.sy, p.k)
    assert scale_params_between_levels(AffineParams()) == AffineParams()


def test_image_center():
    assert image_center(np.zeros((21, 31))) == (15.0, 10.0)
    assert image_center(np.zeros((2, 2))) == (0.5, 0.5)
    assert image_center(np.zeros((4, 21, 31))) == (15.0, 10.0)


def test_warp_identity():
    img = np.random.default_rng(2).uniform(0, 255, (16, 16))
    out, mask = warp(img, AffineParams())
    assert np.allclose(out, img)
    assert mask.all()


def test_warp_positive_tx_shifts_content_left():
    # positive tx moves image content toward smaller x; the 5 rightmost
    # columns lose bilinear support and are masked out
    img = np.tile(np.arange(16.0), (16, 1))
    out, mask = warp(img, AffineParams(tx=5))
    assert np.allclose(out[:, :11], img[:, 5:])
    assert mask[:, :11].all()
    assert not mask[:, 11:].any()
    assert np.all(out[:, 11:] == 0.0)


def test_warp_quarter_turn_matches_permutation():
    # symmetric odd-sized cross so the rotation is an exact pixel permutation
    img = np.zeros((17, 17))
    img[8, 2:15] = 100.0
    img[2:15, 8] = 50.0
    img[8, 8] = 200.0
    img[8, 3] = 77.0  # break the symmetry so the test can see direction
    out, mask = warp(img, AffineParams(theta=math.pi / 2))
    # out[y, x] = img[x, N-1-y]: exactly np.rot90 by one quarter turn
    oracle = np.rot90(img, 1)
    inner = mask
    assert inner.sum() > 100
    assert np.allclose(out[inner], oracle[inner], atol=1e-9)


def test_warp_fill_value():
    # pixels outside the mask are 0, whatever the plane holds
    img = np.full((16, 16), -1.0)
    out, mask = warp(img, AffineParams(tx=4))
    assert mask.any() and not mask.all()
    assert np.all(out[~mask] == 0.0) and np.all(out[mask] == -1.0)


def _reference_warp(moving, params):
    """Single-plane warp on a full ``mgrid``, kept as the oracle."""
    height, width = moving.shape
    m = _homogeneous(params, image_center(moving))
    ys, xs = np.mgrid[0:height, 0:width]
    src_x = m[0, 0] * xs + m[0, 1] * ys + m[0, 2]
    src_y = m[1, 0] * xs + m[1, 1] * ys + m[1, 2]
    mask = (src_x >= 0.0) & (src_x <= width - 1.0) & (src_y >= 0.0) & (src_y <= height - 1.0)
    out = map_coordinates(moving, [src_y, src_x], order=1, mode="constant")
    out[~mask] = 0.0
    return out, mask


def _about(params, center, image):
    """``params`` applied about ``center`` instead of the image center: the
    same linear part, with the pivot's move folded into the translation."""
    shift = np.subtract(center, image_center(image))
    t = np.array([params.tx, params.ty]) + shift - _linear_part(params) @ shift
    return replace(params, tx=float(t[0]), ty=float(t[1]))


@pytest.mark.parametrize("params, offset", [
    (AffineParams(tx=2.5, ty=-1.25, theta=0.3), 0.0),
    (AffineParams(theta=-0.2, k=0.15, sx=1.1, sy=0.9), -3.5),
    (AffineParams(tx=30.0, k=-0.4), 7.0),
])
def test_warp_stack_equals_separate_planes(params, offset):
    # ``offset`` moves the intensities away from 0, the value outside the mask
    stack = np.random.default_rng(8).normal(size=(4, 23, 31)) + offset
    for p in (params, _about(params, (10.0, 12.5), stack)):
        warped, mask = warp(stack, p)
        assert warped.shape == stack.shape
        assert mask.shape == stack.shape[1:]
        assert not mask.all()  # some output pixels lie outside the mask
        for plane, got in zip(stack, warped):
            alone, alone_mask = warp(plane, p)
            ref, ref_mask = _reference_warp(plane, p)
            assert got.tobytes() == alone.tobytes() == ref.tobytes()
            assert np.array_equal(mask, alone_mask) and np.array_equal(mask, ref_mask)
            assert np.all(got[~mask] == 0.0)


def _warp_cases(rng):
    """(stack, params) cases for the byte-exact warp test."""
    shapes = [(2, 2), (2, 3), (3, 2), (1, 5), (5, 1), (3, 4200), (700, 20)]
    shapes += [tuple(int(n) for n in rng.integers(2, 91, size=2)) for _ in range(120)]
    for i, (height, width) in enumerate(shapes):
        k = int(rng.integers(1, 5))
        kind = i % 5
        if kind == 0:
            stack = rng.normal(size=(k, height, width))
        elif kind == 1:  # signed zeros (-0.0 on odd cases) and one negative pixel
            stack = np.full((k, height, width), -0.0 if i % 2 else 0.0)
            stack[:, rng.integers(height), rng.integers(width)] = -1.0
        elif kind == 2:
            stack = rng.integers(-5, 6, size=(k, height, width)).astype(np.float64)
        else:
            stack = rng.normal(size=(k, height, width)) * (1e-6 if kind == 3 else 1e6)
        # one case in three turns about a random point instead of the center
        center = None if i % 3 else (rng.uniform(0, width), rng.uniform(0, height))
        move = i % 7
        if move == 0:  # integer shifts land exactly on the last row or column
            params = AffineParams(tx=float(rng.integers(-2, 3)), ty=float(rng.integers(-2, 3)))
        elif move == 1:  # half-pixel shift on one axis, integer on the other
            params = AffineParams(tx=rng.integers(-4, 5) / 2, ty=float(rng.integers(-2, 3)))
        elif move in (2, 3):
            params = AffineParams(
                tx=rng.uniform(-3, 3), ty=rng.uniform(-3, 3),
                theta=rng.uniform(-0.6, 0.6), sx=rng.uniform(0.7, 1.4),
                sy=rng.uniform(0.7, 1.4), k=rng.uniform(-0.3, 0.3),
            )
        elif move == 4:  # quarter turns put coordinates a rounding error off the grid
            params = AffineParams(theta=math.pi / 2 * int(rng.integers(1, 4)))
        else:
            # a strong shrink about the origin puts most coordinates in
            # [0, 1), where 1 - (1 - f) differs from the fraction f
            params = AffineParams(tx=rng.uniform(0, 0.5), ty=rng.uniform(0, 0.5),
                                  sx=rng.uniform(0.005, 0.05), sy=rng.uniform(0.005, 0.05))
            center = (0.0, 0.0)
        yield stack, params if center is None else _about(params, center, stack)
    yield rng.normal(size=(2, 9, 9)), AffineParams(tx=1000.0)  # empty mask
    # passes of 163,840 floats of temporaries, 4k + 6 a pixel: a plane over one
    # pass, an integer shift onto the last row and column of a 256x256 plane,
    # a row wider than a pass, and passes that end mid-plane, at 117 of 150
    # rows of two planes and at 74 of 100 rows of four
    yield rng.normal(size=(1, 150, 150)), AffineParams(tx=0.7, ty=-1.3, theta=0.1, k=0.05)
    yield rng.normal(size=(1, 256, 256)), AffineParams(tx=1.0, ty=2.0)
    yield rng.normal(size=(1, 1, 20_000)), AffineParams(tx=2.5)
    yield rng.normal(size=(2, 150, 100)), AffineParams(tx=-0.4, ty=0.3, sx=1.1, k=0.05)
    yield rng.normal(size=(4, 100, 100)), AffineParams(tx=0.6, ty=-0.2, theta=-0.05, sy=0.95)
    # signed planes, as sub-bands are: -0.0 and negative pixels, at an integer
    # shift (terms of weight 0 or 1, summed from +0.0) and a fractional one
    signed = rng.normal(size=(4, 24, 20))
    signed[rng.random(signed.shape) < 0.4] = -0.0
    yield signed, AffineParams(tx=2.0, ty=-1.0)
    yield signed, AffineParams(tx=0.25, ty=-0.75, theta=0.05)
    # one masked pixel half a pixel from its corners: its terms 1, 0, 2**-53
    # and 2**-53 sum to 1 in order, and to 1 + 2**-52 in the pairwise order
    # that einsum gives a lone pixel
    yield np.array([[[4.0, 0.0], [2.0**-51, 2.0**-51]]]), AffineParams(tx=0.5, ty=0.5)
    # a zero shift of a lone pixel, turned by pi about it (the origin): its
    # coordinates' products are -0.0 before the translation adds +0.0, and
    # it is a pass of one masked pixel
    yield rng.normal(size=(1, 1, 1)), AffineParams(theta=math.pi)


def test_warp_bytes_equal_map_coordinates():
    """``warp`` gives the same bytes as SciPy's order-1 ``map_coordinates``,
    signed zeros included, on every plane of every case."""
    rng = np.random.default_rng(2024)
    resampled = empty = 0
    for stack, params in _warp_cases(rng):
        planes = stack if len(stack) > 1 else stack[0]
        warped, mask = warp(planes, params)
        assert warped.shape == planes.shape
        resampled += len(stack) * np.count_nonzero(mask)
        empty += not mask.any()
        for plane, got in zip(stack, warped.reshape(stack.shape)):
            ref, ref_mask = _reference_warp(plane, params)
            assert got.tobytes() == ref.tobytes()
            assert np.array_equal(mask, ref_mask)
    assert resampled > 400_000 and empty >= 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(40, 40), (4, 20, 20)])
def test_warp_rejects_non_finite_planes(bad, shape):
    # resample reads a last-column pixel's second corner, of weight 0, from
    # the next row's first pixel, so one NaN at (11, 0) made (10, 39) NaN
    # under ty=-0.3 where map_coordinates gives a finite value
    planes = np.random.default_rng(5).random(shape)
    planes[..., 11, 0] = bad
    with pytest.raises(ValueError, match="moving image has non-finite pixels"):
        warp(planes, AffineParams(ty=-0.3))


@pytest.mark.parametrize("shape", [(5,), (2, 2, 8, 8)])
def test_warp_names_an_input_of_the_wrong_rank(shape):
    # a row failed with "not enough values to unpack", and a 4-D array was
    # warped as a stack of 4 planes
    message = f"expected (H, W) or (k, H, W) array, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        warp(np.ones(shape), AffineParams())


def test_resample_gives_the_masked_samples_of_warp():
    """``resample`` returns the (k, n) masked samples of ``warp``, byte for
    byte and in row-major pixel order, and the same mask."""
    rng = np.random.default_rng(2024)
    for stack, params in _warp_cases(rng):
        warped, mask = warp(stack, params)
        samples, (samples_mask,) = resample(stack, params.as_vector())
        assert np.array_equal(samples_mask, mask)
        assert samples.shape == (len(stack), np.count_nonzero(mask))
        assert samples.tobytes() == warped[:, mask].tobytes()


def test_warp_threads_keep_their_own_buffers():
    """Each thread reuses its own corner buffer, so concurrent calls on
    stacks of different sizes give the same bytes as calls made alone."""
    rng = np.random.default_rng(3)
    jobs = [(rng.normal(size=(k, 40 + 7 * k, 90)), AffineParams(tx=0.3 * k, theta=0.05 * k))
            for k in range(1, 7)]
    expected = [warp(stack, params)[0].tobytes() for stack, params in jobs]

    def run(i):
        stack, params = jobs[i]
        return all(warp(stack, params)[0].tobytes() == expected[i] for _ in range(30))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(run, i) for i in range(len(jobs))]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def test_resample_keeps_one_pass_of_temporaries():
    """A call on a 256x256 plane keeps its 65,536 samples and one 16,384-pixel
    pass of temporaries (corner values, corner index and fractions: 10 floats
    a pixel) per thread, 1,835,008 bytes, and nothing more. A 4x128x128 stack
    keeps as many samples and a pass of 58 rows at 22 floats a pixel: 1,830,912
    bytes, under the same bound."""
    def call(shape):
        resample(np.ones(shape), AffineParams(tx=0.5, theta=0.1).as_vector())
        return sum(buf.nbytes for buf in vars(transform._local).values())

    for shape in [(1, 256, 256), (4, 128, 128)]:
        with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread keeps nothing yet
            assert pool.submit(call, shape).result(timeout=60) <= 1_835_008, shape


def test_einsum_adds_the_corner_terms_in_scipy_order():
    """``resample``'s ``einsum`` call gives the bytes of the three steps it
    replaced, each term (v * wy) * wx and the four summed from +0.0 in (a, b)
    order, on random (k, 2, 2, n) stacks with signed zeros, subnormals, huge
    magnitudes and weights of exactly 0 and 1. A lone pixel (n = 1) is left
    out: einsum sums its terms pairwise, so ``resample`` adds them itself (the
    2x2 plane of ``_warp_cases``)."""
    rng = np.random.default_rng(30)
    for _ in range(400):
        k, n = int(rng.integers(1, 5)), int(rng.integers(2, 300))
        v = rng.normal(size=(k, 2, 2, n)) * 10.0 ** rng.choice([-310, -5, 0, 5, 300], (k, 2, 2, n))
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.3] *= -1.0  # -0.0 among the zeros
        f = rng.random((2, n))
        f[rng.random(f.shape) < 0.3] = 0.0  # weights of exactly 1 and 0
        w = np.empty((2, 2, n))
        np.subtract(1.0, f, out=w[0])
        np.subtract(1.0, w[0], out=w[1])
        terms = v * w[:, 0, None]
        terms *= w[:, 1]
        expected = np.add.reduce(terms.reshape(k, 4, n), 1, initial=0.0)
        got = np.einsum("pabn,an,bn->pn", v, w[:, 0], w[:, 1], out=np.empty((k, n)))
        assert got.tobytes() == expected.tobytes(), (
            f"np.einsum under NumPy {np.__version__} no longer adds (v * wy) * wx from +0.0 in "
            "(a, b) order: resample's bytes would leave map_coordinates'")


def test_center_adjusted_bytes_equal_matrix_formula():
    """``_center_adjusted`` gives the same bytes as A (v - c) + c + t built
    with matrix products, so warped coordinates do not move."""
    rng = np.random.default_rng(11)
    for i in range(500):
        p = AffineParams(
            tx=rng.normal() * 20, ty=rng.normal() * 20, theta=rng.uniform(-3, 3),
            sx=rng.uniform(0.3, 3), sy=rng.uniform(0.3, 3), k=rng.uniform(-0.5, 0.5),
        )
        center = (int(rng.integers(0, 300)), 7) if i % 5 == 0 else tuple(rng.uniform(0, 300, 2))
        a = _linear_part(p)
        c = np.array(center)
        ref = np.eye(3)
        ref[:2, :2] = a
        ref[:2, 2] = np.array([p.tx, p.ty]) + c - a @ c
        assert _homogeneous(p, center).tobytes() == ref.tobytes()


def test_batched_matrices_equal_center_adjusted():
    """A (B, 6) stack's matrix rows have the bytes of one ``_center_adjusted``
    call per row, and of the matrix formula, on 20,000 random parameter sets:
    a stacked ``a @ c`` rounds as each product alone does, where ``einsum``
    or the written-out sum ``a00 * cx + a01 * cy`` would not."""
    rng = np.random.default_rng(12)
    done = 0
    while done < 20_000:
        b = int(rng.integers(1, 9))
        vectors = np.column_stack([
            rng.normal(size=b) * 20, rng.normal(size=b) * 20, rng.uniform(-3, 3, b),
            rng.uniform(0.3, 3, b), rng.uniform(0.3, 3, b), rng.uniform(-0.5, 0.5, b)])
        center = (int(rng.integers(0, 300)), 7) if done % 5 == 0 else tuple(rng.uniform(0, 300, 2))
        stacked = _center_adjusted(vectors, center)
        for row, matrix in zip(vectors, stacked):
            p = AffineParams(*row.tolist())
            a = _linear_part(p)
            ref = np.eye(3)
            ref[:2, :2] = a
            ref[:2, 2] = np.array([p.tx, p.ty]) + np.array(center) - a @ np.array(center)
            (alone,) = _center_adjusted(row, center)
            assert matrix.tobytes() == alone.tobytes() == ref[:2].tobytes()
        done += b


def test_resample_batches_equal_lone_calls():
    """Each candidate of a ``resample`` stack gets the samples and mask of its
    lone call, byte for byte, whether a pass holds several candidates' whole
    planes or one candidate's block of rows."""
    rng = np.random.default_rng(77)
    cases = list(_warp_cases(rng))
    for i, (stack, params) in enumerate(cases):
        others = [cases[j][1] for j in rng.choice(len(cases), size=int(rng.integers(0, 8)))]
        batch = [params, *others, AffineParams(tx=1000.0)][: 1 + i % 9]  # some with empty masks
        samples, masks = resample(stack, np.array([p.as_vector() for p in batch]))
        samples = samples.copy()  # the next call reuses the buffer
        done = 0
        for p, mask in zip(batch, masks):
            alone, (alone_mask,) = resample(stack, p.as_vector())
            n = alone.shape[1]
            assert np.array_equal(mask, alone_mask)
            assert samples[:, done:done + n].tobytes() == alone.tobytes()
            done += n
        assert done == samples.shape[1]


def test_params_json_roundtrip(tmp_path):
    p = AffineParams(tx=1.25, ty=-0.5, theta=0.1, sx=1.05, sy=0.95, k=-0.02)
    path = tmp_path / "params.json"
    save_json(params_to_dict(p, (63.5, 63.5)), path)
    d = json.loads(path.read_text())
    assert AffineParams(d["tx"], d["ty"], d["theta_rad"], d["sx"], d["sy"], d["k"]) == p
    assert d["center"] == [63.5, 63.5]

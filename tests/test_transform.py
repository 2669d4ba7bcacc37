"""Affine parameterization, center-adjusted matrices and warping tests."""

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from wavereg import AffineParams, invert_params
from wavereg.transform import (
    _linear_part,
    center_adjusted,
    image_center,
    save_params,
    scale_params_between_levels,
    warp,
)


ORIGIN = (0.0, 0.0)


def _matrix(params):
    """Translation * rotation * skew * scaling: the matrix about the origin."""
    return center_adjusted(params, ORIGIN)


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
    assert np.array_equal(center_adjusted(AffineParams(), (17.0, -4.0)), np.eye(3))


def test_center_adjusted_translation_center_free():
    p = AffineParams(tx=5, ty=1)
    assert np.allclose(center_adjusted(p, (10.0, 10.0)), _matrix(p))


def test_center_adjusted_quarter_turn():
    m = center_adjusted(AffineParams(theta=math.pi / 2), (10.0, 10.0))
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


def test_scale_params_between_levels():
    p = AffineParams(tx=1.5, ty=-2, theta=0.3, sx=1.1, sy=0.9, k=0.05)
    q = scale_params_between_levels(p, 2.0)
    assert (q.tx, q.ty) == (3.0, -4.0)
    assert (q.theta, q.sx, q.sy, q.k) == (p.theta, p.sx, p.sy, p.k)
    assert scale_params_between_levels(q, 0.5) == p
    assert scale_params_between_levels(AffineParams(), 2.0) == AffineParams()


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
    m = center_adjusted(params, image_center(moving))
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


def test_center_adjusted_bytes_equal_matrix_formula():
    """``center_adjusted`` gives the same bytes as A (v - c) + c + t built
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
        assert center_adjusted(p, center).tobytes() == ref.tobytes()


def test_params_json_roundtrip(tmp_path):
    p = AffineParams(tx=1.25, ty=-0.5, theta=0.1, sx=1.05, sy=0.95, k=-0.02)
    path = tmp_path / "params.json"
    save_params(p, (63.5, 63.5), path)
    d = json.loads(path.read_text())
    assert AffineParams(d["tx"], d["ty"], d["theta_rad"], d["sx"], d["sy"], d["k"]) == p
    assert d["center"] == [63.5, 63.5]

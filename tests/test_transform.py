"""Affine parameterization, matrix composition and warping tests."""

import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from wavereg import (
    AffineParams,
    center_adjusted,
    compose_matrix,
    image_center,
    invert_matrix,
    invert_params,
    scale_params_between_levels,
    warp,
)
from wavereg.transform import load_params, save_params


def test_identity_matrix():
    assert np.array_equal(compose_matrix(AffineParams()), np.eye(3))


def test_pure_translation_matrix():
    m = compose_matrix(AffineParams(tx=3, ty=-2))
    expected = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(m, expected)


def test_quarter_turn_linear_block():
    m = compose_matrix(AffineParams(theta=math.pi / 2))
    assert np.allclose(m[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_nonpositive_scale_rejected():
    with pytest.raises(ValueError, match="scales must be positive"):
        compose_matrix(AffineParams(sx=0.0))
    with pytest.raises(ValueError, match="scales must be positive"):
        compose_matrix(AffineParams(sy=-1.0))


def test_center_adjusted_identity_any_center():
    assert np.array_equal(center_adjusted(AffineParams(), (17.0, -4.0)), np.eye(3))


def test_center_adjusted_translation_center_free():
    p = AffineParams(tx=5, ty=1)
    assert np.allclose(center_adjusted(p, (10.0, 10.0)), compose_matrix(p))


def test_center_adjusted_quarter_turn():
    m = center_adjusted(AffineParams(theta=math.pi / 2), (10.0, 10.0))
    assert np.allclose(m[:2, 2], [20.0, 0.0], atol=1e-12)
    # x' = -(y - 10) + 10, y' = (x - 10) + 10
    assert np.allclose(m @ [10.0, 10.0, 1.0], [10.0, 10.0, 1.0], atol=1e-12)
    assert np.allclose(m @ [12.0, 10.0, 1.0], [10.0, 12.0, 1.0], atol=1e-12)


def test_invert_matrix_identity_and_translation():
    assert np.array_equal(invert_matrix(np.eye(3)), np.eye(3))
    m = compose_matrix(AffineParams(tx=3, ty=-2))
    assert np.allclose(invert_matrix(m), compose_matrix(AffineParams(tx=-3, ty=2)))


def test_invert_matrix_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = AffineParams(
            tx=rng.uniform(-20, 20), ty=rng.uniform(-20, 20),
            theta=rng.uniform(-1.2, 1.2), sx=rng.uniform(0.5, 2.0),
            sy=rng.uniform(0.5, 2.0), k=rng.uniform(-0.5, 0.5),
        )
        m = compose_matrix(p)
        assert np.abs(invert_matrix(m) @ m - np.eye(3)).max() < 1e-9


def test_invert_params_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = AffineParams(
            tx=rng.uniform(-20, 20), ty=rng.uniform(-20, 20),
            theta=rng.uniform(-1.2, 1.2), sx=rng.uniform(0.5, 2.0),
            sy=rng.uniform(0.5, 2.0), k=rng.uniform(-0.5, 0.5),
        )
        q = invert_params(p)
        prod = compose_matrix(p) @ compose_matrix(q)
        assert np.abs(prod - np.eye(3)).max() < 1e-9
        assert q.sx > 0 and q.sy > 0


def test_invert_params_translation():
    q = invert_params(AffineParams(tx=3, ty=-2))
    assert (q.tx, q.ty, q.theta, q.sx, q.sy, q.k) == (-3.0, 2.0, 0.0, 1.0, 1.0, 0.0)


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
    img = np.ones((16, 16))
    out, mask = warp(img, AffineParams(tx=4), fill=-1.0)
    assert np.all(out[~mask] == -1.0)


def _reference_warp(moving, params, center, fill):
    """Single-plane warp on a full ``mgrid``, kept as the oracle."""
    height, width = moving.shape
    m = center_adjusted(params, center)
    ys, xs = np.mgrid[0:height, 0:width]
    src_x = m[0, 0] * xs + m[0, 1] * ys + m[0, 2]
    src_y = m[1, 0] * xs + m[1, 1] * ys + m[1, 2]
    mask = (src_x >= 0.0) & (src_x <= width - 1.0) & (src_y >= 0.0) & (src_y <= height - 1.0)
    out = map_coordinates(moving, [src_y, src_x], order=1, mode="constant", cval=fill)
    out[~mask] = fill
    return out, mask


@pytest.mark.parametrize("params, fill", [
    (AffineParams(tx=2.5, ty=-1.25, theta=0.3), 0.0),
    (AffineParams(theta=-0.2, k=0.15, sx=1.1, sy=0.9), -3.5),
    (AffineParams(tx=30.0, k=-0.4), 7.0),
])
def test_warp_stack_equals_separate_planes(params, fill):
    stack = np.random.default_rng(8).normal(size=(4, 23, 31))
    for center in (None, (10.0, 12.5)):
        warped, mask = warp(stack, params, center=center, fill=fill)
        assert warped.shape == stack.shape
        assert mask.shape == stack.shape[1:]
        assert not mask.all()  # some output pixels take the fill
        for plane, got in zip(stack, warped):
            alone, alone_mask = warp(plane, params, center=center, fill=fill)
            ref, ref_mask = _reference_warp(plane, params, center or image_center(plane), fill)
            assert np.array_equal(got, alone) and np.array_equal(got, ref)
            assert np.array_equal(mask, alone_mask) and np.array_equal(mask, ref_mask)
            assert np.all(got[~mask] == fill)


def test_params_json_roundtrip(tmp_path):
    p = AffineParams(tx=1.25, ty=-0.5, theta=0.1, sx=1.05, sy=0.95, k=-0.02)
    path = tmp_path / "params.json"
    save_params(p, (63.5, 63.5), path)
    q, center = load_params(path)
    assert q == p
    assert center == (63.5, 63.5)

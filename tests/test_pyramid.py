"""Gaussian pyramid reduction tests."""

import re

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from wavereg.pyramid import GENERATING_KERNEL, _correlate_reflect, build_pyramid, reduce_image


def _scipy_reduce(image):
    """The reduction as SciPy computes it: the test oracle."""
    smoothed = correlate1d(image, GENERATING_KERNEL, axis=0, mode="reflect")
    smoothed = correlate1d(smoothed, GENERATING_KERNEL, axis=1, mode="reflect")
    return smoothed[::2, ::2]


def test_kernel_normalized_and_symmetric():
    assert GENERATING_KERNEL.sum() == 1.0
    assert np.array_equal(GENERATING_KERNEL, GENERATING_KERNEL[::-1])
    assert np.array_equal(GENERATING_KERNEL, [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16])


def test_constant_image_is_fixed_point():
    img = np.full((32, 32), 11.5)
    assert np.allclose(reduce_image(img), 11.5)


def test_reduce_halves_dimensions():
    img = np.zeros((256, 256))
    assert reduce_image(img).shape == (128, 128)
    assert reduce_image(np.zeros((15, 9))).shape == (8, 5)
    for shape, reduced in [((2, 2), (1, 1)), ((2, 7), (1, 4)),
                           ((9, 2), (5, 1)), ((33, 48), (17, 24))]:
        assert reduce_image(np.zeros(shape)).shape == reduced


@pytest.mark.parametrize("shape, scale", [
    ((2, 2), 1.0), ((2, 9), 1.0), ((9, 2), 1.0), ((3, 3), 1.0),
    ((33, 48), 1.0), ((64, 65), 1.0), ((255, 256), 1.0),
    ((40, 31), 1e6), ((40, 31), 1e-6), ((128, 128), 1e6), ((128, 128), 1e-6),
])
def test_reduce_bytes_equal_correlate1d(shape, scale):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    img = rng.normal(size=shape) * scale
    img.flat[::7] *= -1e-3  # mix magnitudes within the plane
    got = reduce_image(img)
    assert got.tobytes() == _scipy_reduce(img).tobytes()
    # a strided view in gives the same bytes
    view = np.repeat(img, 2, axis=1)[:, ::2]
    assert reduce_image(view).tobytes() == got.tobytes()


def test_correlate_reflect_bytes_equal_correlate1d():
    # random shapes and kernels, both axes, radii longer than the line
    rng = np.random.default_rng(5)
    for trial in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 70, 2))
        radius = int(rng.integers(1, 30))
        half = rng.uniform(0.0, 1.0, radius + 1)
        weights = np.concatenate([half[:0:-1], half])
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6)
        for axis in (0, 1):
            want = correlate1d(x, weights, axis=axis, mode="reflect")
            got = _correlate_reflect(x, weights, axis)
            assert got.tobytes() == want.tobytes(), (trial, shape, radius, axis)
            kept = want[::2] if axis == 0 else want[:, ::2]
            got = _correlate_reflect(x, weights, axis, step=2)
            assert got.tobytes() == kept.tobytes(), (trial, shape, radius, axis)


def test_impulse_center_response():
    img = np.zeros((64, 64))
    img[32, 32] = 1.0
    out = reduce_image(img)
    assert out[16, 16] == (6 / 16) ** 2
    assert out[16, 16] == 0.140625


def test_single_level_pyramid_is_input():
    img = np.random.default_rng(1).normal(size=(40, 40))
    pyr = build_pyramid(img, 1)
    assert len(pyr) == 1
    assert np.array_equal(pyr[0], img)


def test_three_level_sizes():
    pyr = build_pyramid(np.zeros((256, 256)), 3)
    assert [lvl.shape for lvl in pyr] == [(256, 256), (128, 128), (64, 64)]


def test_truncation_at_min_size():
    pyr = build_pyramid(np.zeros((20, 20)), 3)
    assert [lvl.shape for lvl in pyr] == [(20, 20), (10, 10)]


def test_reduce_is_low_pass():
    rng = np.random.default_rng(7)
    img = rng.normal(0.0, 1.0, (128, 128))
    out = reduce_image(img)
    assert out.std() < img.std()


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (31, 30), (61, 59), (64, 64)])
def test_stack_equals_per_plane_bytes(shape):
    # a (k, H, W) stack reduces plane by plane, byte for byte, odd sizes too
    stack = np.random.default_rng(sum(shape)).normal(size=(4,) + shape) * 50.0
    got = reduce_image(stack)
    assert got.shape == (4, -(-shape[0] // 2), -(-shape[1] // 2))
    for plane, reduced in zip(stack, got):
        assert reduced.tobytes() == reduce_image(plane).tobytes()
    levels = build_pyramid(stack, 4)
    for k, plane in enumerate(stack):
        per_plane = build_pyramid(plane, 4)
        assert len(levels) == len(per_plane)
        for level, want in zip(levels, per_plane):
            assert level[k].tobytes() == want.tobytes()


def test_wrong_rank_input_is_named():
    # a row failed with "not enough values to unpack", or came back as a
    # one-level pyramid
    for image, levels in ((np.arange(40.0), 2), (np.arange(40.0), 1), (np.ones((2, 2, 8, 8)), 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"expected (H, W) or (k, H, W) array, got shape {image.shape}")):
            build_pyramid(image, levels)


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (3, 1, 8)])
def test_reduce_refuses_a_plane_under_2x2(shape):
    with pytest.raises(ValueError, match=re.escape("image too small to reduce (needs at least 2x2)")):
        reduce_image(np.ones(shape))


@pytest.mark.parametrize("levels", [2.5, 2.0, True])
def test_num_levels_must_be_an_integer(levels):
    # 2.5 failed inside range() with "'float' object cannot be interpreted as
    # an integer", and True built a one-level pyramid
    with pytest.raises(ValueError, match=rf"^num_levels must be an integer, got {levels}$"):
        build_pyramid(np.ones((64, 64)), levels)
    assert len(build_pyramid(np.ones((64, 64)), np.int64(2))) == 2  # a NumPy integer is one

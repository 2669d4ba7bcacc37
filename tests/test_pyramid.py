"""Gaussian pyramid reduction tests."""

import numpy as np

from wavereg import build_pyramid, reduce_image
from wavereg.pyramid import GENERATING_KERNEL


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

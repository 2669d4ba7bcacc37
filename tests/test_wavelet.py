"""Haar analysis/synthesis unit and property tests."""

import re

import numpy as np
import pytest

from wavereg.wavelet import dwt2, idwt2


def test_constant_image_energy_in_ll():
    img = np.full((8, 8), 7.0)
    ll, lh, hl, hh = dwt2(img)
    assert np.allclose(ll, 14.0)
    assert np.allclose(lh, 0.0)
    assert np.allclose(hl, 0.0)
    assert np.allclose(hh, 0.0)


def test_single_block_example():
    img = np.array([[4.0, 2.0], [2.0, 0.0]])
    ll, lh, hl, hh = dwt2(img)
    assert ll[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert lh[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert hl[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert hh[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_single_block_synthesis():
    bands = np.array([4.0, 2.0, 2.0, 0.0]).reshape(4, 1, 1)  # LL, LH, HL, HH
    assert np.allclose(idwt2(bands, (2, 2)), [[4.0, 2.0], [2.0, 0.0]], atol=1e-12)


def test_odd_dims_pad_and_crop():
    img = np.arange(9.0).reshape(3, 3)
    bands = dwt2(img)
    assert bands.shape == (4, 2, 2)
    assert idwt2(bands, img.shape).shape == (3, 3)


def test_all_zero_bands_give_zero_image():
    assert not idwt2(np.zeros((4, 4, 4)), (8, 8)).any()


def test_perfect_reconstruction_and_energy_1000_random():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        h = int(rng.integers(2, 33))
        w = int(rng.integers(2, 33))
        img = rng.normal(0.0, 100.0, (h, w))
        bands = dwt2(img)
        recon = idwt2(bands, img.shape)
        scale = max(np.abs(img).max(), 1.0)
        assert np.abs(recon - img).max() / scale < 1e-6
        if h % 2 == 0 and w % 2 == 0:
            # orthonormal transform: energy is preserved exactly
            band_energy = np.sum(bands * bands)
            img_energy = np.sum(img * img)
            assert abs(band_energy - img_energy) / img_energy < 1e-6


def test_wrong_rank_input_is_named():
    # a stack failed with "too many values to unpack", a row with "not enough"
    for shape in ((2, 4, 4), (8,)):
        with pytest.raises(ValueError, match=re.escape(f"expected (H, W) array, got shape {shape}")):
            dwt2(np.ones(shape))

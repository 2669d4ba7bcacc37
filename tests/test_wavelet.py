"""Haar analysis/synthesis unit and property tests."""

import numpy as np
import pytest

from wavereg.wavelet import SubBands, dwt2, idwt2


def test_constant_image_energy_in_ll():
    img = np.full((8, 8), 7.0)
    bands = dwt2(img)
    assert np.allclose(bands.ll, 14.0)
    assert np.allclose(bands.lh, 0.0)
    assert np.allclose(bands.hl, 0.0)
    assert np.allclose(bands.hh, 0.0)


def test_single_block_example():
    img = np.array([[4.0, 2.0], [2.0, 0.0]])
    bands = dwt2(img)
    assert bands.ll[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert bands.lh[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert bands.hl[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert bands.hh[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_single_block_synthesis():
    bands = SubBands(
        ll=np.array([[4.0]]), lh=np.array([[2.0]]),
        hl=np.array([[2.0]]), hh=np.array([[0.0]]),
        original_width=2, original_height=2,
    )
    assert np.allclose(idwt2(bands), [[4.0, 2.0], [2.0, 0.0]], atol=1e-12)


def test_odd_dims_pad_and_crop():
    img = np.arange(9.0).reshape(3, 3)
    bands = dwt2(img)
    assert bands.ll.shape == (2, 2)
    assert (bands.original_width, bands.original_height) == (3, 3)
    assert idwt2(bands).shape == (3, 3)


def test_all_zero_bands_give_zero_image():
    z = np.zeros((4, 4))
    bands = SubBands(ll=z, lh=z, hl=z, hh=z, original_width=8, original_height=8)
    assert not idwt2(bands).any()


def test_perfect_reconstruction_and_energy_1000_random():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        h = int(rng.integers(2, 33))
        w = int(rng.integers(2, 33))
        img = rng.normal(0.0, 100.0, (h, w))
        bands = dwt2(img)
        recon = idwt2(bands)
        scale = max(np.abs(img).max(), 1.0)
        assert np.abs(recon - img).max() / scale < 1e-6
        if h % 2 == 0 and w % 2 == 0:
            # orthonormal transform: energy is preserved exactly
            band_energy = sum(np.sum(p * p) for p in bands.planes)
            img_energy = np.sum(img * img)
            assert abs(band_energy - img_energy) / img_energy < 1e-6


def test_planes_property_order():
    img = np.random.default_rng(3).normal(size=(6, 6))
    bands = dwt2(img)
    ll, lh, hl, hh = bands.planes
    assert ll is bands.ll and lh is bands.lh
    assert hl is bands.hl and hh is bands.hh

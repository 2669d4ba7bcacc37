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


@pytest.mark.parametrize("shape", [(1, 8), (8, 1)])
def test_dwt2_refuses_an_image_under_2x2(shape):
    with pytest.raises(ValueError, match=re.escape("image too small for DWT (needs at least 2x2)")):
        dwt2(np.ones(shape))


def _synthesis_formulas(bands, shape):
    # idwt2's own four formulas before it became dwt2 of the bands laid out as blocks
    ll, lh, hl, hh = bands
    height, width = ll.shape
    out = np.empty((2 * height, 2 * width), dtype=np.float64)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out[: shape[0], : shape[1]]


def test_idwt2_equals_the_synthesis_formulas_byte_for_byte():
    # dwt2 sums ((a +- b) +- c) +- d and halves it, the formulas' order term for term;
    # the stacks mix +-0.0, subnormals, sums that overflow and infinities that cancel into NaN
    rng = np.random.default_rng(0)
    for _ in range(500):
        h, w = (int(n) for n in rng.integers(1, 40, size=2))
        shape = (2 * h - int(rng.integers(0, 2)), 2 * w - int(rng.integers(0, 2)))
        with np.errstate(over="ignore", invalid="ignore"):  # 1e-310 is subnormal, 1e309 inf
            scales = 10.0 ** rng.choice([-310, -300, -1, 0, 2, 300, 308, 309], (4, h, w))
            bands = rng.uniform(-1.0, 1.0, (4, h, w)) * scales
            bands[rng.random(bands.shape) < 0.3] = -0.0
            bands[rng.random(bands.shape) < 0.1] = 0.0
            expected, got = _synthesis_formulas(bands, shape), idwt2(bands, shape)
        assert got.shape == expected.shape == shape
        assert got.tobytes() == expected.tobytes()

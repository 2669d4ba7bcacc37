"""Synthetic fixture generation tests."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from wavereg import AffineParams, load_pgm
from wavereg.fixtures import (
    FixtureSpec,
    _gaussian_smooth,
    generate_pair,
    render_pattern,
    sidecar_dict,
    write_fixture,
)

# SHA-256 of fixed.tobytes() + moving.tobytes() for the spec in
# test_generate_pair_digest, recorded when the noise pattern was still
# smoothed by scipy.ndimage.gaussian_filter (NumPy 2.4.6 / SciPy 1.17.1)
PAIR_DIGESTS = {
    ("phantom_ellipses", 64): "491478f2c9889e711f1d790126452f66c3f077788b7b5d146cc5c4e374e69676",
    ("phantom_ellipses", 97): "5de21bd9326612f9c38bee41d3751d123e003581c9fdef41592f9631a31aed3e",
    ("checker", 64): "f1a5ae9090b82cc7505e71e13d153c14851ed019220c12dd35f94b6613f804db",
    ("checker", 97): "d05ce5df093bbda68cc8720e0eb0822fd8c113beeabd99f6a69519abf5bcb4e7",
    ("noise_smoothed", 64): "703d986346675315bcd878635f3a06e1df9d9ba523747c541b4b2ba412044ef5",
    ("noise_smoothed", 97): "493625db8e7207cef060bd16647fbd49aa8e163a17c9b452dc281907c5aaa5b0",
}
from wavereg.transform import center_adjusted


def test_identity_spec_gives_equal_pair():
    spec = FixtureSpec(size=64)
    fixed, moving, truth = generate_pair(spec)
    assert np.allclose(fixed, moving)
    assert truth == AffineParams()


def test_translation_matches_direct_shift():
    spec = FixtureSpec(size=64, truth=AffineParams(tx=8, ty=-5))
    fixed, moving, _ = generate_pair(spec)
    # positive tx shifts left, negative ty shifts down: moving[y, x]
    # samples fixed[y - 5, x + 8] where that stays in bounds
    interior = moving[6:64, 0:56]
    assert np.allclose(interior, fixed[1:59, 8:64])


def test_determinism_byte_identical(tmp_path):
    spec = FixtureSpec(
        base_pattern="noise_smoothed", size=64,
        truth=AffineParams(tx=3, ty=2, theta=0.05),
        remap="gamma", noise_sigma=0.02, seed=9,
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_fixture(spec, d1)
    write_fixture(spec, d2)
    for name in ("fixed.pgm", "moving.pgm", "truth.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_patterns_render_in_range():
    for pattern in ("phantom_ellipses", "checker", "noise_smoothed"):
        img = render_pattern(FixtureSpec(base_pattern=pattern, size=96, seed=4))
        assert img.shape == (96, 96)
        assert img.min() >= 0.0 and img.max() <= 255.0
        assert img.std() > 10.0  # must carry real structure


def test_phantom_has_many_plateaus():
    img = render_pattern(FixtureSpec(size=128))
    assert len(np.unique(img)) >= 8


def test_noise_pattern_seed_dependence():
    a = render_pattern(FixtureSpec(base_pattern="noise_smoothed", size=64, seed=1))
    b = render_pattern(FixtureSpec(base_pattern="noise_smoothed", size=64, seed=2))
    assert not np.allclose(a, b)


def test_noise_sigma_adds_noise():
    quiet = FixtureSpec(size=64, seed=3)
    noisy = FixtureSpec(size=64, seed=3, noise_sigma=0.05)
    _, m0, _ = generate_pair(quiet)
    _, m1, _ = generate_pair(noisy)
    resid = m1 - m0
    assert 0.03 * 255 < resid.std() < 0.07 * 255
    assert m1.min() >= 0.0


def test_unusable_transform_rejected():
    spec = FixtureSpec(size=64, truth=AffineParams(tx=60, ty=60))
    with pytest.raises(ValueError, match="fixture unusable"):
        generate_pair(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        FixtureSpec(base_pattern="plaid").validate()
    with pytest.raises(ValueError):
        FixtureSpec(size=32).validate()
    with pytest.raises(ValueError):
        FixtureSpec(noise_sigma=-0.1).validate()


def test_sidecar_recovery_inverts_truth():
    truth = AffineParams(tx=6, ty=-3, theta=math.radians(4))
    side = sidecar_dict(FixtureSpec(size=128, truth=truth))
    r = side["recovery"]
    assert r["center"] == [63.5, 63.5]
    rec = AffineParams(r["tx"], r["ty"], r["theta_rad"], r["sx"], r["sy"], r["k"])
    prod = center_adjusted(truth, (0.0, 0.0)) @ center_adjusted(rec, (0.0, 0.0))
    assert np.abs(prod - np.eye(3)).max() < 1e-9
    assert side["spec"]["size"] == 128


def test_write_fixture_outputs(tmp_path):
    spec = FixtureSpec(size=64, truth=AffineParams(tx=2), remap="invert")
    write_fixture(spec, tmp_path / "fx")
    fixed = load_pgm(tmp_path / "fx" / "fixed.pgm")
    moving = load_pgm(tmp_path / "fx" / "moving.pgm")
    assert fixed.shape == moving.shape == (64, 64)
    side = json.loads((tmp_path / "fx" / "truth.json").read_text())
    assert side["truth"]["tx"] == 2.0


@pytest.mark.parametrize("size", [64, 65, 97, 256])
@pytest.mark.parametrize("sigma", [1.5, 6.0])
def test_gaussian_smooth_bytes_equal_gaussian_filter(sigma, size):
    noise = np.random.default_rng(size).standard_normal((size, size))
    got = _gaussian_smooth(noise, sigma)
    assert got.tobytes() == gaussian_filter(noise, sigma=sigma).tobytes()


@pytest.mark.parametrize("pattern, size", sorted(PAIR_DIGESTS))
def test_generate_pair_digest(pattern, size):
    spec = FixtureSpec(
        base_pattern=pattern, size=size,
        truth=AffineParams(tx=3.5, ty=-2.0, theta=math.radians(4), sx=1.05, k=0.02),
        remap="gamma", noise_sigma=0.02, seed=5,
    )
    fixed, moving, _ = generate_pair(spec)
    digest = hashlib.sha256(fixed.tobytes() + moving.tobytes()).hexdigest()
    assert digest == PAIR_DIGESTS[pattern, size]

"""Synthetic fixture generation tests."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from wavereg import AffineParams, load_pgm
from wavereg.fixtures import (
    FixtureSpec,
    _gaussian_smooth,
    generate_pair,
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
from wavereg.transform import _center_adjusted


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
        img = generate_pair(FixtureSpec(base_pattern=pattern, size=96, seed=4))[0]
        assert img.shape == (96, 96)
        assert img.min() >= 0.0 and img.max() <= 255.0
        assert img.std() > 10.0  # must carry real structure


def test_phantom_has_many_plateaus():
    img = generate_pair(FixtureSpec(size=128))[0]
    assert len(np.unique(img)) >= 8


def test_noise_pattern_seed_dependence():
    a = generate_pair(FixtureSpec(base_pattern="noise_smoothed", size=64, seed=1))[0]
    b = generate_pair(FixtureSpec(base_pattern="noise_smoothed", size=64, seed=2))[0]
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


def test_an_unknown_pattern_renders_nothing():
    # the pattern renderer took any unknown name for noise_smoothed, and the
    # sidecar builder echoed it, since neither checked the spec
    with pytest.raises(ValueError, match="^unknown base pattern 'plaid'$"):
        generate_pair(FixtureSpec(base_pattern="plaid", size=64))


def test_spec_validation():
    with pytest.raises(ValueError):
        FixtureSpec(base_pattern="plaid").validate()
    with pytest.raises(ValueError):
        FixtureSpec(size=32).validate()
    with pytest.raises(ValueError):
        FixtureSpec(noise_sigma=-0.1).validate()


@pytest.mark.parametrize("sigma", [1e308, 3e305])
def test_spec_refuses_a_noise_sigma_whose_noise_overflows(sigma):
    # validate let both through and generate_pair returned a moving image with
    # inf pixels: at 1e308 the noise scale (sigma * 255) overflows; at 3e305 it
    # is finite, but a normal deviate above about 2.35 of it is not
    with pytest.raises(ValueError, match="^noise_sigma must be >= 0 with finite noise"):
        generate_pair(FixtureSpec(size=64, noise_sigma=sigma))


def test_the_largest_noise_sigmas_give_finite_pixels():
    for sigma in (np.finfo(np.float64).max / 8192, 1e300):
        _, moving, _ = generate_pair(FixtureSpec(size=64, noise_sigma=sigma, seed=1))
        assert np.isfinite(moving).all() and moving.max() > 1e290


def test_spec_rejects_a_negative_seed():
    # a negative seed failed in NumPy for the noise pattern, and was written
    # to truth.json for the others, whose noise uses seed + 1
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        FixtureSpec(seed=-1).validate()


def test_spec_refuses_a_singular_truth():
    # validate let it through; only building the sidecar's recovery refused it
    with pytest.raises(ValueError, match="^singular affine matrix$"):
        FixtureSpec(truth=AffineParams(sx=1e-320)).validate()


@pytest.mark.parametrize("field, value", [("size", 64.0), ("size", 64.5), ("seed", 1.5)])
def test_spec_counts_must_be_integers(field, value):
    # a float size used to fail inside NumPy with "'float' object cannot be
    # interpreted as an integer", a float seed with a SeedSequence error
    spec = FixtureSpec(base_pattern="noise_smoothed", size=64, seed=1)
    setattr(spec, field, value)
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
        generate_pair(spec)
    setattr(spec, field, np.int64(value))  # a NumPy integer is an integer
    fixed, moving, _ = generate_pair(spec)
    assert fixed.shape == moving.shape == (spec.size, spec.size)


@pytest.mark.parametrize("field", ["size", "seed"])
def test_spec_counts_must_not_be_bools(field):
    # a bool is a numbers.Integral: size=True read "size must be >= 64" and
    # seed=True rendered seed 1's pair
    spec = FixtureSpec(base_pattern="noise_smoothed", size=64, seed=1)
    setattr(spec, field, True)
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got True$"):
        generate_pair(spec)


def test_sidecar_recovery_inverts_truth(tmp_path):
    truth = AffineParams(tx=6, ty=-3, theta=math.radians(4))
    write_fixture(FixtureSpec(size=128, truth=truth), tmp_path)
    side = json.loads((tmp_path / "truth.json").read_text())
    r = side["recovery"]
    assert r["center"] == [63.5, 63.5]
    rec = AffineParams(r["tx"], r["ty"], r["theta_rad"], r["sx"], r["sy"], r["k"])
    truth_m, rec_m = (np.vstack((_center_adjusted(p.as_vector(), (0.0, 0.0))[0], (0, 0, 1)))
                      for p in (truth, rec))  # the 3x3 matrices about the origin
    prod = truth_m @ rec_m
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


@pytest.mark.parametrize("field, value, message", [
    ("base_pattern", "plaid", "unknown base pattern 'plaid'"),
    ("remap", "sepia", "unknown remap mode 'sepia'"),
    ("noise_sigma", -1.0, "noise_sigma must be >= 0 with finite noise, got -1.0"),
])
def test_write_fixture_refuses_a_bad_spec_before_any_file(tmp_path, field, value, message):
    # the sidecar builder echoed each of these values without an error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_fixture(replace(FixtureSpec(size=64), **{field: value}), tmp_path / "fx")
    assert not (tmp_path / "fx").exists()


def test_write_fixture_takes_numpy_integer_counts(tmp_path):
    """A spec with NumPy-integer size and seed, which ``validate`` accepts,
    writes the whole fixture, and the sidecar of the plain-int spec (its
    echo once made ``save_json`` fail after both images were written)."""
    plain = FixtureSpec(size=64, seed=3, base_pattern="noise_smoothed")
    write_fixture(replace(plain, size=np.int64(64), seed=np.int64(3)), tmp_path / "np")
    write_fixture(plain, tmp_path / "int")
    for name in ("fixed.pgm", "moving.pgm", "truth.json"):
        assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


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

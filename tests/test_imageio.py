"""PGM/PPM I/O, intensity remapping and overlay tests."""

import re

import numpy as np
import pytest

from wavereg import load_pgm, save_pgm
from wavereg.fixtures import FixtureSpec, _remap
from wavereg.imageio import PnmError, overlay_diff, save_ppm


def test_load_p5_8bit(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = load_pgm(path)
    assert img.shape == (2, 2)
    assert np.array_equal(img, [[0.0, 128.0], [255.0, 64.0]])
    assert img.dtype == np.float64


def test_load_p5_16bit_big_endian(tmp_path):
    path = tmp_path / "t16.pgm"
    path.write_bytes(b"P5\n3 1\n65535\n" + bytes([0, 1, 0, 2, 0, 3]))
    assert np.array_equal(load_pgm(path), [[1.0, 2.0, 3.0]])


def test_load_rejects_ascii_magic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PnmError, match="unsupported magic"):
        load_pgm(path)


def test_load_skips_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1 # trailing\n255\n\x07\x08")
    assert np.array_equal(load_pgm(path), [[7.0, 8.0]])


@pytest.mark.parametrize("data, expected", [
    (b"P5#c\n2 1\n255\n\x07\x08", [[7.0, 8.0]]),
    (b"P5\t2\r1\x0b255\x0c\x07\x08", [[7.0, 8.0]]),
    (b"P5\n#a\n#b\n2 1\n255\n\x07\x08", [[7.0, 8.0]]),
    (b"P5 +2 1 255\n\x07\x08", [[7.0, 8.0]]),
    (b"P5 2#c 1 255\n\x07\x08", "invalid width field b'2#c'"),
    (b"P5 2 1 255#x\n\x07\x08", "invalid maxval field b'255#x'"),
    (b"P5 2 1 # a comment that runs to the end of the file", "truncated header"),
    (b"P5", "truncated header"),
    (b"P512 1 255\n" + bytes(12), "unsupported magic b'P512' (expected P5)"),
    (b"P5\n0 2\n255\n" + bytes(4), "invalid dimensions 0x2"),
    (b"P5\n2 1\n0\n" + bytes(4), "invalid maxval 0"),
    (b"P5\n2 1\n65536\n" + bytes(4), "invalid maxval 65536"),
    (b"P5\n6_4 +2\n2_55\n" + bytes(128), "invalid width field b'6_4'"),
    (b"P5\n64 0_2\n255\n" + bytes(128), "invalid height field b'0_2'"),
    (b"P5\n64 2\n2_55\n" + bytes(128), "invalid maxval field b'2_55'"),
    (b"P5\n-2 1\n255\n" + bytes(4), "invalid width field b'-2'"),
    (b"P5\n" + b"9" * 5000 + b" 1\n255\n", "invalid width field b'9999"),
], ids=["comment-after-magic", "tab-cr-vt-ff", "consecutive-comments", "plus-sign",
        "hash-inside-width", "hash-inside-maxval", "comment-to-eof", "bare-magic",
        "no-separator-after-magic", "zero-width", "maxval-0", "maxval-65536",
        "underscore-in-width", "underscore-in-height", "underscore-in-maxval", "minus-sign",
        "past-int-digit-limit"])
def test_load_header_tokens(tmp_path, data, expected):
    # a token is the bytes up to the next whitespace, "#" included; only a
    # "#" that starts a token opens a comment, which runs to the end of its line.
    # The magic is a token too: "P512" was read as P5 and a width of 12.
    # A number is ASCII digits after an optional "+": int() read "6_4" as 64
    path = tmp_path / "h.pgm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(PnmError, match=re.escape(expected)):
            load_pgm(path)
    else:
        assert np.array_equal(load_pgm(path), expected)


def test_load_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PnmError, match="truncated payload"):
        load_pgm(path)


@pytest.mark.parametrize("data, message", [
    (b"P5\n2 2\n100\n" + bytes([0, 100, 200, 50]), "sample 200 exceeds maxval 100"),
    (b"P5\n2 1\n300\n" + bytes([1, 44, 255, 255]), "sample 65535 exceeds maxval 300"),
], ids=["8-bit", "16-bit"])
def test_load_rejects_samples_above_maxval(tmp_path, data, message):
    # such samples used to load as they were, above the file's own white
    path = tmp_path / "over.pgm"
    path.write_bytes(data)
    with pytest.raises(PnmError, match=message):
        load_pgm(path)


def test_save_clamps_and_rounds(tmp_path):
    path = tmp_path / "q.pgm"
    save_pgm(np.array([[0.0, 255.4, -3.0]]), path)
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 255, 0])


def test_save_constant(tmp_path):
    path = tmp_path / "k.pgm"
    save_pgm(np.full((3, 3), 7.0), path)
    assert path.read_bytes().endswith(bytes([7] * 9))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_rejects_non_finite(tmp_path, bad):
    # casting NaN to uint8 is undefined; it used to write a silent 0 or 255
    image = np.full((4, 4), 100.0)
    image[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        save_pgm(image, tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


def test_save_pgm_rejects_a_stack(tmp_path):
    # an empty image was written as "P5\n3 0\n255\n", which load_pgm refuses
    for shape in ((2, 3, 3), (0, 3)):
        message = f"expected a non-empty (H, W) array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_pgm(np.zeros(shape), tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()


def test_pgm_roundtrip_integer_image(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (13, 9)).astype(np.float64)
    path = tmp_path / "r.pgm"
    save_pgm(img, path)
    assert np.array_equal(load_pgm(path), img)
    # save_pgm writes 8-bit only; a 16-bit file written by hand reads back
    img16 = rng.integers(0, 65536, (5, 7)).astype(np.float64)
    path.write_bytes(b"P5\n7 5\n65535\n" + img16.astype(">u2").tobytes())
    assert np.array_equal(load_pgm(path), img16)


def test_save_ppm(tmp_path):
    # 2 rows of 3 pixels: the header gives the width first, the samples run
    # row by row with each pixel's red, green and blue together
    rgb = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "o.ppm"
    save_ppm(rgb, path)
    assert path.read_bytes() == b"P6\n3 2\n255\n" + bytes(range(18))


@pytest.mark.parametrize("value", [300.0, np.nan])
def test_save_ppm_rejects_anything_but_uint8(tmp_path, value):
    # 300.0 was written as byte 44, and NaN as whatever the cast gave
    with pytest.raises(ValueError, match=re.escape(
            "expected (H, W, 3) uint8 array, got float64 of shape (2, 3, 3)")):
        save_ppm(np.full((2, 3, 3), value), tmp_path / "o.ppm")
    assert not (tmp_path / "o.ppm").exists()


# The fixtures' remaps: their values through fixtures._remap, whose one caller,
# generate_pair, validates its spec first; their refusals through FixtureSpec.validate.
def test_remap_invert():
    img = np.array([[0.0, 100.0, 255.0]])
    out = _remap(img, "invert", 2.0)
    assert np.array_equal(out, [[255.0, 155.0, 0.0]])


def test_remap_gamma():
    img = np.array([[0.0, 0.5, 1.0]])
    assert np.allclose(_remap(img, "gamma", 1.0), img)
    assert _remap(img, "gamma", 2.0)[0, 1] == pytest.approx(0.25)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
def test_remap_gamma_rejects_non_finite_or_non_positive(gamma):
    # NaN gave an all-NaN image and Inf an all-zero one
    with pytest.raises(ValueError, match=r"gamma must be > 0 and finite"):
        FixtureSpec(remap="gamma", gamma=gamma).validate()


def test_remap_neglog_monotone_decreasing():
    img = np.linspace(0, 255, 32).reshape(1, 32)
    out = _remap(img, "neglog", 2.0)
    assert np.all(np.diff(out[0]) < 0)
    assert out.min() == pytest.approx(0.0) and out.max() == pytest.approx(255.0)


def test_remap_unknown_mode():
    # validate accepted it, and generate_pair refused it only after rendering the pattern
    with pytest.raises(ValueError, match="^unknown remap mode 'sepia'$"):
        FixtureSpec(remap="sepia").validate()


def test_overlay_identical_is_grey():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (8, 8))
    out = overlay_diff(img, img, np.ones((8, 8), bool))
    assert np.array_equal(out[..., 0], out[..., 1])
    assert np.array_equal(out[..., 0], out[..., 2])


def test_overlay_opposite_is_fuchsia():
    fixed = np.zeros((4, 4))
    registered = np.full((4, 4), 255.0)
    out = overlay_diff(fixed, registered, np.ones((4, 4), bool))
    assert np.all(out[..., 0] == 255)
    assert np.all(out[..., 2] == 255)
    assert np.all(out[..., 1] < 128)


def test_overlay_shifted_stripes_band():
    # two-valued stripes shifted by half a period: disagreement columns
    # alternate and show up as fuchsia exactly there
    fixed = np.zeros((8, 8))
    fixed[:, ::2] = 255.0
    registered = np.roll(fixed, 1, axis=1)
    out = overlay_diff(fixed, registered, np.ones((8, 8), bool))
    assert np.all(out[..., 0] == 255)  # every column disagrees by the full range
    assert np.all(out[..., 2] == 255)


def test_overlay_masked_pixels_black():
    img = np.full((4, 4), 200.0)
    img[0, 0] = 0.0
    mask = np.ones((4, 4), bool)
    mask[3] = False
    out = overlay_diff(img, img, mask)
    assert not out[3].any()
    assert out[:3].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["fixed", "registered"])
def test_overlay_non_finite_masked_pixel_raises(bad, which):
    """One non-finite pixel in the overlap has no intensity range to normalize
    by: it raises metric's message instead of rendering garbage with a warning."""
    images = {"fixed": np.arange(16.0).reshape(4, 4), "registered": np.ones((4, 4))}
    images[which][1, 2] = bad
    with pytest.raises(ValueError, match="non-finite intensities in the overlap"):
        overlay_diff(images["fixed"], images["registered"], np.ones((4, 4), bool))


def test_overlay_non_finite_pixels_outside_the_mask_render_black():
    """Non-finite pixels outside the mask raise no warning (pytest makes one an
    error), render black and leave every other pixel as finite values there would."""
    rng = np.random.default_rng(2)
    fixed, registered = rng.uniform(0, 255, (2, 6, 6))
    mask = np.ones((6, 6), bool)
    mask[0, :3] = mask[5, 5] = False
    expected = overlay_diff(fixed, registered, mask)
    fixed[0, :3], registered[0, :3] = [np.nan, np.inf, -np.inf], [np.inf, np.nan, np.inf]
    registered[5, 5] = np.nan
    out = overlay_diff(fixed, registered, mask)
    assert not out[~mask].any()
    assert np.array_equal(out, expected)


def test_overlay_empty_mask_is_black():
    out = overlay_diff(np.arange(16.0).reshape(4, 4), np.ones((4, 4)), np.zeros((4, 4), bool))
    assert out.shape == (4, 4, 3) and out.dtype == np.uint8 and not out.any()


def test_overlay_refuses_a_range_that_overflows_float64():
    # hi - lo overflowed with a RuntimeWarning, and without warnings as errors
    # the overlay was rendered from NaN
    mask = np.ones((2, 2), bool)
    with pytest.raises(ValueError, match=re.escape(
            "intensity range [-1e+308, 1e+308] overflows float64")):
        overlay_diff(np.full((2, 2), 1e308), np.full((2, 2), -1e308), mask)
    # a range just inside float64 still renders: the two images disagree everywhere
    out = overlay_diff(np.full((2, 2), 8e307), np.full((2, 2), -8e307), mask)
    assert np.all(out[..., 0] == 255) and np.all(out[..., 2] == 255)


def test_overlay_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        overlay_diff(np.zeros((4, 4)), np.zeros((4, 5)), np.ones((4, 4), bool))

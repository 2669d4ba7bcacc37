"""PGM/PPM I/O, intensity remapping and overlay tests."""

import numpy as np
import pytest

from wavereg import load_pgm, save_pgm
from wavereg.imageio import PnmError, overlay_diff, remap_intensity, save_ppm


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
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 255)
    path = tmp_path / "o.ppm"
    save_ppm(rgb, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    assert data[-12:] == bytes([255, 0, 255]) + bytes(9)


def test_remap_invert():
    img = np.array([[0.0, 100.0, 255.0]])
    out = remap_intensity(img, "invert")
    assert np.array_equal(out, [[255.0, 155.0, 0.0]])


def test_remap_gamma():
    img = np.array([[0.0, 0.5, 1.0]])
    assert np.allclose(remap_intensity(img, "gamma", gamma=1.0), img)
    assert remap_intensity(img, "gamma", gamma=2.0)[0, 1] == pytest.approx(0.25)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
def test_remap_gamma_rejects_non_finite_or_non_positive(gamma):
    # NaN gave an all-NaN image and Inf an all-zero one
    with pytest.raises(ValueError, match=r"gamma must be > 0 and finite"):
        remap_intensity(np.array([[0.0, 0.5, 1.0]]), "gamma", gamma=gamma)


def test_remap_neglog_monotone_decreasing():
    img = np.linspace(0, 255, 32).reshape(1, 32)
    out = remap_intensity(img, "neglog")
    assert np.all(np.diff(out[0]) < 0)
    assert out.min() == pytest.approx(0.0) and out.max() == pytest.approx(255.0)


def test_remap_unknown_mode():
    with pytest.raises(ValueError, match="unknown remap mode"):
        remap_intensity(np.zeros((2, 2)), "sepia")


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


def test_overlay_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        overlay_diff(np.zeros((4, 4)), np.zeros((4, 5)), np.ones((4, 4), bool))

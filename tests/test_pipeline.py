"""Registration strategy and evaluation tests.

The heavy statistical recovery claims live in test_acceptance; here the
runs are kept small (64x64, few seeds) and target plumbing correctness.
"""

import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from wavereg import (
    AffineParams,
    OptimizerConfig,
    RegistrationConfig,
    RegistrationError,
    register,
)
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg.metric import joint_histogram
from wavereg.pipeline import _reconstruct_from_bands
from wavereg.transform import invert_params, warp
from wavereg.wavelet import dwt2


def _phantom(size=64, seed=0):
    return generate_pair(FixtureSpec(size=size, seed=seed))[0]


def _config(method, seed=0, **kw):
    return RegistrationConfig(
        method=method, optimizer=OptimizerConfig(seed=seed), **kw
    )


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
def test_self_registration_near_identity(method):
    fixed = _phantom()
    hits = 0
    for seed in range(5):
        r = register(fixed, fixed, _config(method, seed=seed))
        p = r.params
        if abs(p.tx) < 0.5 and abs(p.ty) < 0.5 and abs(p.theta) < 0.01:
            hits += 1
    assert hits >= 4
    assert r.registered.shape == fixed.shape
    assert r.method == method


def test_pyramid_translation_recovery():
    fixed = _phantom(96)
    moving, _ = warp(fixed, AffineParams(tx=-8, ty=5))
    hits = 0
    for seed in range(5):
        r = register(fixed, moving, _config("pyramid", seed=seed))
        hits += abs(r.params.tx - 8) < 0.5 and abs(r.params.ty + 5) < 0.5
    assert hits >= 4


def test_pyramid_multimodal_rotation_recovery():
    # intensity-inverted and rotated: MI must cope where raw CC could not;
    # the checker carries strong angular structure (the phantom's nested
    # ellipses are too close to rotationally symmetric for a pure rotation)
    fixed, moving, truth = generate_pair(
        FixtureSpec(base_pattern="checker", size=96,
                    truth=AffineParams(theta=math.radians(5)),
                    remap="invert", seed=1)
    )
    target = invert_params(truth)
    hits = 0
    for seed in range(5):
        r = register(fixed, moving, _config("pyramid", seed=seed))
        hits += abs(r.params.theta - target.theta) < math.radians(0.5)
    assert hits >= 4


def test_wavelet_translation_scaling():
    # a (-4, -4) full-resolution shift is (-2, -2) in sub-band space; the
    # reported parameters must come back in full-resolution coordinates
    fixed = _phantom(96, seed=2)
    moving, _ = warp(fixed, AffineParams(tx=-4, ty=-4))
    hits = 0
    for seed in range(5):
        r = register(fixed, moving, _config("wavelet", seed=seed))
        hits += abs(r.params.tx - 4) < 0.5 and abs(r.params.ty - 4) < 0.5
    assert hits >= 4


def test_wavelet_reconstruction_error_bounded():
    # inject ground truth with the optimizer disabled: warp-then-IDWT must
    # track the direct spatial warp within 2% mean abs error on the interior
    fixed, moving, truth = generate_pair(
        FixtureSpec(size=128, truth=AffineParams(tx=5, ty=-3, theta=0.05), seed=3)
    )
    recovery = invert_params(truth)
    cfg = RegistrationConfig(
        method="wavelet",
        optimizer=OptimizerConfig(max_iterations=0),
        initial_params=recovery,
    )
    result = register(fixed, moving, cfg)
    spatial, smask = warp(moving, recovery)
    inner = result.mask & smask
    inner[:4] = inner[-4:] = False
    inner[:, :4] = inner[:, -4:] = False
    err = np.abs(result.registered[inner] - spatial[inner]).mean()
    assert err <= 0.02 * 255.0
    # parameters pass through untouched when the optimizer cannot move
    assert result.params.tx == pytest.approx(recovery.tx)


def test_injected_truth_zero_iterations_all_methods():
    fixed, moving, truth = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=4, ty=-2), seed=4)
    )
    recovery = invert_params(truth)
    for method in ("pyramid", "wavelet", "dwt_pyramid"):
        cfg = RegistrationConfig(
            method=method,
            optimizer=OptimizerConfig(max_iterations=0),
            initial_params=recovery,
        )
        r = register(fixed, moving, cfg)
        # plumbing adds no transform error: registered matches fixed closely
        inner = r.mask.copy()
        inner[:4] = inner[-4:] = False
        inner[:, :4] = inner[:, -4:] = False
        err = np.abs(r.registered[inner] - fixed[inner]).mean()
        assert err <= 0.02 * 255.0, method


def test_trace_count_matches_levels():
    fixed = _phantom()
    r = register(fixed, fixed, _config("pyramid"))
    assert len(r.traces) == 3  # 64 -> 32 -> 16
    r = register(fixed, fixed, _config("wavelet"))
    assert len(r.traces) == 1  # single resolution
    r = register(fixed, fixed, _config("dwt_pyramid"))
    assert len(r.traces) == 3  # 32-px bands -> 16 -> 8


def test_determinism():
    fixed, moving, _ = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=3, ty=-2), remap="invert", seed=5)
    )
    r1 = register(fixed, moving, _config("dwt_pyramid", seed=9))
    r2 = register(fixed, moving, _config("dwt_pyramid", seed=9))
    assert r1.params == r2.params
    assert r1.final_mi_bits == r2.final_mi_bits
    assert np.array_equal(r1.registered, r2.registered)
    assert np.array_equal(r1.mask, r2.mask)


def test_result_invariants():
    fixed, moving, _ = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=2, ty=1), seed=6)
    )
    for method in ("pyramid", "wavelet", "dwt_pyramid"):
        r = register(fixed, moving, _config(method))
        assert -1.0 <= r.cc <= 1.0
        assert r.final_mi_bits >= -1e-12
        assert r.registered.shape == fixed.shape
        assert r.mask.dtype == bool


def test_ll_only_objective_runs():
    fixed = _phantom()
    cfg = _config("dwt_pyramid")
    cfg.subband_objective = "ll_only"
    r = register(fixed, fixed, cfg)
    assert abs(r.params.tx) < 0.5


def test_too_small_images_rejected():
    img = np.zeros((16, 16))
    with pytest.raises(ValueError, match="at least"):
        register(img, img, _config("pyramid"))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
def test_shape_mismatch_rejected(method):
    fixed = _phantom()
    with pytest.raises(ValueError, match="differ in shape"):
        register(fixed, fixed[:, :48], _config(method))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_pixels_rejected(method, bad):
    fixed = _phantom()
    broken = fixed.copy()
    broken[10, 20] = bad
    with pytest.raises(ValueError, match="moving image has non-finite"):
        register(fixed, broken, _config(method))
    with pytest.raises(ValueError, match="fixed image has non-finite"):
        register(broken, fixed, _config(method))


def test_lost_overlap_raises():
    fixed = _phantom()
    cfg = _config("pyramid")
    cfg.initial_params = AffineParams(tx=500, ty=500)
    with pytest.raises(RegistrationError, match="lost overlap"):
        register(fixed, fixed, cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        RegistrationConfig(method="icp").validate()
    with pytest.raises(ValueError):
        RegistrationConfig(pyramid_levels=0).validate()
    with pytest.raises(ValueError, match="subband objective"):
        RegistrationConfig(subband_objective="hh_only").validate()


def test_reconstruct_from_bands_identity():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, (64, 64))
    registered, mask = _reconstruct_from_bands(dwt2(img), AffineParams(), img.shape)
    assert mask.all()
    assert np.abs(registered - img).max() < 1e-9


def test_evaluate_identical_pair():
    """``register`` evaluates its own result: on a pair of identical images
    with the optimizer idle, cc is 1 and final_mi_bits is the self-MI."""
    fixed = _phantom()
    cfg = _config("pyramid")
    cfg.optimizer = OptimizerConfig(max_iterations=0)
    r = register(fixed, fixed, cfg)
    assert r.mask.all()
    assert r.cc == pytest.approx(1.0, abs=1e-9)
    # self-MI equals the entropy of the binned fixed distribution
    h = joint_histogram(fixed, fixed, r.mask)
    p = h.counts.sum(axis=1) / h.total
    p = p[p > 0]
    assert r.final_mi_bits == pytest.approx(float(-(p * np.log2(p)).sum()), abs=1e-6)


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("which", ["fixed", "moving"])
def test_constant_image_rejected(method, which):
    image = _phantom()
    flat = np.full_like(image, 0.5)
    pair = (flat, image) if which == "fixed" else (image, flat)
    with pytest.raises(ValueError, match=f"{which} image is constant"):
        register(*pair, _config(method))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("bins", [1, 0])
def test_bad_histogram_bins_fails_fast(method, bins):
    # the objective turns a ValueError into -inf, so only a check before
    # the optimization can name the cause instead of "lost overlap"
    fixed = _phantom()
    cfg = _config(method)
    cfg.histogram_bins = bins
    with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
        register(fixed, fixed, cfg)


def test_config_validation_covers_metric_and_optimizer():
    with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
        RegistrationConfig(histogram_bins=1).validate()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RegistrationConfig(optimizer=OptimizerConfig(seed=-1)).validate()


@pytest.mark.parametrize("field, value", [("seed", -1), ("max_iterations", -1)])
def test_unworkable_optimizer_settings_fail_fast(field, value, monkeypatch):
    # a negative seed used to run the coarser levels (seeds 1 and 0) and
    # fail only at the finest one, in the random generator
    calls = []
    monkeypatch.setattr("wavereg.pipeline.optimize", lambda *a: calls.append(a))
    fixed, moving, _ = generate_pair(FixtureSpec(size=64, truth=AffineParams(tx=3), seed=2))
    cfg = _config("pyramid")
    cfg.optimizer = OptimizerConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        register(fixed, moving, cfg)
    assert calls == []


def _rotated_invert_pair():
    fixed, moving, _ = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=3, ty=-2, theta=0.05),
                    remap="invert", seed=5)
    )
    return fixed, moving


@pytest.mark.parametrize("objective", ["sum_all_bands", "ll_only"])
def test_wavelet_is_one_level_dwt_pyramid(objective):
    fixed, moving = _rotated_invert_pair()
    cfg = RegistrationConfig(
        method="wavelet", subband_objective=objective,
        optimizer=OptimizerConfig(seed=9, max_iterations=40),
    )
    a = register(fixed, moving, cfg)
    b = register(fixed, moving, replace(cfg, method="dwt_pyramid", pyramid_levels=1))
    assert a.params.as_vector().tobytes() == b.params.as_vector().tobytes()
    assert a.registered.tobytes() == b.registered.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()
    assert a.final_mi_bits == b.final_mi_bits
    assert a.max_mi_bits == b.max_mi_bits
    assert a.cc == b.cc
    assert len(a.traces) == len(b.traces) == 1
    assert [r.value for r in a.traces[0].records] == [r.value for r in b.traces[0].records]
    assert (a.method, b.method) == ("wavelet", "dwt_pyramid")


GOLDEN_DIGESTS = {
    "pyramid": "c30761a2bffb6a48861444d1cb0311a652efb525a3f4131c706d873b8c2a75bd",
    "wavelet": "34a88fcc38bcbb230bb8758ac8afa25af900a5bf1399c1973aeacb9c228b50e0",
    "dwt_pyramid": "c542b30bed11ef0b451eb86d194bd56f76bc52a700c0da3f09b9a3ca4c2cfb7e",
    "dwt_pyramid-ll_only": "7b4136f7fa72b18292191e21bd06bafe5235e6ab6b2a42a6d15f6b762f5259c0",
    "dwt_pyramid-61x59": "f84d183a9bc658f34253b96d07af6c56fad2373929d848a7fb7eea777c45bbfb",
}

# cases beyond a method's defaults: (method, config fields, crop of the pair);
# the odd crop goes through dwt2's edge padding and idwt2's crop
GOLDEN_CASES = {
    "dwt_pyramid-ll_only": ("dwt_pyramid", {"subband_objective": "ll_only"}, (64, 64)),
    "dwt_pyramid-61x59": ("dwt_pyramid", {}, (61, 59)),
}


@pytest.mark.parametrize("method", sorted(GOLDEN_DIGESTS))
def test_golden_digest(method):
    """Results stay bit for bit what they were: SHA-256 of params,
    registered image, mask and final MI, the recipe of
    ``perfbench/checks.digest``. The digests were recorded with NumPy 2.4.6
    and SciPy 1.17.1 and are tied to that build: another NumPy may round a
    reduction differently and change them with no change in wavereg."""
    fixed, moving = _rotated_invert_pair()
    case, fields, (h, w) = GOLDEN_CASES.get(method, (method, {}, (64, 64)))
    r = register(fixed[:h, :w], moving[:h, :w], RegistrationConfig(
        method=case, optimizer=OptimizerConfig(seed=9, max_iterations=40), **fields))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(r.params.as_vector(), dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(r.registered, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(r.mask, dtype=bool).tobytes())
    h.update(struct.pack("<d", r.final_mi_bits))
    assert h.hexdigest() == GOLDEN_DIGESTS[method]

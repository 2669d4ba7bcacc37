"""Registration strategy and evaluation tests.

The heavy statistical recovery claims live in test_acceptance; here the
runs are kept small (64x64, few seeds) and target plumbing correctness.
"""

import math

import numpy as np
import pytest

from wavereg import (
    AffineParams,
    MetricConfig,
    OptimizerConfig,
    RegistrationConfig,
    RegistrationError,
    evaluate,
    register,
    register_wavelet,
    warp,
)
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg.pipeline import _reconstruct_from_bands
from wavereg.transform import invert_params
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
    result = register_wavelet(fixed, moving, cfg)
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


def test_parameter_mask_freezes_parameters():
    fixed, moving, _ = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=4, ty=-3), seed=7)
    )
    cfg = _config("pyramid")
    cfg.parameter_mask = (True, True, False, False, False, False)
    r = register(fixed, moving, cfg)
    assert r.params.theta == 0.0
    assert r.params.sx == 1.0 and r.params.sy == 1.0 and r.params.k == 0.0
    assert abs(r.params.tx) > 1.0  # the free parameters did move


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
    with pytest.raises(ValueError):
        RegistrationConfig(parameter_mask=(True,) * 5).validate()


def test_reconstruct_from_bands_identity():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, (64, 64))
    registered, mask = _reconstruct_from_bands(dwt2(img), AffineParams())
    assert mask.all()
    assert np.abs(registered - img).max() < 1e-9


def test_evaluate_identical_pair():
    fixed = _phantom()
    cfg = _config("pyramid")
    cfg.optimizer = OptimizerConfig(max_iterations=0)
    r = register(fixed, fixed, cfg)
    out = evaluate(fixed, r, MetricConfig())
    assert out["cc"] == pytest.approx(1.0, abs=1e-9)
    # self-MI equals the entropy of the binned fixed distribution
    from wavereg import joint_histogram

    h = joint_histogram(fixed, fixed, r.mask)
    p = h.counts.sum(axis=1) / h.total
    p = p[p > 0]
    assert out["mi_bits"] == pytest.approx(float(-(p * np.log2(p)).sum()), abs=1e-6)
    assert out["overlap_pixels"] == fixed.size
    # idempotence
    assert evaluate(fixed, r, MetricConfig()) == out


def test_evaluate_constant_registered_errors():
    fixed = _phantom()
    cfg = _config("pyramid")
    cfg.optimizer = OptimizerConfig(max_iterations=0)
    r = register(fixed, fixed, cfg)
    r.registered = np.full_like(fixed, 9.0)
    with pytest.raises(ValueError, match="undefined correlation"):
        evaluate(fixed, r, MetricConfig())


def test_evaluate_shape_mismatch():
    fixed = _phantom()
    cfg = _config("pyramid")
    cfg.optimizer = OptimizerConfig(max_iterations=0)
    r = register(fixed, fixed, cfg)
    with pytest.raises(ValueError, match="dimension mismatch"):
        evaluate(np.zeros((32, 32)), r, MetricConfig())

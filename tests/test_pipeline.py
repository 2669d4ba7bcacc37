"""Registration strategy and evaluation tests.

The heavy statistical recovery claims live in test_acceptance; here the
runs are kept small (64x64, few seeds) and target plumbing correctness.
"""

import gc
import hashlib
import math
import platform
import struct
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavereg
from wavereg import (
    AffineParams,
    OptimizerConfig,
    RegistrationConfig,
    RegistrationError,
    register,
)
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg.metric import joint_histogram, mi_between
from wavereg.optimizer import WINDOW, OptimizerTrace
from wavereg.pipeline import (
    _MEMO_SIZE,
    MIN_OVERLAP_FRACTION,
    _coarse_to_fine,
    _LevelObjective,
)
from wavereg.pyramid import build_pyramid
from wavereg import optimizer, pipeline, transform
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


def test_wavelet_reconstruction_error_bounded(monkeypatch):
    # the ground truth, halved into sub-band space: warp-then-IDWT must
    # track the direct spatial warp within 2% mean abs error on the interior
    _, moving, truth = generate_pair(
        FixtureSpec(size=128, truth=AffineParams(tx=5, ty=-3, theta=0.05), seed=3)
    )
    recovery = invert_params(truth)
    monkeypatch.setattr("wavereg.pipeline._coarse_to_fine", lambda objectives, config: (
        replace(recovery, tx=recovery.tx * 0.5, ty=recovery.ty * 0.5), [OptimizerTrace()]))
    r = register(moving, moving, _config("wavelet"))
    assert r.params == recovery
    registered, mask = r.registered, r.mask
    spatial, smask = warp(moving, recovery)
    inner = mask & smask
    inner[:4] = inner[-4:] = False
    inner[:, :4] = inner[:, -4:] = False
    err = np.abs(registered[inner] - spatial[inner]).mean()
    assert err <= 0.02 * 255.0


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


@pytest.mark.parametrize("which", ["fixed", "moving"])
@pytest.mark.parametrize("dtype", ["complex128", "object"])
def test_non_real_images_rejected(which, dtype):
    # a complex image registered on its real part with only ComplexWarnings,
    # and an object image failed in np.isfinite with a TypeError naming no input
    image = _phantom()
    pair = (image.astype(dtype), image) if which == "fixed" else (image, image.astype(dtype))
    with pytest.raises(ValueError, match=rf"{which} image must be real-valued "
                                         rf"\(bool, integer or float\), got {dtype}"):
        register(*pair, _config("pyramid"))


def test_nested_list_images_register_as_their_arrays():
    # a list failed with AttributeError: 'list' object has no attribute 'ndim'
    fixed, moving = _rotated_invert_pair()
    config = RegistrationConfig(optimizer=OptimizerConfig(seed=9, max_iterations=40))
    assert (_digest(register(fixed.tolist(), moving.tolist(), config))
            == _digest(register(fixed, moving, config)))


def test_lost_overlap_raises():
    # an objective that is -inf at a level's start point has lost the overlap
    with pytest.raises(RegistrationError, match="lost overlap"):
        _coarse_to_fine([lambda p: -math.inf], _config("pyramid"))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        RegistrationConfig(method="icp").validate()
    with pytest.raises(ValueError):
        RegistrationConfig(pyramid_levels=0).validate()


def test_reconstruct_from_bands_identity():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, (64, 64))
    cfg = _config("wavelet")
    cfg.optimizer = OptimizerConfig(max_iterations=0)
    r = register(img, img, cfg)
    assert r.params == AffineParams()
    assert r.mask.all()
    assert np.abs(r.registered - img).max() < 1e-9


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
@pytest.mark.parametrize("which", ["fixed", "moving"])
def test_near_constant_image_rejected(method, which):
    # a range within 16 eps of its magnitude is flat to the metric, so a
    # registration of this image could only end at a final MI of 0
    image = _phantom()
    flat = 1000.0 + 1e-13 * np.random.default_rng(0).uniform(size=image.shape)
    assert flat.min() != flat.max()
    pair = (flat, image) if which == "fixed" else (image, flat)
    with pytest.raises(ValueError, match=f"{which} image is constant"):
        register(*pair, _config(method))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("which", ["fixed", "moving"])
def test_overflowing_range_rejected(method, which):
    # finite pixels whose max - min is inf used to end in "lost overlap"; one
    # pixel one ulp past +-2**1020 is refused as well
    image = _phantom()
    past = np.ldexp(image / 255.0, 1020)
    past[5, 7] = np.nextafter(2.0 ** 1020, np.inf)
    for huge in (np.random.default_rng(0).uniform(-1, 1, image.shape) * 1.7e308, past, -past):
        pair = (huge, image) if which == "fixed" else (image, huge)
        with pytest.raises(ValueError, match=f"{which} image range .* overflows float64"):
            register(*pair, _config(method))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("which", ["fixed", "moving"])
def test_overflowing_pyramid_rejected(method, which):
    # a finite range whose pyramid or Haar pair sums overflow used to end in
    # "lost overlap": every level's objective was -inf at the identity; the
    # pixel bound now refuses it before any pyramid is built
    image = _phantom()
    huge = np.random.default_rng(0).uniform(0.9, 1.7, image.shape) * 1e308
    pair = (huge, image) if which == "fixed" else (image, huge)
    with pytest.raises(ValueError, match=f"{which} image range .* overflows float64"):
        register(*pair, _config(method))


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("which", ["fixed", "moving"])
def test_pixels_near_float64_max_rejected(method, levels, which):
    # 0 / finfo.max pixels and a 2 px shift: a one-level pyramid run scored
    # most candidates -inf (their bilinear sums overflowed) and returned
    # params far from the truth; other runs blamed an overflowing pyramid
    phantom = _phantom()
    top = np.finfo(np.float64).max
    huge = np.where(phantom > np.median(phantom), top, 0.0)
    huge[:8] = 0.3 * top
    pair = (huge, np.roll(huge, 2, 1)) if which == "fixed" else (phantom, np.roll(huge, 2, 1))
    with pytest.raises(ValueError, match=f"{which} image range .* overflows float64"):
        register(*pair, _config(method, pyramid_levels=levels))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("levels", [1, 3])
def test_pixels_at_the_bound_register_as_at_unit_scale(method, levels):
    """Pixels up to exactly +-2**1020 keep every sum finite (Haar bands
    <= 2**1021, pyramid pair sums <= 2**1022, bilinear sums <= 2**1021 (1 +
    eps), inverse-DWT sums <= 2**1023), and a power-of-two scale moves no
    bin, so the run is the unit-scale run scaled: no check inside needed."""
    phantom = [x / np.abs(x).max() for x in _rotated_invert_pair()]  # 1 reached
    checker = [2 * (x - x.min()) / (x.max() - x.min()) - 1 for x in generate_pair(FixtureSpec(
        base_pattern="checker", size=64, truth=AffineParams(tx=2, ty=-1), seed=3))[:2]]
    assert checker[0].min() == -1.0 and checker[0].max() == 1.0
    config = RegistrationConfig(method=method, pyramid_levels=levels,
                                optimizer=OptimizerConfig(seed=4, max_iterations=60))
    for fixed, moving in (phantom, checker):
        assert np.abs(fixed).max() == np.abs(moving).max() == 1.0
        unit = register(fixed, moving, config)
        huge = register(np.ldexp(fixed, 1020), np.ldexp(moving, 1020), config)
        assert np.isfinite(huge.registered).all()
        assert math.isfinite(huge.final_mi_bits) and math.isfinite(huge.cc)
        assert huge.params == unit.params
        assert np.array_equal(huge.registered, np.ldexp(unit.registered, 1020))
        assert (huge.final_mi_bits, huge.cc) == (unit.final_mi_bits, unit.cc)


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
@pytest.mark.parametrize("bins", [1, 0])
def test_bad_histogram_bins_fails_fast(method, bins):
    # checked before the optimization, so the message names the cause
    # instead of a failure somewhere inside a level's objective
    fixed = _phantom()
    cfg = _config(method)
    cfg.histogram_bins = bins
    with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
        register(fixed, fixed, cfg)


def test_huge_histogram_bins_fails_fast():
    # unchecked, the run registered every level and then asked NumPy for
    # a 10**19-edge histogram in its final metric
    fixed = _phantom()
    cfg = _config("pyramid", histogram_bins=10**19)
    cfg.optimizer = OptimizerConfig(max_iterations=1)
    with pytest.raises(ValueError, match="histogram_bins must be >= 2 and <= 1024, got 10"):
        register(fixed, fixed, cfg)
    RegistrationConfig(histogram_bins=1024).validate()
    with pytest.raises(ValueError, match="histogram_bins must be >= 2 and <= 1024, got 1025"):
        RegistrationConfig(histogram_bins=1025).validate()


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


@pytest.mark.parametrize("field, value", [
    ("histogram_bins", 20.5), ("pyramid_levels", 2.0), ("max_iterations", 3.5), ("seed", 1.5),
])
def test_non_integer_settings_fail_fast(field, value, monkeypatch):
    # 20.5 bins used to die in _bin_index with a UFuncTypeError after the
    # pyramids were built; 2.0 levels and 3.5 iterations gave "'float' object
    # cannot be interpreted as an integer"; seed 1.5 gave a SeedSequence error
    # quoting 3.5, the seed plus the level
    calls = []
    monkeypatch.setattr("wavereg.pipeline.build_pyramid", lambda *a: calls.append(a))
    cfg = _config("dwt_pyramid")
    owner = cfg.optimizer if hasattr(cfg.optimizer, field) else cfg
    setattr(owner, field, value)
    fixed = _phantom()
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
        register(fixed, fixed, cfg)
    assert calls == []
    setattr(owner, field, np.int64(value))  # a NumPy integer is an integer
    cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("histogram_bins", True), ("pyramid_levels", True), ("max_iterations", False), ("seed", True),
])
def test_bool_settings_fail_fast(field, value, monkeypatch):
    # a bool is a numbers.Integral: pyramid_levels=True ran one level,
    # max_iterations=False none, seed=True ran as seed 1 and histogram_bins=True
    # read "must be >= 2"
    calls = []
    monkeypatch.setattr("wavereg.pipeline.build_pyramid", lambda *a: calls.append(a))
    cfg = _config("dwt_pyramid")
    setattr(cfg.optimizer if hasattr(cfg.optimizer, field) else cfg, field, value)
    fixed = _phantom()
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
        register(fixed, fixed, cfg)
    assert calls == []


def _rotated_invert_pair():
    fixed, moving, _ = generate_pair(
        FixtureSpec(size=64, truth=AffineParams(tx=3, ty=-2, theta=0.05),
                    remap="invert", seed=5)
    )
    return fixed, moving


def test_wavelet_is_one_level_dwt_pyramid():
    fixed, moving = _rotated_invert_pair()
    cfg = RegistrationConfig(
        method="wavelet", optimizer=OptimizerConfig(seed=9, max_iterations=40),
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
    "dwt_pyramid-61x59": "f84d183a9bc658f34253b96d07af6c56fad2373929d848a7fb7eea777c45bbfb",
}

# cases beyond a method's defaults: (method, config fields, crop of the pair);
# the odd crop goes through dwt2's edge padding and idwt2's crop
GOLDEN_CASES = {
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


def _digest(result):
    """SHA-256 of a result's params, registered image, mask and final MI."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.params.as_vector(), dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.registered, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.mask, dtype=bool).tobytes())
    h.update(struct.pack("<d", result.final_mi_bits))
    return h.hexdigest()


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
def test_window_of_8_or_16_gives_the_same_result(method, monkeypatch):
    """The look-ahead window sets only how many candidates a call scores:
    with a window of 8 or of 16, the digest and every level's trace table
    are the same bytes."""
    fixed, moving = _rotated_invert_pair()
    runs, score = [], _LevelObjective._score
    for window in (8, 16):
        passes = []
        monkeypatch.setattr(optimizer, "WINDOW", window)
        monkeypatch.setattr(pipeline, "WINDOW", window)
        monkeypatch.setattr(_LevelObjective, "_score",
                            lambda self, vectors: passes.append(len(vectors)) or score(self, vectors))
        r = register(fixed, moving, RegistrationConfig(method=method,
                                                       optimizer=OptimizerConfig(seed=9)))
        assert max(passes) == window
        runs.append((_digest(r), [t.table.tobytes() for t in r.traces]))
    assert runs[0] == runs[1]


def _summed_mi(fixed, moving, bins, p):
    """The level objective as plain public calls: one warp, then each plane
    pair's MI added in stack order from 0.0."""
    warped, mask = warp(moving, p)
    if np.count_nonzero(mask) < MIN_OVERLAP_FRACTION * mask.size:
        return -math.inf
    total = 0.0
    for f, w in zip(fixed, warped):
        total += mi_between(f, w, mask, bins)
    return total


def _objective_levels():
    """(name, fixed stack, moving stack) for every pyramid level of the
    image and of its four sub-bands, on two pairs and an odd crop, plus
    stacks with flat planes."""
    phantom = _rotated_invert_pair()
    noise = generate_pair(FixtureSpec(
        base_pattern="noise_smoothed", size=64, remap="gamma", noise_sigma=0.01,
        truth=AffineParams(tx=-2, ty=3, theta=-0.04), seed=7))[:2]
    crop = tuple(image[:61, :59] for image in phantom)
    for pair, (fixed, moving) in (("phantom", phantom), ("noise", noise), ("crop", crop)):
        for k, planes in ((1, lambda x: x[None]), (4, dwt2)):
            for level, (f, m) in enumerate(zip(build_pyramid(planes(fixed), 3),
                                               build_pyramid(planes(moving), 3))):
                yield f"{pair}-k{k}-level{level}", f, m
    f, m = dwt2(phantom[0]), dwt2(phantom[1])
    flat_fixed = f.copy()
    flat_fixed[2] = 7.0
    yield "flat-fixed-band", flat_fixed, m
    flat_moving = m.copy()
    flat_moving[0] = -3.0
    yield "flat-moving-band", f, flat_moving
    yield "all-flat", np.ones_like(f), m
    # flat over the overlap of some transforms only: a shift of tx = -11
    # keeps fixed columns from 11 on and moving columns up to 21
    part_fixed, part_moving = f.copy(), m.copy()
    part_fixed[2, :, 10:] = 7.0
    part_moving[0, :, :22] = -3.0
    yield "part-flat", part_fixed, part_moving


def test_level_objective_equals_summed_mi_between():
    """The per-level objective gives the bits of ``_summed_mi`` at random
    transforms, including lost overlaps, masked fixed ranges narrower than
    the plane's and more (plane, range) tables than the level's cache
    keeps. Scored in batches of up to 8, mixing lost overlaps and flat
    pairs, each candidate gets the bits of its lone evaluation."""
    rng = np.random.default_rng(99)
    narrower = evicted = lost = mixed = 0
    for name, fixed, moving in _objective_levels():
        objective = _LevelObjective(fixed, moving, 50)
        size = moving.shape[-1]
        expected = {}
        for i in range(60):
            p = AffineParams(
                tx=rng.normal() * size / 12, ty=rng.normal() * size / 12,
                theta=rng.normal() * 0.1, sx=rng.uniform(0.9, 1.1),
                sy=rng.uniform(0.9, 1.1), k=rng.normal() * 0.05)
            if i % 20 == 19:
                p = AffineParams(tx=0.6 * size)  # keeps less than half the level
            if i % 20 == 9:
                p = AffineParams(tx=-11.0, ty=rng.normal())  # the part-flat level's flat pairs
            expected[p] = _summed_mi(fixed, moving, objective.bins, p)
            assert objective(p).hex() == expected[p].hex(), (name, i, p)
            lost += expected[p] == -math.inf
            mask = warp(moving, p)[1]
            if name.startswith(("phantom", "noise", "crop")) and mask.any():
                masked = fixed[0][mask]
                narrower += (masked.min(), masked.max()) != (fixed[0].min(), fixed[0].max())
        candidates = list(expected)
        specials = [p for p in candidates if p.tx in (0.6 * size, -11.0)]
        for _ in range(12):
            picks = rng.choice(len(candidates), size=rng.integers(1, 8), replace=False)
            batch = [candidates[j] for j in picks] + [specials[rng.integers(len(specials))]]
            rng.shuffle(batch)
            values = objective._score(np.array([p.as_vector() for p in batch]))
            assert [v.hex() for v in values] == [expected[p].hex() for p in batch], name
            mixed += -math.inf in values and not all(map(math.isinf, values))
        tables = objective.binned.cache_info()
        assert tables.currsize <= _MEMO_SIZE * len(fixed)
        evicted += tables.misses > _MEMO_SIZE * len(fixed)
    assert narrower > 0 and evicted > 0 and lost > 0 and mixed > 0


def test_level_objective_raises_on_a_non_finite_fixed_plane():
    # it scored -inf; register cannot build such a level, as it refuses
    # pixels beyond +-2**1020, under which no band or pyramid sum overflows
    fixed, moving = (dwt2(x) for x in _rotated_invert_pair())
    fixed[1, 5, 5] = np.inf
    with pytest.raises(ValueError, match="^non-finite intensities in the overlap$"):
        _LevelObjective(fixed, moving, 50)(AffineParams())


def test_sixteen_candidates_a_call_equal_their_lone_evaluations():
    """A call of 16 candidates on a 16x16 plane, and on a 4x8x8 stack with a
    constant fixed plane (a flat pair for every candidate), gives each
    candidate the bits of ``_summed_mi``, also where the masked fixed ranges
    differ from candidate to candidate; a batch with a candidate pushed out
    of overlap scores each candidate alone and gives the same bits."""
    fixed, moving = _rotated_invert_pair()
    plane = [build_pyramid(image[None], 3)[2] for image in (fixed, moving)]
    stack = [build_pyramid(dwt2(image), 3)[2] for image in (fixed, moving)]
    stack[0][2] = 7.0
    rng, ranges = np.random.default_rng(5), set()
    for f, m in (plane, stack):
        objective = _LevelObjective(f, m, 50)
        assert objective.batch == 16 and m.shape[-1] in (8, 16)
        size = m.shape[-1]
        candidates = [AffineParams(
            tx=rng.normal() * size / 16, ty=rng.normal() * size / 16, theta=rng.normal() * 0.05,
            sx=rng.uniform(0.95, 1.05), sy=rng.uniform(0.95, 1.05)) for _ in range(16)]
        candidates.append(AffineParams(tx=0.6 * size))  # keeps less than half the level
        expected = [_summed_mi(f, m, objective.bins, p).hex() for p in candidates]
        assert expected[-1] == (-math.inf).hex() and (-math.inf).hex() not in expected[:-1]
        ranges |= {(len(f), f[0][mask].min(), f[0][mask].max())
                   for mask in (warp(m, p)[1] for p in candidates[:-1])}
        for batch in (slice(0, 16), slice(1, 17)):
            values = objective._score(np.array([p.as_vector() for p in candidates[batch]]))
            assert [v.hex() for v in values] == expected[batch]
    assert len(ranges) > 2


def _end_levels():
    """(name, fixed stack, moving stack) of the finest image and sub-band
    levels of a 128x128 pair, as they are and with fixed planes whose 32
    lowest pixels all lie in columns 0-2, whose minimum is tied over many
    pixels, or whose masked minimum is -0.0 and +0.0 at once."""
    fixed, moving, _ = generate_pair(FixtureSpec(
        size=128, truth=AffineParams(tx=3, ty=-2, theta=0.05), remap="invert", seed=5))
    for k, planes in ((1, lambda image: image[None]), (4, dwt2)):
        f, m = planes(fixed), planes(moving)
        low = f.min(axis=(1, 2), keepdims=True)
        yield f"k{k}", f, m
        cornered = f.copy()
        cornered[:, :, :3] = low - 1.0 - np.arange(3)
        yield f"k{k}-lowest-in-columns-0-2", cornered, m
        tied = f.copy()
        tied[:, 30:100:3, 30:100:3] = low
        yield f"k{k}-tied-minimum", tied, m
        zeros = f - low  # +0.0 where the plane is lowest
        zeros[:, 60:68, 60:68] = -0.0
        yield f"k{k}-signed-zeros", zeros, m


def test_level_objective_reads_masked_ranges_from_the_ends():
    """Scored four candidates a call, the finest levels of a 128x128 pair give
    the bits of ``_summed_mi``: where the fixed range comes from the masked
    lowest and highest pixels, where a shift masks out all of the lowest
    pixels (the masked pixels are then read whole), with the minimum tied
    over many pixels, and with -0.0 and +0.0 both at the minimum."""
    rng = np.random.default_rng(7)
    for name, fixed, moving in _end_levels():
        objective = _LevelObjective(fixed, moving, 50)
        assert objective.batch == 4, name
        size = moving.shape[-1]
        candidates = [AffineParams(
            tx=rng.normal() * size / 40, ty=rng.normal() * size / 40, theta=rng.normal() * 0.05,
            sx=rng.uniform(0.95, 1.05), sy=rng.uniform(0.95, 1.05)) for _ in range(6)]
        candidates += [AffineParams(tx=-4.0, ty=rng.normal(), theta=0.01 * i) for i in range(2)]
        for p in candidates[-2:]:  # neither keeps any of a plane's lowest pixels
            mask = warp(moving, p)[1].ravel()
            assert mask[objective.ends[:, 0]].any() == (not name.endswith("columns-0-2")), name
        expected = [_summed_mi(fixed, moving, objective.bins, p).hex() for p in candidates]
        for start in range(0, len(candidates), 4):
            values = objective._score(np.array([p.as_vector() for p in candidates[start:start + 4]]))
            assert [v.hex() for v in values] == expected[start:start + 4], name


def test_level_objective_is_freed_by_reference_counting():
    """A level objective and its binned fixed planes are in no reference
    cycle: they are freed with the last reference, not at a later garbage
    collection."""
    fixed, moving = _rotated_invert_pair()
    objective = _LevelObjective(dwt2(fixed), dwt2(moving), 50)
    objective(AffineParams(tx=1.0))
    assert objective.binned.cache_info().currsize == 4
    freed = weakref.ref(objective)
    gc.disable()
    try:
        del objective
        assert freed() is None
    finally:
        gc.enable()


def test_a_kept_result_holds_its_traces_as_tables():
    """A 3-level 64² ``pyramid`` result holds its 1,500 iterations as three
    (500, 9) float64 tables (108 KiB) beside its image and mask. With an
    ``IterationRecord`` and an ``AffineParams`` per iteration it held about
    707 KiB, and a caller that keeps its results keeps all of that."""
    fixed, moving = _rotated_invert_pair()
    tracemalloc.start()
    try:
        result = register(fixed, moving, _config("pyramid"))
        gc.collect()  # so that only what the result holds is freed below
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 256 * 2**10


@pytest.mark.parametrize("method", ["pyramid", "wavelet", "dwt_pyramid"])
def test_one_objective_call_per_evaluated_record(method, monkeypatch):
    """Scoring candidates ahead never changes the calls: ``register`` makes
    one objective call per evaluated trace record, plus two per level at
    its start point, while small levels score several per pass."""
    calls, passes = [], []
    call, score = _LevelObjective.__call__, _LevelObjective._score
    monkeypatch.setattr(_LevelObjective, "__call__",
                        lambda self, p, ahead=(): calls.append(p) or call(self, p, ahead))
    monkeypatch.setattr(_LevelObjective, "_score",
                        lambda self, vectors: passes.append(len(vectors)) or score(self, vectors))
    fixed, moving = _rotated_invert_pair()
    r = register(fixed, moving, RegistrationConfig(
        method=method, optimizer=OptimizerConfig(seed=9, max_iterations=60)))
    evaluated = sum(not math.isnan(rec.value) for t in r.traces for rec in t.records)
    assert len(calls) == evaluated + 2 * len(r.traces)
    assert len(passes) < len(calls) and max(passes) > 1


@pytest.mark.parametrize("shape, scored", [
    ((1, 32, 32), 16), ((1, 64, 64), 16), ((4, 32, 32), 16), ((1, 128, 128), 4), ((4, 64, 64), 4),
    ((1, 256, 256), 1), ((4, 128, 128), 1),
], ids=["32x32", "64x64", "4x32x32", "128x128", "4x64x64", "256x256", "4x128x128"])
def test_look_ahead_batch_holds_at_most_65536_values(shape, scored, monkeypatch):
    """Offered the optimizer's whole window, a call scores as many candidates
    as hold 65,536 values together, at most the window: 16 up to 64x64 or
    4x32x32, 4 at 128x128 or 4x64x64, one from 256x256 or 4x128x128 on."""
    passes = []
    score = _LevelObjective._score
    monkeypatch.setattr(_LevelObjective, "_score",
                        lambda self, vectors: passes.append(len(vectors)) or score(self, vectors))
    fixed, moving = np.random.default_rng(0).uniform(size=(2, *shape))
    rows = AffineParams().as_vector() + np.random.default_rng(1).normal(scale=0.01, size=(WINDOW, 6))
    _LevelObjective(fixed, moving, 50)(AffineParams.from_vector(rows[0]), ahead=rows[1:])
    assert passes == [scored]


def test_batch_of_every_workload_level_is_what_a_call_scores():
    """``batch`` is what one call scores, the optimizer's window included:
    for every level of the benchmark's three workloads (64x64, 128x128 and
    256x256 images, three levels of the image or of its sub-bands) it is the
    look-ahead table's value, never more than ``WINDOW`` (16x16 and 4x8x8
    levels said 64)."""
    expected = {(1, 16, 16): 16, (1, 32, 32): 16, (1, 64, 64): 16, (1, 128, 128): 4,
                (1, 256, 256): 1, (4, 8, 8): 16, (4, 16, 16): 16, (4, 32, 32): 16,
                (4, 64, 64): 4, (4, 128, 128): 1}
    levels = {level.shape for size in (64, 128, 256) for planes in (np.ones((1, size, size)),
              dwt2(np.ones((size, size)))) for level in build_pyramid(planes, 3)}
    assert levels == set(expected)
    for shape, batch in expected.items():
        fixed, moving = np.random.default_rng(0).uniform(size=(2, *shape))
        assert _LevelObjective(fixed, moving, 50).batch == batch, shape


def test_look_ahead_batches_keep_bounded_memory():
    """Per-thread memory that a new thread keeps after one 4-candidate call
    on a 128x128 plane and one on a 4x64x64 stack: ``resample``'s 1,835,008
    bytes; for each of the 65,536 values 8 bytes of bin index, 16 of guess
    and run span, 8 of run offset, 2 of comparison flags and 4 of fixed cell
    table (38 in all); 17 bytes a cell for the MI of the 16,384-cell
    histograms. A single candidate has no run spans or offsets (22 bytes a
    value). Before these were kept, the two calls (then one candidate each)
    kept 1,605,632 bytes and a 256x256 call 2,490,368."""
    def kept(shapes, batch):
        rng = np.random.default_rng(0)
        for shape in shapes:
            fixed, moving = rng.uniform(size=(2, *shape))
            rows = AffineParams().as_vector() + rng.normal(scale=0.02, size=(batch, 6))
            _LevelObjective(fixed, moving, 50)(AffineParams.from_vector(rows[0]), ahead=rows[1:])
        return sum(buf.nbytes for buf in vars(transform._local).values())

    with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread keeps nothing yet
        assert pool.submit(kept, [(1, 128, 128), (4, 64, 64)], 4).result(timeout=60) <= (
            1_835_008 + 65_536 * 38 + 16_384 * 17)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(kept, [(1, 256, 256)], 1).result(timeout=60) <= (
            1_835_008 + 65_536 * 22 + 16_384 * 17)


# a fresh interpreter scoring a pair's four sub-bands (or the pair itself,
# argument "plane") at the given size, as many look-ahead candidates per pass
# as the level's batch (16 at 64x64, 4 at 128x128); prints the minor page
# faults of 200 passes
_FAULT_CHECK = """
import resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg.pipeline import _LevelObjective
from wavereg.transform import AffineParams
from wavereg.wavelet import dwt2
fixed, moving, _ = generate_pair(FixtureSpec(
    size=int(sys.argv[3]), truth=AffineParams(tx=3, ty=-2, theta=0.05), remap="invert", seed=5))
planes = (lambda image: image[None]) if sys.argv[2] == "plane" else dwt2
objective = _LevelObjective(planes(fixed), planes(moving), 50)
assert objective.batch == int(sys.argv[4])
rng = np.random.default_rng(0)
def evaluate():
    rows = AffineParams().as_vector() + rng.normal(scale=0.02, size=(objective.batch, 6))
    objective(AffineParams.from_vector(rows[0]), ahead=rows[1:])
for _ in range(20):
    evaluate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    evaluate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's heap trimming is what made these evaluations fault")
def test_look_ahead_level_does_not_page_fault():
    """A look-ahead pass reuses its largest temporaries. Allocated afresh,
    these ~120 KB arrays went back to the kernel after every pass under
    glibc's default trim threshold and were page-faulted in again: over 100
    faults a pass in this check. Four candidates of a 128x128 plane or of a
    4x64x64 stack hold 65,536 values, so their bin index and cell offsets
    are 512 KiB and their histograms 128 KiB; allocated afresh, the stack's
    took about 20,000 faults in this check."""
    src = str(Path(wavereg.__file__).resolve().parents[1])
    for planes, size, batch in (("sub-bands", "64", "16"), ("plane", "64", "16"),
                                ("plane", "128", "4"), ("sub-bands", "128", "4")):
        out = subprocess.run([sys.executable, "-c", _FAULT_CHECK, src, planes, size, batch],
                             check=True, capture_output=True, text=True, timeout=120)
        faults = int(out.stdout.strip().splitlines()[-1])
        assert faults < 2 * 200, (planes, size, faults)

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
import weakref
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
from wavereg.pipeline import (
    _MEMO_SIZE,
    MIN_OVERLAP_FRACTION,
    _coarse_to_fine,
    _LevelObjective,
    _reconstruct_from_bands,
)
from wavereg.pyramid import build_pyramid
from wavereg.transform import invert_params, scale_params_between_levels, warp
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
    # the ground truth, halved into sub-band space: warp-then-IDWT must
    # track the direct spatial warp within 2% mean abs error on the interior
    _, moving, truth = generate_pair(
        FixtureSpec(size=128, truth=AffineParams(tx=5, ty=-3, theta=0.05), seed=3)
    )
    recovery = invert_params(truth)
    registered, mask = _reconstruct_from_bands(
        dwt2(moving), scale_params_between_levels(recovery, 0.5), moving.shape)
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
@pytest.mark.parametrize("bins", [1, 0])
def test_bad_histogram_bins_fails_fast(method, bins):
    # the objective turns a ValueError into -inf, so only a check before
    # the optimization can name the cause instead of "lost overlap"
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


def _summed_mi(fixed, moving, bins, p):
    """The level objective as plain public calls: one warp, then each plane
    pair's MI added in stack order from 0.0."""
    warped, mask = warp(moving, p)
    if np.count_nonzero(mask) < MIN_OVERLAP_FRACTION * mask.size:
        return -math.inf
    total = 0.0
    for f, w in zip(fixed, warped):
        try:
            total += mi_between(f, w, mask, bins)
        except ValueError:
            return -math.inf
    return total


def _objective_levels():
    """(name, fixed stack, moving stack) for every pyramid level of the
    image and of its four sub-bands, on two pairs and an odd crop, plus
    stacks with a flat plane and one with a non-finite fixed pixel."""
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
    broken = f.copy()
    broken[1, 5, 5] = np.inf
    yield "non-finite-fixed", broken, m
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
    keeps. Scored in batches of up to 8, mixing lost overlaps, flat pairs
    and non-finite ranges, each candidate gets the bits of its lone
    evaluation."""
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


# a fresh interpreter scoring a 64x64 pair's four 32x32 sub-bands, four
# look-ahead candidates per pass; prints the minor page faults of 200 passes
_FAULT_CHECK = """
import resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from wavereg.fixtures import FixtureSpec, generate_pair
from wavereg.pipeline import _LevelObjective
from wavereg.transform import AffineParams
from wavereg.wavelet import dwt2
fixed, moving, _ = generate_pair(FixtureSpec(
    size=64, truth=AffineParams(tx=3, ty=-2, theta=0.05), remap="invert", seed=5))
objective = _LevelObjective(dwt2(fixed), dwt2(moving), 50)
assert objective.batch == 4
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
    faults a pass in this check."""
    src = str(Path(wavereg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FAULT_CHECK, src], check=True,
                         capture_output=True, text=True, timeout=120)
    faults = int(out.stdout.strip().splitlines()[-1])
    assert faults < 2 * 200, faults

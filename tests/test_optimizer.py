"""(1+1)-ES behavior, bookkeeping and determinism tests."""

import csv
import math

import numpy as np
import pytest

from wavereg import AffineParams, OptimizerConfig
from wavereg.optimizer import optimize, trace_to_csv


def quadratic(p):
    return -((p.tx - 3.0) ** 2 + (p.ty + 1.0) ** 2)


TRANS_ONLY = OptimizerConfig(param_scales=(500.0, 500.0, 0.0, 0.0, 0.0, 0.0), seed=1)


def test_zero_iterations_returns_start():
    best, trace = optimize(quadratic, AffineParams(), OptimizerConfig(max_iterations=0))
    assert best == AffineParams()
    assert trace.records == []
    assert trace.termination_reason == "max_iterations"
    assert trace.best_value == quadratic(AffineParams())


def test_invalid_start_raises():
    with pytest.raises(ValueError, match="invalid start"):
        optimize(lambda p: math.inf, AffineParams(), OptimizerConfig())


def test_quadratic_convergence():
    best, trace = optimize(quadratic, AffineParams(), TRANS_ONLY)
    # grid oracle: the optimum of -(tx-3)^2 - (ty+1)^2 is (3, -1)
    txs, tys = np.meshgrid(np.linspace(-10, 10, 201), np.linspace(-10, 10, 201))
    grid = -((txs - 3.0) ** 2 + (tys + 1.0) ** 2)
    iy, ix = np.unravel_index(np.argmax(grid), grid.shape)
    assert (txs[iy, ix], tys[iy, ix]) == (3.0, -1.0)
    assert abs(best.tx - 3.0) < 0.05
    assert abs(best.ty + 1.0) < 0.05
    assert (best.theta, best.sx, best.sy, best.k) == (0.0, 1.0, 1.0, 0.0)


def test_all_rejections_radius_decay():
    # enough budget that the epsilon rule, not the iteration cap, stops it
    cfg = OptimizerConfig(seed=3, max_iterations=5000)
    best, trace = optimize(lambda p: 0.0, AffineParams(), cfg)
    g, r0 = cfg.growth_factor, cfg.initial_radius
    k = math.ceil(math.log(r0 / cfg.epsilon) / (0.25 * math.log(g)))
    assert len(trace.records) == k
    assert trace.termination_reason == "radius_below_epsilon"
    expected_last = r0 * g ** (-0.25 * (k - 1))
    assert trace.records[-1].radius == pytest.approx(expected_last, rel=1e-9)
    assert best == AffineParams()


def test_radius_bookkeeping_exact():
    cfg = OptimizerConfig(seed=5, max_iterations=200)
    _, trace = optimize(quadratic, AffineParams(), cfg)
    g = cfg.growth_factor
    for prev, cur in zip(trace.records, trace.records[1:]):
        factor = g if prev.accepted else g ** (-cfg.shrink_exponent)
        assert cur.radius == prev.radius * factor


def test_accepted_candidates_strictly_improve():
    _, trace = optimize(quadratic, AffineParams(), TRANS_ONLY)
    parent_value = quadratic(AffineParams())
    for rec in trace.records:
        if rec.accepted:
            assert rec.value > parent_value
            parent_value = rec.value


def test_best_so_far_monotone():
    _, trace = optimize(quadratic, AffineParams(), TRANS_ONLY)
    best = -math.inf
    for rec in trace.records:
        if rec.accepted and rec.value > best:
            best = rec.value
    assert best == trace.best_value


def test_nonpositive_scale_candidates_auto_rejected():
    calls = []

    def spy(p):
        calls.append(p)
        return quadratic(p)

    cfg = OptimizerConfig(
        param_scales=(0.0, 0.0, 0.0, 3000.0, 3000.0, 0.0), seed=7, max_iterations=100
    )
    _, trace = optimize(spy, AffineParams(), cfg)
    rejected = [r for r in trace.records if math.isnan(r.value)]
    assert rejected  # large scale steps must cross sx <= 0 at least once
    for rec in rejected:
        assert not rec.accepted
        assert rec.params.sx <= 0 or rec.params.sy <= 0
    for p in calls:
        assert p.sx > 0 and p.sy > 0


def test_determinism():
    b1, t1 = optimize(quadratic, AffineParams(), TRANS_ONLY)
    b2, t2 = optimize(quadratic, AffineParams(), TRANS_ONLY)
    assert b1 == b2
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.params == r2.params
        assert r1.radius == r2.radius
        assert r1.accepted == r2.accepted


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(growth_factor=1.0).validate()
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        OptimizerConfig(initial_radius=1e-7).validate()
    with pytest.raises(ValueError):
        OptimizerConfig(param_scales=(1.0,) * 5).validate()


@pytest.mark.parametrize("field, value", [
    ("growth_factor", math.nan), ("growth_factor", math.inf),
    ("epsilon", math.nan), ("epsilon", math.inf),
    ("initial_radius", math.nan), ("initial_radius", math.inf),
    ("shrink_exponent", math.nan), ("shrink_exponent", math.inf),
    ("shrink_exponent", 0.0), ("shrink_exponent", -0.25),
    ("param_scales", (500.0, math.nan, 20.0, 3.0, 3.0, 3.0)),
    ("param_scales", (500.0, 500.0, math.inf, 3.0, 3.0, 3.0)),
])
def test_unworkable_settings_name_the_field(field, value):
    # a NaN growth factor or an infinite radius used to pass validation
    # and "converge" at the start point; a non-positive shrink exponent
    # never shrinks the radius
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value}).validate()


def test_trace_csv(tmp_path):
    _, trace = optimize(quadratic, AffineParams(), TRANS_ONLY)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        assert int(row["iteration"]) == rec.iteration
        assert float(row["radius"]) == rec.radius
        assert float(row["tx"]) == rec.params.tx
        assert int(row["accepted"]) == int(rec.accepted)

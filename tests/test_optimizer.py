"""(1+1)-ES behavior, bookkeeping and determinism tests."""

import csv
import math
import re
import tracemalloc
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

import wavereg.optimizer
from wavereg import AffineParams, OptimizerConfig, RegistrationConfig
from wavereg.fixtures import FixtureSpec
from wavereg.optimizer import (
    EPSILON,
    GROWTH_FACTOR,
    INITIAL_RADIUS,
    SHRINK_FACTOR,
    WINDOW,
    IterationRecord,
    OptimizerTrace,
    optimize,
    trace_to_csv,
)
from wavereg.pyramid import build_pyramid


def quadratic(p, ahead=()):
    return -((p[0] - 3.0) ** 2 + (p[1] + 1.0) ** 2)  # p a parameter row: tx, ty, theta ...


@pytest.fixture
def trans_only(monkeypatch):
    """A config whose runs step only tx and ty."""
    monkeypatch.setattr("wavereg.optimizer.PARAM_SCALES",
                        (500.0, 500.0, 0.0, 0.0, 0.0, 0.0))
    return OptimizerConfig(seed=1)


def test_zero_iterations_returns_start():
    best, trace = optimize(quadratic, AffineParams(), OptimizerConfig(max_iterations=0))
    assert best == AffineParams()
    assert trace.records == ()
    assert trace.termination_reason == "max_iterations"
    assert trace.best_value == quadratic(AffineParams().as_vector())


def test_invalid_start_raises():
    with pytest.raises(ValueError, match="invalid start"):
        optimize(lambda p, ahead=(): math.inf, AffineParams(), OptimizerConfig())


def test_quadratic_convergence(trans_only):
    best, trace = optimize(quadratic, AffineParams(), trans_only)
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
    best, trace = optimize(lambda p, ahead=(): 0.0, AffineParams(), cfg)
    g, r0 = GROWTH_FACTOR, INITIAL_RADIUS
    k = math.ceil(math.log(r0 / EPSILON) / (0.25 * math.log(g)))
    assert len(trace.records) == k
    assert trace.termination_reason == "radius_below_epsilon"
    expected_last = r0 * g ** (-0.25 * (k - 1))
    assert trace.records[-1].radius == pytest.approx(expected_last, rel=1e-9)
    assert best == AffineParams()


def test_radius_bookkeeping_exact():
    cfg = OptimizerConfig(seed=5, max_iterations=200)
    _, trace = optimize(quadratic, AffineParams(), cfg)
    for prev, cur in zip(trace.records, trace.records[1:]):
        factor = GROWTH_FACTOR if prev.accepted else SHRINK_FACTOR
        assert cur.radius == prev.radius * factor


def test_accepted_candidates_strictly_improve(trans_only):
    _, trace = optimize(quadratic, AffineParams(), trans_only)
    parent_value = quadratic(AffineParams().as_vector())
    for rec in trace.records:
        if rec.accepted:
            assert rec.value > parent_value
            parent_value = rec.value


def test_best_so_far_monotone(trans_only):
    _, trace = optimize(quadratic, AffineParams(), trans_only)
    best = -math.inf
    for rec in trace.records:
        if rec.accepted and rec.value > best:
            best = rec.value
    assert best == trace.best_value


def test_nonpositive_scale_candidates_auto_rejected(monkeypatch):
    calls = []

    def spy(p, ahead=()):
        calls.append(p)
        return quadratic(p)

    monkeypatch.setattr("wavereg.optimizer.PARAM_SCALES",
                        (0.0, 0.0, 0.0, 3000.0, 3000.0, 0.0))
    _, trace = optimize(spy, AffineParams(), OptimizerConfig(seed=7, max_iterations=100))
    rejected = [r for r in trace.records if math.isnan(r.value)]
    assert rejected  # large scale steps must cross sx <= 0 at least once
    for rec in rejected:
        assert not rec.accepted
        assert rec.params.sx <= 0 or rec.params.sy <= 0
    for p in calls:
        assert p[3] > 0 and p[4] > 0  # sx, sy


def test_objective_gets_read_only_rows_the_trace_records(monkeypatch):
    """The objective gets each candidate as the read-only (6,) float64 row
    that its trace record holds, after the start point's row, and ``optimize``
    builds an ``AffineParams`` only for a candidate it accepts."""
    rows, built = [], []

    def recording(row, ahead=()):
        rows.append(row)
        return -abs(row[3] - 2.0)

    monkeypatch.setattr("wavereg.optimizer.PARAM_SCALES", (0.0, 0.0, 0.0, 3000.0, 3000.0, 0.0))
    monkeypatch.setattr("wavereg.optimizer.AffineParams",
                        lambda *args: built.append(args) or AffineParams(*args))
    _, trace = optimize(recording, AffineParams(), OptimizerConfig(seed=7, max_iterations=100))
    evaluated = np.flatnonzero(~np.isnan(trace.table[:, 0]))
    assert 0 < len(built) == trace.table[:, 1].sum() and len(evaluated) < len(trace.table)
    assert rows[0].tobytes() == AffineParams().as_vector().tobytes()
    assert [row.tobytes() for row in rows[1:]] == [trace.table[i, 3:].tobytes() for i in evaluated]
    for row in rows:
        assert isinstance(row, np.ndarray) and row.dtype == np.float64 and row.shape == (6,)
    assert not any(row.flags.writeable for row in rows[1:])


def test_determinism(trans_only):
    b1, t1 = optimize(quadratic, AffineParams(), trans_only)
    b2, t2 = optimize(quadratic, AffineParams(), trans_only)
    assert b1 == b2
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.params == r2.params
        assert r1.radius == r2.radius
        assert r1.accepted == r2.accepted


def test_config_validation():
    OptimizerConfig(max_iterations=0, seed=0).validate()
    with pytest.raises(ValueError, match="max_iterations must be >= 0"):
        OptimizerConfig(max_iterations=-1).validate()
    # a negative seed used to pass until the finest level's generator
    # rejected it, after the coarser levels had run
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1).validate()


@pytest.mark.parametrize("check, message", [
    pytest.param(lambda: OptimizerConfig(max_iterations=-1).validate(),
                 "max_iterations must be >= 0, got -1", id="max_iterations"),
    pytest.param(lambda: OptimizerConfig(seed=-1).validate(), "seed must be >= 0, got -1",
                 id="optimizer-seed"),
    pytest.param(lambda: RegistrationConfig(pyramid_levels=0).validate(),
                 "pyramid_levels must be >= 1, got 0", id="pyramid_levels"),
    pytest.param(lambda: build_pyramid(np.zeros((8, 8)), 0), "num_levels must be >= 1, got 0",
                 id="num_levels"),
    pytest.param(lambda: FixtureSpec(size=63).validate(), "size must be >= 64, got 63", id="size"),
    pytest.param(lambda: FixtureSpec(seed=-1).validate(), "seed must be >= 0, got -1",
                 id="fixture-seed"),
    pytest.param(lambda: RegistrationConfig(histogram_bins=1).validate(),
                 "histogram_bins must be >= 2, got 1", id="histogram_bins"),
    # every value's type is checked before any bound, so the type error names its setting
    pytest.param(lambda: OptimizerConfig(max_iterations=-1, seed=1.5).validate(),
                 "seed must be an integer, got 1.5", id="type-before-bound"),
])
def test_every_integer_setting_below_its_minimum_names_it(check, message):
    # max_iterations and pyramid_levels did not say the value, and
    # histogram_bins=1 quoted the upper bound too
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check()


def test_trace_is_one_table_with_read_only_records(trans_only):
    _, trace = optimize(quadratic, AffineParams(), trans_only)
    assert trace.table.dtype == np.float64
    assert trace.table.shape == (trans_only.max_iterations, 9)
    records = trace.records
    assert isinstance(records, tuple) and records == trace.records
    assert OptimizerTrace(np.empty((0, 9)), -math.inf, "max_iterations").records == ()
    with pytest.raises(AttributeError):
        records.append(records[0])  # a stray append fails instead of vanishing
    with pytest.raises(AttributeError):
        trace.records = []


def test_trace_csv(tmp_path, trans_only, monkeypatch):
    _, trace = optimize(quadratic, AffineParams(), trans_only)
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
    # auto-rejected (nan) and lost (-inf) rows, every cell the repr of its record's
    monkeypatch.setattr("wavereg.optimizer.PARAM_SCALES", (0.0, 0.0, 0.0, 3000.0, 3000.0, 0.0))

    def lost_below_1(p, ahead=()):
        return -math.inf if p[3] < 1 else -abs(p[3] - 2)

    _, trace = optimize(lost_below_1, AffineParams(), OptimizerConfig(seed=7, max_iterations=100))
    trace_to_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[str(rec.iteration), repr(rec.value), str(int(rec.accepted)), repr(rec.radius),
                     *map(repr, astuple(rec.params))] for rec in trace.records]
    assert {"nan", "-inf"} <= {row[1] for row in rows}


def _reference_optimize(objective, p0, config):
    """The (1+1)-ES one candidate at a time, one ``standard_normal(6)`` draw
    per iteration: the loop ``optimize`` plans ahead of. It keeps its own
    list of ``IterationRecord``s, and returns (best_params, trace) with
    what ``_trace_bytes`` reads of a trace."""
    rng = np.random.default_rng(config.seed)
    scales = np.asarray(wavereg.optimizer.PARAM_SCALES, dtype=np.float64)
    radius = INITIAL_RADIUS
    best_params, best_value, records = p0, float(objective(p0.as_vector())), []
    for it in range(config.max_iterations):
        if radius < EPSILON:
            break
        step = radius * scales * rng.standard_normal(6)
        row = best_params.as_vector() + step
        candidate = AffineParams(*row.tolist())
        value, accepted = math.nan, False
        if candidate.sx > 0 and candidate.sy > 0:
            value = float(objective(row))
            accepted = math.isfinite(value) and value > best_value
        records.append(IterationRecord(it, candidate, value, accepted, radius))
        if accepted:
            best_value, best_params = value, candidate
            radius *= GROWTH_FACTOR
        else:
            radius *= SHRINK_FACTOR
    reason = "radius_below_epsilon" if radius < EPSILON else "max_iterations"
    return best_params, SimpleNamespace(best_value=best_value, termination_reason=reason,
                                        records=records)


class _LookAhead:
    """Scores a call's ``ahead`` rows with it and answers a later call from
    them when its parameter vector matches byte for byte."""

    def __init__(self, f):
        self.f, self.kept, self.offered, self.asked, self.hits = f, {}, [], [], 0

    def __call__(self, p, ahead=()):
        key = p.tobytes()
        self.asked.append(key)
        if key in self.kept:
            self.hits += 1
            return self.kept[key]
        rows = np.reshape(ahead, (-1, 6))
        assert (rows[:, 3] > 0).all() and (rows[:, 4] > 0).all()
        self.offered += [row.tobytes() for row in rows]
        self.kept = {row.tobytes(): self.f(row) for row in rows}
        self.kept[key] = self.f(p)
        return self.kept[key]


def _trace_bytes(result):
    best, trace = result
    return (best.as_vector().tobytes(), trace.best_value.hex(), trace.termination_reason,
            [(r.iteration, r.params.as_vector().tobytes(), np.float64(r.value).tobytes(),
              r.accepted, r.radius.hex()) for r in trace.records])


def _last_row_accepts(records):
    """The iterations accepted on the last row of a full window: a window
    starts at iteration 0, after an accept and after WINDOW rows."""
    start, found = 0, []
    for r in records:
        if r.iteration - start == WINDOW - 1 and r.accepted:
            found.append(r.iteration)
        if r.accepted or r.iteration - start == WINDOW - 1:
            start = r.iteration + 1
    return found


@pytest.mark.parametrize("case", ["accept", "auto_reject", "epsilon", "ragged", "zero", "last_row"])
def test_look_ahead_leaves_the_trace_unchanged(case, monkeypatch):
    """An objective that scores the ``ahead`` rows and one that ignores them
    see the same trace, record by record and bit for bit, and it is the
    trace of the one-candidate-at-a-time loop."""
    f, cfg = quadratic, OptimizerConfig(seed=1, max_iterations=500)
    if case == "auto_reject":  # large scale steps cross sx <= 0 inside a window
        monkeypatch.setattr("wavereg.optimizer.PARAM_SCALES", (0.0, 0.0, 0.0, 3000.0, 3000.0, 0.0))
        cfg = OptimizerConfig(seed=7, max_iterations=100)
    elif case == "epsilon":  # never improves: the radius crosses EPSILON mid-window
        f, cfg = (lambda p: 0.0), OptimizerConfig(seed=3, max_iterations=5000)
    elif case == "ragged":  # the budget ends mid-window
        f, cfg = (lambda p: 0.0), OptimizerConfig(seed=2, max_iterations=3 * WINDOW + 5)
    elif case == "zero":
        cfg = OptimizerConfig(seed=2, max_iterations=0)
    elif case == "last_row":  # a window's walk accepts on its last row
        f, cfg = (lambda p: -((p[0] - 30.0) ** 2 + (p[1] + 1.0) ** 2)), OptimizerConfig(seed=7)
    look = _LookAhead(f)
    ahead = optimize(look, AffineParams(), cfg)
    plain = optimize(lambda p, ahead=(): f(p), AffineParams(), cfg)
    assert _trace_bytes(ahead) == _trace_bytes(plain)
    assert _trace_bytes(plain) == _trace_bytes(_reference_optimize(f, AffineParams(), cfg))
    records = plain[1].records
    if case == "accept":
        assert any(r.accepted for r in records[1:] if r.iteration % WINDOW)
    elif case == "auto_reject":
        assert any(math.isnan(r.value) for r in records if r.iteration % WINDOW)
    elif case == "epsilon":
        assert plain[1].termination_reason == "radius_below_epsilon"
        assert len(records) % WINDOW
    elif case == "ragged":
        assert len(records) == cfg.max_iterations and cfg.max_iterations % WINDOW
    elif case == "last_row":
        assert _last_row_accepts(records)
    if case != "zero":
        assert look.hits > 0
    if not any(r.accepted for r in records):
        # every row offered was asked for next, in order: none lay past the
        # budget, the EPSILON stop or an auto-reject
        offered = set(look.offered)
        assert [key for key in look.asked if key in offered] == look.offered


def test_a_huge_budget_is_never_drawn_at_once():
    # the deviates come one window at a time, so a budget of 10**12 that
    # the EPSILON rule ends early costs what it uses
    tracemalloc.start()
    try:
        _, trace = optimize(lambda p, ahead=(): 0.0, AffineParams(),
                            OptimizerConfig(seed=3, max_iterations=10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.termination_reason == "radius_below_epsilon"
    assert len(trace.records) == math.ceil(
        math.log(INITIAL_RADIUS / EPSILON) / (0.25 * math.log(GROWTH_FACTOR)))
    assert peak < 16 * 2**20

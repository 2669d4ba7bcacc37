"""Tests of the traced run's wrappers and of the benchmark definition.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summarize  # noqa: E402
import workloads  # noqa: E402
from wavereg import AffineParams, cli, fixtures, imageio, pipeline  # noqa: E402

ITERATIONS = 8  # short optimizer budget; the wrappers do not depend on it


def _write_pair(directory):
    spec = fixtures.FixtureSpec(
        base_pattern="phantom_ellipses", size=64,
        truth=AffineParams(tx=3.0, ty=-1.5, theta=math.radians(4.0)),
        remap="invert", noise_sigma=0.01, seed=3,
    )
    fixtures.write_fixture(spec, directory)
    return spec


def _traced_session(tmp_path):
    """Setup, library registrations and a compare, all under one tracer."""
    tracer = spans.Tracer()
    tracer.set_trace_id("setup")
    with tracer:
        _write_pair(tmp_path / "pairs" / "p0")
        fixed = imageio.load_pgm(tmp_path / "pairs" / "p0" / "fixed.pgm")
        moving = imageio.load_pgm(tmp_path / "pairs" / "p0" / "moving.pgm")
        results = [
            pipeline.register(fixed, moving, run._config(m, 5, ITERATIONS))
            for m in workloads.METHODS
        ]
        rc = cli.main(["compare", str(tmp_path / "pairs"), "--seed", "5",
                       "--max-iterations", str(ITERATIONS), "-o", str(tmp_path / "cmp")])
    assert rc == 0
    return tracer, fixed, moving, results


def test_every_layer_records_calls_and_originals_come_back(tmp_path):
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a)
                 for m, a, _, _ in spans.WRAPPED}
    tracer, *_ = _traced_session(tmp_path)
    for layer in spans.LAYERS:
        assert tracer.counts[f"{layer}.calls"] > 0, layer
    for (module, attr), fn in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is fn
    assert pipeline._coarse_to_fine.__name__ == "_coarse_to_fine"
    metrics = spans.layer_metrics(tracer)
    # two start-point evaluations per level: 3 + 1 + 3 levels, twice over
    assert metrics["pipeline.extra_evals"] == 2 * 2 * 7
    assert metrics["transform.warp.pixels"] > 0
    assert metrics["metric.joint_histogram.samples"] > 0


def test_self_times_add_up_to_each_registration(tmp_path):
    tracer, *_ = _traced_session(tmp_path)
    own = tracer.self_times()
    registrations = [i for i, s in enumerate(tracer.spans)
                     if s.name == "pipeline.register"]
    assert len(registrations) == 6
    for i in registrations:
        span = tracer.spans[i]
        total = sum(own[j] for j, s in enumerate(tracer.spans)
                    if s.trace_id == span.trace_id)
        duration = span.end - span.start
        assert abs(total - duration) <= 0.01 * duration, span.trace_id
        assert all(o >= 0 for j, o in enumerate(own)
                   if tracer.spans[j].trace_id == span.trace_id)


def test_tracing_leaves_results_unchanged(tmp_path):
    _, fixed, moving, traced = _traced_session(tmp_path)
    for method, result in zip(workloads.METHODS, traced):
        plain = pipeline.register(fixed, moving, run._config(method, 5, ITERATIONS))
        assert checks.digest(plain) == checks.digest(result), method
        assert checks.output_problems(plain, fixed) == []


def test_output_check_flags_a_bad_result(tmp_path):
    _, fixed, _, results = _traced_session(tmp_path)
    bad = results[0]
    bad.cc = 1.5
    bad.registered = bad.registered[:-1]
    problems = checks.output_problems(bad, fixed)
    assert len(problems) == 2


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_are_a_function_of_the_seed(name):
    a, b, c = workloads.build(name, 4), workloads.build(name, 4), workloads.build(name, 5)
    assert a == b
    assert a != c
    assert len(a.pairs) % a.round_size == 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = {m["name"] for m in spec["per_layer"]}
    tracer = spans.Tracer()
    reported = set(spans.layer_metrics(tracer)) | {"trace_overhead_frac"}
    assert layer_names == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_reference_block_measures_a_positive_slowdown():
    ref = reference.Reference()
    assert (ref.block(), ref.block()) == (0, 1)
    assert ref.slowdown() > 0 and ref.cpu_slowdown() > 0
    assert ref.around(0) == ref.slowdown()


def test_summary_flags_a_changed_digest(tmp_path):
    def write(directory, seed, digest, value):
        directory.mkdir(exist_ok=True)
        (directory / f"small-64-seed{seed}-trace0.json").write_text(json.dumps({
            "environment": {"python": "3", "workload": {"name": "small-64"}},
            "metrics": {"register_s.pyramid": value},
            "registrations": [{"pair": "p0", "method": "pyramid", "digest": digest}],
        }))

    for seed in (1, 2):
        write(tmp_path / "before", seed, f"d{seed}", 1.0 + seed)
        write(tmp_path / "after", seed, f"d{seed}" if seed == 1 else "x", 1.0 + seed)
    baseline = summarize.summarize(tmp_path / "before")
    assert baseline["workloads"]["small-64"]["metrics"]["register_s.pyramid"]["median"] == 2.5
    assert summarize.compare(summarize.summarize(tmp_path / "after"), baseline) == 1
    assert summarize.compare(baseline, baseline) == 0

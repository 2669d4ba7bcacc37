#!/usr/bin/env python3
"""wavereg benchmark: registration speed and accuracy, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-64 --seed 1 --seconds 40 --trace 0

``--workload`` is one of ``small-64``, ``large-256``, ``compare-128`` or
``all`` (each workload untraced then traced, one child process each).
Every workload is a closed loop with one client: one registration at a
time, in this process, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` times whole cycles over the workload's pairs, as many as
its nominal cycle length fits into ``--seconds`` and at least one, checks
every output and reports the end-to-end metrics. Timings are divided by
the machine slowdown that ``reference.py`` measures in the same run.
``--trace 1`` runs the workload's first round once untraced and once with
``spans.Tracer`` installed, and reports the per-layer metrics and the
tracing overhead. The last line of standard
output is one JSON object; the lines before it give each metric by name
and unit, and the environment. Per-registration results and digests go to
``.perfbench/results/`` and traced spans to ``.perfbench/spans/``.
"""

import os

# pinned before NumPy is first imported, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 3
WARMUP_ITERATIONS = 5

# end-to-end metrics reported in the result line, with units; the others
# printed above it are in PRINTED_ONLY (see perfbench/NOTES.md for why)
END_TO_END = {
    "register_s.pyramid": "s",
    "register_s.wavelet": "s",
    "register_s.dwt_pyramid": "s",
    "registrations_per_s": "1/s",
    "cpu_s_per_registration": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PRINTED_ONLY = {
    "register_wall_s.pyramid": "s",
    "register_wall_s.wavelet": "s",
    "register_wall_s.dwt_pyramid": "s",
    "machine_slowdown": "ratio",
    "failed_frac": "ratio",
    "recovered_frac.pyramid": "ratio",
    "recovered_frac.wavelet": "ratio",
    "recovered_frac.dwt_pyramid": "ratio",
}


@dataclass
class Item:
    """One fixture pair as written to disk, and as loaded for library calls."""
    pair: object  # workloads.Pair
    directory: Path
    fixed: object = None
    moving: object = None


@dataclass
class Record:
    """One registration attempt."""
    pair: str
    method: str
    seconds: float
    truth: object
    result: object = None
    problems: list = field(default_factory=list)
    digest: str | None = None
    block: int | None = None  # reference block timed just before it

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _import_seconds() -> float:
    """Time of ``import wavereg`` in a fresh interpreter, measured inside it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import wavereg; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def prepare(workload, directory: Path) -> list[list[Item]]:
    """Write every pair as PGM (what ``wavereg synth`` writes) and, for the
    library workloads, load the arrays the program will see. Returns the
    pairs grouped into rounds; a compare round is one report directory."""
    from wavereg import fixtures, imageio

    rounds = []
    size = workload.round_size
    for r in range(0, len(workload.pairs), size):
        items = []
        for i, pair in enumerate(workload.pairs[r:r + size]):
            path = directory / f"round{r // size}" / f"{i}-{pair.name}"
            fixtures.write_fixture(pair.spec, path)
            item = Item(pair, path)
            if not workload.via_cli:
                item.fixed = imageio.load_pgm(path / "fixed.pgm")
                item.moving = imageio.load_pgm(path / "moving.pgm")
            items.append(item)
        rounds.append(items)
    return rounds


def _config(method, seed, max_iterations=None):
    from wavereg import OptimizerConfig, RegistrationConfig

    optimizer = OptimizerConfig(seed=seed)
    if max_iterations is not None:
        optimizer = OptimizerConfig(seed=seed, max_iterations=max_iterations)
    return RegistrationConfig(method=method, optimizer=optimizer)


def _check(record: Record, fixed) -> Record:
    import checks

    if record.result is not None:
        record.problems += checks.output_problems(record.result, fixed)
    return record


def _nothing():
    return None


def run_library_round(items, master_seed, max_iterations=None,
                      before=_nothing) -> list[Record]:
    from wavereg import pipeline
    from workloads import METHODS

    records = []
    for item in items:
        for method in METHODS:
            config = _config(method, master_seed, max_iterations)
            block = before()
            start = time.perf_counter()
            try:
                result = pipeline.register(item.fixed, item.moving, config)
                problems = []
            except Exception as exc:  # a failed registration is counted, not fatal
                result, problems = None, [f"raised {exc!r}"]
            seconds = time.perf_counter() - start
            records.append(_check(Record(item.pair.name, method, seconds,
                                         item.pair.spec.truth, result=result,
                                         problems=problems, block=block), item.fixed))
    return records


def run_compare_round(items, master_seed, out_dir: Path, max_iterations=None,
                      before=_nothing) -> list[Record]:
    """``wavereg compare`` through ``cli.main``; each ``register`` call it
    makes is timed and its result kept for checking. ``before`` runs ahead
    of each registration, outside its timing."""
    import csv

    from wavereg import cli
    from workloads import METHODS

    captured = []
    inner = cli.register

    def timed_register(fixed, moving, config):
        block = before()
        start = time.perf_counter()
        result = inner(fixed, moving, config)
        captured.append((config.method, time.perf_counter() - start, fixed, result, block))
        return result

    argv = ["compare", str(items[0].directory.parent), "--seed", str(master_seed),
            "-o", str(out_dir)]
    if max_iterations is not None:
        argv += ["--max-iterations", str(max_iterations)]
    cli.register = timed_register
    try:
        rc = cli.main(argv)
    except Exception as exc:  # counted below as missing registrations
        rc = f"raised {exc!r}"
    finally:
        cli.register = inner

    records = []
    expected = [(item, method) for item in items for method in METHODS]
    for k, (item, method) in enumerate(expected):
        if k >= len(captured):
            records.append(Record(item.pair.name, method, 0.0, item.pair.spec.truth,
                                  problems=[f"compare ended early (rc={rc})"]))
            continue
        got_method, seconds, fixed, result, block = captured[k]
        record = Record(item.pair.name, method, seconds, item.pair.spec.truth,
                        result=result, block=block)
        if got_method != method:
            record.problems.append(f"compare ran {got_method}, expected {method}")
        records.append(_check(record, fixed))
    if rc != 0:
        for record in records:
            record.problems.append(f"compare exit code {rc}")
        return records

    # report.csv must carry each registration's final MI exactly
    with open(out_dir / "report.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["id"] != "SUMMARY"]
    if len(rows) != len(records):
        for record in records:
            record.problems.append(f"report.csv has {len(rows)} rows, "
                                   f"expected {len(records)}")
        return records
    for row, record, (item, _) in zip(rows, records, expected):
        if record.result is None or (
                row["id"], row["method"], row["final_mi_bits"]
        ) != (item.directory.name, record.method, repr(record.result.final_mi_bits)):
            record.problems.append(f"report.csv row {row} does not match")
    return records


def run_round(workload, items, out_dir: Path, max_iterations=None,
              before=_nothing) -> list[Record]:
    if workload.via_cli:
        return run_compare_round(items, workload.master_seed, out_dir,
                                 max_iterations, before)
    return run_library_round(items, workload.master_seed, max_iterations, before)


def set_up(workload, directory: Path):
    """One set-up: import (in a fresh interpreter), write and load the
    fixture pairs, and warm up every method on the first round with a
    short optimizer budget. Returns (seconds, rounds)."""
    start = time.perf_counter()
    rounds = prepare(workload, directory / "pairs")
    run_round(workload, rounds[0], directory / "warmup", WARMUP_ITERATIONS)
    seconds = time.perf_counter() - start
    return _import_seconds() + seconds, rounds


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def end_to_end(workload, seconds: float, directory: Path):
    """Set up several times, then time as many whole cycles as fit the
    workload's nominal cycle length into ``seconds``, at least one. A
    reference block runs before each set-up and each registration; every
    timing is divided by the slowdown the blocks measured: a registration's
    by the blocks around it, the rates by all the timed phase's blocks.
    Returns (metrics, sample counts, records)."""
    import checks
    from reference import Reference
    from workloads import METHODS

    ref = Reference()
    setups = []
    for rep in range(SETUP_REPEATS):
        ref.block()
        setup_seconds, rounds = set_up(workload, directory / f"setup{rep}")
        setups.append(setup_seconds)

    records: list[Record] = []
    first_block = len(ref.walls)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    for cycle in range(workload.cycles(seconds)):
        for r, items in enumerate(rounds):
            records += run_round(workload, items, directory / f"out{cycle}-{r}",
                                 before=ref.block)
    ref.block()
    wall = time.perf_counter() - start - sum(ref.walls[first_block:])
    cpu = _cpu_seconds() - cpu0 - sum(ref.cpus[first_block:])
    slowdown = ref.slowdown(first_block)
    cpu_slowdown = ref.cpu_slowdown(first_block)

    first_cycle = records[:len(workload.pairs) * len(METHODS)]
    digests = {}
    for record in records:
        if record.result is None:
            continue
        record.digest = checks.digest(record.result)
        key = (record.pair, record.method)
        if digests.setdefault(key, record.digest) != record.digest:
            record.problems.append("repeat gave a different result")
    failed = sum(r.failed for r in records)

    metrics, samples = {}, {}
    for method in METHODS:
        done = [r for r in records if r.method == method and not r.failed]
        metrics[f"register_s.{method}"] = statistics.median(
            r.seconds / ref.around(r.block) for r in done) if done else float("nan")
        metrics[f"register_wall_s.{method}"] = statistics.median(
            r.seconds for r in done) if done else float("nan")
        samples[f"register_s.{method}"] = samples[f"register_wall_s.{method}"] = len(done)
        firsts = [r for r in first_cycle if r.method == method]
        metrics[f"recovered_frac.{method}"] = sum(
            r.result is not None and checks.recovered(r.result, r.truth)
            for r in firsts) / len(firsts)
        samples[f"recovered_frac.{method}"] = len(firsts)
    metrics["registrations_per_s"] = (len(records) - failed) / wall * slowdown
    metrics["cpu_s_per_registration"] = cpu / len(records) / cpu_slowdown
    metrics["setup_s"] = statistics.median(setups) / ref.slowdown()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_frac"] = failed / len(records)
    metrics["machine_slowdown"] = slowdown
    samples.update(registrations_per_s=len(records), cpu_s_per_registration=len(records),
                   setup_s=len(setups), failed_frac=len(records),
                   machine_slowdown=len(ref.walls) - first_block)
    return metrics, samples, records


def per_layer(workload, directory: Path):
    """Set up once under the tracer, then run the first round untraced and
    traced; tracing must not change any result. Returns (metrics, records
    of both rounds, tracer)."""
    import checks
    import spans

    tracer = spans.Tracer()
    tracer.set_trace_id("setup")
    with tracer:
        rounds = prepare(workload, directory / "pairs")
    run_round(workload, rounds[0], directory / "warmup", WARMUP_ITERATIONS)
    untraced = run_round(workload, rounds[0], directory / "untraced")
    tracer.set_trace_id("round")
    with tracer:
        traced = run_round(workload, rounds[0], directory / "traced")
    for plain, record in zip(untraced, traced):
        if record.result is not None and plain.result is not None:
            plain.digest = checks.digest(plain.result)
            record.digest = checks.digest(record.result)
            if plain.digest != record.digest:
                record.problems.append("tracing changed the result")
    metrics = spans.layer_metrics(tracer)
    metrics["trace_overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0)
    return metrics, untraced + traced, tracer


def environment(workload) -> dict:
    import platform

    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches_per_core"] = caches
    sizes = sorted({p.spec.size for p in workload.pairs})
    env["workload"] = {
        "name": workload.name,
        "pairs": len(workload.pairs),
        "image_sizes": sizes,
        # fixed, moving and warped float64 planes plus a bool mask at full
        # resolution; computed from array sizes, not measured
        "working_set_bytes": max(25 * s * s for s in sizes),
    }
    return env


def _print_metric(name, value, unit, samples=None):
    n = "" if samples is None else f"  (n={samples})"
    shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    print(f"  {name:36s} {shown} {unit}{n}")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import checks
    import workloads

    workload = workloads.build(name, seed)
    env = environment(workload)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    directory = WORK / "tmp" / f"{tag}-{os.getpid()}"
    try:
        if trace:
            metrics, records, tracer = per_layer(workload, directory)
            _write_json(WORK / "spans" / f"{tag}.json",
                        [[s.name, s.trace_id, s.parent, s.start, s.end]
                         for s in tracer.spans])
        else:
            metrics, samples, records = end_to_end(workload, seconds, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failed = sum(r.failed for r in records)
    _write_json(WORK / "results" / f"{tag}.json", {
        "environment": env,
        "metrics": metrics,
        "registrations": [
            {"pair": r.pair, "method": r.method, "seconds": r.seconds,
             "digest": r.digest or (
                 checks.digest(r.result) if r.result is not None else None),
             "recovered": r.result is not None and checks.recovered(r.result, r.truth),
             "problems": r.problems}
            for r in records
        ],
    })

    print(f"wavereg benchmark: workload {name}, seed {seed}, trace {int(trace)}")
    print("environment: " + json.dumps(env))
    for r in records:
        if r.problems:
            print(f"FAILED {r.pair} {r.method}: {'; '.join(r.problems)}")
    if trace:
        units = {k: layer_unit(k) for k in metrics}
        shown = reported = units
    else:
        shown, reported = {**END_TO_END, **PRINTED_ONLY}, END_TO_END
    for key, unit in shown.items():
        _print_metric(key, metrics[key], unit, None if trace else samples.get(key))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in reported.items()}}))
    return 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("self_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("ns_per_pixel", "ns_per_sample")):
        return "ns"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "accept_rate", "coverage")):
        return "ratio"
    return "count"


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    merged = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["small-64", "large-256", "compare-128", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavereg" / "__init__.py").is_file():
        print(f"error: no wavereg sources under {SRC}; run from a wavereg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wavereg

    if Path(wavereg.__file__).resolve().parent != SRC / "wavereg":
        print(f"error: imported wavereg from {wavereg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarize benchmark runs across seeds, and compare them with a baseline.

Reads the per-run files that ``run.py`` writes to ``.perfbench/results/``:

    python3 perfbench/summarize.py --out summary.json
    python3 perfbench/summarize.py --against perfbench/baseline.json

The summary holds, per workload, each metric's per-seed values, median,
quartiles and spread (interquartile range over median), the per-seed
recovery fractions, every registration's digest, and the traced runs'
per-layer metrics. ``--against`` prints each end-to-end median beside the
baseline's and lists every digest that differs for a seed both contain;
it exits 1 when any does.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def _stats(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def summarize(results: Path) -> dict:
    runs = {}
    environment = None
    for path in sorted(results.glob("*.json")):
        workload, seed, trace = path.stem.rsplit("-", 2)
        seed = int(seed.removeprefix("seed"))
        data = json.loads(path.read_text())
        environment = environment or {k: v for k, v in data["environment"].items()
                                      if k != "workload"}
        entry = runs.setdefault(workload, {"environment": data["environment"]["workload"],
                                           "untraced": {}, "traced": {}})
        entry["traced" if trace == "trace1" else "untraced"][seed] = data
    out = {"environment": environment, "workloads": {}}
    for workload, entry in sorted(runs.items()):
        seeds = sorted(entry["untraced"])
        metrics = {}
        for seed in seeds:
            for name, value in entry["untraced"][seed]["metrics"].items():
                metrics.setdefault(name, []).append(value)
        out["workloads"][workload] = {
            "environment": entry["environment"],
            "seeds": seeds,
            "metrics": {name: _stats(values) for name, values in metrics.items()},
            "digests": {
                str(seed): {f"{r['pair']}/{r['method']}": r["digest"]
                            for r in entry["untraced"][seed]["registrations"]}
                for seed in seeds
            },
            "per_layer": {str(seed): data["metrics"]
                          for seed, data in sorted(entry["traced"].items())},
        }
    return out


def compare(summary: dict, baseline: dict) -> int:
    mismatches = 0
    for workload, now in summary["workloads"].items():
        base = baseline["workloads"].get(workload)
        if base is None:
            print(f"{workload}: not in the baseline")
            continue
        for name, stats in now["metrics"].items():
            if name in base["metrics"]:
                before = base["metrics"][name]["median"]
                change = (stats["median"] / before - 1) if before else float("nan")
                print(f"{workload:12s} {name:28s} {before:.6g} -> "
                      f"{stats['median']:.6g} ({change:+.1%})")
        for seed, digests in now["digests"].items():
            for key, digest in digests.items():
                expected = base["digests"].get(seed, {}).get(key)
                if expected is not None and expected != digest:
                    mismatches += 1
                    print(f"DIGEST DIFFERS {workload} seed {seed} {key}")
    print(f"{mismatches} digest(s) differ")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", type=Path, default=RESULTS)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.against:
        return compare(summary, json.loads(args.against.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

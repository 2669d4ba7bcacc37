"""Command-line surface: fixture synthesis, registration, three-way
comparison reports, and difference overlays.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 ``compare``
wrote its report but some registrations failed (their rows say why).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import fixtures
from .imageio import PnmError, load_pgm, overlay_diff, save_pgm, save_ppm
from .optimizer import OptimizerConfig, trace_to_csv
from .pipeline import RegistrationConfig, RegistrationError, register
from .transform import AffineParams, image_center, save_params

PATTERN_ALIASES = {
    "phantom": "phantom_ellipses",
    "checker": "checker",
    "noise": "noise_smoothed",
}

METHOD_ALIASES = {
    "pyramid": "pyramid",
    "wavelet": "wavelet",
    "dwt-pyramid": "dwt_pyramid",
}


EXIT_CODES = ("exit codes: 0 success, 1 runtime failure, 2 usage error, "
              "3 compare wrote report.csv but some registrations failed "
              "(see its status column)")

MAX_MI_NOTE = ("max_mi_bits is the best value in the method's own objective space "
               "(for dwt_pyramid a sum of band MIs with clamped bins); compare "
               "methods by mi_bits (metrics.json) or final_mi_bits (report.csv).")

REPORT_FIELDS = ["id", "method", "max_mi_bits", "final_mi_bits", "cc",
                 "mi_winner", "cc_winner", "status"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavereg",
        description="Multimodal 2-D image registration with Haar sub-bands "
                    "and Gaussian pyramids.",
        epilog=EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fixture pair")
    p.add_argument("--pattern", choices=sorted(PATTERN_ALIASES), default="phantom")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--tx", type=float, default=0.0)
    p.add_argument("--ty", type=float, default=0.0)
    p.add_argument("--theta-deg", type=float, default=0.0)
    p.add_argument("--sx", type=float, default=1.0)
    p.add_argument("--sy", type=float, default=1.0)
    p.add_argument("--shear", type=float, default=0.0)
    p.add_argument("--remap", choices=["none", "invert", "gamma", "neglog"],
                   default="none")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output directory")

    p = sub.add_parser("register", help="register a moving image onto a fixed one",
                       description=MAX_MI_NOTE)
    p.add_argument("--method", choices=sorted(METHOD_ALIASES), required=True)
    p.add_argument("fixed")
    p.add_argument("moving")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--subband-objective", choices=["sum_all_bands", "ll_only"],
                   default="sum_all_bands")
    p.add_argument("-o", "--out", required=True, help="output directory")

    p = sub.add_parser(
        "compare", help="run all three methods over a manifest",
        description="Run all three methods on every pair and write "
                    "report.csv. A pair that cannot be read or a "
                    "registration that fails gets rows with status "
                    "'error: <message>' and empty metric cells; the other "
                    "pairs still report. " + MAX_MI_NOTE,
        epilog=EXIT_CODES,
    )
    p.add_argument("manifest",
                   help="CSV manifest (id,fixed_path,moving_path) or a "
                        "directory of fixture subdirectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("-o", "--out", required=True, help="output directory")

    p = sub.add_parser("diff", help="grey/fuchsia overlay of two images")
    p.add_argument("fixed")
    p.add_argument("registered")
    p.add_argument("mask")
    p.add_argument("-o", "--out", required=True, help="output PPM path")

    return parser


def _make_config(args, method: str) -> RegistrationConfig:
    """``method``'s config, validated before any output or registration."""
    config = RegistrationConfig(
        method=method,
        pyramid_levels=args.levels,
        histogram_bins=args.bins,
        optimizer=OptimizerConfig(seed=args.seed,
                                  max_iterations=args.max_iterations),
        subband_objective=getattr(args, "subband_objective", "sum_all_bands"),
    )
    config.validate()
    return config


def _cmd_synth(args) -> int:
    spec = fixtures.FixtureSpec(
        base_pattern=PATTERN_ALIASES[args.pattern],
        size=args.size,
        truth=AffineParams(
            tx=args.tx, ty=args.ty, theta=math.radians(args.theta_deg),
            sx=args.sx, sy=args.sy, k=args.shear,
        ),
        remap=args.remap,
        gamma=args.gamma,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    fixtures.write_fixture(spec, args.out)
    return 0


def _write_result(result, fixed, out_dir) -> None:
    save_pgm(result.registered, os.path.join(out_dir, "registered.pgm"))
    save_pgm(result.mask.astype(np.float64) * 255.0,
             os.path.join(out_dir, "mask.pgm"))
    save_params(result.params, image_center(fixed),
                os.path.join(out_dir, "params.json"))
    metrics = {
        "method": result.method,
        "max_mi_bits": result.max_mi_bits,
        "mi_bits": result.final_mi_bits,
        "cc": result.cc,
        "overlap_pixels": int(np.count_nonzero(result.mask)),
    }
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    for i, trace in enumerate(result.traces):
        # traces are ordered coarsest first; level index counts from finest
        level = len(result.traces) - 1 - i
        trace_to_csv(trace, os.path.join(out_dir, f"trace_level{level}.csv"))


def _cmd_register(args) -> int:
    config = _make_config(args, METHOD_ALIASES[args.method])
    fixed = load_pgm(args.fixed)
    moving = load_pgm(args.moving)
    os.makedirs(args.out, exist_ok=True)
    result = register(fixed, moving, config)
    _write_result(result, fixed, args.out)
    return 0


def _read_manifest(path) -> list[tuple[str, str, str]]:
    if os.path.isdir(path):
        pairs = []
        candidates = [path] + sorted(
            os.path.join(path, d) for d in os.listdir(path)
            if os.path.isdir(os.path.join(path, d))
        )
        for d in candidates:
            fixed = os.path.join(d, "fixed.pgm")
            moving = os.path.join(d, "moving.pgm")
            if os.path.isfile(fixed) and os.path.isfile(moving):
                pairs.append((os.path.basename(d.rstrip(os.sep)), fixed, moving))
        return pairs
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {
            "id", "fixed_path", "moving_path"
        }.issubset(reader.fieldnames):
            raise ValueError(
                "manifest needs a header with id,fixed_path,moving_path"
            )
        for row in reader:
            pid, fixed, moving = row["id"], row["fixed_path"], row["moving_path"]
            where = f"manifest line {reader.line_num}"
            if None in (pid, fixed, moving):  # a short row
                raise ValueError(f"{where}: needs id, fixed_path and moving_path")
            if any(pid == seen for seen, _, _ in pairs):
                raise ValueError(f"{where}: repeated id {pid!r}")
            if not os.path.isabs(fixed):
                fixed = os.path.join(base, fixed)
            if not os.path.isabs(moving):
                moving = os.path.join(base, moving)
            pairs.append((pid, fixed, moving))
    return pairs


def _winner_flags(values: dict[str, float]) -> dict[str, int]:
    best = max(values.values(), default=None)
    return {m: int(v == best) for m, v in values.items()}


def _register_pair(fixed_path, moving_path, configs) -> dict:
    """Each method's result on one pair, or the ``error: ...`` status that
    stopped it."""
    try:
        fixed = load_pgm(fixed_path)
        moving = load_pgm(moving_path)
    except (PnmError, OSError) as exc:
        return {method: f"error: {exc}" for method in configs}
    outcomes = {}
    for method, config in configs.items():
        try:
            outcomes[method] = register(fixed, moving, config)
        except (RegistrationError, ValueError) as exc:
            outcomes[method] = f"error: {exc}"
    return outcomes


def compare_pairs(pairs, configs):
    """Run each method's config on every pair; returns report rows.

    A pair that cannot be read, or a registration that fails, gets rows
    whose ``status`` is ``error: <message>`` and whose metric cells are
    empty; winners are picked among the methods that succeeded on the pair.
    """
    rows = []
    wins = {m: {"mi": 0, "cc": 0} for m in configs}
    for pair_id, fixed_path, moving_path in sorted(pairs):
        outcomes = _register_pair(fixed_path, moving_path, configs)
        results = {m: r for m, r in outcomes.items() if not isinstance(r, str)}
        mi_flags = _winner_flags({m: r.final_mi_bits for m, r in results.items()})
        cc_flags = _winner_flags({m: r.cc for m, r in results.items()})
        for method, outcome in outcomes.items():
            if isinstance(outcome, str):
                row = {"max_mi_bits": "", "final_mi_bits": "", "cc": "",
                       "mi_winner": 0, "cc_winner": 0, "status": outcome}
            else:
                wins[method]["mi"] += mi_flags[method]
                wins[method]["cc"] += cc_flags[method]
                row = {"max_mi_bits": repr(outcome.max_mi_bits),
                       "final_mi_bits": repr(outcome.final_mi_bits),
                       "cc": repr(outcome.cc),
                       "mi_winner": mi_flags[method],
                       "cc_winner": cc_flags[method],
                       "status": "ok"}
            rows.append({"id": pair_id, "method": method, **row})
    for method in configs:
        rows.append({
            "id": "SUMMARY",
            "method": method,
            "max_mi_bits": "",
            "final_mi_bits": "",
            "cc": "",
            "mi_winner": wins[method]["mi"],
            "cc_winner": wins[method]["cc"],
            "status": "",
        })
    return rows


def _cmd_compare(args) -> int:
    pairs = _read_manifest(args.manifest)
    if not pairs:
        print("error: empty manifest", file=sys.stderr)
        return 2
    configs = {m: _make_config(args, m) for m in METHOD_ALIASES.values()}
    os.makedirs(args.out, exist_ok=True)
    rows = compare_pairs(pairs, configs)
    report_path = os.path.join(args.out, "report.csv")
    with open(report_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    failed = sum(r["status"].startswith("error") for r in rows)
    if failed:
        print(f"error: {failed} of {len(rows) - len(METHOD_ALIASES)} "
              f"registrations failed; see {report_path}", file=sys.stderr)
        return 3
    return 0


def _cmd_diff(args) -> int:
    fixed = load_pgm(args.fixed)
    registered = load_pgm(args.registered)
    mask = load_pgm(args.mask) > 0
    rgb = overlay_diff(fixed, registered, mask)
    save_ppm(rgb, args.out)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "register": _cmd_register,
    "compare": _cmd_compare,
    "diff": _cmd_diff,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PnmError, RegistrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

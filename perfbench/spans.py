"""Spans and counters recorded from outside the program, for the traced run.

``Tracer.install`` replaces module attributes with timing wrappers where the
names are looked up, not where they are defined: ``pipeline`` does
``from .transform import warp``, so the wrapper goes on
``wavereg.pipeline.warp``. ``Tracer.uninstall`` puts the originals back.

Each span records its name, start, end and parent span, plus the id of the
registration it belongs to; spans stay in memory until ``layer_metrics``
reduces them. Self time is a span's duration minus the durations of its
direct children, which nest without overlap in one thread.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    trace_id: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = math.nan


def _count_optimize(tracer, args, result):
    _, trace = result
    evaluated = [r for r in trace.records if not math.isnan(r.value)]
    tracer.counts["optimizer.evals"] += len(evaluated)
    tracer.counts["optimizer.accepts"] += sum(r.accepted for r in evaluated)
    tracer.counts["optimizer.full_budget_levels"] += (
        trace.termination_reason == "max_iterations")


def _count_objective(tracer, args, value):
    tracer.counts["pipeline.overlap_rejects"] += value == -math.inf


def _count_warp(tracer, args, result):
    tracer.counts["transform.warp.pixels"] += result[0].size


def _count_histogram(tracer, args, hist):
    tracer.counts["metric.joint_histogram.samples"] += int(hist.total)
    tracer.counts["metric.joint_histogram.degenerate"] += hist.degenerate


def _count_loaded(tracer, args, result):
    tracer.counts["imageio.load_pgm.bytes"] += os.path.getsize(args[0])


def _count_saved(tracer, args, result):
    tracer.counts["imageio.save_pgm.bytes"] += os.path.getsize(args[1])


# (module, attribute, span name, counter called with (tracer, args, result))
WRAPPED = [
    ("wavereg.pipeline", "register", "pipeline.register", None),
    ("wavereg.cli", "register", "pipeline.register", None),
    ("wavereg.pipeline", "optimize", "optimizer.optimize", _count_optimize),
    ("wavereg.pipeline", "warp", "transform.warp", _count_warp),
    ("wavereg.pipeline", "mi_between", "metric.mi_between", None),
    ("wavereg.metric", "joint_histogram", "metric.joint_histogram", _count_histogram),
    ("wavereg.metric", "mutual_information", "metric.mutual_information", None),
    ("wavereg.pipeline", "dwt2", "wavelet.dwt2", None),
    ("wavereg.pipeline", "idwt2", "wavelet.idwt2", None),
    ("wavereg.pipeline", "build_pyramid", "pyramid.build_pyramid", None),
    ("wavereg.cli", "load_pgm", "imageio.load_pgm", _count_loaded),
    ("wavereg.imageio", "load_pgm", "imageio.load_pgm", _count_loaded),
    ("wavereg.fixtures", "save_pgm", "imageio.save_pgm", _count_saved),
    ("wavereg.fixtures", "generate_pair", "fixtures.generate_pair", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []  # stack of indices of unfinished spans
        self._trace_id = "outside"  # id of spans begun outside a registration
        self._registrations = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        if name == "pipeline.register":
            self._registrations += 1
            trace_id = f"reg{self._registrations}"
        elif parent is not None:
            trace_id = self.spans[parent].trace_id
        else:
            trace_id = self._trace_id
        self.spans.append(Span(name, trace_id, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        self.counts[f"{name}.calls"] += 1
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def set_trace_id(self, trace_id: str) -> None:
        """Spans begun outside any registration carry this id."""
        self._trace_id = trace_id

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span named ``name``; ``count`` sees args and result."""
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_coarse_to_fine(self, fn):
        """Wrap the objectives ``_coarse_to_fine`` receives, so both its own
        start-point checks and every evaluation inside ``optimize`` count
        as objective calls."""

        def coarse_to_fine(objectives, config):
            return fn([self.wrap("pipeline.objective", o, _count_objective)
                       for o in objectives], config)

        coarse_to_fine.__wrapped__ = fn
        return coarse_to_fine

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # import every module before patching any: a module first imported
        # after a patch would bind the wrapper as its original
        modules = {m: importlib.import_module(m) for m, _, _, _ in WRAPPED}
        for module_name, attr, name, count in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))
        pipeline = importlib.import_module("wavereg.pipeline")
        original = pipeline._coarse_to_fine
        self._saved.append((pipeline, "_coarse_to_fine", original))
        pipeline._coarse_to_fine = self._wrap_coarse_to_fine(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``spans``."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own


LAYERS = (
    "pipeline.register",
    "pipeline.objective",
    "optimizer.optimize",
    "transform.warp",
    "metric.mi_between",
    "metric.joint_histogram",
    "metric.mutual_information",
    "wavelet.dwt2",
    "wavelet.idwt2",
    "pyramid.build_pyramid",
    "imageio.load_pgm",
    "imageio.save_pgm",
    "fixtures.generate_pair",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts: self times,
    exact work counts and the ratios between them."""
    selfs = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name in selfs:
            selfs[span.name] += own
    counts = tracer.counts  # a Counter: 0 for what was never counted

    def calls(layer):
        return counts[f"{layer}.calls"]

    def per(value, n, scale):
        return value / n * scale if n else 0.0

    register_total = sum(
        s.end - s.start for s in tracer.spans if s.name == "pipeline.register")
    evals = counts["optimizer.evals"]
    out = {
        "transform.warp.calls": calls("transform.warp"),
        "transform.warp.self_s": selfs["transform.warp"],
        "transform.warp.us_per_call": per(selfs["transform.warp"], calls("transform.warp"), 1e6),
        "transform.warp.pixels": counts["transform.warp.pixels"],
        "transform.warp.ns_per_pixel": per(
            selfs["transform.warp"], counts["transform.warp.pixels"], 1e9),
        "metric.mi_between.calls": calls("metric.mi_between"),
        "metric.mi_between.self_s": selfs["metric.mi_between"],
        "metric.mi_between.us_per_call": per(
            selfs["metric.mi_between"], calls("metric.mi_between"), 1e6),
        "metric.joint_histogram.self_s": selfs["metric.joint_histogram"],
        "metric.joint_histogram.samples": counts["metric.joint_histogram.samples"],
        "metric.joint_histogram.ns_per_sample": per(
            selfs["metric.joint_histogram"],
            counts["metric.joint_histogram.samples"], 1e9),
        "metric.joint_histogram.degenerate": counts["metric.joint_histogram.degenerate"],
        "metric.mutual_information.self_s": selfs["metric.mutual_information"],
        "optimizer.optimize.calls": calls("optimizer.optimize"),
        "optimizer.optimize.self_s": selfs["optimizer.optimize"],
        "optimizer.evals": evals,
        "optimizer.accept_rate": per(counts["optimizer.accepts"], evals, 1.0),
        "optimizer.full_budget_levels": counts["optimizer.full_budget_levels"],
        "pipeline.objective.calls": calls("pipeline.objective"),
        "pipeline.objective.self_s": selfs["pipeline.objective"],
        "pipeline.extra_evals": calls("pipeline.objective") - evals,
        "pipeline.overlap_rejects": counts["pipeline.overlap_rejects"],
        "pipeline.register.calls": calls("pipeline.register"),
        "pipeline.register.self_s": selfs["pipeline.register"],
        "pipeline.register.coverage": per(
            register_total - selfs["pipeline.register"], register_total, 1.0),
        "wavelet.dwt2.self_s": selfs["wavelet.dwt2"],
        "wavelet.idwt2.self_s": selfs["wavelet.idwt2"],
        "pyramid.build_pyramid.self_s": selfs["pyramid.build_pyramid"],
        "pyramid.build_pyramid.calls": calls("pyramid.build_pyramid"),
        "imageio.load_pgm.self_s": selfs["imageio.load_pgm"],
        "imageio.load_pgm.bytes": counts["imageio.load_pgm.bytes"],
        "imageio.save_pgm.self_s": selfs["imageio.save_pgm"],
        "imageio.save_pgm.bytes": counts["imageio.save_pgm.bytes"],
        "fixtures.generate_pair.self_s": selfs["fixtures.generate_pair"],
    }
    return out

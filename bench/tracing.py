"""Span tracing of quantquad's public functions, from outside the library.

``install`` rebinds each traced function in every ``quantquad`` module
namespace that holds it (``quantquad.quantize.sample_batch`` as well as
``quantquad.measures.sample_batch``), so calls between layers are caught.
Each call records one span (name, start, end, parent) plus the counts its
counter derives from the arguments and result.  Spans stay in memory until
the run ends.  Nothing under ``src/`` is changed; ``uninstall`` restores
every binding.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a top-level span
    counts: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def top_level_time(spans: List[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent == -1)


# ---------------------------------------------------------------------------
# What is traced: (module, attribute) -> span name and counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs, result):
    return {"draws": int(_arg(args, kwargs, 2, "n"))}


def _path_steps(args, kwargs, result):
    k = int(_arg(args, kwargs, 1, "k"))
    n = int(_arg(args, kwargs, 3, "n"))
    return {"path_steps": n * (k - 1)}


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


def _functional_rows(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _pairs(args, kwargs, result):
    values, codebook = args[0], args[1]
    return {"pairs": int(values.shape[0]) * int(codebook.n)}


def _winner_iters(args, kwargs, result):
    return {"winner_iters": len(result.fit_history or ())}


def _points(args, kwargs, result):
    return {"points": int(result.n)}


def _written_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Functions are named by their defining module; every quantquad module
# namespace that imports the same object is rebound too.
TRACED = {
    ("measures", "sample_batch"): ("measures.sample_batch", _draws),
    ("measures", "euler_values"): ("measures.euler_values", _path_steps),
    ("measures", "reference_value"): ("measures.reference_value", None),
    ("paths", "make_kl_subspace"): ("paths.subspace", None),
    ("paths", "make_pl_subspace"): ("paths.subspace", None),
    ("paths", "batch_project"): ("paths.batch_project", _rows),
    ("quantize", "lloyd"): ("quantize.lloyd", _winner_iters),
    ("quantize", "scalar_gaussian_quantizer"): ("quantize.scalar_quantizer", None),
    ("quantize", "scalar_quantizer_distortion2"): ("quantize.scalar_quantizer", None),
    ("quantize", "product_quantizer_bm"): ("quantize.product_quantizer_bm", _points),
    ("quantize", "uniform_midpoint_codebook"): ("quantize.uniform_midpoint_codebook", None),
    ("quantize", "min_dist_batch"): ("quantize.min_dist_batch", _pairs),
    ("quantize", "distortion"): ("quantize.distortion", None),
    ("quantize", "voronoi_weights"): ("quantize.voronoi_weights", None),
    ("quadrature", "vr_mc"): ("quadrature.vr_mc", None),
    ("quadrature", "vr_mc_replicated"): ("quadrature.vr_mc_replicated", None),
    ("quadrature", "euler_mc_replicated"): ("quadrature.euler_mc_replicated", None),
    ("quadrature", "gaussian_subspace_mc_replicated"): (
        "quadrature.gaussian_subspace_mc_replicated", None),
    ("adversary", "gap_identity_check"): ("adversary.gap_identity_check", None),
    ("experiments", "run_rate_experiment"): ("experiments.run_rate_experiment", None),
    ("experiments", "width_estimate"): ("experiments.width_estimate", None),
    ("experiments", "rate_fit"): ("experiments.rate_fit", None),
    ("cli", "main"): ("cli.main", None),
    ("config", "parse_seed"): ("config", None),
    ("config", "parse_measure"): ("config", None),
    ("config", "parse_functional"): ("config", None),
    ("config", "parse_norm"): ("config", None),
    ("config", "load_experiment_config"): ("config", None),
    ("storage", "atomic_write"): ("storage", _written_bytes),
    ("storage", "load_codebook"): ("storage", _read_bytes),
    ("storage", "save_codebook"): ("storage", None),
    ("storage", "write_result_json"): ("storage", None),
}

# Method spans: Functional.__call__ evaluates the functional's body.
TRACED_METHODS = {
    ("paths", "Functional", "__call__"): ("paths.Functional", _functional_rows),
}


def _modules():
    return {
        name[len("quantquad."):]: module
        for name, module in list(sys.modules.items())
        if (name == "quantquad" or name.startswith("quantquad.")) and module is not None
    }


def install(tracer: Tracer):
    """Rebind every traced function; returns the undo list for ``uninstall``.

    A listed function the library no longer defines is skipped, so its
    metrics read zero rather than failing the run.
    """
    modules = _modules()
    undo = []
    for (home, attr), (name, counter) in TRACED.items():
        original = getattr(modules.get(home), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(original, name, counter)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    for (home, cls_name, attr), (name, counter) in TRACED_METHODS.items():
        cls = getattr(modules.get(home), cls_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            continue
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name, counter))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run

SPAN_NAMES = tuple(dict.fromkeys(
    name for name, _ in list(TRACED.values()) + list(TRACED_METHODS.values())))
# (span, count key): summed over spans as "<span>.<key>"
COUNTS = (
    ("measures.sample_batch", "draws"),
    ("measures.euler_values", "path_steps"),
    ("paths.Functional", "rows"),
    ("paths.batch_project", "rows"),
    ("quantize.lloyd", "winner_iters"),
    ("quantize.product_quantizer_bm", "points"),
    ("quantize.min_dist_batch", "pairs"),
    ("storage", "bytes"),
)
# counts also reported per second of the span's self time, "<span>.<key>_per_s"
RATES = (
    ("measures.sample_batch", "draws"),
    ("measures.euler_values", "path_steps"),
    ("quantize.min_dist_batch", "pairs"),
)
CALLS = ("quantize.lloyd", "quantize.scalar_quantizer", "quantize.min_dist_batch")

# Metrics that count work; with a fixed seed they must repeat exactly.
EXACT_METRICS = (
    tuple(f"{span}.{key}" for span, key in COUNTS)
    + tuple(f"{span}.calls" for span in CALLS)
    + ("quadrature.calls", "quantize.scalar_quantizer.cold_levels", "trace.spans")
)
LAYER_METRICS = (
    tuple(f"{span}.s" for span in SPAN_NAMES)
    + EXACT_METRICS
    + tuple(f"{span}.{key}_per_s" for span, key in RATES)
    + ("trace.unattributed_s",)
)


def layer_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """Self times, counts and rates of one traced run, keyed by metric name."""
    own = self_times(spans)
    out: Dict[str, float] = {f"{name}.s": 0.0 for name in SPAN_NAMES}
    out.update({f"{span}.{key}": 0 for span, key in COUNTS})
    out.update({f"{span}.calls": 0 for span in CALLS})
    out["quadrature.calls"] = 0
    for span, t in zip(spans, own):
        out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + t
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
        if span.name in CALLS:
            out[f"{span.name}.calls"] += 1
        if span.name.startswith("quadrature."):
            out["quadrature.calls"] += 1
    for span, key in RATES:
        seconds = out[f"{span}.s"]
        out[f"{span}.{key}_per_s"] = out[f"{span}.{key}"] / seconds if seconds > 0 else 0.0
    out["quantize.scalar_quantizer.cold_levels"] = _cold_levels(spans)
    out["trace.spans"] = len(spans)
    out["trace.unattributed_s"] = wall - sum(own)
    return out


def _cold_levels(spans: List[Span]) -> int:
    """Scalar-quantizer calls that contain a nested Lloyd fit."""
    cold = set()
    for span in spans:
        if span.name != "quantize.lloyd":
            continue
        parent = span.parent
        while parent != -1:
            if spans[parent].name == "quantize.scalar_quantizer":
                cold.add(parent)
                break
            parent = spans[parent].parent
    return len(cold)


def span_records(spans: List[Span]) -> List[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         **({"counts": s.counts} if s.counts else {})}
        for s in spans
    ]

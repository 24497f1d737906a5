"""Tests of the benchmark itself.  Run with: python3 -m pytest bench -q"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import quantquad  # noqa: E402
from quantquad import experiments, measures, paths, quadrature, quantize  # noqa: E402
from quantquad.measures import BrownianKL, SeedSpec, UniformCube  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _small_api_mix():
    """A few calls across layers, each reaching others through module globals."""
    seed = SeedSpec(5)
    grid = paths.Grid.uniform(33)
    brownian = BrownianKL(8, grid)
    cb = quantize.lloyd(UniformCube(2), 4, 2,
                        quantize.LloydOptions(iters=5, restarts=2, pool_size=400), seed)
    quantize.voronoi_weights(cb, UniformCube(2), 1000, seed.child(1))
    f = paths.Functional(lambda v: v[:, 0] ** 2, 1.0, None, "x0^2")
    vr = quadrature.vr_mc_replicated(cb, UniformCube(2), f, 16, 4, seed.child(2))
    dist = quantize.distortion(cb, UniformCube(2), 2, 500, seed.child(3))
    width = experiments.width_estimate(brownian, paths.make_kl_subspace(3, grid), 2.0,
                                       1000, seed.child(4))
    ref = measures.reference_value(paths.sup_norm_functional(), brownian, 200, seed)
    return [cb.points, cb.weights, vr, np.array([dist.value, dist.stderr, width.error,
                                                 width.stderr, ref.value, ref.stderr])]


def test_wrapping_leaves_outputs_unchanged():
    plain = _small_api_mix()
    originals = (quantize.lloyd, quantize.min_dist_batch, quadrature.min_dist_batch,
                 paths.Functional.__call__, quantquad.sample_batch)
    tracer = Tracer()
    undo = tracing.install(tracer)
    try:
        assert quadrature.min_dist_batch is quantize.min_dist_batch is not originals[1]
        traced = _small_api_mix()
    finally:
        tracing.uninstall(undo)
    assert (quantize.lloyd, quantize.min_dist_batch, quadrature.min_dist_batch,
            paths.Functional.__call__, quantquad.sample_batch) == originals
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    names = {s.name for s in tracer.spans}
    assert {"quantize.lloyd", "quantize.min_dist_batch", "measures.sample_batch",
            "paths.Functional", "quadrature.vr_mc_replicated",
            "measures.reference_value", "paths.subspace"} <= names
    # calls between layers nest under their caller
    lloyd_index = next(i for i, s in enumerate(tracer.spans) if s.name == "quantize.lloyd")
    assert any(s.parent == lloyd_index and s.name == "measures.sample_batch"
               for s in tracer.spans)


def _tree():
    # a [0, 10] with children b [1, 4] (child c [2, 3]) and d [5, 9]; e [11, 12]
    return [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 9.0, 0, {"rows": 7}),
        Span("e", 11.0, 12.0, -1),
    ]


def test_self_times_on_a_nested_span_tree():
    spans = _tree()
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(tracing.self_times(spans)) == tracing.top_level_time(spans) == 11.0


def test_layer_metrics_aggregate_self_time_and_counts():
    spans = [
        Span("quantize.distortion", 0.0, 5.0, -1),
        Span("measures.sample_batch", 0.5, 1.5, 0, {"draws": 100}),
        Span("quantize.min_dist_batch", 2.0, 4.0, 0, {"pairs": 400}),
        Span("quantize.scalar_quantizer", 6.0, 8.0, -1),
        Span("quantize.lloyd", 6.5, 7.5, 3, {"winner_iters": 9}),
        Span("quantize.scalar_quantizer", 8.0, 8.5, -1),
    ]
    m = tracing.layer_metrics(spans, wall=10.0)
    assert m["quantize.distortion.s"] == 2.0
    assert m["quantize.min_dist_batch.pairs_per_s"] == 200.0
    assert m["measures.sample_batch.draws_per_s"] == 100.0
    assert m["quantize.scalar_quantizer.s"] == 1.5
    assert m["quantize.scalar_quantizer.calls"] == 2
    assert m["quantize.scalar_quantizer.cold_levels"] == 1
    assert m["quantize.lloyd.winner_iters"] == 9
    assert m["trace.spans"] == 6
    assert math.isclose(m["trace.unattributed_s"], 10.0 - 7.5)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _record(traced, wall):
    spans = _tree()
    return {"traced": traced, "wall_s": wall, "setup_s": 0.3, "peak_rss_mb": 100.0,
            "checks": {"ok": True}, "checksum": "x",
            **({"layers": tracing.layer_metrics(spans, wall)} if traced else {})}


def test_emitted_metrics_match_benchmark_json():
    spec = _benchmark_json()
    records = [_record(False, 12.0), _record(True, 12.5)]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        emitted = run.summarize(records, trace)
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert set(emitted) == set(declared)
        assert all(run.unit_of(name) == unit for name, unit in declared.items())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def test_checks_catch_a_checksum_mismatch_and_a_count_change():
    records = [_record(False, 1.0), _record(True, 1.1), _record(True, 1.2)]
    assert all(run.checks_of(records).values())
    records[2]["checksum"] = "y"
    records[2]["layers"] = dict(records[2]["layers"], **{"trace.spans": 6})
    failed = [name for name, ok in run.checks_of(records).items() if not ok]
    assert failed == ["run 2: seeded-output checksum equals run 0's",
                      "traced run 1: layer counts repeat exactly"]


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "path-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

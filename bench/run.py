"""quantquad benchmark: runs one workload in fresh child processes and reports.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Children run one at a time (``bench/child.py``), each a full workload run
from interpreter start, until ``--seconds`` is spent (at least one run).
With ``--trace 0`` every child is untraced and the end-to-end metrics are
the medians over children.  With ``--trace 1`` untraced and traced children
alternate; the per-layer metrics are the medians over the traced ones and
``trace.overhead_frac`` compares the two kinds.  Every child of one call
uses the same seed, so all their seeded-output checksums must agree.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result (environment, per-child records) is written to
``bench/out/``.  Exit code 0 on a result, 1 if a child failed, 2 if the
program is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
WORKLOAD_NAMES = ("bm-quantization", "path-mc", "vector-codebooks")
# Every child must end by then, so that the whole call ends within 180 s.
HARD_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import tracing  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*argv):
            return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def run_child(workload: str, seed: int, traced: bool, env: dict, deadline: float,
              spans_out: str) -> dict:
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if traced:
        argv += ["--trace", spans_out]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    record["setup_s"] = record["ready"] - spawned
    return record


def collect(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list:
    """Run children until ``seconds`` is spent; the last cycle must fit in it."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    modes = (False, True) if trace else (False,)
    records = []
    while True:
        cycle_start = time.monotonic()
        for traced in modes:
            spans_out = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{len(records)}.json")
            records.append(run_child(workload, seed, traced, env, deadline, spans_out))
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            return records


def checks_of(records: list) -> dict:
    """Every output check of every child, plus the cross-run ones."""
    checks = {}
    for i, rec in enumerate(records):
        for name, ok in rec["checks"].items():
            checks[f"run {i}: {name}"] = ok
        checks[f"run {i}: seeded-output checksum equals run 0's"] = (
            rec["checksum"] == records[0]["checksum"])
    traced = [r for r in records if r["traced"]]
    for i, rec in enumerate(traced):
        layers = rec["layers"]
        checks[f"traced run {i}: layer counts repeat exactly"] = all(
            layers[m] == traced[0]["layers"][m] for m in tracing.EXACT_METRICS)
    return checks


def summarize(records: list, trace: bool) -> dict:
    """Metric name -> value: end-to-end medians, or per-layer medians when traced."""
    plain = [r for r in records if not r["traced"]]
    if not trace:
        return {m: statistics.median(r[m] for r in plain)
                for m in ("wall_s", "setup_s", "peak_rss_mb")}
    traced = [r for r in records if r["traced"]]
    out = {m: statistics.median(r["layers"][m] for r in traced) for m in tracing.LAYER_METRICS}
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quantquad benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**64):
        parser.error("--seed must be in [0, 2^64)")
    if not os.path.isfile(os.path.join(ROOT, "src", "quantquad", "__init__.py")):
        print("bench: src/quantquad not found next to bench/; nothing to measure",
              file=sys.stderr)
        return 2

    threads = nproc()
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        records = collect(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    checks = checks_of(records)
    failed = [name for name, ok in checks.items() if not ok]
    metrics = summarize(records, bool(args.trace))
    info = environment(args.seed, threads)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }

    plain = [r for r in records if not r["traced"]]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(plain)} untraced, {len(records) - len(plain)} traced")
    print("env " + json.dumps(info, sort_keys=True))
    for m in ("wall_s", "setup_s", "peak_rss_mb"):
        values = [r[m] for r in plain]
        q1, q3 = _quartiles(values)
        print(f"  {m:<14} {statistics.median(values):12.6g} {unit_of(m):<5} "
              f"median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'fail_frac':<14} {len(failed) / len(checks):12.6g} {'ratio':<5} "
          f"{len(failed)}/{len(checks)} checks failed")
    if args.trace:
        for m, v in metrics.items():
            print(f"  {m:<46} {v:14.6g} {unit_of(m)}")
    for name in failed:
        print(f"  FAILED: {name}")

    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"env": info, "result": result, "checks": checks, "runs": records},
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

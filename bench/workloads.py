"""The benchmark workloads, driven through quantquad's public API.

Each workload is a ``setup(seed)`` that builds its inputs (specs, grids,
functionals; never a quantizer) and a ``run(inputs)`` that does the timed
work and returns an ``Outcome``: the named output checks, taken from the
acceptance suite's bounds, and the seeded outputs that the checksum covers.
All randomness comes from the workload seed.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import struct
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

import numpy as np

# Library calls go through the module objects, so that the rebinding done
# by tracing.install also catches the benchmark's own calls into each layer.
from quantquad import cli, experiments, paths, quantize
from quantquad.experiments import RateExperimentConfig, RatePoint, kl_tail_width
from quantquad.measures import BrownianKL, SeedSpec, UniformCube, gbm_spec
from quantquad.paths import Functional, Grid, sup_norm_functional
from quantquad.quadrature import SmallBallProfile
from quantquad.quantize import LloydOptions

# Scratch directory for CLI outputs, relative to the checkout root so that
# the paths echoed into output files (and so the checksum) do not vary.
WORK_DIR = os.path.join("bench", "out", "work")


@dataclass
class Outcome:
    checks: Dict[str, bool] = field(default_factory=dict)
    outputs: List[float] = field(default_factory=list)
    blobs: List[bytes] = field(default_factory=list)

    def check(self, name: str, ok: bool):
        self.checks[name] = bool(ok)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        digest.update(struct.pack(f"<{len(self.outputs)}d", *self.outputs))
        for blob in self.blobs:
            digest.update(blob)
        return digest.hexdigest()


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _in(value: float, bracket: Tuple[float, float]) -> bool:
    return bracket[0] <= value <= bracket[1]


def _family_z(points: int) -> float:
    """Per-point sigma bound at which any of ``points`` two-sided checks of
    unbiased estimates trips by chance with probability 1e-4 (Bonferroni).
    The acceptance suite's 3 sigma per point suits one pinned seed; on every
    seed, a 5-point ladder at 3 sigma trips on ~1.4% of them.
    """
    return NormalDist().inv_cdf(1.0 - 1e-4 / (2.0 * points))


def _cli_seed(seed: int, part: int) -> str:
    """A CLI master seed for one step of the flow, derived from the workload seed."""
    state = np.random.SeedSequence([seed, part]).generate_state(1, np.uint64)
    return str(int(state[0]))


# ---------------------------------------------------------------------------
# bm-quantization: product quantizers of Brownian motion, distortion, ln ln n fit


def setup_bm_quantization(seed: int) -> dict:
    grid = Grid.uniform()
    return {
        "seed": SeedSpec(seed),
        "grid": grid,
        "measure": BrownianKL(200, grid),
        "ladder": tuple(2**j for j in range(1, 6)),
        "samples": 20_000,
    }


def run_bm_quantization(inp: dict) -> Outcome:
    out = Outcome()
    points = []
    for n in inp["ladder"]:
        cb = quantize.product_quantizer_bm(n, 200, inp["grid"])
        est = quantize.distortion(cb, inp["measure"], 2, inp["samples"], inp["seed"])
        points.append(RatePoint(float(n), est.value, est.stderr))
        out.outputs += [est.value, est.stderr]
    fit = experiments.rate_fit(points, "loglog-in-log")
    out.outputs.append(fit.slope)
    out.check("distortion strictly decreasing", _strictly_decreasing([p.error for p in points]))
    out.check("ln ln n slope in [-0.75, -0.25]", _in(fit.slope, (-0.75, -0.25)))
    return out


# ---------------------------------------------------------------------------
# path-mc: codebook-free Monte Carlo on path measures


def setup_path_mc(seed: int) -> dict:
    fine = Grid.uniform(1025)
    grid = Grid.uniform()
    return {
        "seed": SeedSpec(seed),
        "grid": grid,
        "fine": fine,
        "sup": sup_norm_functional(),
        "gbm": gbm_spec(0.1, 0.2, 1.0),
        "kl": BrownianKL(200, grid),
        "kl_fine": BrownianKL(200, fine),
        "profile": SmallBallProfile(2.0, 0.0),
        "euler_ladder": (30, 300, 3000, 30000),
        "euler_reference": ("euler", 2049, 16384),
        "gauss_ladder": (300, 1000, 3000, 10000),
        "gauss_reference": ("mc", 20_000),
        "widths": (1, 2, 4, 8, 16),
        "width_samples": 20_000,
    }


def run_path_mc(inp: dict) -> Outcome:
    out = Outcome()
    seed = inp["seed"]

    euler = experiments.run_rate_experiment(RateExperimentConfig(
        name="euler-budget", algorithm="euler", ladder=inp["euler_ladder"],
        functional=inp["sup"], replications=100,
        reference=inp["euler_reference"], slope_bracket=(-0.35, -0.15),
        seed=seed.child(8), diffusion=inp["gbm"],
    ))
    errors = [p.error for p in euler.points]
    out.outputs += errors + [euler.fit.slope, *euler.reference]
    out.check("euler slope in [-0.35, -0.15]", euler.passed)
    out.check("euler rmse strictly decreasing", _strictly_decreasing(errors))

    gauss = experiments.run_rate_experiment(RateExperimentConfig(
        name="gauss-sub-budget", algorithm="gauss-sub", ladder=inp["gauss_ladder"],
        functional=inp["sup"], measure=inp["kl_fine"], replications=100,
        reference=inp["gauss_reference"], seed=seed.child(9),
        profile=inp["profile"], grid=inp["fine"],
    ))
    out.outputs += [p.error for p in gauss.points] + [*gauss.reference]
    for size, n, k in gauss.schedule:
        out.check(f"gauss-sub k*n <= N at N={size}", k * n <= size)
    out.check("gauss-sub rmse at largest budget < at smallest",
              gauss.points[-1].error < gauss.points[0].error)

    width_points = []
    for k in inp["widths"]:
        sub = paths.make_kl_subspace(k, inp["grid"])
        width_points.append(experiments.width_estimate(
            inp["kl"], sub, 2.0, inp["width_samples"], seed.child(10, k)))
    z = _family_z(len(width_points))
    for k, point in zip(inp["widths"], width_points):
        truncated = math.sqrt(kl_tail_width(k) ** 2 - kl_tail_width(200) ** 2)
        out.outputs += [point.error, point.stderr]
        out.check(f"width k={k} within {z:.2f} sigma of the 200-term tail",
                  abs(point.error - truncated) <= z * point.stderr)
    return out


# ---------------------------------------------------------------------------
# vector-codebooks: fit codebooks for vector measures, then read from them


def _f1(v):
    return np.abs(v[:, 0] - 1.0 / 3.0)


def _f2(v):
    return (np.abs(v[:, 0] - 1.0 / 3.0) + np.abs(v[:, 1] - 1.0 / 3.0)) / math.sqrt(2.0)


def setup_vector_codebooks(seed: int) -> dict:
    work = os.path.join(WORK_DIR, "vector-codebooks")
    cb_file = os.path.join(work, "cb.csv")
    return {
        "seed": SeedSpec(seed),
        "work": work,
        "u1": UniformCube(1),
        "u2": UniformCube(2),
        "scalar_opts": LloydOptions(pool_size=4 * 10**6, restarts=2),
        "plane_opts": LloydOptions(iters=20, restarts=1, pool_size=20_000),
        "f1": Functional(_f1, 1.0, None, "f1"),
        "f2": Functional(_f2, 1.0, None, "f2"),
        "ladder1": tuple(2**j for j in range(2, 9)),
        "ladder2": (4, 16, 64, 256),
        "argv": [
            ["quantize", "--measure", "uniform_cube:1", "--n", "2", "--r", "1",
             "--seed", _cli_seed(seed, 0), "--out", cb_file],
            ["quad", "--algo", "vrmc", "--codebook", cb_file, "--measure",
             "uniform_cube:1", "--functional", "abs_coord_at(0)", "--n", "64",
             "--seed", _cli_seed(seed, 1), "--out", os.path.join(work, "vr.json")],
            ["adversary", "--check", "gap-identity", "--codebook", cb_file,
             "--measure", "uniform_cube:1", "--samples", "100000",
             "--seed", _cli_seed(seed, 2), "--out", os.path.join(work, "gap.txt")],
        ],
    }


def run_vector_codebooks(inp: dict) -> Outcome:
    out = Outcome()
    seed = inp["seed"]

    cb = quantize.lloyd(inp["u1"], 2, 2, inp["scalar_opts"], seed.child(1))
    dev = float(np.abs(cb.points.ravel() - np.array([0.25, 0.75])).max())
    out.outputs += cb.points.ravel().tolist()
    out.check("1-D lloyd n=2 within 1e-3 of the midpoints", dev <= 1e-3)

    plane = quantize.lloyd(inp["u2"], 64, 2, inp["plane_opts"], seed.child(2))
    out.outputs += plane.points.ravel().tolist()
    history = plane.fit_history
    out.check("2-D lloyd pool distortion non-increasing",
              all(b <= a for a, b in zip(history, history[1:])))

    shutil.rmtree(inp["work"], ignore_errors=True)
    os.makedirs(inp["work"])
    for argv in inp["argv"]:
        code = cli.main(argv)
        out.check(f"cli {argv[0]} exit code 0", code == 0)
    for name in ("cb.csv", "vr.json", "gap.txt"):
        with open(os.path.join(inp["work"], name), "rb") as handle:
            blob = handle.read()
        if name == "vr.json":  # drop the wall-clock stamp
            blob = b"\n".join(l for l in blob.splitlines() if b'"written_at"' not in l)
        out.blobs.append(blob)
    out.check("gap identity passes", b"passed=true" in out.blobs[-1])

    for d, f, ladder, reference, bracket, codebooks in (
        (1, inp["f1"], inp["ladder1"], 5.0 / 18.0, (-1.65, -1.35),
         {n: quantize.uniform_midpoint_codebook(1, n) for n in inp["ladder1"]}),
        (2, inp["f2"], inp["ladder2"], 2.0 * (5.0 / 18.0) / math.sqrt(2.0), (-1.15, -0.85),
         {n: quantize.uniform_midpoint_codebook(2, math.isqrt(n)) for n in inp["ladder2"]}),
    ):
        report = experiments.run_rate_experiment(RateExperimentConfig(
            name=f"vrmc-d{d}", algorithm="vrmc", ladder=ladder, functional=f,
            measure=UniformCube(d), replications=200,
            reference=("analytic", reference), slope_bracket=bracket,
            seed=seed.child(3, d), codebooks=codebooks,
        ))
        out.outputs += [p.error for p in report.points] + [report.fit.slope]
        out.check(f"vrmc d={d} slope in [{bracket[0]}, {bracket[1]}]", report.passed)
    return out


WORKLOADS: Dict[str, Tuple[Callable[[int], dict], Callable[[dict], Outcome]]] = {
    "bm-quantization": (setup_bm_quantization, run_bm_quantization),
    "path-mc": (setup_path_mc, run_path_mc),
    "vector-codebooks": (setup_vector_codebooks, run_vector_codebooks),
}

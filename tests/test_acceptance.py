"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Tolerances are pinned here and nowhere else: exact analytic
cases at 1e-12, statistical identities at 3 standard errors, and rate
claims as slope brackets at the stated finite sizes.
"""
import math

import numpy as np

from quantquad.adversary import (
    event_probability,
    fooling_family,
    gap_identity_check,
    increment_functional,
    IncrementFamilySpec,
    lipschitz_check,
    subspace_blind_functional,
)
from quantquad.experiments import (
    RateExperimentConfig,
    RatePoint,
    kl_tail_width,
    rate_fit,
    run_rate_experiment,
    width_estimate,
)
from quantquad.measures import (
    BrownianKL,
    Diffusion,
    SeedSpec,
    StdNormal,
    UniformCube,
    gbm_spec,
    reference_value,
    sample_batch,
)
from quantquad.paths import (
    Functional,
    Grid,
    NormKind,
    make_kl_subspace,
    path_coord_functional,
    sup_norm_functional,
)
from quantquad.quadrature import (
    classical_mc,
    vr_mc_replicated,
    voronoi_quadrature,
)
from quantquad.quantize import (
    Codebook,
    LloydOptions,
    distortion,
    lloyd,
    product_quantizer_bm,
    uniform_midpoint_codebook,
)

GRID = Grid.uniform()
SQRT_2_OVER_PI = 0.7978845608028654


def verdict(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_optimal_scalar_quantizers():
    seed = SeedSpec(101)
    details = []
    ok = True
    opts = LloydOptions(pool_size=4 * 10**6, restarts=2)
    for n in (2, 4, 8):
        cb = lloyd(UniformCube(1), n, 1, opts, seed.child(n))
        target = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        dev = float(np.abs(cb.points.ravel() - target).max())
        q1 = distortion(cb, UniformCube(1), 1, 10**5, seed.child(100 + n))
        rel = abs(q1.value - 1.0 / (4.0 * n)) / (1.0 / (4.0 * n))
        ok &= dev <= 1e-3 and rel <= 0.01
        details.append(f"n={n}: dev={dev:.1e} q1-rel={rel:.2%}")
    cbn = lloyd(StdNormal(1), 2, 2, LloydOptions(pool_size=10**6, restarts=2),
                seed.child(999))
    target_n = np.array([-SQRT_2_OVER_PI, SQRT_2_OVER_PI])
    dev_n = float(np.abs(np.sort(cbn.points.ravel()) - target_n).max())
    ok &= dev_n <= 5e-3
    details.append(f"normal n=2 dev={dev_n:.1e}")
    verdict(1, ok, "; ".join(details))


def test_criterion_02_voronoi_exactness():
    cb = Codebook(
        np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1",
        weights=np.array([0.5, 0.5]), oracle_dim=1,
    )
    f = Functional(lambda v: v[:, 0] ** 2 / 2.0, name="x^2/2")
    res = voronoi_quadrature(cb, f)
    err_estimate = abs(res.estimate - 5.0 / 32.0)
    err_vs_integral = abs(abs(res.estimate - 1.0 / 6.0) - 1.0 / 96.0)
    ok = err_estimate <= 1e-12 and err_vs_integral <= 1e-12
    verdict(2, ok, f"estimate dev={err_estimate:.2e}, error-vs-1/96 dev={err_vs_integral:.2e}")


def test_criterion_03_variance_reduction_bound():
    seed = SeedSpec(103)
    f_by_d = {
        1: Functional(lambda v: np.abs(v[:, 0] - 1.0 / 3.0), 1.0, None, "f1"),
        2: Functional(
            lambda v: (np.abs(v[:, 0] - 1 / 3) + np.abs(v[:, 1] - 1 / 3))
            / math.sqrt(2.0),
            1.0, None, "f2",
        ),
    }
    s_by_d = {1: 5.0 / 18.0, 2: 2.0 * (5.0 / 18.0) / math.sqrt(2.0)}
    ok = True
    details = []
    for d in (1, 2):
        for n in (4, 16, 64):
            per_axis = n if d == 1 else round(math.sqrt(n))
            cb = uniform_midpoint_codebook(d, per_axis)
            q2 = distortion(cb, UniformCube(d), 2, 10**5, seed.child(d, n, 0))
            est = vr_mc_replicated(
                cb, UniformCube(d), f_by_d[d], n, 10**4, seed.child(d, n, 1)
            )
            sq = (est - s_by_d[d]) ** 2
            rmse = math.sqrt(sq.mean())
            se_rmse = sq.std(ddof=1) / math.sqrt(sq.size) / (2.0 * rmse)
            bound = 2.0 * n**-0.5 * q2.value
            combined = math.sqrt(se_rmse**2 + (2.0 * n**-0.5 * q2.stderr) ** 2)
            good = rmse <= bound + 3.0 * combined
            ok &= good
            details.append(f"d={d},n={n}: rmse={rmse:.2e}<=bound={bound:.2e}")
    verdict(3, ok, "; ".join(details))


def test_criterion_04_vrmc_rate_slopes():
    f1 = Functional(lambda v: np.abs(v[:, 0] - 1.0 / 3.0), 1.0, None, "f1")
    ladder1 = tuple(2**j for j in range(2, 11))
    report1 = run_rate_experiment(RateExperimentConfig(
        name="vrmc-d1", algorithm="vrmc", ladder=ladder1, functional=f1,
        measure=UniformCube(1), replications=200,
        reference=("analytic", 5.0 / 18.0), slope_bracket=(-1.65, -1.35),
        seed=SeedSpec(104),
        codebooks={n: uniform_midpoint_codebook(1, n) for n in ladder1},
    ))
    f2 = Functional(
        lambda v: (np.abs(v[:, 0] - 1 / 3) + np.abs(v[:, 1] - 1 / 3)) / math.sqrt(2.0),
        1.0, None, "f2",
    )
    ladder2 = (4, 16, 64, 256, 1024)
    report2 = run_rate_experiment(RateExperimentConfig(
        name="vrmc-d2", algorithm="vrmc", ladder=ladder2, functional=f2,
        measure=UniformCube(2), replications=200,
        reference=("analytic", 2.0 * (5.0 / 18.0) / math.sqrt(2.0)),
        slope_bracket=(-1.15, -0.85), seed=SeedSpec(105),
        codebooks={g * g: uniform_midpoint_codebook(2, g) for g in (2, 4, 8, 16, 32)},
    ))
    ok = report1.passed and report2.passed
    verdict(4, ok, f"d=1 slope={report1.fit.slope:.3f} (target -1.5+-0.15); "
                   f"d=2 slope={report2.fit.slope:.3f} (target -1.0+-0.15)")


def test_criterion_05_fooling_gap_identity():
    # exact two-point case: both sides are 3/32 by piecewise integration
    exact_lhs = 3.0 / 32.0
    exact_rhs = 0.5 * (5.0 / 16.0 - 1.0 / 8.0)
    ok = exact_lhs == exact_rhs
    cb0 = Codebook(np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "u")
    rep0 = gap_identity_check(cb0, UniformCube(1), 10**5, SeedSpec(150))
    ok &= rep0.passed and abs(rep0.mean_f_last - exact_lhs) <= 3 * rep0.mean_f_last_stderr

    failures = 0
    for case in range(20):
        seed = SeedSpec(151).child(case)
        rng = seed.rng()
        m = int(rng.integers(2, 7))
        if case < 10:
            measure, tag = UniformCube(1), "uniform_cube:1"
            points = rng.random((m, 1))
        else:
            measure, tag = StdNormal(1), "std_normal:1"
            points = rng.standard_normal((m, 1))
        cb = Codebook(points, 1.0, NormKind.EUCLIDEAN, tag)
        report = gap_identity_check(cb, measure, 2 * 10**4, seed.child(1))
        failures += 0 if report.passed else 1
    ok &= failures == 0
    verdict(5, ok, f"exact 3/32 == 3/32; two-point MC diff={rep0.difference:.1e}; "
                   f"random codebooks failing: {failures}/20")


def test_criterion_06_increment_event_band():
    ok = True
    details = []
    for segments in (1, 2, 4):
        report = event_probability(segments, 1.0, 10**5, SeedSpec(106).child(segments))
        within = abs(report.estimate - report.analytic) <= 3.0 * report.stderr
        capped = report.estimate <= report.upper_bound + 3.0 * report.stderr
        ok &= within and capped
        details.append(
            f"l={segments}: est={report.estimate:.5f} vs p^l={report.analytic:.5f}"
            f" cap={report.upper_bound}"
        )
    verdict(6, ok, "; ".join(details))


def test_criterion_07_euler_bias_ladder():
    seed = SeedSpec(107)
    gbm = gbm_spec(0.1, 0.2, 1.0)
    f = path_coord_functional(1.0, GRID)
    ok = True
    details = []
    biases = []
    for k in (6, 11, 21, 41):
        res = classical_mc(Diffusion(gbm, k), f, 10**5, seed.child(k))
        exact_mean = (1.0 + 0.1 / (k - 1)) ** (k - 1)
        good = abs(res.estimate - exact_mean) <= 3.0 * res.stderr
        ok &= good
        biases.append(abs(exact_mean - math.exp(0.1)))
        details.append(f"k={k}: |est-mean|={abs(res.estimate - exact_mean):.1e}")
    decreasing = all(b < a for a, b in zip(biases, biases[1:]))
    ok &= decreasing
    verdict(7, ok, "; ".join(details) + f"; scheme bias decreasing={decreasing}")


def test_criterion_08_euler_budget_schedule():
    report = run_rate_experiment(RateExperimentConfig(
        name="euler-budget", algorithm="euler",
        ladder=(100, 1000, 10000, 100000),
        functional=sup_norm_functional(), replications=100,
        reference=("euler", 4097, 40000),
        slope_bracket=(-0.35, -0.15), seed=SeedSpec(108),
        diffusion=gbm_spec(0.1, 0.2, 1.0),
    ))
    errors = [p.error for p in report.points]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = report.passed and decreasing
    verdict(8, ok, f"slope={report.fit.slope:.3f} in [-0.35,-0.15]; "
                   f"rmse={['%.4f' % e for e in errors]} strictly decreasing={decreasing}")


def test_criterion_09_width_rate():
    seed = SeedSpec(109)
    measure = BrownianKL(200, GRID)
    points = []
    ok = True
    worst_sigma = 0.0
    for k in range(1, 17):
        sub = make_kl_subspace(k, GRID)
        point = width_estimate(measure, sub, 2.0, 2 * 10**4, seed.child(k))
        points.append(point)
        # exact value for the sampled (200-term) measure
        truncated = math.sqrt(kl_tail_width(k) ** 2 - kl_tail_width(200) ** 2)
        dev = abs(point.error - truncated)
        ok &= dev <= 3.0 * point.stderr
        worst_sigma = max(worst_sigma, dev / point.stderr)
        # against the untruncated tail, allow the analytic truncation gap
        allowance = kl_tail_width(k) - truncated
        ok &= abs(point.error - kl_tail_width(k)) <= 3.0 * point.stderr + allowance
    fit = rate_fit(points, "loglog")
    ok &= -0.6 <= fit.slope <= -0.4
    verdict(9, ok, f"pointwise worst dev={worst_sigma:.2f} sigma (<=3); "
                   f"slope={fit.slope:.3f} in -0.5+-0.1")


def test_criterion_10_quantization_rate():
    seed = SeedSpec(110)
    measure = BrownianKL(200, GRID)
    points = []
    values = []
    for j in range(4, 15):
        cb = product_quantizer_bm(2**j, 200, GRID)
        est = distortion(cb, measure, 2, 2 * 10**4, seed)
        points.append(RatePoint(float(2**j), est.value, est.stderr))
        values.append(est.value)
    fit = rate_fit(points, "loglog-in-log")
    in_bracket = -0.75 <= fit.slope <= -0.25
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = in_bracket and decreasing
    verdict(10, ok, f"slope vs lnln n = {fit.slope:.3f} in -0.5+-0.25; "
                    f"monotone over 2^4..2^14: {decreasing}")


def test_criterion_11_subspace_blindness():
    sub = make_kl_subspace(8, GRID)
    f0 = subspace_blind_functional(sub)
    inside = classical_mc(BrownianKL(8, GRID), f0, 1000, SeedSpec(111))
    outside = reference_value(f0, BrownianKL(200, GRID), 2 * 10**4, SeedSpec(112))
    ok = (
        inside.estimate == 0.0
        and inside.stderr == 0.0
        and outside.value > 5.0 * outside.stderr
    )
    verdict(11, ok, f"on-subspace estimate={inside.estimate} (exact 0); "
                    f"full-measure mean={outside.value:.4f} ({outside.value / outside.stderr:.0f} sigma)")


def test_criterion_12_property_suites(tmp_path):
    seed = SeedSpec(113)
    ok = True
    details = []

    # Lipschitz claims of every built-in adversarial functional
    cb_u = Codebook(
        np.array([[0.1], [0.35], [0.6], [0.85]]), 1.0, NormKind.EUCLIDEAN,
        "uniform_cube:1",
    )
    family = fooling_family(cb_u)
    flagged = 0
    for member in family:
        flagged += lipschitz_check(member, UniformCube(1), 10**4, seed.child(1)).flagged
    for segments in (1, 2, 4):
        spec = IncrementFamilySpec(segments, 1.0, 0.0, (0,) * segments)
        f = increment_functional(spec, GRID)
        flagged += lipschitz_check(f, BrownianKL(200, GRID), 10**4, seed.child(2)).flagged
    flagged += lipschitz_check(
        subspace_blind_functional(make_kl_subspace(8, GRID)),
        BrownianKL(200, GRID), 10**4, seed.child(3),
    ).flagged
    flagged += lipschitz_check(
        sup_norm_functional(), BrownianKL(200, GRID), 10**4, seed.child(4)
    ).flagged
    ok &= flagged == 0
    details.append(f"lipschitz flags: {flagged}")

    # disjoint supports and signed combinations
    xs = sample_batch(UniformCube(1), seed.child(5), 10**4)
    member_values = np.stack([f(xs) for f in family])
    disjoint = bool(np.all((member_values > 0).sum(axis=0) <= 1))
    ok &= disjoint
    rng = seed.child(6).rng()
    combo_ok = True
    for _ in range(10):
        signs = rng.choice([-1.0, 1.0], size=len(family))
        combo = Functional(
            lambda v, s=signs: sum(si * fi(v) for si, fi in zip(s, family)),
            1.0, None, "combo",
        )
        combo_ok &= not lipschitz_check(combo, UniformCube(1), 2000, seed.child(7)).flagged
    ok &= combo_ok
    details.append(f"disjoint={disjoint}, signed-combos ok={combo_ok}")

    # Lloyd pool distortion is non-increasing per iteration
    cb_fit = lloyd(UniformCube(2), 5, 2, LloydOptions(pool_size=5000), seed.child(8))
    hist = cb_fit.fit_history
    monotone = all(b <= a for a, b in zip(hist, hist[1:]))
    ok &= monotone
    details.append(f"lloyd monotone={monotone}")

    # bit-reproducibility of persisted outputs for a fixed seed
    from quantquad.cli import main as cli_main

    argv = [
        "quantize", "--measure", "uniform_cube:1", "--n", "2", "--r", "2",
        "--pool", "20000", "--seed", "42",
    ]
    assert cli_main(argv + ["--out", str(tmp_path / "c1.csv")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "c2.csv")]) == 0
    same = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    ok &= same
    details.append(f"codebook bytes reproducible={same}")

    verdict(12, ok, "; ".join(details))

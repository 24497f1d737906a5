"""Command-line interface: quantize, quad, adversary, rates, widths, info.

All randomness flows from one --seed flag; sub-streams are derived
deterministically.  Outputs are plain CSV or JSON, written atomically,
and echo the fully resolved configuration including seeds.  Exit codes:
0 ok, 1 usage or configuration error, 2 numeric failure, 3 a pass/fail
check failed.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .adversary import (
    _EVENTS_ALPHA,
    _check_certificate_size,
    bakhvalov_lower_bound,
    event_probability,
    fooling_family,
    gap_identity_check,
    lipschitz_check,
)
from .config import (
    load_experiment_config,
    parse_functional,
    parse_measure,
    parse_norm,
    parse_seed,
)
from .errors import ConfigurationError, NumericError
from .experiments import kl_tail_width, run_rate_experiment, width_estimate
from .measures import (
    _check_count,
    measure_tag,
    reference_value,
    sample_shape,
)
from .paths import make_kl_subspace
from .quadrature import (
    SmallBallProfile,
    _budget_rung,
    check_path_measure,
    classical_mc,
    voronoi_quadrature,
    vr_mc,
)
from .quantize import _MIN_SAMPLES, LloydOptions, _check_fits, lloyd, voronoi_weights
from .storage import (
    atomic_write,
    load_codebook,
    save_codebook,
    write_plot_data_csv,
    write_rate_report_csv,
    write_result_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented code is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code, message=""):
        super().__init__(message)
        self.code = code


def _build_parser() -> _Parser:
    parser = _Parser(prog="quantquad", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print version and exit")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default="0", help="master seed (integer)")

    p = sub.add_parser("quantize", parents=[common], help="build a codebook")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2, choices=(1, 2))
    p.add_argument("--norm", default=None)
    p.add_argument("--pool", type=int, default=None, help="Lloyd pool size")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--weight-samples", type=int, default=200_000,
                   help="samples for the Voronoi weight estimate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("quad", parents=[common], help="run a quadrature algorithm")
    p.add_argument("--algo", required=True, choices=tuple(_QUAD_OPTIONS))
    p.add_argument("--measure", default=None)
    p.add_argument("--functional", required=True)
    p.add_argument("--codebook", default=None, help="codebook file (voronoi/vrmc)")
    p.add_argument("--n", type=int, default=None, help="sample count (mc/vrmc)")
    p.add_argument("--budget", type=int, default=None, help="cost budget N (euler/gauss-sub)")
    p.add_argument("--alpha", type=float, default=None,
                   help="small-ball exponent (gauss-sub; default 2)")
    p.add_argument("--beta", type=float, default=None,
                   help="small-ball log exponent (gauss-sub; default 0)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("adversary", parents=[common], help="lower-bound checks")
    p.add_argument("--check", required=True, choices=tuple(_ADVERSARY_OPTIONS))
    p.add_argument("--measure", default=None)
    p.add_argument("--codebook", default=None)
    p.add_argument("--functional", default=None)
    p.add_argument("--samples", type=int, default=None, help="sample count (default 100000)")
    p.add_argument("--pairs", type=int, default=None, help="lipschitz pairs (default 10000)")
    p.add_argument("--segments", type=int, default=None, help="events segments (default 2)")
    p.add_argument("--window", type=float, default=None, help="events window (default 1)")
    p.add_argument("--n", type=int, default=None, help="evaluation count for bakhvalov (default 1)")
    p.add_argument("--lip-claim", type=float, default=None)
    p.add_argument("--out", default=None)

    # Not built on `common`: subparsers share the parent's actions, so a
    # rates-only default would change every command's --seed.
    p = sub.add_parser("rates", help="run a rate experiment")
    p.add_argument("--seed", default=None, help="master seed (integer); default: the config's")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("widths", parents=[common], help="subspace width ladder")
    p.add_argument("--measure", required=True)
    p.add_argument("--dims", required=True, help="comma-separated subspace dims")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--norm", default="l2")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("info", parents=[common], help="version and environment")
    p.add_argument("--version", action="store_true")

    return parser


def _echo(args, **extra) -> dict:
    given = {key: value for key, value in vars(args).items()
             if key != "command" and value is not None}
    return {**given, **extra, "version": __version__}


def _cmd_quantize(args) -> int:
    measure = parse_measure(args.measure)
    seed = parse_seed(args.seed)
    norm = parse_norm(args.norm) if args.norm else None
    opts = LloydOptions(iters=args.iters, restarts=args.restarts, pool_size=args.pool)
    _check_count(args.weight_samples, _MIN_SAMPLES)  # before the fit, not after
    codebook = lloyd(measure, args.n, args.r, opts, seed, norm)
    voronoi_weights(codebook, measure, args.weight_samples, seed.child(999))
    extra = {"seed": seed.tag()}
    for key, value in sorted(_echo(args).items()):
        if key not in ("out", "seed"):
            extra[f"cfg_{key}"] = str(value).replace(",", ";").replace(" ", "_")
    save_codebook(codebook, args.out, extra)
    print(f"wrote codebook n={codebook.n} to {args.out}")
    return EXIT_OK


def _check_options(args, table: dict, label: str, routes=None) -> None:
    """Raise ``ConfigurationError`` naming the first option of ``table``
    that ``label`` does not read and is given, or needs and lacks; ``table``
    maps each label to (needs, may take) as space-separated names, and
    ``routes`` gives a hint per option."""
    needs, takes = (names.split() for names in table[label])
    for option in dict.fromkeys(" ".join(" ".join(rule) for rule in table.values()).split()):
        flag = "--" + option.replace("_", "-")
        given = getattr(args, option) is not None
        if given and option not in needs + takes:
            raise ConfigurationError(f"{label} reads no {flag}{(routes or {}).get(option, '')}")
        if not given and option in needs:
            raise ConfigurationError(f"{label} needs {flag}")


# The options each --algo needs and those it may take, besides --functional
# and --seed; it refuses any other.  Euler and Gaussian-subspace Monte Carlo
# take (n, k) from their budget schedule; at a chosen (n, k) each is plain
# Monte Carlo, which _FIXED_NK names when --n is given.
_QUAD_OPTIONS = {
    "mc": ("measure n", ""),
    "vrmc": ("measure codebook n", ""),
    "voronoi": ("codebook", "measure"),
    "euler": ("measure budget", ""),
    "gauss-sub": ("budget", "measure alpha beta"),
}
_FIXED_NK = {
    "euler": '; for a fixed (n, k) run --algo mc --measure "kind=diffusion ... k_steps=k"',
    "gauss-sub": "; for a fixed (n, k) run --algo mc --measure brownian_kl:k:G",
}


def _cmd_quad(args) -> int:
    seed = parse_seed(args.seed)
    measure = parse_measure(args.measure) if args.measure else None
    _check_options(args, _QUAD_OPTIONS, args.algo, {"n": _FIXED_NK.get(args.algo, "")})
    check_path_measure(args.algo, measure)
    codebook = load_codebook(args.codebook) if args.codebook else None
    # Build the measure the run samples first: f reads its space.
    n, echo_extra = args.n, {}
    if args.algo in ("euler", "gauss-sub"):
        profile = None
        if args.algo == "gauss-sub":
            profile = SmallBallProfile(
                2.0 if args.alpha is None else args.alpha, 0.0 if args.beta is None else args.beta
            )
            echo_extra.update(alpha=profile.alpha, beta=profile.beta)
        n, k, rung = _budget_rung(args.algo, args.budget, measure and measure.grid,
                                  getattr(measure, "spec", None), profile)
        echo_extra.update(scheduled_n=n, scheduled_k=k)
        if measure is None:
            echo_extra["grid"] = rung.grid.size
        measure = rung
    if codebook is not None and measure is not None:  # f reads draws and points
        _check_fits(sample_shape(measure), codebook)
    if measure is not None:
        space = measure.grid or measure.d
    else:  # voronoi reads the codebook's space
        space = codebook.grid or codebook.points.shape[1]
    f = parse_functional(args.functional, space)

    if args.algo == "voronoi":
        result = voronoi_quadrature(codebook, f)
    elif args.algo == "vrmc":
        result = vr_mc(codebook, measure, f, n, seed)
    else:
        result = classical_mc(measure, f, n, seed)

    cost = result.cost
    payload = {"estimate": result.estimate, "stderr": result.stderr, "n": result.cardinality,
               "k": cost.subspace_dim, "oracle_cost": cost.oracle_cost,
               "rng_calls": cost.rng_calls, "arithmetic_proxy": cost.arithmetic_proxy,
               "seed": seed.tag(), "config": _echo(args, **echo_extra)}
    write_result_json(args.out, payload)
    print(
        f"{args.algo}: estimate={result.estimate!r} stderr={result.stderr!r} "
        f"n={result.cardinality} k={result.cost.subspace_dim} "
        f"oracle_cost={result.cost.oracle_cost}"
    )
    return EXIT_OK


# The options each --check needs and those it may take, besides --seed and
# --out; it refuses any other.  _ADVERSARY_DEFAULTS fills those not given.
_ADVERSARY_OPTIONS = {
    "gap-identity": ("codebook measure", "samples"),
    "lipschitz": ("functional measure", "pairs lip_claim"),
    "events": ("", "samples segments window"),
    "bakhvalov": ("codebook measure", "samples n"),
}
_ADVERSARY_DEFAULTS = {"samples": 100_000, "pairs": 10_000, "segments": 2, "window": 1.0, "n": 1}


def _cmd_adversary(args) -> int:
    seed = parse_seed(args.seed)
    _check_options(args, _ADVERSARY_OPTIONS, args.check)
    for option, default in _ADVERSARY_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
    if args.check == "gap-identity":
        codebook = load_codebook(args.codebook)
        measure = parse_measure(args.measure)
        report = gap_identity_check(codebook, measure, args.samples, seed)
        ok, fields = report.passed, dict(
            difference=report.difference, combined_stderr=report.combined_stderr,
            mean_f_last=report.mean_f_last, half_gap=report.half_gap,
        )
    elif args.check == "lipschitz":
        measure = parse_measure(args.measure)
        f = parse_functional(args.functional, measure.grid or measure.d)
        if args.lip_claim is not None:
            f.lip_claim = args.lip_claim
        report = lipschitz_check(f, measure, args.pairs, seed)
        ok, fields = not report.flagged, dict(
            max_ratio=report.max_ratio, claim=report.lip_claim, pairs=report.pairs
        )
    elif args.check == "events":
        report = event_probability(args.segments, args.window, args.samples, seed)
        ok, fields = report.passed, dict(
            estimate=report.estimate, analytic=report.analytic,
            stderr=report.stderr, upper_bound=report.upper_bound,
            p_value=report.p_value, alpha=_EVENTS_ALPHA,
        )
    else:  # bakhvalov
        codebook = load_codebook(args.codebook)
        measure = parse_measure(args.measure)
        family = fooling_family(codebook)
        _check_certificate_size(args.n, len(family))  # before any estimate
        means = []
        for i, member in enumerate(family):
            est = reference_value(member, measure, args.samples, seed.child(i))
            means.append((est.value, est.stderr))
        bound = bakhvalov_lower_bound(args.n, means)
        ok, fields = True, dict(lower_bound=bound, n=args.n, family=len(means))
    row = [f"check={args.check}", f"passed={str(ok).lower()}"]
    row += [f"{key}={value!r}" for key, value in fields.items()]
    text = " ".join(row) + f"\nseed={seed.tag()}\n"
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_rates(args) -> int:
    seed = parse_seed(args.seed) if args.seed is not None else None
    config = load_experiment_config(args.config, seed)
    report = run_rate_experiment(config)
    os.makedirs(args.out_dir, exist_ok=True)
    echo = {"name": report.name, "algorithm": report.algorithm, "seed": report.seed_tag,
            "reference_value": report.reference[0], "reference_stderr": report.reference[1],
            "config_file": args.config, "version": __version__}
    base = os.path.join(args.out_dir, report.name)
    write_rate_report_csv(base + ".csv", report, echo)
    write_plot_data_csv(base + ".plot.csv", report)
    print(
        f"{report.name}: slope={report.fit.slope:.4f} "
        f"r2={report.fit.r_squared:.4f} passed={str(report.passed).lower()}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_widths(args) -> int:
    seed = parse_seed(args.seed)
    measure = parse_measure(args.measure)
    if measure.grid is None:
        raise ConfigurationError("widths needs a path measure")
    norm = parse_norm(args.norm)
    try:
        dims = [int(tok) for tok in args.dims.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--dims must be comma-separated integers, got {args.dims!r}"
        ) from None
    lines = [
        f"# measure={measure_tag(measure)} p={args.p!r} norm={norm.value} "
        f"samples={args.samples} seed={seed.tag()}",
        "k,width,stderr,analytic_l2_tail",
    ]
    for i, k in enumerate(dims):
        sub = make_kl_subspace(k, measure.grid)
        point = width_estimate(measure, sub, args.p, args.samples, seed.child(i), norm)
        lines.append(f"{k},{point.error!r},{point.stderr!r},{kl_tail_width(k)!r}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(dims)} width rows to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            if getattr(args, "version", False):
                print(f"quantquad {__version__}")
                return EXIT_OK
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.command == "info":
            print(f"quantquad {__version__}")
            return EXIT_OK
        handler = {"quantize": _cmd_quantize, "quad": _cmd_quad, "adversary": _cmd_adversary,
                   "rates": _cmd_rates, "widths": _cmd_widths}[args.command]
        return handler(args)
    except SystemExit_ as exc:
        if str(exc):
            print(str(exc), file=sys.stderr)
        return exc.code
    except ConfigurationError as exc:
        print(f"quantquad: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"quantquad: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"quantquad: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

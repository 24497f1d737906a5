import json
import math
import os
import warnings

import numpy as np
import pytest

from quantquad.cli import main
from quantquad.errors import ConfigurationError
from quantquad.paths import Grid, NormKind
from quantquad.quantize import Codebook, product_quantizer_bm
from quantquad.storage import load_codebook, save_codebook


def run(*argv):
    return main(list(argv))


class TestCodebookRoundTrip:
    def test_vector_roundtrip(self, tmp_path):
        cb = Codebook(
            np.array([[0.2512345678901234], [0.75]]),
            1.0,
            NormKind.EUCLIDEAN,
            "uniform_cube:1",
            weights=np.array([0.4, 0.6]),
            oracle_dim=1,
        )
        path = str(tmp_path / "cb.csv")
        save_codebook(cb, path)
        back = load_codebook(path)
        assert np.array_equal(back.points, cb.points)
        assert np.array_equal(back.weights, cb.weights)
        assert back.order_r == cb.order_r
        assert back.norm is cb.norm
        assert back.measure_tag == cb.measure_tag
        assert back.oracle_dim == 1

    def test_path_roundtrip(self, tmp_path):
        cb = product_quantizer_bm(4, 20, Grid.uniform(33))
        path = str(tmp_path / "pq.csv")
        save_codebook(cb, path)
        back = load_codebook(path)
        assert np.array_equal(back.points, cb.points)
        assert np.array_equal(back.weights, cb.weights)
        assert np.array_equal(back.grid.points, cb.grid.points)

    def test_weightless_roundtrip(self, tmp_path):
        cb = Codebook(np.array([[0.1], [0.9]]), 2.0, NormKind.EUCLIDEAN, "u")
        path = str(tmp_path / "nw.csv")
        save_codebook(cb, path)
        assert load_codebook(path).weights is None

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantquad-codebook v2, n=1, space=vector, d=1\n0.5\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_codebook(str(path))

    @pytest.mark.parametrize("rows, line", [("0.5\nnot-a-number\n", 3),
                                            ("\n0.5\n\nnot-a-number\n", 5)],
                             ids=["rows", "blank-lines"])
    def test_malformed_row_reports_line(self, tmp_path, rows, line):
        # A line is named by its number in the file, blank lines counted.
        path = tmp_path / "bad2.csv"
        path.write_text(
            "quantquad-codebook v1, n=2, space=vector, d=1, r=1.0, "
            "norm=euclidean, measure=u\n" + rows
        )
        with pytest.raises(ConfigurationError, match=f"bad2.csv: line {line}: could not parse"):
            load_codebook(str(path))

    def test_identical_bytes_for_same_codebook(self, tmp_path):
        cb = Codebook(np.array([[1.0 / 3.0], [2.0 / 3.0]]), 1.0,
                      NormKind.EUCLIDEAN, "u")
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_codebook(cb, p1)
        save_codebook(cb, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCliQuantize:
    def test_quantize_writes_optimal_codebook(self, tmp_path):
        out = str(tmp_path / "cb.csv")
        code = run(
            "quantize", "--measure", "uniform_cube:1", "--n", "2", "--r", "1",
            "--seed", "7", "--out", out,
        )
        assert code == 0
        cb = load_codebook(out)
        assert np.abs(cb.points.ravel() - np.array([0.25, 0.75])).max() <= 5e-3
        assert cb.weights is not None
        assert abs(cb.weights[0] - 0.5) <= 0.01

    def test_reproducible_output_bytes(self, tmp_path):
        args = lambda name: (
            "quantize", "--measure", "uniform_cube:1", "--n", "2", "--r", "1",
            "--seed", "7", "--pool", "20000",
            "--out", str(tmp_path / name),
        )
        assert run(*args("a.csv")) == 0
        assert run(*args("b.csv")) == 0
        a = open(tmp_path / "a.csv", "rb").read()
        b = open(tmp_path / "b.csv", "rb").read()
        assert a == b

    @pytest.mark.parametrize(
        "flag, value", [("--restarts", "0"), ("--iters", "-1"), ("--pool", "0")]
    )
    def test_invalid_lloyd_options_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "cb.csv"
        code = run(
            "quantize", "--measure", "uniform_cube:1", "--n", "2",
            "--seed", "7", flag, value, "--out", str(out),
        )
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


class TestWeightSamplesBeforeFit:
    # A bad Voronoi sample count is rejected before any Lloyd fit runs.

    @staticmethod
    def _record_fits(monkeypatch, module):
        from quantquad.quantize import uniform_midpoint_codebook

        fits = []

        def fake_lloyd(measure, n, *args, **kwargs):
            fits.append(n)
            return uniform_midpoint_codebook(measure.d, 4)

        monkeypatch.setattr(module, "lloyd", fake_lloyd)
        return fits

    def test_cli_never_fits(self, tmp_path, capsys, monkeypatch):
        from quantquad import cli

        fits = self._record_fits(monkeypatch, cli)
        out = tmp_path / "cb.csv"
        code = run(
            "quantize", "--measure", "uniform_cube:2", "--n", "16",
            "--weight-samples", "0", "--out", str(out),
        )
        assert code == 1
        assert "at least 100 samples needed, got 0" in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize("ladder, weight_samples, fragment", [
        ([16, 64, 256, 1024], 0, "at least 100 samples needed, got 0"),
        ([16, 64, 256], 1000, "a rate fit needs at least 4 ladder sizes, got 3"),
    ], ids=["weight-samples", "short-ladder"])
    def test_config_never_fits(self, tmp_path, monkeypatch, ladder, weight_samples, fragment):
        from quantquad import quantize
        from quantquad.config import load_experiment_config

        fits = self._record_fits(monkeypatch, quantize)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithm": "vrmc", "measure": "uniform_cube:2",
            "functional": "coord_at(0)", "ladder": ladder,
            "codebooks": {"kind": "lloyd", "weight_samples": weight_samples},
        }))
        with pytest.raises(ConfigurationError, match=fragment):
            load_experiment_config(str(cfg))
        assert fits == []


class TestCliQuad:
    def test_euler_budget_echoes_schedule(self, tmp_path):
        out = str(tmp_path / "res.json")
        code = run(
            "quad", "--algo", "euler",
            "--measure", "kind=diffusion drift=linear:0.1 diffusion=linear:0.2 u0=1 k_steps=11",
            "--functional", "coord_at(1.0)",
            "--budget", "1000", "--seed", "3", "--out", out,
        )
        assert code == 0
        record = json.load(open(out))
        assert record["config"]["scheduled_n"] == 12
        assert record["config"]["scheduled_k"] == 83
        assert record["oracle_cost"] == 996
        assert math.isfinite(record["estimate"])

    def test_mc_result_fields_and_reproducibility(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        argv = [
            "quad", "--algo", "mc", "--measure", "uniform_cube:1",
            "--functional", "coord_at(0)", "--n", "100", "--seed", "5",
        ]
        assert run(*argv, "--out", out1) == 0
        assert run(*argv, "--out", out2) == 0
        a, b = json.load(open(out1)), json.load(open(out2))
        a.pop("written_at"), b.pop("written_at")
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b
        for field in ("estimate", "stderr", "n", "k", "oracle_cost", "rng_calls"):
            assert field in a

    def test_voronoi_from_file(self, tmp_path):
        cb = Codebook(
            np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1",
            weights=np.array([0.5, 0.5]),
        )
        cb_path = str(tmp_path / "cb.csv")
        save_codebook(cb, cb_path)
        out = str(tmp_path / "v.json")
        code = run(
            "quad", "--algo", "voronoi", "--codebook", cb_path,
            "--measure", "uniform_cube:1",
            "--functional", "coord_at(0)", "--seed", "1", "--out", out,
        )
        assert code == 0
        assert json.load(open(out))["estimate"] == 0.5

    def test_gauss_sub_budget_widens_grid(self, tmp_path):
        out = str(tmp_path / "gs.json")
        code = run(
            "quad", "--algo", "gauss-sub", "--functional", "sup_norm",
            "--budget", "10000", "--seed", "2", "--out", out,
        )
        assert code == 0
        record = json.load(open(out))
        # schedule for the Brownian profile: n=10, k=921; 921 terms need
        # more than 921 grid points, so the grid is doubled up to 2049
        assert record["config"]["scheduled_n"] == 10
        assert record["config"]["scheduled_k"] == 921
        assert record["config"]["grid"] == 2049
        assert record["oracle_cost"] == 9210

    def test_gauss_sub_path_functional_without_measure(self, tmp_path):
        # coord_at(1.0) reads the doubled grid the run samples, not a vector.
        out = str(tmp_path / "gs.json")
        code = run(
            "quad", "--algo", "gauss-sub", "--functional", "coord_at(1.0)",
            "--budget", "10000", "--out", out,
        )
        assert code == 0
        record = json.load(open(out))
        assert record["config"]["grid"] == 2049
        assert math.isfinite(record["estimate"])

    def test_euler_reads_the_measure_grid(self, tmp_path):
        # On grid=513, t = 0.5 is point 256, so the mean is E|W(0.5)| = 1/sqrt(pi).
        # A fixed number of Euler steps is plain Monte Carlo on the diffusion.
        out = str(tmp_path / "e.json")
        code = run(
            "quad", "--algo", "mc", "--measure",
            "kind=diffusion drift=constant:0 diffusion=constant:1 u0=0 k_steps=9 grid=513",
            "--functional", "abs_coord_at(0.5)", "--n", "20000", "--seed", "1",
            "--out", out,
        )
        assert code == 0
        record = json.load(open(out))
        assert abs(record["estimate"] - 1.0 / math.sqrt(math.pi)) <= 4.0 * record["stderr"]

    def test_seed_defaults_to_zero(self, tmp_path):
        out = str(tmp_path / "noseed.json")
        code = run(
            "quad", "--algo", "mc", "--measure", "uniform_cube:1",
            "--functional", "coord_at(0)", "--n", "100", "--out", out,
        )
        assert code == 0
        assert json.load(open(out))["seed"] == "0:0"

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert run("quad", "--algo", "warp") == 1
        assert run("nonsense") == 1
        assert run("quad", "--algo", "mc", "--functional", "coord_at(0)",
                   "--out", str(tmp_path / "x.json")) == 1


class TestCliAdversary:
    def test_events_check_passes(self, capsys):
        code = run(
            "adversary", "--check", "events", "--segments", "2",
            "--samples", "20000", "--seed", "9",
        )
        assert code == 0
        assert "check=events passed=true" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_events_check_with_no_hits_passes(self, seed, capsys):
        # M p = 0.067: no hits has probability 0.935, and the exact
        # binomial test keeps the analytic value (p-value 1).
        code = run(
            "adversary", "--check", "events", "--segments", "16",
            "--samples", "10000", "--seed", seed,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check=events passed=true estimate=0.0 " in out
        assert " p_value=1.0 alpha=0.0027" in out

    def test_lipschitz_planted_violation_exits_3(self, capsys):
        code = run(
            "adversary", "--check", "lipschitz",
            "--measure", "brownian_kl:50",
            "--functional", "coord_at(1.0)",
            "--lip-claim", "0.25", "--pairs", "500", "--seed", "2",
        )
        assert code == 3
        assert "passed=false" in capsys.readouterr().out

    def test_gap_identity_from_file(self, tmp_path, capsys):
        cb = Codebook(
            np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        cb_path = str(tmp_path / "cb.csv")
        save_codebook(cb, cb_path)
        code = run(
            "adversary", "--check", "gap-identity", "--codebook", cb_path,
            "--measure", "uniform_cube:1", "--samples", "20000", "--seed", "4",
        )
        assert code == 0

    def test_bakhvalov_report(self, tmp_path, capsys):
        cb = Codebook(
            np.array([[0.1], [0.35], [0.6], [0.85]]), 1.0, NormKind.EUCLIDEAN,
            "uniform_cube:1",
        )
        cb_path = str(tmp_path / "cb4.csv")
        save_codebook(cb, cb_path)
        code = run(
            "adversary", "--check", "bakhvalov", "--codebook", cb_path,
            "--measure", "uniform_cube:1", "--n", "1",
            "--samples", "20000", "--seed", "4",
        )
        assert code == 0
        assert "lower_bound=" in capsys.readouterr().out

    @pytest.mark.parametrize("n, fragment", [("0", "n must be >= 1"),
                                             ("2", "requires m >= 4n = 8")])
    def test_bakhvalov_size_rule_before_any_estimate(
        self, tmp_path, capsys, monkeypatch, n, fragment
    ):
        import quantquad.cli as cli

        calls, estimate = [], cli.reference_value
        monkeypatch.setattr(
            cli, "reference_value", lambda *a: calls.append(a) or estimate(*a)
        )
        cb = Codebook(
            np.array([[0.1], [0.35], [0.6], [0.85]]), 1.0, NormKind.EUCLIDEAN,
            "uniform_cube:1",
        )
        cb_path = str(tmp_path / "cb4.csv")
        save_codebook(cb, cb_path)
        code = run(
            "adversary", "--check", "bakhvalov", "--codebook", cb_path,
            "--measure", "uniform_cube:1", "--n", n,
        )
        assert code == 1
        assert fragment in capsys.readouterr().err
        assert calls == []


class TestCliRatesAndWidths:
    def test_rates_run_writes_reports(self, tmp_path):
        config = {
            "name": "mc-demo",
            "algorithm": "mc",
            "measure": "uniform_cube:1",
            "functional": "abs_coord_at(0)",
            "ladder": [4, 8, 16, 32],
            "replications": 60,
            "reference": {"kind": "analytic", "value": 0.5},
            "slope_bracket": [-0.75, -0.25],
            "seed": 11,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = str(tmp_path / "out")
        code = run("rates", "--config", str(cfg), "--out-dir", out_dir)
        assert code == 0
        text = open(os.path.join(out_dir, "mc-demo.csv")).read()
        assert "size,rmse,stderr" in text
        assert "passed=true" in text
        assert os.path.exists(os.path.join(out_dir, "mc-demo.plot.csv"))

    def test_rates_seed_flag_overrides_config_seed(self, tmp_path):
        config = {
            "name": "seeded",
            "algorithm": "mc",
            "measure": "uniform_cube:1",
            "functional": "abs_coord_at(0)",
            "ladder": [4, 8, 16, 32],
            "replications": 20,
            "reference": {"kind": "analytic", "value": 0.5},
            "seed": 11,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        tags = {}
        for label, extra in (("flag0", ("--seed", "0")), ("config", ())):
            out_dir = str(tmp_path / label)
            assert run("rates", "--config", str(cfg), "--out-dir", out_dir, *extra) == 0
            text = open(os.path.join(out_dir, "seeded.csv")).read()
            tags[label] = [l for l in text.splitlines() if l.startswith("# seed=")]
        assert tags["flag0"] == ["# seed=0:0"]
        assert tags["config"] == ["# seed=11:0"]

    @pytest.mark.parametrize(
        "algorithm, ladder, entry, value",
        [
            ("euler", [100, 200, 400, 800],
             {"measure": "kind=diffusion drift=linear:0.1 diffusion=linear:0.2 u0=1 k_steps=11"},
             math.exp(0.1)),
            ("gauss-sub", [300, 400, 500, 600], {}, 0.0),
        ],
        ids=["euler", "gauss-sub"],
    )
    def test_path_ladder_on_the_default_grid(self, tmp_path, algorithm, ladder, entry, value):
        # coord_at(1.0) reads the default grid the rungs sample: that of a
        # measure with no grid field, or none.
        config = {
            "name": algorithm, "algorithm": algorithm, "functional": "coord_at(1.0)",
            "ladder": ladder, "replications": 10,
            "reference": {"kind": "analytic", "value": value}, **entry,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = str(tmp_path / "out")
        assert run("rates", "--config", str(cfg), "--out-dir", out_dir) == 0
        assert os.path.exists(os.path.join(out_dir, f"{algorithm}.csv"))

    def test_gauss_sub_ladder_samples_the_grid_quad_picks_for_its_largest_budget(
        self, tmp_path
    ):
        # The budget 3000 asks for 438 expansion terms, more than 257 grid
        # points hold.  quad doubles the grid to 1025 points, and a rates
        # ladder without a measure runs every rung on that grid.
        from quantquad.config import load_experiment_config

        cfg = tmp_path / "gaussbeyondgrid.json"
        cfg.write_text(json.dumps(_changed("gauss-sub", ladder=[300, 400, 500, 3000])))
        assert load_experiment_config(str(cfg)).grid.size == 1025
        out = str(tmp_path / "gs.json")
        assert run("quad", "--algo", "gauss-sub", "--functional", "sup_norm",
                   "--budget", "3000", "--out", out) == 0
        assert json.load(open(out))["config"]["grid"] == 1025
        assert run("rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0

    def test_widths_output(self, tmp_path):
        out = str(tmp_path / "w.csv")
        code = run(
            "widths", "--measure", "brownian_kl:100", "--dims", "1,2,4",
            "--samples", "2000", "--seed", "6", "--out", out,
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[1] == "k,width,stderr,analytic_l2_tail"
        assert len(lines) == 5


class TestCliBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("widths", "--measure", "brownian_kl:100", "--dims", "1,x"),
            ("quad", "--algo", "mc", "--measure", "uniform_cube:1", "--n", "10",
             "--functional", "coord_at(x)"),
            ("quad", "--algo", "mc", "--measure", "uniform_cube:1", "--n", "10",
             "--functional", "coord_at(3)"),
            ("quad", "--algo", "mc", "--measure", "uniform_cube:2", "--n", "10",
             "--functional", "coord_at(0.5)"),
            ("adversary", "--check", "events", "--segments", "0"),
            ("quantize", "--measure", "uniform_cube:2", "--n", "4", "--norm", "sup"),
        ],
        ids=[
            "dims",
            "functional-arg",
            "vector-index",
            "fractional-index",
            "segments",
            "vector-norm",
        ],
    )
    def test_exits_1_with_a_configuration_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 1
        assert "quantquad: configuration error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("quad", "--algo", "vrmc", "--functional", "sup_norm", "--n", "100"),
            ("adversary", "--check", "gap-identity", "--samples", "1000"),
        ],
        ids=["vrmc", "gap-identity"],
    )
    def test_codebook_on_another_grid(self, tmp_path, capsys, argv):
        # Paths on 33 grid points against samples on the measure's 257.
        cb_file = str(tmp_path / "pq33.csv")
        save_codebook(product_quantizer_bm(4, 20, Grid.uniform(33)), cb_file)
        out = tmp_path / "out"
        code = run(*argv, "--codebook", cb_file, "--measure", "brownian_kl:20",
                   "--out", str(out))
        assert code == 1
        assert "quantquad: configuration error: " in capsys.readouterr().err
        assert not out.exists()


class TestCliNumeric:
    def test_overflowing_distance_exits_2(self, tmp_path, capsys):
        # |x - (+-1e300)|^2 overflows, so no sample has a finite distance.
        cb = Codebook(np.array([[-1e300], [1e300]]), 2.0, NormKind.EUCLIDEAN,
                      "uniform_cube:1", weights=np.array([0.5, 0.5]))
        cb_path = str(tmp_path / "far.csv")
        save_codebook(cb, cb_path)
        out = tmp_path / "out"
        code = run("quad", "--algo", "vrmc", "--codebook", cb_path,
                   "--measure", "uniform_cube:1", "--functional", "coord_at(0)",
                   "--n", "100", "--seed", "1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "quantquad: numeric failure: " in err and "sample 0" in err
        assert not out.exists()


class TestCliInfo:
    def test_version_exit_zero(self, capsys):
        assert run("info", "--version") == 0
        assert "quantquad" in capsys.readouterr().out

    def test_bare_version_flag(self, capsys):
        assert run("--version") == 0


def _exit_code_rows():
    # (argv, exit code, stderr fragment); {cb} is a weighted two-point
    # codebook on [0, 1], {cbinf} the same with order r = inf, and {cb4} a
    # four-point one.
    gap = ("adversary", "--check", "gap-identity", "--codebook", "{cb}",
           "--measure", "uniform_cube:1", "--samples")
    events = ("adversary", "--check", "events", "--samples")
    bakhvalov = ("adversary", "--check", "bakhvalov", "--codebook", "{cb4}",
                 "--measure", "uniform_cube:1", "--n", "1", "--samples")
    mc = ("quad", "--algo", "mc", "--measure", "uniform_cube:1",
          "--functional", "coord_at(0)", "--n")
    vrmc = ("quad", "--algo", "vrmc", "--codebook", "{cb}", "--measure",
            "uniform_cube:1", "--functional", "coord_at(0)", "--n")
    widths = ("widths", "--measure", "brownian_kl:200", "--dims", "1,2",
              "--samples", "2000", "--p")
    gauss = ("quad", "--algo", "gauss-sub", "--functional", "sup_norm",
             "--budget", "1000")
    euler = ("quad", "--algo", "euler", "--functional", "coord_at(1.0)", "--measure")
    sde = "kind=diffusion drift={} diffusion={} u0=1 k_steps=11"
    gbm = sde.format("linear:0.1", "linear:0.2")
    huge = "1" + "0" * 400
    rows = []
    for count in ("0", "1", "-1"):
        rows += [
            (gap + (count,), 1, f"at least 100 samples needed, got {count}"),
            (events + (count,), 1, f"at least 10000 samples needed, got {count}"),
            (bakhvalov + (count,), 1, f"at least 100 samples needed, got {count}"),
        ]
    rows += [
        (gap + ("-3",), 1, "at least 100 samples needed, got -3"),
        (("widths", "--measure", "brownian_kl:20", "--dims", "1", "--samples", "5"),
         1, "at least 1000 samples needed, got 5"),
        (("quantize", "--measure", "uniform_cube:1", "--n", "2", "--pool", "1000",
          "--weight-samples", "0"), 1, "at least 100 samples needed, got 0"),
        (mc + ("0",), 1, "at least 2 samples needed, got 0"),
        (mc + ("1",), 1, "at least 2 samples needed, got 1"),
        (vrmc + ("0",), 1, "at least 2 samples needed, got 0"),
        (vrmc + ("1",), 1, "at least 2 samples needed, got 1"),
        (("adversary", "--check", "lipschitz", "--measure", "uniform_cube:1",
          "--functional", "coord_at(0)", "--pairs", "0"), 1, "at least 100 pairs"),
        (("quad", "--algo", "voronoi", "--codebook", "{cb}",
          "--functional", "coord_at(3)"), 1, "integer coordinate index in [0, 1)"),
        (("adversary", "--check", "events", "--segments", "1000"),
         1, "t=0.001 does not lie on the grid"),
        (("adversary", "--check", "events", "--window", "-1", "--samples", "10000"),
         1, "window must lie in (0, 1]"),
        (("adversary", "--check", "events", "--window", "nan", "--samples", "10000"),
         1, "window must lie in (0, 1]"),
        # Orders, exponents and claims must be finite.
        (widths + ("inf",), 1, "order p must be positive and finite"),
        (widths + ("nan",), 1, "order p must be positive and finite"),
        (("quad", "--algo", "voronoi", "--codebook", "{cbinf}",
          "--functional", "coord_at(0)"), 1, "order r must be positive and finite"),
        (gauss + ("--alpha", "inf"), 1, "alpha must be positive and finite"),
        (gauss + ("--beta", "nan"), 1, "beta must be finite"),
        (("adversary", "--check", "lipschitz", "--measure", "uniform_cube:1",
          "--functional", "coord_at(0)", "--lip-claim", "nan"),
         1, "Lipschitz claim must be finite"),
        # Coefficients of every family must be finite.
        (euler + (sde.format("constant:nan", "linear:0.2"), "--n", "100"),
         1, "must be finite"),
        (euler + (sde.format("linear:inf", "linear:0.2"), "--n", "100"),
         1, "must be finite"),
        (euler + (sde.format("affine:1,nan", "linear:0.2"), "--n", "100"),
         1, "must be finite"),
        # Budgets beyond float range are configuration errors.
        (euler + (sde.format("linear:0.1", "linear:0.2"), "--budget", huge),
         1, "Euler schedule leaves float range"),
        (gauss[:-1] + (huge,), 1, "subspace schedule leaves float range"),
        (gauss + ("--beta", "1e300"), 1, "subspace schedule leaves float range"),
        (gauss + ("--beta=-1e300",), 1, "subspace schedule leaves float range"),
        # The certificate's size rule holds before any member is estimated.
        (bakhvalov[:-2] + ("0",), 1, "n must be >= 1"),
        (bakhvalov[:-2] + ("2",), 1, "requires m >= 4n = 8"),
        # A measure must fit the codebook's points before f reads either.
        (("quad", "--algo", "voronoi", "--codebook", "{cb}", "--measure", "uniform_cube:2",
          "--functional", "abs_coord_at(1)"),
         1, "samples of shape (2,) do not fit codebook points of shape (1,)"),
        (("quad", "--algo", "voronoi", "--codebook", "{cb}", "--measure", "brownian_kl:200",
          "--functional", "sup_norm"),
         1, "samples of shape (257, 1) do not fit codebook points of shape (1,)"),
        (vrmc[:6] + ("uniform_cube:2", "--functional", "abs_coord_at(1)", "--n", "100"),
         1, "samples of shape (2,) do not fit codebook points of shape (1,)"),
        # Missing input files are i/o errors.
        (vrmc[:4] + ("{cb}.missing",) + vrmc[5:] + ("100",), 1, "i/o error: [Errno 2]"),
        (("rates", "--config", "{cb}.missing", "--out-dir", "{out}"),
         1, "i/o error: [Errno 2]"),
        # Sizes are checked before anything of that size is allocated: the
        # grid this would double up to holds 2**30 + 1 points.
        (gauss[:-1] + ("100000000000000",), 1, "on a 1073741825-point grid"),
        # {blowup} is an Euler ladder on the drift of _blow_up_argvs.
        (("rates", "--config", "{blowup}", "--out-dir", "{out}"),
         2, "non-finite state at step 2"),
    ]
    # Every expansion measure checks its basis before building it, and a
    # measure spec reads every part it is given.
    rows += [
        (mc[:4] + (spec,) + mc[5:] + ("100",), 1, fragment)
        for spec, fragment in [
            ("brownian_kl:5000:20001", "needs a 800040000-byte basis"),
            ("uniform_cube:2:9", "the extra part '9'"),
            ("std_normal:1:x", "the extra part 'x'"),
            ("brownian_kl:20:33:7", "the extra part '7'"),
            ("kind=uniform_cube d=2 extra=1", "reads no field 'extra'"),
        ]
    ]
    # Sizes from a measure spec are checked before anything of that size is
    # allocated: one draw must fit in a block.
    rows += [
        (mc[:4] + ("brownian_kl:10:100000000000000",) + mc[5:] + ("100",),
         1, "one draw of 100000000000000 floats needs 800000000000000 bytes"),
        (euler + (gbm + " m=100000000000", "--budget", "1000"),
         1, "one draw of 25700000000000 floats needs 205600000000000 bytes"),
    ]
    # A malformed codebook file is refused with the file and the line; a
    # point row's width is checked against the header before the header's
    # grid is built.  See _BAD_CODEBOOKS.
    rows += [(("quad", "--algo", "voronoi", "--codebook", "{" + name + "}",
               "--functional", "coord_at(0)"), 1, f"{name}.csv: {fragment}")
             for name, (*_, fragment) in _BAD_CODEBOOKS.items()]
    # quad has no --grid: a run's grid is its measure's.
    rows += [
        (euler + (sde.format("linear:0.1", "linear:0.2"), "--n", "100", "--grid", "513"),
         1, "unrecognized arguments: --grid"),
    ]
    # quad has no --k, and each --algo refuses an input it does not read:
    # euler and gauss-sub take (n, k) from --budget, a fixed (n, k) is mc.
    voronoi = ("quad", "--algo", "voronoi", "--codebook", "{cb}", "--functional", "coord_at(0)")
    rows += [
        (mc + ("100", "--k", "16"), 1, "unrecognized arguments: --k 16"),
        (euler + (gbm,), 1, "euler needs --budget"),
        (gauss[:-2], 1, "gauss-sub needs --budget"),
        (euler + (gbm, "--n", "100"), 1, "euler reads no --n; for a fixed (n, k) run "
         '--algo mc --measure "kind=diffusion ... k_steps=k"'),
        (gauss + ("--n", "10"), 1, "gauss-sub reads no --n; for a fixed (n, k) run "
         "--algo mc --measure brownian_kl:k:G"),
        (mc + ("100", "--budget", "1000"), 1, "mc reads no --budget"),
        (vrmc + ("100", "--budget", "1000"), 1, "vrmc reads no --budget"),
        (voronoi + ("--budget", "1000"), 1, "voronoi reads no --budget"),
        (mc + ("100", "--codebook", "{cb}"), 1, "mc reads no --codebook"),
        (euler + (gbm, "--budget", "1000", "--codebook", "{cb}"),
         1, "euler reads no --codebook"),
        (gauss + ("--codebook", "{cb}"), 1, "gauss-sub reads no --codebook"),
        (mc + ("100", "--alpha", "2"), 1, "mc reads no --alpha"),
        (euler + (gbm, "--budget", "1000", "--beta", "0"), 1, "euler reads no --beta"),
        (voronoi + ("--alpha", "2"), 1, "voronoi reads no --alpha"),
        (gauss + ("--measure", "std_normal:3"), 1, "gauss-sub needs a brownian_kl measure"),
    ]
    # A rates config holds only keys the loader reads; see _UNREAD_KEYS.
    rows += [
        (("rates", "--config", "{" + name + "}", "--out-dir", "{out}"),
         1, f"unknown config key '{key}'")
        for name, key in (("typo", "replication"), ("eulergrid", "grid"),
                          ("gaussgrid", "grid"), ("eulerdiffusion", "diffusion"))
    ]
    # Every key a rates config reads and lacks is named by its dotted path;
    # see _MISSING_KEYS.
    rows += [
        (("rates", "--config", "{" + name + "}", "--out-dir", "{out}"),
         1, f"missing config key '{key}'")
        for name, key in (("nobudget", "reference.budget"), ("nofunctional", "functional"),
                          ("nopaths", "codebooks.paths"), ("noeulermeasure", "measure"))
    ]
    # Each adversary --check refuses an option it does not read, and names
    # one it needs and lacks.
    lipschitz = ("adversary", "--check", "lipschitz", "--measure", "uniform_cube:1",
                 "--functional", "coord_at(0)")
    rows += [
        (lipschitz + ("--samples", "300"), 1, "lipschitz reads no --samples"),
        (lipschitz + ("--segments", "3"), 1, "lipschitz reads no --segments"),
        (lipschitz + ("--n", "2"), 1, "lipschitz reads no --n"),
        (gap + ("1000", "--pairs", "500"), 1, "gap-identity reads no --pairs"),
        (gap + ("1000", "--window", "0.5"), 1, "gap-identity reads no --window"),
        (gap + ("1000", "--lip-claim", "2"), 1, "gap-identity reads no --lip-claim"),
        (gap + ("1000", "--functional", "coord_at(0)"), 1, "gap-identity reads no --functional"),
        (events + ("10000", "--n", "2"), 1, "events reads no --n"),
        (events + ("10000", "--pairs", "500"), 1, "events reads no --pairs"),
        (events + ("10000", "--measure", "uniform_cube:1"), 1, "events reads no --measure"),
        (events + ("10000", "--lip-claim", "2"), 1, "events reads no --lip-claim"),
        (bakhvalov + ("1000", "--segments", "3"), 1, "bakhvalov reads no --segments"),
        (bakhvalov + ("1000", "--pairs", "500"), 1, "bakhvalov reads no --pairs"),
        (gap[:5] + gap[7:] + ("1000",), 1, "gap-identity needs --measure"),
        (lipschitz[:5] + ("--pairs", "500"), 1, "lipschitz needs --functional"),
        (("adversary", "--check", "bakhvalov", "--measure", "uniform_cube:1"),
         1, "bakhvalov needs --codebook"),
    ]
    # A config, and each level of it, must be a JSON object; see _NOT_OBJECTS.
    rows += [
        (("rates", "--config", "{listconfig}", "--out-dir", "{out}"),
         1, "listconfig.json: a config must be a JSON object, got list"),
        (("rates", "--config", "{intreference}", "--out-dir", "{out}"),
         1, "intreference.json: config key 'reference' must be a JSON object, got int"),
    ]
    # A rates config is JSON, each key of its JSON type, read by the
    # algorithm and the kind; see _BAD_CONFIGS.
    rows += [(("rates", "--config", "{notjson}", "--out-dir", "{out}"),
              1, "notjson.json: not a JSON file: Expecting")]
    rows += [(("rates", "--config", "{" + name + "}", "--out-dir", "{out}"),
              1, f"{name}.json: {fragment}") for name, (_, fragment) in _BAD_CONFIGS.items()]
    # A measure must fit the codebook's points before any check draws.
    rows += [
        (gap[:6] + ("uniform_cube:2", "--samples", "1000"),
         1, "samples of shape (2,) do not fit codebook points of shape (1,)"),
        (bakhvalov[:6] + ("uniform_cube:2",) + bakhvalov[7:] + ("1000",),
         1, "samples of shape (2,) do not fit codebook points of shape (1,)"),
    ]
    # A diffusion that blows up is a numeric failure; 300 paths run as two
    # halves, the pool's paths blow up in the Lloyd fit, the widths in
    # their stream and the Lipschitz check in its first stream.  {cbpath} is
    # a two-point codebook of constant paths on the diffusion's grid.
    rows += [(argv, 2, "non-finite state at step 2") for argv in _blow_up_argvs() + [
        ("quad", "--algo", "mc", "--measure", _BLOW_UP, "--functional", "coord_at(1.0)",
         "--n", "300"),
        ("quad", "--algo", "vrmc", "--codebook", "{cbpath}", "--measure", _BLOW_UP,
         "--functional", "coord_at(1.0)", "--n", "300"),
        ("adversary", "--check", "gap-identity", "--codebook", "{cbpath}",
         "--measure", _BLOW_UP, "--samples", "300"),
    ]]
    return rows


# Rate configs that lack one key the loader reads: a reference budget, the
# functional, the codebook files and the diffusion measure of an euler ladder.
_MISSING_KEYS = {
    "nobudget": {
        "algorithm": "mc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
        "ladder": [4, 8, 16, 32], "reference": {"kind": "mc"},
    },
    "nofunctional": {
        "algorithm": "mc", "measure": "uniform_cube:1", "ladder": [4, 8, 16, 32],
        "reference": {"kind": "analytic", "value": 0.5},
    },
    "nopaths": {
        "algorithm": "vrmc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
        "ladder": [4, 8, 16, 32], "reference": {"kind": "analytic", "value": 0.5},
        "codebooks": {"kind": "files"},
    },
    "noeulermeasure": {
        "algorithm": "euler", "functional": "sup_norm", "ladder": [100, 200, 400, 800],
        "reference": {"kind": "analytic", "value": 1.0},
    },
}


# Rate configs that are not JSON objects, or hold a level that is not.
_NOT_OBJECTS = {
    "listconfig": [1, 2],
    "intreference": {
        "algorithm": "mc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
        "ladder": [4, 8, 16, 32], "reference": 5,
    },
}


# Small ladders of each algorithm that run as they stand; _BAD_CONFIGS
# changes one key of one of them.
_LADDERS = {
    "mc": {"algorithm": "mc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
           "ladder": [4, 8, 16, 32], "replications": 5,
           "reference": {"kind": "analytic", "value": 0.5}},
    "euler": {"algorithm": "euler", "functional": "sup_norm", "ladder": [100, 200, 400, 800],
              "replications": 5, "reference": {"kind": "analytic", "value": 1.0},
              "measure": "kind=diffusion drift=constant:0 diffusion=constant:1 u0=1 k_steps=9"},
    "gauss-sub": {"algorithm": "gauss-sub", "functional": "sup_norm", "replications": 5,
                  "ladder": [300, 400, 500, 600], "reference": {"kind": "analytic", "value": 1.0}},
    "vrmc": {"algorithm": "vrmc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
             "ladder": [4, 8, 16, 32], "replications": 5,
             "reference": {"kind": "analytic", "value": 0.5}},
}


def _changed(algorithm, **changes):
    # _LADDERS[algorithm] with each change; "level.key" changes a key below.
    config = json.loads(json.dumps(_LADDERS[algorithm]))
    for key, value in changes.items():
        level, _, name = key.replace("__", ".").rpartition(".")
        (config.setdefault(level, {}) if level else config)[name] = value
    return config


# Rate configs that would run but for one key the loader does not read: a
# top-level typo of "replications", and a "grid" or "diffusion" beside the
# measure that a path ladder samples.
_UNREAD_KEYS = {
    "typo": {
        "algorithm": "mc", "measure": "uniform_cube:1", "functional": "abs_coord_at(0)",
        "ladder": [4, 8, 16, 32], "replication": 5,
        "reference": {"kind": "analytic", "value": 0.5},
    },
    "eulergrid": _changed("euler", grid=513),
    "gaussgrid": _changed("gauss-sub", grid=513),
    "eulerdiffusion": _changed("euler", diffusion={"drift": "constant:0",
                                                   "diffusion": "constant:1", "u0": 1}),
}


# Rate configs with one key of the wrong JSON type, a key the algorithm or
# the kind does not read, a reference the ladder cannot resolve, or a slope
# bracket or transform that no fit can use: each is refused before a rung
# runs, with the file and the key (name: config, stderr fragment).
_BAD_CONFIGS = {
    "strreplications": (_changed("mc", replications="x"),
                        "config key 'replications' must be an integer, got str"),
    "floatreplications": (_changed("mc", replications=20.9),
                          "config key 'replications' must be an integer, got float 20.9"),
    "strladder": (_changed("mc", ladder="abc"), "config key 'ladder' must be a list of integers"),
    "intladder": (_changed("mc", ladder=5), "config key 'ladder' must be a list of integers"),
    "floatladder": (_changed("mc", ladder=[4.7, 8.2, 16.9, 32.5]),
                    "config key 'ladder' must be a list of integers, got list [4.7"),
    "strvalue": (_changed("mc", reference__value="a"),
                 "config key 'reference.value' must be a finite number, got str"),
    "nanvalue": (_changed("mc", reference__value=math.nan),
                 "config key 'reference.value' must be a finite number, got float NaN"),
    "floatbudget": (_changed("mc", reference={"kind": "mc", "budget": 1000.9}),
                    "config key 'reference.budget' must be an integer, got float"),
    "listseed": (_changed("mc", seed=[1]), "config key 'seed' must be an integer, got list"),
    "floatseed": (_changed("mc", seed=1.5), "config key 'seed' must be an integer, got float"),
    "boolseed": (_changed("mc", seed=True), "config key 'seed' must be an integer, got bool"),
    "intmeasure": (_changed("mc", measure=3), "config key 'measure' must be a string, got int"),
    "intfunctional": (_changed("mc", functional=3),
                      "config key 'functional' must be a string, got int"),
    "intname": (_changed("mc", name=5), "config key 'name' must be a string, got int"),
    "listpaths": (_changed("vrmc", codebooks={"kind": "files", "paths": ["a.csv", "b.csv"]}),
                  "config key 'codebooks.paths' must be a JSON object, got list"),
    "nomeasure": ({k: v for k, v in _changed("vrmc", codebooks={"kind": "lloyd"}).items()
                   if k != "measure"}, "missing config key 'measure'"),
    # Keys the algorithm or the kind does not read.
    "mcprofile": (_changed("mc", profile={"alpha": 2.0}),
                  "algorithm 'mc' reads no config key 'profile'"),
    "mccodebooks": (_changed("mc", codebooks={"kind": "midpoint-grid"}),
                    "algorithm 'mc' reads no config key 'codebooks'"),
    "analyticbudget": (_changed("mc", reference__budget=1000),
                       "reference kind 'analytic' reads no config key 'reference.budget'"),
    "midpointr": (_changed("vrmc", codebooks={"kind": "midpoint-grid", "r": 2}),
                  "codebooks kind 'midpoint-grid' reads no config key 'codebooks.r'"),
    # A reference the ladder cannot resolve.
    "mceulerref": (_changed("mc", reference={"kind": "euler", "k_ref": 9, "n_ref": 200}),
                   "reference kind 'euler' needs the field 'diffusion'"),
    "gausseulerref": (_changed("gauss-sub", reference={"kind": "euler", "k_ref": 9,
                                                       "n_ref": 200}),
                      "reference kind 'euler' needs the field 'diffusion'"),
    "gaussmcref": (_changed("gauss-sub", reference={"kind": "mc", "budget": 1000}),
                   "reference kind 'mc' needs the field 'measure'"),
    # A path ladder samples a measure of its own kind.
    "eulercube": (_changed("euler", measure="uniform_cube:1"),
                  "euler needs a kind=diffusion measure"),
    "gaussnormal": (_changed("gauss-sub", measure="std_normal:1"),
                    "gauss-sub needs a brownian_kl measure"),
    # A ladder no fit can use, or a size no rung can run.
    "shortladder": (_changed("euler", ladder=[100, 200, 400]),
                    "a rate fit needs at least 4 ladder sizes, got 3"),
    "onedraw": (_changed("mc", ladder=[1, 4, 8, 16]), "at least 2 samples needed, got 1"),
    "onecodebookdraw": (_changed("vrmc", ladder=[1, 4, 9, 16]),
                        "at least 2 samples needed, got 1"),
    "smallbudget": (_changed("euler", ladder=[5, 200, 400, 800]),
                    "budget N=5 too small for the Euler schedule"),
    "smallgaussbudget": (_changed("gauss-sub", ladder=[5, 400, 500, 600]),
                         "budget N=5 too small for the subspace schedule"),
    # One draw must fit in a block before a grid or state of its size is built.
    "hugegrid": (_changed("euler", measure=_LADDERS["euler"]["measure"] + " grid=10000000000"),
                 "config key 'measure': one draw of 10000000000 floats needs 80000000000 bytes"),
    "bogusref": (_changed("mc", reference={"kind": "bogus"}), "unknown reference kind 'bogus'"),
    # Slope brackets and transforms no fit can use.
    "strbracket": (_changed("mc", slope_bracket="ab"),
                   "config key 'slope_bracket' must be two finite numbers, got str"),
    "intbracket": (_changed("mc", slope_bracket=5),
                   "config key 'slope_bracket' must be two finite numbers, got int"),
    "shortbracket": (_changed("mc", slope_bracket=[1]),
                     "config key 'slope_bracket' must be two finite numbers, got list"),
    "longbracket": (_changed("mc", slope_bracket=[1, 2, 3]),
                    "config key 'slope_bracket' must be two finite numbers, got list"),
    "reversedbracket": (_changed("mc", slope_bracket=[-0.25, -0.75]),
                        "slope_bracket must be two finite numbers lo <= hi, got (-0.25, -0.75)"),
    "inttransform": (_changed("mc", transform=3),
                     "config key 'transform' must be a string, got int"),
    "bogustransform": (_changed("mc", transform="loglin"), "unknown transform 'loglin'"),
}


# Codebook files made from {cb} or {cbpath} (see TestCliExitCodes) by one
# change: (source, text, its replacement, stderr fragment).
_BAD_CODEBOOKS = {
    "cbnabc": ("cb", "n=2", "n=abc", "line 1: bad field n='abc'"),
    "cbn0": ("cb", "n=2", "n=0", "line 1: bad field n='0'"),
    "cbdx": ("cb", "d=1", "d=x", "line 1: bad field d='x'"),
    "cbrx": ("cb", "r=1.0", "r=x", "line 1: bad field r='x'"),
    "cbnorm": ("cb", "norm=euclidean", "norm=bogus", "line 1: bad field norm='bogus'"),
    "cbragged": ("cb", "\n0.75\n", "\n0.75,0.25\n",
                 "line 3: a point row must have 1 values, got 2"),
    "cbweights": ("cb", "\n0.5,0.5\n", "\n0.5\n", "line 4: a weights row must have 2 values"),
    "cbrows": ("cb", "\n0.75\n", "\n0.75\n0.8\n",
               "expected 2 point rows (+ optional weights row), got 4 data rows"),
    "cbfield": ("cb", "d=1", "d=1, bogus", "line 1: malformed field 'bogus'"),
    "cbnonorm": ("cb", ", norm=euclidean", "", "line 1: missing field 'norm'"),
    "cbspace": ("cb", "space=vector", "space=matrix", "line 1: unknown space 'matrix'"),
    "cbnan": ("cb", "\n0.25\n", "\nnan\n", "codebook points must be finite"),
    "cbtwins": ("cb", "\n0.25\n", "\n0.75\n", "codebook points must be pairwise distinct"),
    "cbnegative": ("cb", "\n0.5,0.5\n", "\n1.5,-0.5\n", "weights must be n nonnegative reals"),
    "cbsum": ("cb", "\n0.5,0.5\n", "\n0.5,0.4\n", "weights must sum to 1"),
    "cbgridabc": ("cbpath", "grid=uniform:257", "grid=uniform:abc",
                  "line 1: bad field grid='uniform:abc'"),
    "cbgridkind": ("cbpath", "grid=uniform:257", "grid=chebyshev:257",
                   "line 1: bad field grid='chebyshev:257'"),
    "cbgridhuge": ("cbpath", "grid=uniform:257", "grid=uniform:100000000000000",
                   "line 2: a point row must have 100000000000000 values, got 257"),
    "cbgridone": ("cbpath", "grid=uniform:257, m=1", "grid=uniform:1, m=257",
                  "uniform grid needs size >= 2"),
}


# A diffusion whose Euler states overflow at step 2.
_BLOW_UP = "kind=diffusion drift=linear:1e300 diffusion=linear:0.2 u0=1 k_steps=11"


def _blow_up_argvs():
    sde = _BLOW_UP
    return [
        ("quad", "--algo", "mc", "--functional", "coord_at(1.0)", "--measure", sde,
         "--n", "300"),
        ("quantize", "--measure", sde, "--n", "2", "--pool", "1000"),
        ("widths", "--measure", sde, "--dims", "1,2", "--samples", "1000"),
        ("adversary", "--check", "lipschitz", "--measure", sde,
         "--functional", "coord_at(1.0)"),
    ]


class TestCliExitCodes:
    # Exit codes: 0 ok, 1 configuration, 2 numeric, 3 check failed; no
    # invocation ends in a traceback.
    @pytest.mark.parametrize(
        "argv, code, fragment", _exit_code_rows(),
        ids=[" ".join(row[0]) for row in _exit_code_rows()],
    )
    def test_exit_code_and_message(self, tmp_path, capsys, argv, code, fragment):
        files = {}
        for name, points in (("cb", [[0.25], [0.75]]),
                             ("cb4", [[0.1], [0.35], [0.6], [0.85]])):
            n = len(points)
            cb = Codebook(np.array(points), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1",
                          weights=np.full(n, 1.0 / n))
            files[name] = str(tmp_path / f"{name}.csv")
            save_codebook(cb, files[name])
        grid = Grid.uniform()
        paths = np.stack([np.zeros((grid.size, 1)), np.ones((grid.size, 1))])
        files["cbpath"] = str(tmp_path / "cbpath.csv")
        save_codebook(Codebook(paths, 2.0, NormKind.L2, "diffusion", grid=grid,
                               weights=np.full(2, 0.5)), files["cbpath"])
        for name, (source, text, replacement, _) in {
            "cbinf": ("cb", "r=1.0", "r=inf", ""), **_BAD_CODEBOOKS
        }.items():
            files[name] = str(tmp_path / f"{name}.csv")
            with open(files[source]) as src, open(files[name], "w") as dst:
                dst.write(src.read().replace(text, replacement, 1))
        files["blowup"] = str(tmp_path / "blowup.json")
        with open(files["blowup"], "w") as dst:
            json.dump({
                "name": "blow-up", "algorithm": "euler", "functional": "sup_norm",
                "ladder": [100, 200, 400, 1000], "replications": 10,
                "reference": {"kind": "euler", "k_ref": 11, "n_ref": 300}, "measure": _BLOW_UP,
            }, dst)
        bad = {name: config for name, (config, _) in _BAD_CONFIGS.items()}
        for name, config in {**_UNREAD_KEYS, **_MISSING_KEYS, **_NOT_OBJECTS, **bad}.items():
            files[name] = str(tmp_path / f"{name}.json")
            with open(files[name], "w") as dst:
                json.dump(config, dst)
        files["notjson"] = str(tmp_path / "notjson.json")
        with open(files["notjson"], "w") as dst:
            dst.write("{'algorithm': 'mc'}")
        out = tmp_path / "out"
        if "{out}" not in argv:
            argv += ("--out", "{out}")
        argv = [arg.format(out=out, **files) for arg in argv]
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", sorted(_LADDERS))
    def test_each_bad_config_changes_one_that_runs(self, tmp_path, algorithm):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_LADDERS[algorithm]))
        assert run("rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) in (0, 3)

    @pytest.mark.parametrize("argv", _blow_up_argvs(), ids=lambda argv: argv[0])
    def test_a_blow_up_warns_nothing(self, tmp_path, argv):
        # The Euler kernel reports the overflow itself; numpy warned of it too.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert [str(w.message) for w in caught] == []

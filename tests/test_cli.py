import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mejump import cli
from mejump.medist import MEParams
from mejump.modelio import (
    ESTIMATE_CSV_HEADER,
    ParseError,
    config_from_dict,
    read_model,
    write_model,
)
from mejump.models import random_me_model, reference_model

from conftest import decoupled_rotator


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    write_model(reference_model(), path, name="reference")
    return path


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(41)
        for k in range(5):
            params = random_me_model(3, rng)
            path = tmp_path / f"m{k}.json"
            write_model(params, path)
            back, _ = read_model(path)
            assert np.array_equal(back.alpha, params.alpha)
            assert np.array_equal(back.T, params.T)
            assert np.array_equal(back.s, params.s)

    def test_parse_errors_are_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": [1.0], "T": [[-1.0]], "s": [1.0, 2.0]}')
        with pytest.raises(ParseError, match="'s' has length 2"):
            read_model(path)
        path.write_text('{"alpha": [1.0], "s": [1.0]}')
        with pytest.raises(ParseError, match="missing field 'T'"):
            read_model(path)
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_model(path)
        # a JSON boolean passes isinstance(v, int) but is not a number
        path.write_text('{"alpha": [true], "T": [[-1.0]], "s": [1]}')
        with pytest.raises(ParseError, match="'alpha' must be an array of numbers"):
            read_model(path)
        path.write_text('{"alpha": [1.0], "T": [[false]], "s": [1]}')
        with pytest.raises(ParseError, match=r"'T\[0\]' must be an array of numbers"):
            read_model(path)


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.lam == "auto" and cfg.estimator == "both" and cfg.seed == 42

    def test_bad_values(self):
        with pytest.raises(ParseError):
            config_from_dict({"n_paths": 0})
        with pytest.raises(ParseError):
            config_from_dict({"estimator": "kernel"})
        with pytest.raises(ParseError):
            config_from_dict({"mystery": 1})
        with pytest.raises(ParseError):
            config_from_dict({"grid": {"x_min": 2.0, "x_max": 1.0, "n_bins": 5}})
        grid = {"x_min": 0.0, "x_max": 1.0, "n_bins": 3}
        h = {"type": "poly-exp-decay", "c": 2.0, "degree": 1}
        for raw in (
            {"n_paths": 1000.9},
            {"n_paths": True},
            {"seed": True},
            {"seed": 4.5},
            {"lambda": True},
            {"chunk": 100.5},
            {"workers": 1.5},
            {"auto_delta": False},
            {"grid": dict(grid, n_bins=3.7)},
            {"grid": dict(grid, x_max=True)},
            {"h": dict(h, c=True)},
            {"h": dict(h, degree=1.5)},
            {"h": {"type": "poly-exp-decay", "c": 2.0, "degre": 3}},
            {"grid": dict(grid, xmax=2.0)},
            {"n_paths": float("inf")},
        ):
            with pytest.raises(ParseError):
                config_from_dict(raw)

    def test_integral_floats_accepted(self):
        cfg = config_from_dict(
            {"n_paths": 1e6, "seed": 7.0, "grid": {"x_min": 0, "x_max": 2, "n_bins": 4.0}}
        )
        assert (cfg.n_paths, cfg.seed, cfg.grid.n_bins) == (1_000_000, 7, 4)
        assert isinstance(cfg.n_paths, int) and isinstance(cfg.grid.n_bins, int)


class TestValidateCommand:
    def test_ok(self, model_file, capsys):
        code, out, _ = run_cli(["validate", model_file], capsys)
        assert code == 0
        assert "sigma0: -1.0" in out
        assert "normalization: 1.0" in out

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text('{"alpha": [1.0], "T": [[1.0]], "s": [1.0]}')
        code, _, err = run_cli(["validate", path], capsys)
        assert code == 2

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, _ = run_cli(["validate", path], capsys)
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run_cli(["validate", "/nonexistent/model.json"], capsys)
        assert code == 1


class TestSplitCommand:
    def test_auto_lambda(self, model_file, capsys):
        code, out, _ = run_cli(["split", model_file], capsys)
        assert code == 0
        assert "lambda0: 2.0" in out
        assert "lambda: 2.0" in out
        assert "transient: true" in out

    def test_out_files(self, model_file, tmp_path, capsys):
        prefix = tmp_path / "split"
        code, _, _ = run_cli(["split", model_file, "--out", prefix], capsys)
        assert code == 0
        D = np.loadtxt(f"{prefix}_D.csv", delimiter=",")
        assert D.shape == (6, 6)
        assert D[0, 0] == -3.0
        for suffix in ("Tplus", "Tminus", "splus", "sminus", "exit_profile", "summary"):
            assert (tmp_path / f"split_{suffix}.csv").exists()

    def test_below_threshold_exits_3(self, model_file, capsys):
        code, _, err = run_cli(["split", model_file, "--lambda", "1.5"], capsys)
        assert code == 3

    def test_phase_type_threshold_zero(self, tmp_path, capsys):
        from mejump.models import phase_type_example

        path = tmp_path / "pt.json"
        write_model(phase_type_example(), path)
        code, out, _ = run_cli(["split", path], capsys)
        assert code == 0
        assert "lambda0: 0.0" in out
        assert "transient: true" in out

    def test_positive_diagonal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "posdiag.json"
        # stable but with t11 > 0, normalized mass
        T = np.array([[0.2, -2.0], [2.0, -4.0]])
        alpha = np.array([1.0, 0.0])
        s = np.array([1.0, 1.0])
        alpha = alpha / float(alpha @ np.linalg.solve(-T, s))
        write_model(MEParams(alpha=alpha, T=T, s=s), path)
        code, _, err = run_cli(["split", path], capsys)
        assert code == 2
        assert "sign split" in err


class TestTiltCommand:
    def test_prints_normalizer(self, model_file, capsys):
        code, out, _ = run_cli(["tilt", model_file, "--lambda", "2"], capsys)
        assert code == 0
        assert "0.4222222222222222" in out

    def test_written_model_is_valid_and_tilted(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "tilted.json"
        code, _, _ = run_cli(
            ["tilt", model_file, "--lambda", "2", "--out", out_path], capsys
        )
        assert code == 0
        tilted, name = read_model(out_path)
        assert tilted.alpha[0] == pytest.approx(45.0 / 19.0, rel=1e-15)
        assert tilted.T[0, 0] == -3.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_rate_exits_1(self, model_file, lam, capsys):
        code, _, err = run_cli(["tilt", model_file, "--lambda", lam], capsys)
        assert code == 1
        assert err == f"error: tilting rate must be finite, got {lam}\n"


class TestEstimateCommand:
    def cfg(self, tmp_path, **kw):
        base = {"lambda": 2.0, "n_paths": 20_000, "seed": 7, "chunk": 6000}
        base.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        return path

    def test_writes_csv_with_exact_header(self, model_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code, stdout, _ = run_cli(
            ["estimate", model_file, "--config", self.cfg(tmp_path), "--out", out],
            capsys,
        )
        assert code == 0
        assert "seed: 7" in stdout
        lines = out.read_text().split("\n")
        assert lines[0] == ESTIMATE_CSV_HEADER
        assert len(lines) == 42  # header + 40 bins + trailing newline
        first = lines[1].split(",")
        assert len(first) == 7
        assert float(first[0]) == 0.05

    def test_byte_identical_runs(self, model_file, tmp_path, capsys):
        cfg = self.cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["estimate", model_file, "--config", cfg, "--out", out1], capsys)
        run_cli(["estimate", model_file, "--config", cfg, "--out", out2], capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_auto_rate_with_rates_near_a_million(self, tmp_path, capsys):
        # at rates of about 1e5..1e6, a zero termination defect rounds to
        # about -3e-11; it is noise against the row's total rate, not a
        # negative intensity
        m = random_me_model(2, np.random.default_rng(20))
        path = tmp_path / "scaled.json"
        write_model(MEParams(m.alpha, m.T * 1e6, m.s * 1e6), path)
        code, out, err = run_cli(
            ["estimate", path, "--lambda", "auto", "--paths", "2000"], capsys
        )
        assert code == 0, err
        assert out.count("\n0.05,") == 1

    def test_beta_only_leaves_qbar_columns_empty(self, model_file, tmp_path, capsys):
        out = tmp_path / "beta.csv"
        cfg = self.cfg(tmp_path, estimator="beta")
        code, _, _ = run_cli(
            ["estimate", model_file, "--config", cfg, "--out", out], capsys
        )
        assert code == 0
        row = out.read_text().split("\n")[1].split(",")
        assert row[4] == "" and row[5] == ""
        assert row[2] != ""

    def test_zero_paths_is_usage_error(self, model_file, tmp_path, capsys):
        code, _, _ = run_cli(
            ["estimate", model_file, "--config", self.cfg(tmp_path), "--paths", "0"],
            capsys,
        )
        assert code == 1

    def test_non_transient_rate_exits_3(self, tmp_path, capsys):
        path = tmp_path / "rotator.json"
        write_model(decoupled_rotator(), path)
        cfg = self.cfg(tmp_path, **{"lambda": 0.0})
        code, _, err = run_cli(
            ["estimate", path, "--config", cfg, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 3
        assert "transient" in err

    def test_non_finite_rate_exits_1(self, model_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", model_file, "--lambda", "inf", "--paths", "1000", "--out", out],
            capsys,
        )
        assert code == 1
        assert "finite" in err
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"lambda": Infinity, "n_paths": 1000}')
        code, _, err = run_cli(
            ["estimate", model_file, "--config", cfg, "--out", out], capsys
        )
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize("lam", ["1e300", "1e150"])
    def test_overflowing_rate_exits_1(self, model_file, tmp_path, lam, capsys, monkeypatch):
        # the analytic oracle and the bin weights overflow long before the
        # chain does; no CSV is written from them, and no path is simulated
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated at a rate with no visible landing")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", model_file, "--lambda", lam, "--paths", "1000", "--out", out],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: tilting rate {float(lam)!r} is too large")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_large_rate_with_visible_landings_runs(self, model_file, tmp_path, capsys):
        # at 1e6 a landing still has probability about 1e-6 per exit
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            ["estimate", model_file, "--lambda", "1e6", "--paths", "1000", "--out", out],
            capsys,
        )
        assert code == 0
        assert out.exists()

    def test_overflowing_bin_weight_exits_1(self, model_file, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "estimate", model_file, "--paths", "1000", "--grid", "0:1e-160:1",
                "--out", tmp_path / "x.csv",
            ],
            capsys,
        )
        assert code == 1
        assert "widen the bins" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_empty_output_path_exits_1(self, model_file, tmp_path, flag, capsys):
        args = ["estimate", model_file, "--paths", "100", f"{flag}="]
        if flag == "--trace":
            args += ["--out", tmp_path / "x.csv"]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert f"{flag} needs a file path" in err
        assert out == "" and not (tmp_path / "x.csv").exists()

    def test_flag_overrides_beat_config(self, model_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run_cli(
            [
                "estimate", model_file, "--config", self.cfg(tmp_path),
                "--seed", "99", "--grid", "0:2:10", "--out", out,
            ],
            capsys,
        )
        assert code == 0
        assert "seed: 99" in stdout
        assert len(out.read_text().split("\n")) == 12

    def test_trace_output(self, model_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        trace = tmp_path / "trace.tsv"
        cfg = self.cfg(tmp_path, n_paths=20)
        code, _, _ = run_cli(
            ["estimate", model_file, "--config", cfg, "--out", out, "--trace", trace],
            capsys,
        )
        assert code == 0
        text = trace.read_text()
        assert text.startswith("# path 0\n")
        line = text.split("\n")[1].split("\t")
        assert len(line) == 3
        assert line[1] == "o0"  # reference model always starts in the first state


class TestGoldenEstimate:
    """The pinned-RNG production run: n=10^6, seed 42, rate 2, grid 0:4:40."""

    CONFIG = (
        '{"lambda": 2.0, "n_paths": 1000000, "seed": 42, "chunk": 65536, '
        '"grid": {"x_min": 0.0, "x_max": 4.0, "n_bins": 40}, "estimator": "both"}'
    )

    def test_regeneration_is_bit_identical(self, model_file, tmp_path, capsys):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "golden_estimate.csv"
        cfg = tmp_path / "golden_cfg.json"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "regen.csv"
        code, _, _ = run_cli(
            ["estimate", model_file, "--config", cfg, "--out", out], capsys
        )
        assert code == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_analytic_column_matches_closed_form(self):
        import math
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "golden_estimate.csv"
        rows = [line.split(",") for line in golden.read_text().splitlines()[1:]]

        def antideriv(a, x):
            return -math.exp(-a * x) / a + math.exp(-a * x) * (
                math.sin(x) - a * math.cos(x)
            ) / (a * a + 1.0)

        lt = (2.0 / 3.0) * (1.0 / 3.0 + 3.0 / 10.0)  # 19/45
        for b, row in enumerate(rows):
            lo, hi = 0.1 * b, 0.1 * (b + 1)
            want = (2.0 / 3.0) * (antideriv(3.0, hi) - antideriv(3.0, lo)) / (lt * 0.1)
            assert float(row[1]) == pytest.approx(want, rel=1e-10)
            # the recorded estimates sit inside their own 4-stderr bands
            assert abs(float(row[2]) - want) <= 4.0 * float(row[3])
            assert abs(float(row[4]) - want) <= 4.0 * float(row[5])


class TestDebugCommand:
    def test_summarizes_trace(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 2.0, "n_paths": 50, "seed": 11}')
        trace = tmp_path / "trace.tsv"
        code, _, _ = run_cli(
            [
                "estimate", model_file, "--config", cfg,
                "--out", tmp_path / "o.csv", "--trace", trace,
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["debug", trace], capsys)
        assert code == 0
        assert "paths: 50" in out
        assert "mean exit time" in out

    def test_malformed_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        for text in ("0.5\to0\n", "# path x\n", "# path 0\nabc\to0\tDeltaO\n"):
            bad.write_text(text)
            code, _, err = run_cli(["debug", bad], capsys)
            assert code == 1
            line = text.count("\n")
            assert f"{bad}:{line}:" in err

    def test_path_without_rows_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "empty_path.tsv"
        for text, k in (("# path 0\n", 0), ("# path 0\n0.5\to0\tDeltaO\n# path 1\n", 1)):
            bad.write_text(text)
            code, _, err = run_cli(["debug", bad], capsys)
            assert code == 1
            assert f"path {k} has no jump rows" in err


class TestEigenSolves:
    """A run solves one eigenproblem for T and one for T^+ + T^-."""

    @pytest.mark.parametrize("command", ["estimate", "expect", "split"])
    @pytest.mark.parametrize("which", ["reference", "random-30"])
    def test_two_per_run(self, command, which, tmp_path, capsys, monkeypatch):
        from mejump import linalg

        if which == "reference":
            model = pathlib.Path(__file__).parents[1] / "models" / "reference.json"
        else:
            model = tmp_path / "random.json"
            write_model(random_me_model(30, np.random.default_rng(30)), model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"n_paths": 200, "seed": 1, "grid": {"x_min": 0.0, "x_max": 2.0, "n_bins": 4}, '
            '"h": {"type": "exp-decay", "c": 2.0}}'
        )
        args = [command, model]
        if command != "split":
            args += ["--config", cfg]
        if command == "estimate":
            args += ["--out", tmp_path / "est.csv"]
        calls = []
        eigenvalues = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues", lambda A: calls.append(1) or eigenvalues(A))
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        assert len(calls) == 2


class TestResolventSolves:
    def test_tilt_solves_twice(self, tmp_path, capsys, monkeypatch):
        # one solve validates the model, one gives the normalizer
        from mejump import linalg

        model = pathlib.Path(__file__).parents[1] / "models" / "reference.json"
        calls = []
        solve = linalg.solve_linear
        monkeypatch.setattr(linalg, "solve_linear", lambda A, b: calls.append(1) or solve(A, b))
        code, out, _ = run_cli(["tilt", model, "--lambda", "2"], capsys)
        assert code == 0
        assert "0.42222222222222" in out  # 19/45
        assert len(calls) == 2

    def test_estimate_solves_twice(self, tmp_path, capsys, monkeypatch):
        # one solve validates the model, one gives the normalizer, which the
        # scale and the analytic bin averages share
        from mejump import linalg

        model = pathlib.Path(__file__).parents[1] / "models" / "reference.json"
        calls = []
        solve = linalg.solve_linear
        monkeypatch.setattr(linalg, "solve_linear", lambda A, b: calls.append(1) or solve(A, b))
        code, _, _ = run_cli(
            ["estimate", model, "--paths", "1000", "--out", tmp_path / "est.csv"], capsys
        )
        assert code == 0
        assert len(calls) == 2


#: Runs ``mejump`` with argv[2:]; if argv[1] is a list of exit times, the
#: simulation returns hand-built paths with those times in place of simulating.
_HAND_BUILT_CLI = """
import ast, sys
import numpy as np
from mejump import cli, modelio
from mejump.jumpsim import PathBatch
taus = ast.literal_eval(sys.argv[1])
if taus is not None:
    n = len(taus)
    modelio.simulate_batch = lambda *args, **kwargs: PathBatch(
        p=3, chunk=n, tau=np.array(taus), pre_exit=np.zeros(n, dtype=np.int32),
        landing=np.zeros(n, dtype=np.int8), sign=np.ones(n, dtype=np.int8),
        n_jumps=np.ones(n, dtype=np.int32),
    )
sys.exit(cli.main(sys.argv[2:]))
"""


def _expect_in_fresh_interpreter(model_file, tmp_path, h, taus):
    """``mejump expect`` at rate 2 in a fresh interpreter with the default
    warning filters, which shows what a user sees on stderr."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 2.0, "n_paths": 1000, "seed": 3, "h": h}))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-c", _HAND_BUILT_CLI, repr(taus),
         "expect", str(model_file), "--config", str(cfg)],
        env=env, capture_output=True, text=True,
    )


class TestExpectCommand:
    def test_exp_decay_reports_analytic(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"lambda": 2.0, "n_paths": 50000, "seed": 3, '
            '"h": {"type": "exp-decay", "c": 2.0}}'
        )
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 0
        assert "0.4222222222222222" in out  # analytic 19/45
        assert "beta form" in out and "qbar form" in out
        assert "warning" not in err

    def test_variance_warning_on_stderr(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"lambda": 2.0, "n_paths": 5000, "seed": 3, '
            '"h": {"type": "exp-decay", "c": 0.0}}'
        )
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 0  # still reports
        assert "warning" in err
        assert "beta form" in out

    def test_non_convergent_h_refused_before_simulating(
        self, model_file, tmp_path, capsys, monkeypatch
    ):
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated with a non-convergent integrand")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_paths": 1000, "h": {"type": "exp-decay", "c": -2}}')
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: h decay rate -2 must exceed the dominant eigenvalue")
        # an invalid model is still a validation failure
        unstable = tmp_path / "unstable.json"
        write_model(MEParams(np.array([1.0]), np.array([[0.5]]), np.array([1.0])), unstable)
        code, _, err = run_cli(["expect", unstable, "--config", cfg], capsys)
        assert code == 2 and "dominant eigenvalue" in err

    def test_overflowing_weight_is_one_error_line(self, model_file, tmp_path):
        # e^{(2 - 0) tau} overflows at tau = 1000; a convergent h cannot get
        # there in a real run, so hand-built paths stand in for the simulation
        proc = _expect_in_fresh_interpreter(
            model_file, tmp_path, {"type": "exp-decay", "c": 0.0}, [1000.0, 0.5]
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: h(tau) e^{lam tau} is non-finite for some path\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "degree, taus, message",
        [
            # tau^171 is finite at tau = 10, its square is not
            (171, [10.0, 0.5], "h(tau) e^{lam tau} is too large: the sum of its squares overflows"),
            # 400! (2I - T)^{-401} s overflows before any path is simulated
            (400, None, "the exact value of integral h(x) f(x) dx overflows at degree 400"),
        ],
    )
    def test_overflowing_polynomial_is_one_error_line(
        self, model_file, tmp_path, degree, taus, message
    ):
        h = {"type": "poly-exp-decay", "c": 2.0, "degree": degree}
        proc = _expect_in_fresh_interpreter(model_file, tmp_path, h, taus)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("lam, want", [("1e300", 1), ("1e150", 1), ("1e6", 0)])
    def test_rate_needs_a_visible_landing(self, model_file, tmp_path, lam, want, capsys):
        # at 1e150 every landing probability is below machine epsilon, so both
        # forms would print 0.0 +- 0.0; at 1e6 a landing is still about 1e-6
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_paths": 1000, "seed": 3, "h": {"type": "exp-decay", "c": 2.0}}')
        code, out, err = run_cli(
            ["expect", model_file, "--config", cfg, "--lambda", lam], capsys
        )
        assert code == want
        if want:
            assert err.startswith(f"error: tilting rate {float(lam)!r} is too large")
            assert out == ""
        else:
            assert "beta form" in out

    def test_missing_h_is_usage_error(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 2.0, "n_paths": 1000}')
        code, _, _ = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 1


class TestReproduceExample:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            ["reproduce-example", "--paths", "30000", "--seed", "5"], capsys
        )
        assert code == 0
        assert out.count("[PASS]") == 13
        assert "erratum" in out

    def test_rate_below_threshold_refused(self, capsys):
        code, _, err = run_cli(
            ["reproduce-example", "--paths", "1000", "--lambda", "1.5"], capsys
        )
        assert code == 3
        assert "lambda_0" in err or "2" in err

import collections
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from mejump import cli, estimators, splitting
from mejump.estimators import DensityEstimate, Grid
from mejump.medist import MEParams
from mejump.modelio import (
    ESTIMATE_CSV_HEADER,
    EstimateRun,
    ParseError,
    RunConfig,
    config_from_dict,
    read_model,
    render_estimate_csv,
    state_labels,
    write_model,
    write_trace,
)
from mejump.jumpsim import MAX_PATHS, simulate_batch
from mejump.models import exponential_model, random_me_model, reference_model

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


#: A JSON integer past the float range.
HUGE = 10**400


class TestHugeJsonIntegers:
    """A float field holding an integer past the float range is refused by
    name, in one error line; an integer field keeps it exact."""

    @pytest.mark.parametrize("field", ["alpha", "T[1]", "s"])
    def test_model_field_is_named(self, model_file, field, capsys):
        raw = json.loads(model_file.read_text())
        (raw["T"][1] if field == "T[1]" else raw[field])[0] = HUGE
        model_file.write_text(json.dumps(raw))
        assert run_cli(["validate", model_file], capsys) == (
            1, "", f"error: {model_file}: field {field!r} is too large for a float\n"
        )

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("lambda", {"lambda": HUGE}),
            ("x_min", {"grid": {"x_min": HUGE, "x_max": 4.0, "n_bins": 4}}),
            ("x_max", {"grid": {"x_min": 0.0, "x_max": HUGE, "n_bins": 4}}),
            ("c", {"h": {"type": "exp-decay", "c": HUGE}}),
        ],
        ids=["lambda", "x_min", "x_max", "c"],
    )
    def test_config_field_is_named(self, model_file, tmp_path, field, raw, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(raw, n_paths=1000)))
        out_csv = tmp_path / "out.csv"
        assert run_cli(["estimate", model_file, "--config", cfg, "--out", out_csv], capsys) == (
            1, "", f"error: config: field {field!r} is too large for a float\n"
        )
        assert not out_csv.exists()

    def test_integer_field_keeps_its_value(self):
        assert config_from_dict({"seed": HUGE}).seed == HUGE


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
            {"h": dict(h, degree=-1)},
            # a string is not a number, as in a model file
            {"seed": " 7 "},
            {"n_paths": "100"},
            {"lambda": "2.5"},
            {"grid": dict(grid, x_max="4")},
            {"h": {"type": "exp-decay", "c": "2"}},
        ):
            with pytest.raises(ParseError):
                config_from_dict(raw)

    @pytest.mark.parametrize("grid", [[1, 2], "0:4:40", None])
    def test_non_object_grid_is_named(self, grid):
        with pytest.raises(ParseError) as err:
            config_from_dict({"grid": grid})
        assert str(err.value) == (
            'config: grid must be an object with "x_min", "x_max" and "n_bins" fields'
        )

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_named(self, model_file, tmp_path, where, capsys):
        # numpy's SeedSequence refuses it too, but only after validation and
        # without naming the field
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}' if where == "config" else "{}")
        args = ["estimate", model_file, "--config", cfg, "--paths", "100"]
        if where == "flag":
            args += ["--seed", "-1"]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err == "error: config: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unknown_estimator_named(self, model_file, tmp_path, where, capsys):
        # the flag reaches the run config's own check, as a config file does
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"estimator": "bogus"}' if where == "config" else "{}")
        args = ["estimate", model_file, "--config", cfg, "--paths", "100"]
        if where == "flag":
            args += ["--estimator", "bogus"]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err == "error: config: estimator must be beta, qbar or both\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_paths", 0), ("n_paths", MAX_PATHS + 1), ("n_paths", 10**400), ("seed", -1),
            ("chunk", 0), ("workers", 0), ("workers", 65), ("estimator", "kernel"),
        ],
    )
    def test_run_config_checks_its_own_values(self, field, value):
        # a library caller's config is refused as a config file's is
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_run_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().n_paths = 10

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lambda", "abc"], "--lambda must be a number or 'auto', got 'abc'"),
            (["--grid", "0:4"], "--grid must be min:max:bins, got '0:4'"),
            (["--grid", "0:x:4"], "--grid must be min:max:bins with numeric fields, got '0:x:4'"),
        ],
    )
    def test_malformed_flag_is_named(self, model_file, flags, message, capsys):
        code, out, err = run_cli(["estimate", model_file, *flags], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args", [["estimate", "MODEL", "--paths", "abc"], []], ids=["bad-int", "no-command"]
    )
    def test_usage_error_exits_1(self, model_file, args, capsys):
        # argparse exits 2 on a usage error, and 2 is a validation failure here
        with pytest.raises(SystemExit) as info:
            cli.main([str(model_file) if a == "MODEL" else a for a in args])
        assert info.value.code == 1
        assert "usage: mejump" in capsys.readouterr().err

    def test_non_object_config_file_is_named(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(["estimate", model_file, "--config", cfg], capsys)
        assert (code, out, err) == (1, "", f"error: {cfg}: top level must be a JSON object\n")

    def test_integral_floats_accepted(self):
        cfg = config_from_dict(
            {"n_paths": 1e6, "seed": 7.0, "grid": {"x_min": 0, "x_max": 2, "n_bins": 4.0}}
        )
        assert (cfg.n_paths, cfg.seed, cfg.grid.n_bins) == (1_000_000, 7, 4)
        assert isinstance(cfg.n_paths, int) and isinstance(cfg.grid.n_bins, int)


class TestUnwritableOutputs:
    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "{model}", "--paths", "100", "--out", "{bad}"],
            ["estimate", "{model}", "--paths", "100", "--out", "{ok}", "--trace", "{bad}"],
            ["split", "{model}", "--out", "{bad}"],
            ["tilt", "{model}", "--out", "{bad}"],
        ],
        ids=["estimate-out", "estimate-trace", "split-out", "tilt-out"],
    )
    def test_one_error_line(self, model_file, tmp_path, args, capsys):
        bad = tmp_path / "missing" / "x"
        paths = {"model": model_file, "bad": bad, "ok": tmp_path / "ok.csv"}
        code, _, err = run_cli([a.format(**paths) for a in args], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_refused_before_simulating(self, model_file, tmp_path, flag, capsys, monkeypatch):
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the outputs were checked")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        bad = tmp_path / "missing" / "x"
        ok = tmp_path / "ok.csv"
        args = ["estimate", model_file, "--paths", "10000000", flag, bad]
        if flag == "--trace":
            args += ["--out", ok]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
        assert not ok.exists()

    def test_failed_run_leaves_no_file_behind(self, model_file, tmp_path, capsys):
        # the outputs are claimed before simulating; a run that then fails
        # removes the files it created and leaves an existing one as it was
        out, trace, kept = tmp_path / "x.csv", tmp_path / "t.tsv", tmp_path / "kept.csv"
        kept.write_text("earlier output\n")
        for args in (["--out", out, "--trace", trace], ["--out", kept]):
            code, _, err = run_cli(
                ["estimate", model_file, "--paths", "1000", "--grid", "0:1e-160:1", *args],
                capsys,
            )
            assert code == 1 and "widen the bins" in err
        assert not out.exists() and not trace.exists()
        assert kept.read_text() == "earlier output\n"

    @pytest.mark.parametrize(
        "args, clash, named",
        [
            (["estimate", "{model}", "--out", "{model}"], "the model and --out", "model"),
            (["estimate", "{model}", "--out", "{cfg}"], "--config and --out", "cfg"),
            (["estimate", "{model}", "--trace", "{cfg}"], "--config and --trace", "cfg"),
            (
                ["estimate", "{model}", "--out", "{ok}", "--trace", "{dir}/sub/../model.json"],
                "the model and --trace", "model",
            ),
            (["tilt", "{model}", "--out", "{model}"], "the model and --out", "model"),
        ],
        ids=["estimate-out-model", "estimate-out-config", "estimate-trace-config",
             "estimate-trace-model", "tilt-out-model"],
    )
    def test_output_naming_an_input_exits_1(
        self, model_file, tmp_path, args, clash, named, capsys, monkeypatch
    ):
        # the run would replace its own input with its result; the paths are
        # compared before any input is read or any path simulated
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated with an output naming an input")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_paths": 100}')
        (tmp_path / "sub").mkdir()
        paths = {"model": model_file, "cfg": cfg, "ok": tmp_path / "ok.csv", "dir": tmp_path}
        inputs = {"model": model_file.read_bytes(), "cfg": cfg.read_bytes()}
        argv = [a.format(**paths) for a in args]
        if args[0] == "estimate":
            argv += ["--config", cfg]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {clash} name the same file, ")
        assert err.count("\n") == 1
        assert str(tmp_path) in err and str(paths[named].name) in err
        assert {"model": model_file.read_bytes(), "cfg": cfg.read_bytes()} == inputs
        assert not (tmp_path / "ok.csv").exists()

    @pytest.mark.parametrize("command", ["split", "tilt", "estimate"])
    def test_output_replacing_the_model_exits_1(self, model_file, tmp_path, command, capsys):
        # split --out p would write p_D.csv among its files; nothing is written
        model, out = model_file, model_file
        if command == "split":
            model, out = tmp_path / "p_D.csv", tmp_path / "p"
            model.write_bytes(model_file.read_bytes())
        args = [command, model, "--out", out]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: the model and --out name the same file, {str(model)!r}\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command", ["split", "tilt", "estimate"])
    def test_failed_run_removes_the_files_it_created(self, model_file, tmp_path, command, capsys):
        # split fails on claiming a prefix file that is a directory, after
        # claiming four others; tilt and estimate on a model that fails
        # validation, after claiming all of theirs
        if command == "split":
            (tmp_path / "p_D.csv").mkdir()
            args, want = ["split", model_file, "--out", tmp_path / "p"], 1
        else:
            model = tmp_path / "unstable.json"
            model.write_text('{"alpha": [1.0], "T": [[1.0]], "s": [1.0]}')
            args, want = [command, model, "--out", tmp_path / "x.out"], 2
            if command == "estimate":
                args += ["--trace", tmp_path / "x.tsv"]
        before = set(tmp_path.iterdir())
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout) == (want, "") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["split", "tilt"])
    def test_split_refused_before_printing(self, model_file, tmp_path, command, capsys):
        bad = tmp_path / "missing" / "x"
        code, out, err = run_cli([command, model_file, "--out", bad], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "top level must be a JSON object"),
            ('{"alpha": [Infinity], "T": [[-1.0]], "s": [1.0]}', "alpha has non-finite entries"),
            (
                '{"alpha": [1.0, 0.0], "T": [[-1.0, 0.0]], "s": [1.0, 0.0]}',
                "field 'T' must be an array of 2 rows",
            ),
            (
                '{"alpha": [1.0, 0.0], "T": [[-1.0, 0.0], [0.0]], "s": [1.0, 0.0]}',
                "row 1 of 'T' has length 1, expected 2",
            ),
            (
                '{"alpha": [1.0], "T": [[-1.0]], "s": [1.0], "name": 3}',
                "field 'name' must be a string",
            ),
        ],
    )
    def test_malformed_model_is_named(self, tmp_path, text, message, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert run_cli(["validate", path], capsys) == (1, "", f"error: {path}: {message}\n")

    def test_positive_diagonal_is_noted(self, tmp_path, capsys):
        # the model of test_medist's test_positive_diagonal_is_a_note_not_an_error
        T, s = np.array([[0.2, -2.0], [2.0, -4.0]]), np.array([1.0, 1.0])
        alpha = np.array([1.0, 0.0]) / np.linalg.solve(-T, s)[0]
        path = tmp_path / "diag.json"
        write_model(MEParams(alpha, T, s), path)
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == [
            "diag_nonpositive: false",
            "note: T has a positive diagonal entry: analytic use is fine, but the "
            "sign split / jump construction will be refused",
        ]


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

    @pytest.mark.parametrize(
        "estimator, empty, kept", [("beta", 4, 2), ("qbar", 2, 4)], ids=["beta", "qbar"]
    )
    def test_beta_only_leaves_qbar_columns_empty(
        self, model_file, tmp_path, estimator, empty, kept, capsys
    ):
        # and qbar only leaves the beta columns empty, in every row
        out = tmp_path / "one.csv"
        cfg = self.cfg(tmp_path, estimator=estimator)
        code, _, _ = run_cli(
            ["estimate", model_file, "--config", cfg, "--out", out], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 40
        for row in rows:
            assert row[empty] == row[empty + 1] == ""
            assert row[kept] != "" and row[kept + 1] != ""

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

    @pytest.mark.parametrize("grid", ["0:1e-160:1", "0:1e-310:2", "0:1e-320:1", "0:5e-324:1"])
    def test_overflowing_bin_weight_exits_1(self, model_file, tmp_path, grid, capsys):
        # a weight that overflows when squared, one that is already inf, and
        # a bin width whose product with the normalizer underflows
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", model_file, "--paths", "1000", "--grid", grid, "--out", out],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "widen the bins" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, name",
        [
            ("0:1e308:2", "bin width 5e+307"),
            ("1e308:1.7e308:1", "bin width 7e+307"),
            ("1.7e308:1.75e308:1000", "x_min 1.7e+308"),
        ],
    )
    def test_unexponentiable_grid_exits_1(self, model_file, tmp_path, grid, name, capsys):
        # (T - lam I) times the bin width or x_min overflows: the refusal
        # names the value and the grid, not the matrix kernel
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", model_file, "--paths", "1000", "--grid", grid, "--out", out],
            capsys,
        )
        lo, hi, bins = grid.split(":")
        assert code == 1
        assert err.startswith(f"error: {name} of grid {float(lo):g}:{float(hi):g}:{bins} ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_huge_grid_is_refused_before_the_oracle(
        self, model_file, tmp_path, capsys, monkeypatch
    ):
        # 10^7 bins would take a 1.44 GB count table and minutes of the
        # oracle's per-bin loop: the grid is refused by name first
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the grid was refused")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        monkeypatch.setattr(modelio, "tilted_bin_averages", refuse)
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code, _, err = run_cli(
            ["estimate", model_file, "--paths", "1000", "--grid", "0:4:10000000", "--out", out],
            capsys,
        )
        assert time.perf_counter() - start < 10.0
        assert code == 1
        assert err.startswith("error: grid 0:4:10000000 has too many bins ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_scale_exits_1(self, tmp_path, capsys, monkeypatch):
        # the normalizer 1e-300 / 1e10 is subnormal, so the scale overflows
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated with a non-finite scale")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        path = tmp_path / "tiny.json"
        path.write_text('{"alpha": [1.0], "T": [[-1e-300]], "s": [1e-300]}')
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", path, "--lambda", "1e10", "--paths", "1000", "--out", out], capsys
        )
        assert code == 1
        assert err == (
            "error: tilting rate 10000000000.0 is too large: the scale or the analytic "
            "bin averages of the tilted density are not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, lam, grid, message",
        [
            (reference_model(), 2.0, Grid(0.0, 4.0, 10_000_000), r"grid 0:4:10000000 has too many"),
            (reference_model(), 2.0, Grid(1.7e308, 1.75e308, 1000), r"x_min 1\.7e\+308 of grid "),
            (reference_model(), 2.0, Grid(0.0, 1e308, 2), r"bin width 5e\+307 of grid "),
            (
                reference_model(), 2.0, Grid(0.0, 5e-324, 1),
                r"bin width 4\.94066e-324 times the normalizer .* underflows",
            ),
            (reference_model(), 2.0, Grid(0.0, 1e-160, 1), r"per-path bin weight .* overflows"),
            (
                MEParams(alpha=np.array([1.0]), T=np.array([[-1e-300]]), s=np.array([1e-300])),
                1e10, Grid(0.0, 4.0, 40), r"tilting rate 10000000000\.0 is too large: the scale",
            ),
            (
                reference_model(), 1e17, Grid(0.0, 4.0, 40),
                r"tilting rate 1e\+17 is too large: every landing probability",
            ),
        ],
        ids=["huge-grid", "x-min", "bin-width", "underflow", "bin-weight", "scale", "landing"],
    )
    def test_oracle_is_refused_before_any_path(self, params, lam, grid, message, monkeypatch):
        # run_estimate and modelio.simulate refuse their inputs before they
        # simulate; modelio.simulate calls the name modelio bound
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the inputs were checked")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        cfg = RunConfig(lam=lam, grid=grid)
        with pytest.raises(ValueError, match=f"^{message}"):
            modelio.run_estimate(modelio.plan(params, lam), cfg)

    @pytest.mark.parametrize("grid", ["1e307:1.1e307:1", "0:1e306:1"])
    def test_huge_exponentiable_grid_runs(self, model_file, tmp_path, grid, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["estimate", model_file, "--paths", "1000", "--grid", grid, "--out", out],
            capsys,
        )
        assert code == 0, err
        assert out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_empty_output_path_exits_1(self, model_file, tmp_path, flag, capsys):
        args = ["estimate", model_file, "--paths", "100", f"{flag}="]
        if flag == "--trace":
            args += ["--out", tmp_path / "x.csv"]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert f"{flag} needs a file path" in err
        assert out == "" and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("trace_name", ["x.csv", "sub/../x.csv"])
    def test_same_file_for_out_and_trace_exits_1(
        self, model_file, tmp_path, trace_name, capsys, monkeypatch
    ):
        # the trace would overwrite the CSV after both were reported written;
        # the two paths are compared before either is claimed or simulated
        from mejump import modelio

        def refuse(*args, **kwargs):
            raise AssertionError("simulated with --out and --trace naming one file")

        monkeypatch.setattr(modelio, "simulate_batch", refuse)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            ["estimate", model_file, "--paths", "100", "--out", out,
             "--trace", f"{tmp_path}/{trace_name}"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: --out and --trace name the same file")
        assert err.count("\n") == 1
        assert not out.exists()

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


class TestRenderEstimateCsv:
    def test_reads_the_bin_midpoints_once(self, monkeypatch):
        # Grid.mids builds an n_bins array on every read, so a read per row
        # made rendering quadratic in the bin count
        grid = Grid(0.0, 4.0, 100_000)
        zeros = np.zeros(grid.n_bins)
        est = DensityEstimate(grid, zeros, zeros, zeros.astype(np.int64), 1.0)
        run = EstimateRun(None, 1.0, RunConfig(grid=grid), None, zeros, est, est)
        reads = []
        mids = Grid.mids
        monkeypatch.setattr(Grid, "mids", property(lambda g: reads.append(1) or mids.fget(g)))
        lines = render_estimate_csv(run).split("\n")
        assert len(reads) == 1
        assert len(lines) == grid.n_bins + 2  # header, the bins, trailing newline
        assert lines[1] == "2e-05,0.0,0.0,0.0,0.0,0.0,0"

    @pytest.mark.parametrize("estimators", ["both", "beta", "qbar"])
    def test_bytes_equal_per_cell_formatting(self, estimators):
        # one repr per cell, row by row, is the reference; values of every
        # magnitude and sign, zeros of both signs and the shortest round trip
        grid = Grid(0.0, 3.0, 701)
        rng = np.random.default_rng(701)

        def column():
            col = rng.normal(size=grid.n_bins) * 10.0 ** rng.integers(-300, 300, grid.n_bins)
            col[:4] = (0.0, -0.0, 0.1, 1e-310)
            return col

        n_hits = rng.integers(0, 10**12, grid.n_bins)
        beta = DensityEstimate(grid, column(), column(), n_hits, 1.0)
        qbar = DensityEstimate(grid, column(), column(), n_hits, 1.0)
        analytic = column()
        cfg = RunConfig(grid=grid, estimator=estimators)
        run = EstimateRun(None, 1.0, cfg, None, analytic, beta, qbar)
        mids, rows = grid.mids, [ESTIMATE_CSV_HEADER]
        for b in range(grid.n_bins):
            cells = [repr(float(mids[b])), repr(float(analytic[b]))]
            for name, est in (("beta", beta), ("qbar", qbar)):
                if estimators in (name, "both"):
                    cells += [repr(float(est.estimate[b])), repr(float(est.stderr[b]))]
                else:
                    cells += ["", ""]
            rows.append(",".join(cells + [str(int(n_hits[b]))]))
        assert render_estimate_csv(run) == "\n".join(rows) + "\n"


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


def trace_paths(path):
    """Each ``# path`` header line of a trace file, in order, and the rows
    under each, split at their tabs."""
    headers, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# path "):
            headers.append(line)
            rows.append([])
        else:
            rows[-1].append(line.split("\t"))
    return headers, rows


class TestTrace:
    @pytest.mark.parametrize(
        "m, above_lambda0",
        [
            (reference_model(), 0.0),
            (exponential_model(1.0), 1.0),
            # alpha has a negative entry, so some paths start on the anti side
            (random_me_model(2, np.random.default_rng(1)), 1.0),
            (random_me_model(5, np.random.default_rng(2)), 1.0),
        ],
        ids=["reference", "exponential", "random-2", "random-5"],
    )
    def test_write_trace_writes_the_batch(self, tmp_path, m, above_lambda0):
        # above lambda_0 some paths terminate
        split = splitting.sign_split(m.T, m.s)
        batch = simulate_batch(
            splitting.build_generator(split, split.lambda0 + above_lambda0),
            splitting.initial_split(m.alpha), n_paths=300, seed=4, chunk=128, collect_trace=True,
        )
        path = tmp_path / "trace.tsv"
        write_trace(path, batch)
        headers, rows = trace_paths(path)
        assert headers == [f"# path {k}" for k in range(300)]
        assert [len(jumps) for jumps in rows] == batch.n_jumps.tolist()
        _, times, frm, to = (col.tolist() for col in batch.trace)
        labels = state_labels(m.p)
        assert [row for jumps in rows for row in jumps] == [
            [repr(t), labels[a], labels[b]] for t, a, b in zip(times, frm, to, strict=True)
        ]

    @pytest.mark.parametrize("block", [1, 2, 7, 32, 10_000, None])
    def test_blocks_write_the_rows_one_at_a_time_would(self, tmp_path, block, monkeypatch):
        # the trace is rendered a block of rows at a time; a path whose rows
        # cross the edge of a block gets its header once, in the block it
        # starts.  Block None is taken from the trace, so that its first edge
        # falls between the last two rows of one path
        from mejump import modelio

        m = random_me_model(5, np.random.default_rng(2))
        split = splitting.sign_split(m.T, m.s)
        gen = splitting.build_generator(split, split.lambda0 + 1.0)
        batch = simulate_batch(
            gen, splitting.initial_split(m.alpha), n_paths=60, seed=4, chunk=16, collect_trace=True
        )
        path_idx, times, frm, to = batch.trace
        labels = state_labels(m.p)
        want, current = [], None
        for k in range(path_idx.shape[0]):
            if path_idx[k] != current:
                current = path_idx[k]
                want.append(f"# path {int(current)}\n")
            want.append(f"{float(times[k])!r}\t{labels[frm[k]]}\t{labels[to[k]]}\n")
        if block is None:
            block = int(np.flatnonzero(path_idx[1:] == path_idx[:-1])[-1]) + 1
            # a path that starts before an edge and ends after it
            edges = np.arange(block, path_idx.shape[0], block)
            assert np.any(path_idx[edges - 1] == path_idx[edges])
        monkeypatch.setattr(modelio, "TRACE_BLOCK_ROWS", block)
        path = tmp_path / "trace.tsv"
        write_trace(path, batch)
        assert path.read_bytes() == "".join(want).encode()

    @pytest.mark.parametrize(
        "m, above_lambda0",
        [
            (reference_model(), 0.0),
            # alpha has a negative entry, and some paths terminate
            (random_me_model(5, np.random.default_rng(2)), 1.0),
        ],
        ids=["reference", "random-5"],
    )
    def test_summary_agrees_with_the_trace_file(self, tmp_path, m, above_lambda0, capsys):
        model = tmp_path / "model.json"
        write_model(m, model)
        lam = splitting.sign_split(m.T, m.s).lambda0 + above_lambda0
        trace = tmp_path / "trace.tsv"
        code, out, _ = run_cli(
            [
                "estimate", model, "--lambda", repr(lam), "--paths", "2000", "--seed", "7",
                "--out", tmp_path / "est.csv", "--trace", trace,
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        summary = lines[lines.index(f"wrote trace to {trace}") + 1:]
        headers, rows = trace_paths(trace)
        n, jumps = len(headers), sum(map(len, rows))
        assert n == 2000
        taus = [float(path_rows[-1][0]) for path_rows in rows]
        landings = collections.Counter(path_rows[-1][2] for path_rows in rows)
        assert summary == [
            f"paths: {n}",
            f"total jumps: {jumps}  mean jumps/path: {jumps / n:.3f}",
            f"mean exit time: {sum(taus) / n:.6f}  max: {max(taus):.6f}",
            *(f"landing {label}: {landings[label]}" for label in sorted(landings)),
        ]


class TestUnallocatableRun:
    @pytest.mark.parametrize("command", ["estimate", "expect"])
    def test_exits_1_leaving_no_output(self, model_file, tmp_path, command):
        # 2^56 paths need 2^59 B for the exit times alone, which no host can allocate
        cfg = tmp_path / "h.json"
        cfg.write_text('{"h": {"type": "exp-decay", "c": 2.0}}')
        out = tmp_path / "x.csv"
        args = [command, str(model_file), "--paths", str(2**56)]
        args += ["--out", str(out)] if command == "estimate" else ["--config", str(cfg)]
        proc = subprocess.run(
            [sys.executable, "-m", "mejump.cli", *args],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, paths", [("--paths", 10**21), ("config", 10**21), ("config", 10**400)]
    )
    def test_more_paths_than_numpy_can_index_refused_by_name(
        self, model_file, tmp_path, capsys, where, paths
    ):
        # numpy would refuse such an array with only "Maximum allowed
        # dimension exceeded"; the run shape refuses it first, by field name
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_paths": paths} if where == "config" else {}))
        out = tmp_path / "x.csv"
        args = ["estimate", model_file, "--config", cfg, "--out", out]
        args += ["--paths", paths] if where == "--paths" else []
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout) == (1, "")
        assert err == (
            f"error: config: n_paths must be at most {MAX_PATHS}, numpy's largest array length\n"
        )
        assert not out.exists()


class TestUndecodableInput:
    """An input file that is not UTF-8 is refused by name, like an unreadable one."""

    @pytest.mark.parametrize(
        "command, data",
        [
            ("validate", b'{"alpha": [1.0], "T": [[-1.0]], "s": [1.0], "name": "\xff"}'),
            ("estimate", b'{"n_paths": 100, "seed": 1}\xff'),
        ],
        ids=["validate-model", "estimate-config"],
    )
    def test_exits_1_naming_the_file(self, model_file, tmp_path, command, data, capsys):
        path = tmp_path / "input"
        path.write_bytes(data)
        if command == "estimate":
            args = ["estimate", model_file, "--config", path, "--out", tmp_path / "x.csv"]
        else:
            args = [command, path]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


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

    def test_expect_solves_twice(self, tmp_path, capsys, monkeypatch):
        # one solve validates the model, one gives the exact value
        from mejump import linalg

        model = pathlib.Path(__file__).parents[1] / "models" / "reference.json"
        cfg = tmp_path / "cfg.json"  # the ref-expect-2w benchmark config at seed 42
        cfg.write_text(
            '{"lambda": 3.0, "h": {"type": "exp-decay", "c": 2.0}, "n_paths": 1000000, '
            '"chunk": 65536, "workers": 2, "seed": 42}'
        )
        calls = []
        solve = linalg.solve_linear
        monkeypatch.setattr(linalg, "solve_linear", lambda A, b: calls.append(1) or solve(A, b))
        code, out, _ = run_cli(["expect", model, "--config", cfg], capsys)
        assert code == 0
        assert "analytic value: 0.42222222222222" in out  # 19/45
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
        p=3, chunk=n, workers=1, tau=np.array(taus), exit_code=np.zeros(n, dtype=np.int32),
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

    def test_same_bytes_at_every_worker_count(self, model_file, tmp_path, capsys):
        # five chunks of 4000 paths, which the simulation and both folds
        # share out among the workers
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 3.0, "n_paths": 20000, "h": {"type": "exp-decay", "c": 2.0}}')
        runs = [
            run_cli(
                ["expect", model_file, "--config", cfg, "--chunk", "4000", "--workers", workers],
                capsys,
            )
            for workers in (1, 2, 3)
        ]
        assert runs[0][0] == 0 and "beta form" in runs[0][1]
        assert runs[1] == runs[0] and runs[2] == runs[0]

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
        # a rate below lambda_0 = 2 is refused (exit 3) before the integrand is looked at
        cfg.write_text('{"lambda": 1.5, "n_paths": 1000, "h": {"type": "exp-decay", "c": -2}}')
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: tilting rate 1.5 is below lambda_0 = 2")

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

    def test_huge_degree_with_a_tiny_value_runs(self, model_file, tmp_path, capsys):
        # 1000! (1000 I - T)^{-1001} s = 1.52e-436 underflows to zero; the
        # solves' vector passes through no subnormal on the way there.  Each
        # weight tau^1000 e^{-998 tau} is below 1e-400 too, where tau^1000
        # alone may overflow
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_paths": 1000, "h": {"type": "poly-exp-decay", "c": 1000.0, "degree": 1000}}
        ))
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[3:] == [
            "analytic value: 0.0",
            "beta form:  0.0 +- 0.0",
            "qbar form:  0.0 +- 0.0",
            "max |h(tau) e^(lambda tau)|: 0.0",
        ]

    def test_huge_degree_with_a_huge_value_exits_1(self, model_file, tmp_path, capsys):
        # 20000! (1000 I - T)^{-20001} s = 3.58e+17325 overflows a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_paths": 1000, "h": {"type": "poly-exp-decay", "c": 1000.0, "degree": 20000}}
        ))
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 1 and out == ""
        assert err == (
            "error: the exact value of integral h(x) f(x) dx overflows at degree 20000\n"
        )

    def test_degree_above_the_bound_is_a_config_error(self, model_file, tmp_path, capsys):
        # refused before the first of its 100001 resolvent solves
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_paths": 1000, "h": {"type": "poly-exp-decay", "c": 1000.0, "degree": 100_001}}
        ))
        with mock.patch.object(estimators, "resolvent_moment") as solves:
            code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert (code, out, err) == (1, "", "error: config: degree must be at most 100000\n")
        assert not solves.called

    @pytest.mark.parametrize("c", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_decay_rate_is_a_config_error(self, model_file, tmp_path, c, capsys):
        # Python's json reads NaN and Infinity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"n_paths": 100, "h": {{"type": "exp-decay", "c": {c}}}}}')
        code, out, err = run_cli(["expect", model_file, "--config", cfg], capsys)
        assert code == 1 and out == ""
        assert err == f"error: config: h decay rate c must be finite, got {float(c)!r}\n"

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

    def test_negative_seed_named(self, capsys):
        code, out, err = run_cli(
            ["reproduce-example", "--paths", "1000", "--seed", "-1"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: config: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("paths", ["0", "-5"])
    def test_nonpositive_paths_refused_before_any_criterion(self, paths, capsys):
        code, out, err = run_cli(["reproduce-example", "--paths", paths], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: config: n_paths must be positive\n"

    def test_failed_criterion_exits_4(self, capsys, monkeypatch):
        from mejump import acceptance

        failed = acceptance.CriterionResult(1, "a criterion", False, "detail")
        monkeypatch.setattr(acceptance, "run_all", lambda cfg: [failed])
        code, out, err = run_cli(["reproduce-example", "--paths", "1000"], capsys)
        assert code == 4
        assert err == "FAILED criteria: [1]\n"
        assert "[FAIL]  1  a criterion" in out and "all acceptance criteria passed" not in out

    def test_rate_below_threshold_refused(self, capsys):
        code, _, err = run_cli(
            ["reproduce-example", "--paths", "1000", "--lambda", "1.5"], capsys
        )
        assert code == 3
        assert "lambda_0" in err or "2" in err

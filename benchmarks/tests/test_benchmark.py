"""Tests of the benchmark's own gates, predictions, inputs and span arithmetic."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mejump.models import random_me_model, reference_model  # noqa: E402
from mejump.splitting import build_generator, initial_split, sign_split  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "data" / "golden_estimate.csv"
REF_CONFIG = dict(workloads.WORKLOADS["ref-estimate"].config, seed=42)
# header lines of `mejump estimate` on the golden run; scale = 1 / (19/45)
REF_STDOUT = "lambda: 2.0 (lambda0 2.0, doubled abscissa -1.0)\nscale (w_total / normalizer): 2.368421052631579\n"


def ref_model():
    m = reference_model()
    return m.alpha, m.T, m.s


def perturbed(csv_text, row, column, n_stderr):
    lines = csv_text.splitlines()
    cells = lines[row + 1].split(",")
    col = oracle.ESTIMATE_CSV_HEADER.split(",").index(column)
    stderr = float(cells[col + 1])
    cells[col] = repr(float(cells[col]) + n_stderr * stderr)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_accepts_the_golden_csv():
    golden = GOLDEN.read_text()
    v = oracle.check_estimate(golden, REF_STDOUT, ref_model(), REF_CONFIG, golden)
    assert v.ok, v.problems
    assert v.sigma == pytest.approx(0.00765, rel=0.01)


@pytest.mark.parametrize("column", ["est_beta", "est_qbar"])
def test_gate_rejects_one_bin_off_by_ten_stderr(column):
    bad = perturbed(GOLDEN.read_text(), 5, column, 10.0)
    v = oracle.check_estimate(bad, REF_STDOUT, ref_model(), REF_CONFIG)
    assert any(f"{column} outside" in p and "[5]" in p for p in v.problems), v.problems


def test_gate_rejects_a_wrong_analytic_column():
    bad = perturbed(GOLDEN.read_text(), 3, "f_tilted_analytic", 0.01)
    v = oracle.check_estimate(bad, REF_STDOUT, ref_model(), REF_CONFIG)
    assert any("f_tilted_analytic" in p for p in v.problems)


def test_gate_compares_with_the_golden_bytes():
    golden = GOLDEN.read_text()
    v = oracle.check_estimate(perturbed(golden, 0, "est_qbar", 0.5), REF_STDOUT, ref_model(), REF_CONFIG, golden)
    assert v.problems == ["CSV differs from the golden CSV"]


def test_no_signal_bins_follow_the_acceptance_rule():
    est = np.array([0.0, 0.0, 1.0])
    stderr = np.array([0.0, 0.0, 0.1])
    analytic = np.array([0.5, 0.5, 1.0])
    bad, _ = oracle.band_failures(est, stderr, analytic, 4.0, np.array([True, False, True]))
    assert bad.tolist() == [1]


def test_expect_gate():
    model = ref_model()
    exact = oracle.exp_decay_expectation(*model, 2.0)
    config = dict(workloads.WORKLOADS["ref-expect-2w"].config, seed=1)
    good = f"lambda: 3.0  seed: 1  n_paths: 1000000\nanalytic value: {exact!r}\nbeta form:  {exact + 1e-4!r} +- 2e-4\nqbar form:  {exact!r} +- 1e-4\n"
    assert oracle.check_expect(good, model, config).ok
    bad = good.replace(f"qbar form:  {exact!r}", f"qbar form:  {exact + 1e-3!r}")
    assert not oracle.check_expect(bad, model, config).ok
    other_lambda = good.replace("lambda: 3.0", "lambda: 4.0")
    assert "not the configured" in oracle.check_expect(other_lambda, model, config).problems[0]


def test_band_is_bonferroni_but_never_below_four_sigma():
    assert oracle.band_sigmas(1) > 4.0
    assert 5.0 < oracle.band_sigmas(80) < 6.0
    assert oracle.band_sigmas(80) < 10.0


def test_gate_rejects_a_lambda_below_lambda0():
    stdout = REF_STDOUT.replace("lambda: 2.0", "lambda: 1.5")
    v = oracle.check_estimate(GOLDEN.read_text(), stdout, ref_model(), REF_CONFIG)
    assert any("below lambda_0" in p for p in v.problems), v.problems


@pytest.mark.parametrize("lam, want", [(2.0, 11.0 / 6.0), (3.0, 14.0 / 9.0)])
def test_exact_jumps_per_path_on_the_reference_model(lam, want):
    law = oracle.path_law(ref_model(), lam)
    assert round(law["jumps_per_path"], 4) == round(want, 4)
    assert law["pos_frac"] + law["neg_frac"] + law["term_frac"] == pytest.approx(1.0)


@pytest.mark.parametrize("which", ["reference", "wide"])
def test_oracle_chain_agrees_with_the_package(which):
    m = reference_model() if which == "reference" else random_me_model(20, np.random.default_rng(20))
    split = sign_split(m.T, m.s)
    lam = split.lambda0 + 0.5
    D, abs_o, abs_a, term, alphahat = oracle.doubled_chain(m.alpha, m.T, m.s, lam)
    gen = build_generator(split, lam)
    init = initial_split(m.alpha)
    assert oracle.lambda_zero(m.T, m.s) == pytest.approx(split.lambda0)
    for ours, theirs in ((D, gen.D), (abs_o, gen.abs_o), (abs_a, gen.abs_a), (term, gen.term)):
        np.testing.assert_allclose(ours, theirs, atol=1e-12)
    np.testing.assert_allclose(alphahat, np.concatenate([init.alphahat_plus, init.alphahat_minus]))


def test_law_check_flags_a_shifted_mean():
    exact = {"jumps_per_path": 2.0, "jumps_var": 1.0, "pos_frac": 0.5, "neg_frac": 0.2, "term_frac": 0.3}
    n = 10_000
    assert oracle.law_check(dict(exact), exact, n) == []
    shifted = dict(exact, jumps_per_path=2.0 + 6.0 / np.sqrt(n))
    assert len(oracle.law_check(shifted, exact, n)) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name, tmp_path):
    w = workloads.WORKLOADS[name]
    a = workloads.write_inputs(w, 7, tmp_path / "a")
    b = workloads.write_inputs(w, 7, tmp_path / "b")
    c = workloads.write_inputs(w, 8, tmp_path / "c")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    assert json.loads(c[1].read_text())["seed"] == 8
    assert a[1].read_bytes() != c[1].read_bytes()


def test_reference_input_is_the_shipped_model(tmp_path):
    model, _ = workloads.write_inputs(workloads.WORKLOADS["ref-estimate"], 42, tmp_path)
    shipped = Path(__file__).resolve().parents[2] / "models" / "reference.json"
    assert model.read_bytes() == shipped.read_bytes()


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "name": "cli", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "medist.validate", "start": 2.0, "end": 5.0},
        {"id": 2, "parent": 1, "name": "linalg.eig", "start": 3.0, "end": 4.0},
        {"id": 3, "parent": 0, "name": "linalg.eig", "start": 6.0, "end": 7.0},
    ]
    assert tracing.self_times(spans) == {"cli": 6.0, "medist.validate": 2.0, "linalg.eig": 2.0}
    assert tracing.call_counts(spans)["linalg.eig"] == 2


def test_tracer_records_parents():
    tr = tracing.Tracer()
    with tr.span("cli"):
        tr.wrap("linalg.eig", lambda: None)()
    assert [(s["name"], s["parent"]) for s in tr.spans] == [("cli", None), ("linalg.eig", 0)]
    assert all(s["end"] >= s["start"] for s in tr.spans)


def test_accounted_share_leaves_out_the_cli_root():
    spans = [
        {"id": 0, "parent": None, "name": "import.cli", "start": 1.0, "end": 5.0},
        {"id": 1, "parent": None, "name": "cli", "start": 5.0, "end": 9.0},
        {"id": 2, "parent": 1, "name": "jumpsim.simulate", "start": 6.0, "end": 8.0},
    ]
    counts = {"n_paths": 10, "jumps": 20, "cpu_per_wall": 1.0}
    data = {"t_main": 0.5, "t_counts": 9.0, "t_end": 9.5, "spans": spans, "counts": counts}
    proc = run.Proc(t_spawn=0.0, wall=10.0, rss_mb=1.0, code=0, stdout="", stderr="")
    row = run.breakdown(proc, data)
    assert row["self:cli"] == 2.0
    assert row["trace.accounted_frac"] == pytest.approx((0.5 + 4.0 + 2.0) / 10.0)
    assert row["unspanned_s"] == pytest.approx(0.5)  # from t_main to the import span
    assert row["interp.exit_s"] == pytest.approx(0.5)


def test_traced_probe_sees_every_layer_of_the_cli(tmp_path):
    w = workloads.WORKLOADS["ref-estimate"]
    model, config = workloads.write_inputs(w, 3, tmp_path)
    raw = json.loads(config.read_text())
    config.write_text(json.dumps(dict(raw, n_paths=2000, chunk=1000)))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src")] + sys.path))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), "--trace", str(out)]
        + workloads.cli_args(w, model, config, tmp_path / "out.csv"),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split()[::2] == ["ready", "stream"]
    data = json.loads(out.read_text())
    names = {s["name"] for s in data["spans"]}
    for name in ("import.cli", "cli", "modelio.read_model", "modelio.render_csv", "medist.validate",
                 "splitting.resolve_lambda", "splitting.exit_profile", "jumpsim.compile",
                 "jumpsim.simulate", "estimators.beta", "estimators.qbar", "estimators.oracle",
                 "linalg.mat_exp", "linalg.eig", "linalg.solve"):
        assert name in names
    assert data["counts"]["n_paths"] == 2000
    assert data["t_main"] < data["spans"][0]["start"] <= data["t_counts"] <= data["t_end"]


def test_end_to_end_times_are_scaled_by_the_calibration_job():
    w = workloads.WORKLOADS["ref-estimate"]

    class Ran:
        workload, sigma = w, w.sigma_target

    # (wall, set-up, RSS, calibration wall): a host twice as slow reads the same
    fast = [(1.0, 0.5, 100.0, 1.0), (1.2, 0.6, 100.0, 1.0), (1.1, 0.55, 101.0, 1.0)]
    slow = [(2 * a, 2 * b, r, 2.0) for a, b, r, _ in fast]
    for samples in (fast, slow):
        m = run.end_to_end(Ran, samples, calibration_s=1.0)
        assert m["wall_s"] == pytest.approx(1.1)
        assert m["setup_s"] == pytest.approx(0.55)
        assert m["paths_per_s"] == pytest.approx(w.n_paths / 0.55)
        assert m["peak_rss_mb"] == 100.0
        assert m["tta_s"] == pytest.approx(1.1)

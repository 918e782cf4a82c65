import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


#: The spans the benchmark probe requires of a traced ``estimate``
#: (``benchmarks/tests/test_benchmark.py``), less ``import.cli`` and ``cli``:
#: the tool reads its layers through the probe's hooks, by these names.
ESTIMATE_SPANS = {
    "modelio.read_model", "modelio.render_csv", "medist.validate", "splitting.resolve_lambda",
    "splitting.exit_profile", "jumpsim.compile", "jumpsim.simulate", "estimators.beta",
    "estimators.qbar", "estimators.oracle", "linalg.mat_exp", "linalg.eig", "linalg.solve",
}


def test_bench_writes_every_layer(tmp_path):
    # a fresh interpreter, as the tool's import timings need, with no BLAS
    # thread count chosen, so that the package loads numpy on one thread
    out = tmp_path / "bench.json"
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "--out", str(out),
            "--sizes", "3", "--paths", "10000", "--reps", "1",
        ],
        check=True, capture_output=True, timeout=120,
        env=dict(env, PYTHONPATH=str(ROOT / "src")),
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"environment", "settings", "import", "calibration", "rows"}
    assert set(result["calibration"]) == {"before_s", "after_s"}
    assert all(wall > 0 for wall in result["calibration"].values())
    assert set(result["environment"]) == {"python", "numpy", "blas", "nproc", "threads", "machine"}
    if os.path.isdir("/proc/self/task"):
        assert result["environment"]["threads"] == 1
    assert set(result["import"]) == {"cli_s", "numpy_random_s"}
    assert "workers" not in result["settings"]
    # lambda_0 of the reference model is 2; the expect row is the
    # benchmark's ref-expect-2w workload, at lambda 3 on two workers
    assert [
        (row["command"], row["p"], row.get("above_lambda0"), row["lam"], row["workers"])
        for row in result["rows"]
    ] == [("estimate", 3, 0.0, 2.0, 1), ("estimate", 3, 1.0, 3.0, 1), ("expect", 3, None, 3.0, 2)]
    measured = {
        "paths_per_s", "jumps_per_s", "jumps_per_path", "command_s", "command_peak_rss_mb",
    }
    estimate, expect = result["rows"][:-1], result["rows"][-1]
    for row in estimate:
        assert set(row) == {
            "command", "p", "above_lambda0", "lam", "workers", "layers", "loop_iterations",
        } | measured
        assert ESTIMATE_SPANS <= set(row["layers"])
        assert row["layers"]["jumpsim.simulate"] > 0 and row["layers"]["estimators.oracle"] > 0
        assert all(row[key] > 0 for key in measured | {"loop_iterations"})
    assert set(expect) == {"command", "p", "lam", "workers", "layers"} | measured
    assert all(expect[key] > 0 for key in measured)
    # the two expectation folds, each its own layer, and the exact value
    for span in ("jumpsim.simulate", "estimators.beta", "estimators.qbar", "estimators.oracle"):
        assert expect["layers"][span] > 0, span


def test_outputs_records_every_invocation(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outputs.py"), str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    codes = {
        path.parent.name: path.read_text(encoding="utf-8")
        for path in tmp_path.glob("*/exit_code")
    }
    assert len(codes) == 33
    refused = {
        "overwrite-estimate": 1, "overwrite-tilt": 1, "overwrite-split": 1, "expect-c-nan": 1,
        "expect-degree-20000": 1, "expect-huge-degree": 1, "validate-huge-alpha": 1,
        "estimate-huge-x-max": 1, "estimate-below-lambda0": 3, "estimate-huge-lambda": 1,
        "estimate-rotator": 3, "expect-rotator": 3,
    }
    assert {name: int(code) for name, code in codes.items() if code != "0\n"} == refused
    split = (tmp_path / "split-rotator" / "stdout").read_text(encoding="utf-8")
    assert "transient: false" in split
    reference = (tmp_path / "reference.json").read_bytes()
    for name, model in (
        ("overwrite-estimate", "model.json"), ("overwrite-tilt", "model.json"),
        ("overwrite-split", "p_D.csv"),
    ):
        assert (tmp_path / name / model).read_bytes() == reference
    # the refusal comes before any output is claimed
    assert {path.name for path in (tmp_path / "overwrite-split").iterdir()} == {
        "p_D.csv", "stdout", "stderr", "exit_code",
    }
    golden = ROOT / "tests" / "data" / "golden_estimate.csv"
    assert (tmp_path / "golden" / "golden.csv").read_bytes() == golden.read_bytes()
    table = (tmp_path / "reproduce-example" / "stdout").read_text(encoding="utf-8")
    assert "runtime=<masked>s" in table and "sim+estimate <masked>s" in table

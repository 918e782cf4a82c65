import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


def test_bench_writes_every_layer(tmp_path):
    # a fresh interpreter, as the tool's import timings need
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "--out", str(out),
            "--sizes", "3", "--paths", "10000", "--reps", "1",
        ],
        check=True, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"environment", "settings", "import", "calibration", "rows"}
    assert set(result["calibration"]) == {"before_s", "after_s"}
    assert all(wall > 0 for wall in result["calibration"].values())
    assert set(result["environment"]) == {"python", "numpy", "blas", "nproc", "machine"}
    assert set(result["import"]) == {"numpy_s", "mejump_s", "numpy_random_s"}
    assert [(row["p"], row["above_lambda0"]) for row in result["rows"]] == [(3, 0.0), (3, 1.0)]
    layers = {
        "plan_s", "oracle_s", "compile_s", "simulate_s", "paths_per_s", "jumps_per_s",
        "jumps_per_path", "loop_iterations", "count_s", "finalize_s", "render_s",
        "estimate_s", "estimate_peak_rss_mb",
    }
    for row in result["rows"]:
        assert set(row) == {"p", "above_lambda0", "lam"} | layers
        assert all(row[key] > 0 for key in layers)
    # lambda_0 of the reference model is 2
    assert [row["lam"] for row in result["rows"]] == [2.0, 3.0]


def test_outputs_records_every_invocation(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outputs.py"), str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    codes = {
        path.parent.name: path.read_text(encoding="utf-8")
        for path in tmp_path.glob("*/exit_code")
    }
    assert len(codes) == 24
    refused = {
        "overwrite-estimate", "overwrite-tilt", "overwrite-split", "expect-c-nan",
        "expect-degree-20000",
    }
    assert {name for name, code in codes.items() if code != "0\n"} == refused
    assert {codes[name] for name in refused} == {"1\n"}
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

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
    assert set(result) == {"environment", "settings", "import", "rows"}
    assert set(result["environment"]) == {"python", "numpy", "blas", "nproc", "machine"}
    assert set(result["import"]) == {"numpy_s", "mejump_s", "numpy_random_s"}
    assert [(row["p"], row["above_lambda0"]) for row in result["rows"]] == [(3, 0.0), (3, 1.0)]
    layers = {
        "plan_s", "oracle_s", "compile_s", "simulate_s", "paths_per_s", "jumps_per_s",
        "jumps_per_path", "loop_iterations", "count_s", "finalize_s", "render_s",
    }
    for row in result["rows"]:
        assert set(row) == {"p", "above_lambda0", "lam"} | layers
        assert all(row[key] > 0 for key in layers)
    # lambda_0 of the reference model is 2
    assert [row["lam"] for row in result["rows"]] == [2.0, 3.0]

"""``benchmarks/probe.py --trace`` on ``expect`` records the spans that the
traced layer table of ``benchmarks/run.py`` reads for that command."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
BENCH = ROOT / "benchmarks"


def test_traced_probe_sees_the_expect_layers(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS["ref-expect-2w"]
    model, config = workloads.write_inputs(w, 3, tmp_path)
    raw = json.loads(config.read_text())
    config.write_text(json.dumps(dict(raw, n_paths=2000, chunk=1000)))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), "--trace", str(out)]
        + workloads.cli_args(w, model, config, tmp_path / "out.csv"),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {s["name"] for s in json.loads(out.read_text())["spans"]}
    for name in ("estimators.beta", "estimators.qbar", "estimators.oracle",
                 "splitting.exit_profile"):
        assert name in names

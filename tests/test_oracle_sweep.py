"""``mejump estimate`` over a sweep of seeds, each output gated by the
benchmark's independent oracle (``benchmarks/oracle.py``).

The benchmark runs every invocation of a workload at one seed, so a crash or
an out-of-band bin that only some seeds draw shows there as a failed run;
here it shows as a failed test.  Both estimate workloads run on their own
model and config, at fewer paths.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402
from mejump import cli  # noqa: E402

PATHS = {"ref-estimate": 10_000, "wide-estimate": 20_000}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", list(PATHS))
def test_estimate_passes_the_oracle(name, seed, tmp_path, capsys):
    base = workloads.WORKLOADS[name]
    workload = dataclasses.replace(base, config=dict(base.config, n_paths=PATHS[name]))
    model_path, config_path = workloads.write_inputs(workload, seed, tmp_path)
    out = tmp_path / "out.csv"
    code = cli.main(workloads.cli_args(workload, model_path, config_path, out))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    verdict = oracle.check_estimate(
        out.read_text(encoding="utf-8"),
        captured.out,
        oracle.load_model(model_path),
        dict(workload.config, seed=seed),
    )
    assert verdict.ok, verdict.problems

import pathlib
import re

import numpy as np

from mejump.estimators import tilted_bin_averages

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_quick_start_runs_as_written():
    # the README's library quick start, executed as it is printed, so a
    # changed signature cannot leave it stale
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    est, est_rb, lam = scope["est"], scope["est_rb"], scope["lam"]
    # the q̄ weights are the simulated chain's own
    assert scope["gen"].lam == lam == 2.0
    analytic, _ = tilted_bin_averages(scope["params"], lam, scope["Grid"](0.0, 4.0, 40))
    for got in (est, est_rb):
        assert np.all(np.abs(got.estimate - analytic) <= 5.0 * got.stderr + 1e-12)

"""Each ``mejump`` command imports only what it runs.

``scipy.integrate`` (and the ``scipy.optimize``, ``scipy.special`` and
``scipy.sparse`` it pulls in) serves only criterion 4 of ``reproduce-example``.
The test modules load those packages themselves, so the commands run in a
fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]

#: Modules no command other than ``reproduce-example`` may load.
UNWANTED = (
    "scipy.integrate",
    "scipy.optimize",
    "scipy.special",
    "scipy.sparse",
    "mejump.acceptance",
)

#: Run in order in one interpreter; ``debug`` reads the trace ``estimate`` writes.
COMMANDS = {
    "validate": ["validate", "{model}"],
    "split": ["split", "{model}"],
    "tilt": ["tilt", "{model}", "--lambda", "2"],
    "estimate": [
        "estimate", "{model}", "--paths", "1000",
        "--out", "{tmp}/est.csv", "--trace", "{tmp}/trace.tsv",
    ],
    "expect": ["expect", "{model}", "--config", "{tmp}/h.json"],
    "debug": ["debug", "{tmp}/trace.tsv"],
}

CHILD = """
import json, sys
from mejump.cli import main
commands, unwanted, report = json.loads(sys.argv[1])
loaded = {}
for name, argv in commands.items():
    code = main(argv)
    loaded[name] = [code, sorted(m for m in unwanted if m in sys.modules)]
with open(report, "w", encoding="utf-8") as fh:
    json.dump(loaded, fh)
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    (tmp / "h.json").write_text(
        '{"lambda": 2.0, "n_paths": 1000, "h": {"type": "exp-decay", "c": 2.0}}'
    )
    model = ROOT / "models" / "reference.json"
    commands = {
        name: [a.format(model=model, tmp=tmp) for a in argv]
        for name, argv in COMMANDS.items()
    }
    report = tmp / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([commands, UNWANTED, str(report)])],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_no_quadrature_stack(loaded, command):
    code, found = loaded[command]
    assert code == 0
    assert found == []

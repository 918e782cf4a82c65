"""Each ``mejump`` command imports only what it runs, the CLI's import
compiles no generated source, and only the CLI freezes the heap its imports
leave.

No command loads scipy: the ``linalg`` kernel and criterion 4's quadrature are
numpy.  No command loads ``dataclasses``: the package's records build no code
at import.  No command loads a thread pool (``concurrent.futures``, which
brings in ``logging``): the workers of a simulation are plain threads.  The
test modules load scipy themselves, so the commands run in a fresh
interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]

#: Modules a command must not load.  ``reproduce-example`` loads the acceptance
#: checks, and nothing more for criterion 13's run of 2 chunks on 4 workers.
UNWANTED = ("concurrent.futures", "dataclasses", "logging", "scipy", "mejump.acceptance")

#: Run in order in one interpreter; ``reproduce-example`` comes last, since it
#: loads ``mejump.acceptance``.
COMMANDS = {
    "validate": ["validate", "{model}"],
    "split": ["split", "{model}"],
    "tilt": ["tilt", "{model}", "--lambda", "2"],
    "estimate": [
        "estimate", "{model}", "--paths", "1000",
        "--out", "{tmp}/est.csv", "--trace", "{tmp}/trace.tsv",
    ],
    "expect": ["expect", "{model}", "--config", "{tmp}/h.json"],
    "reproduce-example": ["reproduce-example", "--paths", "30000", "--seed", "5"],
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
    if command == "reproduce-example":
        assert found == ["mejump.acceptance"]
    else:
        assert found == []


#: Imports ``mejump.cli`` after numpy under an audit hook, and prints the
#: file name of every source compiled meanwhile.
COMPILE_CHILD = """
import sys
import numpy
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(str(args[1])))
import mejump.cli
print("\\n".join(compiled))
"""


def test_cli_import_compiles_no_generated_source():
    # a dataclass execs generated source for each method it adds; modules
    # compiled from their .py files are all the import may compile
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COMPILE_CHILD], env=env, capture_output=True, text=True, check=True
    )
    compiled = proc.stdout.split()
    assert [name for name in compiled if not name.endswith(".py")] == []


@pytest.mark.parametrize("module, frozen", [("mejump", False), ("mejump.cli", True)])
def test_only_the_cli_freezes_the_import_heap(module, frozen):
    # a library import leaves the caller's collector alone; the CLI keeps
    # the heap of its imports out of every later collection, the one at exit
    # included
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert (int(proc.stdout) > 0) is frozen

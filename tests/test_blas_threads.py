"""Importing ``mejump`` loads numpy's OpenBLAS on one thread, unless the
caller chose a thread count or loaded numpy first, and leaves no variable
behind.

Each check runs in a fresh interpreter, since this one has loaded numpy
already.  Threads are counted in ``/proc/self/task``.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mejump.modelio import write_model
from mejump.models import random_me_model

ROOT = pathlib.Path(__file__).parents[1]

#: The variables OpenBLAS reads its thread count from, in its order.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Prints the thread count after each import named on the command line, and
#: whether the import left ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
#: in the environment.
CHILD = """
import importlib, json, os, sys
counts = []
for name in sys.argv[1:]:
    importlib.import_module(name)
    counts.append(len(os.listdir("/proc/self/task")))
env = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
print(json.dumps([counts, env]))
"""

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task"
)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _env(**chosen):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **chosen)


def _imports(*modules, **chosen):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *modules],
        env=_env(**chosen), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@needs_proc
@pytest.mark.parametrize("module", ["mejump", "mejump.jumpsim"])
def test_import_runs_blas_on_one_thread_and_leaves_no_variable(module):
    # the benchmark's probe imports mejump.jumpsim before mejump.cli
    counts, env = _imports(module)
    assert counts == [1]
    assert env == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@needs_proc
@pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS starts one thread on one CPU")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_chosen_thread_count_is_honoured(variable):
    counts, env = _imports("mejump", **{variable: "2"})
    assert counts == [2]
    assert env[variable] == "2"


@needs_proc
def test_numpy_loaded_first_is_left_alone():
    counts, _ = _imports("numpy", "mejump")
    assert counts[0] == counts[1]


def test_wide_estimate_bytes_do_not_depend_on_the_host_blas(tmp_path):
    # the 200-state doubled chain's analytic column goes through BLAS; with
    # two threads its last digits would differ from the one-thread bytes
    model = tmp_path / "wide.json"
    write_model(random_me_model(100, np.random.default_rng(100)), model)
    csv = {}
    for name, chosen in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{name}.csv"
        subprocess.run(
            [sys.executable, "-m", "mejump.cli", "estimate", str(model),
             "--paths", "1000", "--out", str(out)],
            env=_env(**chosen), capture_output=True, check=True,
        )
        csv[name] = out.read_bytes()
    assert csv["unset"] == csv["one"]

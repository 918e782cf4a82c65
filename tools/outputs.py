"""Record what a fixed list of ``mejump`` invocations prints and writes.

    python tools/outputs.py DIR

Each invocation runs in a fresh interpreter with the ``src/`` beside this
script on ``PYTHONPATH``, in its own working directory ``DIR/<name>/``, so
that every path it prints is relative.  There it leaves its output files,
and the tool writes its ``stdout``, ``stderr`` and ``exit_code``; the wall
times in ``reproduce-example``'s table are masked.  Running the tool on two
checkouts and comparing the directories with ``diff -r`` shows every output
byte a change moved.  The wide model's last digits depend on the BLAS
thread count, so run both sides with the same ``OPENBLAS_NUM_THREADS``.

The list: ``--help`` of every subcommand; ``validate``, ``split --out`` and
``tilt --out`` on the reference model; the golden ``estimate`` run
(``tests/data/golden_estimate.csv``); a traced reference ``estimate`` on one
worker and on two, each printing its trace's summary; each single estimator;
the benchmark's wide model ``random_me_model(100, default_rng(100))``;
``expect`` with each kind of integrand; the refusals that keep ``estimate
--out``, ``tilt --out`` and ``split --out`` (through the ``_D.csv`` it would
write) from writing over their model; ``expect`` with a
NaN decay rate, with a degree whose exact value underflows (1000), with one
whose value overflows (20000) and with one above the bound on degrees; the
refusals of an integer past the float range in a model's ``alpha`` and in a
config's ``grid.x_max``; the rate refusals of ``estimate`` (below
``lambda_0``, a rate at which no path can be seen to land, and a chain that
is not transient, on a model whose doubled chain is not transient at rate 0)
and of ``expect`` (not transient), and ``split`` reporting that chain as not
transient; and ``reproduce-example``.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The golden run's config, ``TestGoldenEstimate.CONFIG`` in ``tests/test_cli.py``.
GOLDEN_CONFIG = (
    '{"lambda": 2.0, "n_paths": 1000000, "seed": 42, "chunk": 65536, '
    '"grid": {"x_min": 0.0, "x_max": 4.0, "n_bins": 40}, "estimator": "both"}'
)

#: An integer past the float range, as JSON writes it.
HUGE = "1" + "0" * 400

#: Every input file, written into ``DIR`` first; one that a single invocation
#: reads is written into that invocation's directory.
INPUTS = {
    "golden.json": GOLDEN_CONFIG,
    "exp-decay.json": '{"lambda": 3.0, "n_paths": 20000, "h": {"type": "exp-decay", "c": 2.0}}',
    "poly-exp-decay.json": (
        '{"lambda": 3.0, "n_paths": 20000, '
        '"h": {"type": "poly-exp-decay", "c": 2.0, "degree": 2}}'
    ),
    "c-nan.json": '{"n_paths": 1000, "h": {"type": "exp-decay", "c": NaN}}',
    "degree-1000.json": (
        '{"n_paths": 1000, "h": {"type": "poly-exp-decay", "c": 1000.0, "degree": 1000}}'
    ),
    "degree-20000.json": (
        '{"n_paths": 1000, "h": {"type": "poly-exp-decay", "c": 1000.0, "degree": 20000}}'
    ),
    "validate-huge-alpha/model.json": f'{{"alpha": [{HUGE}], "T": [[-1.0]], "s": [1.0]}}',
    "estimate-huge-x-max/cfg.json": (
        f'{{"n_paths": 1000, "grid": {{"x_min": 0.0, "x_max": {HUGE}, "n_bins": 4}}}}'
    ),
    "expect-huge-degree/cfg.json": (
        f'{{"n_paths": 1000, "h": {{"type": "poly-exp-decay", "c": 1000.0, "degree": {HUGE}}}}}'
    ),
    # an Exp(1) in disguise whose doubled chain is not transient at rate 0
    "rotator.json": (
        '{"alpha": [0, 0, 1], "T": [[-1, -1, 0], [1, -1, 0], [0, 0, -1]], "s": [0, 0, 1]}'
    ),
}

REF = "../reference.json"
TRACED = ["estimate", REF, "--paths", "10000", "--out", "est.csv", "--trace", "trace.tsv"]

#: (name, arguments of ``mejump``), each run in ``DIR/<name>/``.
INVOCATIONS = [
    *(
        (f"help-{command}", [command, "--help"])
        for command in ("validate", "split", "tilt", "estimate", "expect", "reproduce-example")
    ),
    ("validate", ["validate", REF]),
    ("split", ["split", REF, "--out", "split"]),
    ("tilt", ["tilt", REF, "--out", "tilted.json"]),
    ("golden", ["estimate", REF, "--config", "../golden.json", "--out", "golden.csv"]),
    ("traced-1", [*TRACED, "--workers", "1"]),
    ("traced-2", [*TRACED, "--workers", "2"]),
    ("beta", ["estimate", REF, "--paths", "20000", "--estimator", "beta", "--out", "est.csv"]),
    ("qbar", ["estimate", REF, "--paths", "20000", "--estimator", "qbar", "--out", "est.csv"]),
    ("wide", ["estimate", "../wide.json", "--paths", "20000", "--out", "est.csv"]),
    ("expect-exp-decay", ["expect", REF, "--config", "../exp-decay.json"]),
    ("expect-poly-exp-decay", ["expect", REF, "--config", "../poly-exp-decay.json"]),
    ("overwrite-estimate", ["estimate", "model.json", "--paths", "1000", "--out", "model.json"]),
    ("overwrite-tilt", ["tilt", "model.json", "--out", "model.json"]),
    ("overwrite-split", ["split", "p_D.csv", "--out", "p"]),
    ("expect-c-nan", ["expect", REF, "--config", "../c-nan.json"]),
    ("expect-degree-1000", ["expect", REF, "--config", "../degree-1000.json"]),
    ("expect-degree-20000", ["expect", REF, "--config", "../degree-20000.json"]),
    ("expect-huge-degree", ["expect", REF, "--config", "cfg.json"]),
    ("validate-huge-alpha", ["validate", "model.json"]),
    ("estimate-huge-x-max", ["estimate", REF, "--config", "cfg.json", "--out", "est.csv"]),
    ("estimate-below-lambda0", ["estimate", REF, "--lambda", "1"]),
    ("estimate-huge-lambda", ["estimate", REF, "--lambda", "1e300"]),
    ("estimate-rotator", ["estimate", "../rotator.json", "--lambda", "0"]),
    ("expect-rotator", [
        "expect", "../rotator.json", "--lambda", "0", "--config", "../exp-decay.json",
    ]),
    ("split-rotator", ["split", "../rotator.json", "--lambda", "0"]),
    ("reproduce-example", ["reproduce-example", "--paths", "20000"]),
]

#: The invocations that find a copy of the reference model in their own
#: directory, by the name given here, which they would write over if not
#: refused.
OWN_MODEL = {
    "overwrite-estimate": "model.json",
    "overwrite-tilt": "model.json",
    "overwrite-split": "p_D.csv",
}

#: A wall time in ``reproduce-example``'s table.
WALL_TIME = re.compile(r"(runtime=|sim\+estimate )\d+(\.\d+)?s")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/outputs.py DIR", file=sys.stderr)
        return 1
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sys.path.insert(0, env["PYTHONPATH"])
    import numpy as np

    from mejump.modelio import write_model
    from mejump.models import random_me_model, reference_model

    write_model(reference_model(), out / "reference.json", name="reference")
    write_model(random_me_model(100, np.random.default_rng(100)), out / "wide.json", name="wide")
    for name, text in INPUTS.items():
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text(text + "\n", encoding="utf-8")
    for name, args in INVOCATIONS:
        cwd = out / name
        cwd.mkdir(exist_ok=True)
        if name in OWN_MODEL:
            (cwd / OWN_MODEL[name]).write_bytes((out / "reference.json").read_bytes())
        done = subprocess.run(
            [sys.executable, "-m", "mejump.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
        )
        stdout = done.stdout
        if args[0] == "reproduce-example":
            stdout = WALL_TIME.sub(r"\1<masked>s", stdout)
        (cwd / "stdout").write_text(stdout, encoding="utf-8")
        (cwd / "stderr").write_text(done.stderr, encoding="utf-8")
        (cwd / "exit_code").write_text(f"{done.returncode}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

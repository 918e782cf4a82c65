"""Layer timings of ``mejump estimate``, measured in one process, as JSON.

    PYTHONPATH=src python tools/bench.py --out BENCH.json
    PYTHONPATH=src python tools/bench.py --out smoke.json --sizes 3 --paths 10000 --reps 1

Run it in a fresh interpreter with the ``src`` of the tree to time on
``PYTHONPATH``; any tree whose ``estimate`` takes the flags below will do.
The layers are timed by the benchmark probe's own hooks
(``benchmarks/probe.py``), installed as a traced probe run installs them:
import ``mejump.jumpsim`` (the package, which loads numpy on one BLAS
thread), wrap the layers with ``probe._hook_simulate`` and
``probe._hook_layers``, import ``mejump.cli``.  That whole import is
``import.cli_s``.  Then ``numpy.random`` is imported (``numpy_random_s``),
which the first random stream would otherwise load inside a
``jumpsim.simulate`` span.

For each model size ``p`` in ``--sizes`` and for the tilting rates
``lambda_0`` (the ``"auto"`` rate) and ``lambda_0 + 1``, it runs
``mejump.cli.main(["estimate", MODEL, "--lambda", ..., "--grid", ...,
"--paths", ..., "--seed", "5", "--out", ...])`` ``--reps`` times in this
process, each run inside a ``cli`` span as in the probe.  A row holds:

* ``layers``: per probe span name, the median over the runs of its self
  time in seconds (``tracing.self_times``), which leaves out the spans
  nested in it.  So ``jumpsim.simulate`` does not include
  ``jumpsim.compile``; the exit count is in ``modelio.run_estimate``;
  validation, sign split, rate and doubled chain are ``medist.validate``
  and the ``splitting.*`` spans; parsing, printing and writing are ``cli``.
* ``paths_per_s``, ``jumps_per_s`` and ``jumps_per_path``: the last run's
  batch (``probe.batch_counts``) over the median ``jumpsim.simulate``.
* ``loop_iterations``: iterations of the simulator's chunk loops in one
  more, untimed run: each is one call of ``jumpsim._draw_targets`` from
  transient states, and a chunk whose first states are drawn draws them
  from the start row ``2p``.
* ``estimate_s`` and ``estimate_peak_rss_mb``: the median wall time and
  peak resident set (MB) of the same command run ``--reps`` times, each in
  a fresh interpreter whose process reads its own ``VmHWM`` from
  ``/proc/self/status`` just before it exits.  ``ru_maxrss`` would not do:
  a child's starts at the high-water mark of the process that spawned it.

Every run is at stream seed ``SEED`` in the default chunks
(``jumpsim.DEFAULT_CHUNK``) on one worker.  ``p = 3`` is the reference
model; other sizes are ``random_me_model(p, default_rng(p))``, as the
benchmark's wide model is at ``p = 100``.

The output records the Python, numpy and BLAS versions and the processor and
thread counts, since timings compare only on one machine.  Under
``calibration`` it records the wall time of the benchmark's calibration job
(``benchmarks/calibrate.py``, in a fresh interpreter) before and after the
rows, so that two files tell how fast the host ran while each was written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCHMARKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")
sys.path.insert(0, BENCHMARKS)
import probe  # noqa: E402  (the benchmark's hooks; neither module imports numpy)
import tracing  # noqa: E402

#: The stream seed of every simulated batch; the benchmark's wide model runs at 5.
SEED = 5

#: The benchmark's fixed reference job, which imports nothing from mejump.
CALIBRATE = os.path.join(BENCHMARKS, "calibrate.py")

#: Runs ``mejump estimate`` on its arguments, then writes the process's
#: ``VmHWM`` line (its peak resident set, in kB) to stderr.
ESTIMATE_CHILD = """\
import sys
from mejump.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="utf-8") as fh:
    sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _run(tracer, argv):
    """Run ``mejump ARGV`` in this process: the self times of its spans and
    the counts over its batch."""
    from mejump import cli

    tracer.spans.clear()
    with tracer.span("cli"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"mejump {' '.join(argv)} exited {code}")
    counts = probe.batch_counts(*probe._batches[-1])
    probe._batches.clear()
    return tracing.self_times(tracer.spans), counts


def _loop_iterations(jumpsim, simulate, p):
    """Iterations of the chunk loops in one call of ``simulate`` on a model
    of size ``p``."""
    draw_targets = jumpsim._draw_targets
    calls = []

    def counted(table, state, *args):
        calls.append(int(state[0]) < 2 * p)
        return draw_targets(table, state, *args)

    jumpsim._draw_targets = counted
    try:
        simulate()
    finally:
        jumpsim._draw_targets = draw_targets
    return sum(calls)


def _calibration_s():
    """The wall time of one run of the calibration job in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, CALIBRATE], capture_output=True, check=True)
    return time.perf_counter() - t0


def _estimate_command(argv, reps):
    """The median wall time and median peak resident set (MB) of ``reps``
    runs of ``mejump ARGV``, each in a fresh interpreter."""
    command = [sys.executable, "-c", ESTIMATE_CHILD, *argv]
    walls, peaks = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - t0)
        # the last line reads "VmHWM:    46080 kB"
        peaks.append(int(done.stderr.splitlines()[-1].split()[1]) / 1024)
    return statistics.median(walls), statistics.median(peaks)


def _environment(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {}
    tasks = "/proc/self/task"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
        "machine": platform.machine(),
    }


def bench_size(p, above, args, tracer):
    """One row of layer timings: the model of size ``p`` at ``above`` over
    its ``"auto"`` rate ``lambda_0``."""
    import numpy as np

    from mejump import jumpsim, modelio, splitting
    from mejump.models import random_me_model, reference_model

    if p == 3:
        params, grid = reference_model(), "0.0:4.0:40"
    else:
        params, grid = random_me_model(p, np.random.default_rng(p)), "0.0:2.0:20"
    lam = float(splitting.resolve_lambda(splitting.sign_split(params.T, params.s), "auto")) + above
    row = {"p": p, "above_lambda0": above, "lam": lam}
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        modelio.write_model(params, model)
        argv = [
            "estimate", model, "--lambda", repr(lam), "--grid", grid,
            "--paths", str(args.paths), "--seed", str(SEED),
            "--out", os.path.join(tmp, "estimate.csv"),
        ]
        runs = [_run(tracer, argv) for _ in range(args.reps)]
        row["loop_iterations"] = _loop_iterations(jumpsim, lambda: _run(tracer, argv), p)
        row["estimate_s"], row["estimate_peak_rss_mb"] = _estimate_command(argv, args.reps)
    times = [layers for layers, _ in runs]
    names = sorted(set().union(*times))
    row["layers"] = {name: statistics.median(t.get(name, 0.0) for t in times) for name in names}
    counts = runs[-1][1]
    simulate_s = row["layers"]["jumpsim.simulate"]
    row["paths_per_s"] = counts["n_paths"] / simulate_s
    row["jumps_per_s"] = counts["jumps"] / simulate_s
    row["jumps_per_path"] = counts["jumps"] / counts["n_paths"]
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sizes", default="3,10,30,100", help="model sizes p, comma-separated")
    parser.add_argument("--paths", type=int, default=200_000)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sizes = [int(p) for p in args.sizes.split(",")]

    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import mejump.jumpsim  # the package first, so that numpy loads on one BLAS thread

    probe._hook_simulate(mejump.jumpsim, tracer)
    probe._hook_layers(tracer)
    import mejump.cli  # noqa: F401  (binds the wrapped layers)

    t1 = time.perf_counter()
    import numpy.random  # binds numpy too

    t2 = time.perf_counter()
    before = _calibration_s()
    rows = [bench_size(p, above, args, tracer) for p in sizes for above in (0.0, 1.0)]
    result = {
        "environment": _environment(numpy),
        "settings": {
            "paths": args.paths, "reps": args.reps, "seed": SEED,
            "chunk": mejump.jumpsim.DEFAULT_CHUNK, "workers": 1,
        },
        "import": {"cli_s": t1 - t0, "numpy_random_s": t2 - t1},
        "calibration": {"before_s": before, "after_s": _calibration_s()},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for row in result["rows"]:
        print(
            f"p={row['p']:<4} lambda_0+{row['above_lambda0']:g}  simulate "
            f"{row['layers']['jumpsim.simulate']:.4f} s  {row['jumps_per_s'] / 1e6:6.2f} "
            f"Mjumps/s  {row['loop_iterations']:>5} iterations  estimate "
            f"{row['estimate_s']:.3f} s {row['estimate_peak_rss_mb']:.0f} MB",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()

"""Layer timings of the mejump pipeline, measured in one process, as JSON.

    PYTHONPATH=src python tools/bench.py --out BENCH.json
    PYTHONPATH=src python tools/bench.py --out smoke.json --sizes 3 --paths 10000 --reps 1

Run from the root of a source checkout.  It first times ``import numpy``,
``import mejump.cli`` (the package as the CLI loads it) and ``import
numpy.random`` (which numpy loads on the first stream a run opens), so run it
in a fresh interpreter.  Then, for each model size ``p`` in ``--sizes`` and for the
tilting rates ``lambda_0`` (the ``"auto"`` rate) and ``lambda_0 + 1``, it
times each layer of an ``estimate`` run and keeps the median over ``--reps``
repetitions:

* ``plan``: validation, sign split, rate and exit profile (``modelio.plan``);
* ``oracle``: the exact bin averages (``estimators.tilted_bin_averages``);
* ``compile``: the chain's tables (``jumpsim.JumpChain``);
* ``simulate``: ``jumpsim.simulate_batch``, with paths/s and jumps/s;
* ``count`` and ``finalize``: the exit count table and the two density
  estimators read off it;
* ``render``: the CSV text (``modelio.render_estimate_csv``);
* ``estimate``: the whole ``mejump estimate`` command on the row's model,
  rate, grid and path count, run ``--reps`` times, each in a fresh
  interpreter, with its wall time and its peak resident set in MB, which the
  command's own process reads as ``VmHWM`` from ``/proc/self/status`` just
  before it exits.  ``ru_maxrss`` would not do: a child's starts at the
  high-water mark of the process that spawned it.

Every batch runs at stream seed ``SEED`` in the default chunks
(``jumpsim.DEFAULT_CHUNK``) on one worker.  ``loop_iterations`` is the
number of iterations of the simulator's chunk loops in one
``simulate_batch`` call, counted in one more, untimed call: each iteration
is one call of ``jumpsim._draw_targets`` from transient states, and a chunk
whose first states are drawn draws them from the start row ``2p``.
``p = 3`` is the reference model; other sizes are ``random_me_model(p,
default_rng(p))``, as the benchmark's wide model is at ``p = 100``.

The output records the Python, numpy and BLAS versions and the processor
count, since timings compare only on one machine.  Under ``calibration`` it
records the wall time of the benchmark's calibration job
(``benchmarks/calibrate.py``, in a fresh interpreter), run once before the
rows and once after them, so that two files tell how fast the host ran while
each was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

#: The stream seed of every simulated batch; the benchmark's wide model runs at 5.
SEED = 5

#: The benchmark's fixed reference job, which imports nothing from mejump.
CALIBRATE = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "calibrate.py")

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


def _timed(fn, reps):
    """The median wall time of ``reps`` calls of ``fn``, and its last result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


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


def _estimate_command(params, lam, grid, args):
    """The median wall time and median peak resident set (MB) of ``--reps``
    runs of ``mejump estimate``, each in a fresh interpreter."""
    from mejump import modelio

    walls, peaks = [], []
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        modelio.write_model(params, model)
        argv = [
            sys.executable, "-c", ESTIMATE_CHILD, "estimate", model, "--lambda", repr(lam),
            "--grid", f"{grid.x_min!r}:{grid.x_max!r}:{grid.n_bins}",
            "--paths", str(args.paths), "--seed", str(SEED),
            "--out", os.path.join(tmp, "estimate.csv"),
        ]
        for _ in range(args.reps):
            t0 = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            # the last line reads "VmHWM:    46080 kB"
            peaks.append(int(done.stderr.splitlines()[-1].split()[1]) / 1024)
    return statistics.median(walls), statistics.median(peaks)


def _environment(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def bench_size(p, above, args):
    """One row of layer timings: the model of size ``p`` at ``above`` over
    its ``"auto"`` rate ``lambda_0``."""
    import numpy as np

    from mejump import estimators, jumpsim, modelio
    from mejump.models import random_me_model, reference_model

    if p == 3:
        params, grid = reference_model(), estimators.Grid(0.0, 4.0, 40)
    else:
        params, grid = random_me_model(p, np.random.default_rng(p)), estimators.Grid(0.0, 2.0, 20)
    lam = modelio.plan(params, "auto").lam + above
    reps = args.reps
    row = {"p": p, "above_lambda0": above, "lam": lam}
    row["plan_s"], run_plan = _timed(lambda: modelio.plan(params, lam), reps)
    row["oracle_s"], (analytic, norm) = _timed(
        lambda: estimators.tilted_bin_averages(params, lam, grid), reps
    )
    scale = run_plan.init.w_total / norm
    split, init = run_plan.split, run_plan.init
    row["compile_s"], _ = _timed(lambda: jumpsim.JumpChain(split, lam, init), reps)

    def simulate():  # the default chunk, on one worker
        return jumpsim.simulate_batch(split, lam, init, args.paths, SEED)

    row["simulate_s"], batch = _timed(simulate, reps)
    jumps = int(batch.n_jumps.sum(dtype=np.int64))
    row["paths_per_s"] = args.paths / row["simulate_s"]
    row["jumps_per_s"] = jumps / row["simulate_s"]
    row["jumps_per_path"] = jumps / args.paths
    row["loop_iterations"] = _loop_iterations(jumpsim, simulate, p)
    row["count_s"], counts = _timed(lambda: estimators.count_exits(batch, grid), reps)

    def finalize():
        return (
            estimators.mc_density_beta(counts, scale),
            estimators.mc_density_qbar(counts, run_plan.profile, scale),
        )

    row["finalize_s"], (beta, qbar) = _timed(finalize, reps)
    cfg = modelio.RunConfig(lam=lam, n_paths=args.paths, seed=SEED, grid=grid)
    run = modelio.EstimateRun(run_plan, scale, cfg, batch, analytic, beta, qbar)
    row["render_s"], _ = _timed(lambda: modelio.render_estimate_csv(run), reps)
    row["estimate_s"], row["estimate_peak_rss_mb"] = _estimate_command(params, lam, grid, args)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sizes", default="3,10,30,100", help="model sizes p, comma-separated")
    parser.add_argument("--paths", type=int, default=200_000)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sizes = [int(p) for p in args.sizes.split(",")]

    t0 = time.perf_counter()
    import numpy

    t1 = time.perf_counter()
    import mejump.cli  # noqa: F401  (the package as the CLI loads it)

    t2 = time.perf_counter()
    import numpy.random  # noqa: F401

    t3 = time.perf_counter()
    from mejump.jumpsim import DEFAULT_CHUNK

    before = _calibration_s()
    rows = [bench_size(p, above, args) for p in sizes for above in (0.0, 1.0)]
    result = {
        "environment": _environment(numpy),
        "settings": {
            "paths": args.paths, "reps": args.reps, "seed": SEED,
            "chunk": DEFAULT_CHUNK, "workers": 1,
        },
        "import": {"numpy_s": t1 - t0, "mejump_s": t2 - t1, "numpy_random_s": t3 - t2},
        "calibration": {"before_s": before, "after_s": _calibration_s()},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for row in result["rows"]:
        print(
            f"p={row['p']:<4} lambda_0+{row['above_lambda0']:g}  simulate "
            f"{row['simulate_s']:.4f} s  {row['jumps_per_s'] / 1e6:6.2f} Mjumps/s  "
            f"{row['loop_iterations']:>5} iterations  estimate {row['estimate_s']:.3f} s "
            f"{row['estimate_peak_rss_mb']:.0f} MB",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()

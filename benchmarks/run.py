"""The mejump benchmark: one workload, one closed-loop client, one JSON result.

    python3 benchmarks/run.py --workload ref-estimate --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark drives the ``mejump``
CLI from ``src/`` as a user does: one invocation after another, each started
only after the previous one exited, for ``--seconds`` seconds.  Every output
is checked against exact oracles (``oracle.py``); an invocation fails on a
nonzero exit or a failed check.

Each invocation runs the CLI's entry point through ``probe.py``, which marks
the end of set-up, so every invocation gives its wall time, its set-up time
and its peak RSS.  A traced invocation (``probe.py --trace``, under ``-X
importtime``) also records spans around the calls into each layer and counts
over the simulated batch; those counts are checked against the exact path law.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, after one
traced invocation that checks the path law.  ``--trace 1`` alternates traced
and plain invocations and reports the per-layer metrics.  Either way the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; inputs,
outputs, spans and the environment record go to
``.bench_out/<workload>-seed<n>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = ROOT / "tests" / "data" / "golden_estimate.csv"

#: Fewest samples of each kind in one run, however short ``--seconds`` is.
MIN_SAMPLES = 3

#: A child process still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 30.0

#: Wall time of ``calibrate.py`` on the reference host.  End-to-end times are
#: reported in seconds of that host: each invocation's times are multiplied by
#: this over the mean wall time of the calibration jobs run right before and
#: right after it.  On a shared 2-vCPU host, median wall times over runs of
#: 30 s drifted by up to 30 % within minutes, while the median of such ratios
#: moved by about 4 %.
CALIBRATION_S = 1.0

#: Modules whose cumulative ``-X importtime`` cost is reported.
IMPORT_METRICS = {
    "import.scipy_linalg_s": "scipy.linalg",
    "import.scipy_integrate_s": "scipy.integrate",
}

#: Per-layer metrics taken straight from the summed self time of a span name.
SPAN_METRICS = {
    "import.cli_s": "import.cli",
    "modelio.read_model_s": "modelio.read_model",
    "medist.validate_s": "medist.validate",
    "splitting.resolve_lambda_s": "splitting.resolve_lambda",
    "splitting.exit_profile_s": "splitting.exit_profile",
    "jumpsim.compile_s": "jumpsim.compile",
    "jumpsim.simulate_s": "jumpsim.simulate",
    "estimators.beta_s": "estimators.beta",
    "estimators.qbar_s": "estimators.qbar",
    "estimators.oracle_s": "estimators.oracle",
    "linalg.eig_s": "linalg.eig",
    "linalg.solve_s": "linalg.solve",
}

#: Span whose self time no layer claims: the CLI's own code in ``main``.
ROOT_SPAN = "cli"

sys.path.insert(0, str(HERE))


@dataclass
class Proc:
    """One finished child process."""

    t_spawn: float
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts the children of one workload run and checks their outputs."""

    def __init__(self, workload, seed, work):
        import oracle
        import workloads

        self.workload = workload
        self.work = work
        self.model_path, self.config_path = workloads.write_inputs(workload, seed, work)
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))
        self.model = oracle.load_model(self.model_path)
        self.golden = None
        if workload.name == "ref-estimate" and seed == workloads.DEFAULT_SEED:
            self.golden = GOLDEN.read_text(encoding="utf-8") if GOLDEN.is_file() else ""
        pythonpath = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.csv = work / "out.csv"
        self.cli_args = workloads.cli_args(workload, self.model_path, self.config_path, self.csv)
        self.attempted = 0
        self.failed = 0
        self.sigma = None
        self.var_ratio = None
        self.max_z = 0.0
        self.exact_law = None
        self.mark_sources = set()

    def spawn(self, argv, tag) -> Proc:
        out, err = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        self.csv.unlink(missing_ok=True)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            t0, wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"),
        )

    def judge(self, proc: Proc, label: str, counts=False):
        """Count and check one invocation; returns its verdict, or None if it
        failed.  ``counts`` is the traced invocation's batch counts, which
        must then follow the exact path law."""
        import oracle

        self.attempted += 1
        problems = []
        if proc.code:
            problems.append(f"exit code {proc.code}: {proc.stderr.strip()[-500:]}")
        else:
            if self.workload.command == "estimate":
                csv_text = self.csv.read_text(encoding="utf-8") if self.csv.is_file() else ""
                v = oracle.check_estimate(csv_text, proc.stdout, self.model, self.config, self.golden)
            else:
                v = oracle.check_expect(proc.stdout, self.model, self.config)
            problems = v.problems
            self.max_z = max(self.max_z, v.max_z)
            self.sigma = v.sigma if v.sigma is not None else self.sigma
            self.var_ratio = v.var_ratio if v.var_ratio is not None else self.var_ratio
            if counts is not False and not problems:
                if counts is None:
                    problems.append("no simulated batch was seen")
                else:
                    self.exact_law = oracle.path_law(self.model, v.lam)
                    problems += oracle.law_check(
                        counts["observed"], self.exact_law, counts["n_paths"]
                    )
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"FAIL {label} invocation {self.attempted}: {msg}", file=sys.stderr)
            return None
        return v

    def calibrate(self) -> float:
        """Wall seconds of one run of the calibration job."""
        proc = self.spawn([sys.executable, str(HERE / "calibrate.py")], "calibrate")
        if proc.code:
            sys.exit(f"error: calibration job failed (exit {proc.code}):\n{proc.stderr}")
        return proc.wall

    def cli(self):
        """One plain invocation: (process, verdict or None, set-up seconds or None)."""
        proc = self.spawn([sys.executable, str(HERE / "probe.py")] + self.cli_args, "cli")
        m = re.search(r"^ready (\S+) (\w+)$", proc.stderr, re.MULTILINE)
        setup = None
        if m:
            setup = float(m.group(1)) - proc.t_spawn
            self.mark_sources.add(m.group(2))
        return proc, self.judge(proc, "cli"), setup

    def traced(self):
        """One traced invocation: (process, trace record or None)."""
        result_path = self.work / "trace.json"
        result_path.unlink(missing_ok=True)
        proc = self.spawn(
            [sys.executable, "-X", "importtime", str(HERE / "probe.py"),
             "--trace", str(result_path)] + self.cli_args,
            "traced",
        )
        data = None
        if proc.code == 0 and result_path.is_file():
            data = json.loads(result_path.read_text(encoding="utf-8"))
        verdict = self.judge(proc, "traced", counts=data["counts"] if data else None)
        return proc, data if verdict is not None else None


def import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``-X importtime`` output."""
    found = {}
    for m in re.finditer(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", stderr, re.MULTILINE):
        found.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return {key: found.get(module, 0.0) for key, module in IMPORT_METRICS.items()}


def environment(bench, workload, seed) -> dict:
    import numpy
    import scipy

    import workloads

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() if git.returncode == 0 else commit
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "workload": workload.name,
        "n_paths": {name: w.n_paths for name, w in workloads.WORKLOADS.items()},
        "why": why.get(workload.name, ""),
        "client": "closed loop, 1 client",
    }


def run_untraced(runner, seconds):
    """Plain invocations for ``seconds``, with the calibration job before the
    first and after each; returns (wall, set-up, RSS, mean wall of the two
    calibration jobs around it) per success.

    One traced invocation comes first.  It byte-compiles the package, so no
    timed invocation pays for that, and it checks the path law: every
    invocation draws the same paths, so one batch speaks for all.
    """
    _, traced = runner.traced()
    samples = []
    before = runner.calibrate()
    deadline = time.monotonic() + seconds
    while True:
        proc, verdict, setup = runner.cli()
        after = runner.calibrate()
        if verdict is not None:
            samples.append((proc.wall, setup, proc.rss_mb, (before + after) / 2.0))
        before = after
        if time.monotonic() >= deadline and runner.attempted >= MIN_SAMPLES:
            break
    if traced is None:
        print("FAIL every invocation: the traced invocation failed, so the path "
              "law of the batch is unchecked", file=sys.stderr)
        runner.failed = runner.attempted
    if not samples:
        sys.exit("error: no invocation succeeded; nothing to measure")
    if not any(setup is not None for _, setup, _, _ in samples):
        sys.exit("error: no invocation marked the end of set-up (simulate_batch never ran)")
    return samples


def end_to_end(runner, samples, calibration_s=CALIBRATION_S) -> dict:
    """Medians over the invocations, in seconds of the reference host
    (``CALIBRATION_S``); paths/s and time to accuracy pair each invocation's
    wall time with its own set-up time."""
    sigma = runner.sigma if runner.sigma is not None else runner.workload.sigma_target
    cost = (sigma / runner.workload.sigma_target) ** 2
    walls = [w * calibration_s / c for w, _, _, c in samples]
    marked = [(w * calibration_s / c, s * calibration_s / c) for w, s, _, c in samples if s is not None]
    return {
        "wall_s": median(walls),
        "setup_s": median([s for _, s in marked]),
        "paths_per_s": runner.workload.n_paths / median([w - s for w, s in marked]),
        "peak_rss_mb": median([r for _, _, r, _ in samples]),
        "tta_s": median([s + (w - s) * cost for w, s in marked]),
    }


def run_traced(runner, seconds):
    """Traced and plain invocations, alternating; returns both lists."""
    traced, cli_walls = [], []
    deadline = time.monotonic() + seconds
    while True:
        proc, data = runner.traced()
        if data is not None:
            traced.append((proc, data))
        proc, verdict, _ = runner.cli()
        if verdict is not None:
            cli_walls.append(proc.wall)
        if time.monotonic() >= deadline and runner.attempted >= MIN_SAMPLES:
            break
    if not traced or not cli_walls:
        sys.exit("error: no traced or plain invocation succeeded; nothing to measure")
    return traced, cli_walls


def breakdown(proc, data) -> dict:
    """One traced invocation's wall time, split into interpreter start, the
    self time of every span, the benchmark's own batch counts and interpreter
    exit.  ``self:cli`` is the CLI's code outside every layer; whatever lies
    between the spans is ``unspanned``."""
    import tracing

    spans = data["spans"]
    row = {f"self:{k}": v for k, v in tracing.self_times(spans).items()}
    row.update({f"calls:{k}": v for k, v in tracing.call_counts(spans).items()})
    row["wall_s"] = proc.wall
    row["interp.start_s"] = data["t_main"] - proc.t_spawn
    row["probe.counts_s"] = data["t_end"] - data["t_counts"]
    row["interp.exit_s"] = proc.t_spawn + proc.wall - data["t_end"]
    row["unspanned_s"] = proc.wall - sum(
        v for k, v in row.items() if k.startswith("self:") or k in (
            "interp.start_s", "probe.counts_s", "interp.exit_s")
    )
    layers = sum(v for k, v in row.items() if k.startswith("self:") and k != f"self:{ROOT_SPAN}")
    row["trace.accounted_frac"] = (row["interp.start_s"] + layers) / proc.wall
    row.update(import_times(proc.stderr))
    counts = data["counts"]
    sim = row["self:jumpsim.simulate"]
    row["jumpsim.paths_per_s"] = counts["n_paths"] / sim
    row["jumpsim.jumps_per_s"] = counts["jumps"] / sim
    row["jumpsim.cpu_per_wall"] = counts["cpu_per_wall"]
    return row


def per_layer(runner, traced, cli_walls):
    """Per-layer metrics (medians over the traced invocations) and the
    median breakdown of one traced invocation."""
    rows = [breakdown(proc, data) for proc, data in traced]
    keys = sorted({k for row in rows for k in row})
    med = {k: median([row.get(k, 0.0) for row in rows]) for k in keys}

    counts = traced[-1][1]["counts"]
    obs, exact = counts["observed"], runner.exact_law
    m = {
        "interp.start_s": med["interp.start_s"],
        "interp.exit_s": med["interp.exit_s"],
        **{k: med[k] for k in IMPORT_METRICS},
        **{k: med.get(f"self:{span}", 0.0) for k, span in SPAN_METRICS.items()},
        "jumpsim.paths_per_s": med["jumpsim.paths_per_s"],
        "jumpsim.jumps_per_s": med["jumpsim.jumps_per_s"],
        "jumpsim.cpu_per_wall": med["jumpsim.cpu_per_wall"],
    }
    for key in ("jumps_per_path", "pos_frac", "neg_frac", "term_frac"):
        m[f"jumpsim.{key}"] = obs[key]
        m[f"jumpsim.{key}_exact"] = exact[key]
    m["jumpsim.useful_frac"] = 1.0 - obs["term_frac"]
    m["jumpsim.gather_bytes_per_jump"] = 8 * (2 * counts["p"] + 3)
    m["jumpsim.batch_bytes_per_path"] = counts["batch_bytes_per_path"]
    m["estimators.cancel_eff"] = counts["cancel_eff"]
    m["estimators.var_ratio_median"] = runner.var_ratio
    for kernel in ("mat_exp", "eig", "solve"):
        m[f"linalg.{kernel}_calls"] = med.get(f"calls:linalg.{kernel}", 0)
    # tracing costs the program this much; the probe's own batch counts are not part of it
    m["trace.overhead_s"] = med["wall_s"] - med["probe.counts_s"] - median(cli_walls)
    m["trace.accounted_frac"] = med["trace.accounted_frac"]
    return m, med, len(rows)


def print_layer_table(command, med, n_traced, cli_walls, overhead):
    """The traced wall time, part by part; the parts add up to it."""
    print(f"traced invocations: {n_traced}; traced wall time by part (median, s):")
    print(f"  {'interp.start':28s} {med['interp.start_s']:.4f}")
    layers = med["interp.start_s"]
    for key in sorted(k for k in med if k.startswith("self:") and k != f"self:{ROOT_SPAN}"):
        calls = med.get("calls:" + key[5:], 0)
        print(f"  {key[5:]:28s} {med[key]:.4f}  ({calls:g} calls)")
        layers += med[key]
    if command == "expect":
        both = med["self:estimators.beta"] + med["self:estimators.qbar"]
        print(f"  (estimators.expect_s = beta + qbar forms = {both:.4f})")
    print(f"  {'= interp.start + layers':28s} {layers:.4f}  "
          f"({layers / med['wall_s']:.1%} of traced wall)")
    print(f"  {'cli, in no layer':28s} {med.get(f'self:{ROOT_SPAN}', 0.0):.4f}")
    print(f"  {'between spans':28s} {med['unspanned_s']:.4f}")
    print(f"  {'probe batch counts':28s} {med['probe.counts_s']:.4f}")
    print(f"  {'interp.exit':28s} {med['interp.exit_s']:.4f}")
    print(f"traced wall {med['wall_s']:.4f} s; plain wall {median(cli_walls):.4f} s; "
          f"tracing overhead {overhead:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mejump" / "cli.py").is_file():
        print(f"error: no mejump source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    work = OUT_DIR / f"{workload.name}-seed{args.seed}"
    runner = Runner(workload, args.seed, work)
    env = environment(bench, workload, args.seed)
    print(f"workload {workload.name}: mejump {workload.command}, n_paths {workload.n_paths}, "
          f"seed {args.seed}, {args.seconds} s, closed loop with 1 client")
    print("env: " + json.dumps(env, sort_keys=True))

    raw = None
    if args.trace:
        traced, cli_walls = run_traced(runner, args.seconds)
        values, med, n_traced = per_layer(runner, traced, cli_walls)
        print_layer_table(workload.command, med, n_traced, cli_walls, values["trace.overhead_s"])
        spec = bench["per_layer"]
        spans = [
            dict(span, invocation=i, workload=workload.name, seed=args.seed, t_spawn=proc.t_spawn)
            for i, (proc, data) in enumerate(traced)
            for span in data["spans"]
        ]
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        samples = run_untraced(runner, args.seconds)
        values = end_to_end(runner, samples)
        spec = bench["end_to_end"]
        raw = end_to_end(runner, [(w, s, r, 1.0) for w, s, r, _ in samples], 1.0)
        if runner.mark_sources - {"stream"}:
            print("note: in some invocations no random stream was opened inside "
                  "simulate_batch; set-up ended at its entry there")
        print(f"samples: {len(samples)} invocations; on this host, unscaled: wall_s "
              f"{raw['wall_s']:.4f}, setup_s {raw['setup_s']:.4f}, calibration job "
              f"{median(c for *_, c in samples):.4f} s (reference {CALIBRATION_S} s); "
              f"qbar stderr {runner.sigma!r} (target {workload.sigma_target!r})")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    error_rate = runner.failed / runner.attempted
    print(f"{'error_rate':32s} {error_rate:.6g} fraction "
          f"({runner.failed} of {runner.attempted} invocations failed; "
          f"largest |z| against the oracle {runner.max_z:.2f})")
    record = {"env": env, "error_rate": error_rate, "metrics": metrics, "unscaled": raw}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

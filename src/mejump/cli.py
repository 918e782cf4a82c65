"""Command-line front door.

Subcommands: validate, split, tilt, estimate, expect, reproduce-example,
plus debug (summarizes a trace written by estimate --trace).
Exit codes: 0 success, 1 parse/usage error, 2 validation failure,
3 precondition failure (tilting rate / transience), 4 failed acceptance
checks in reproduce-example.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import medist
from .errors import (
    EigenConvergenceError,
    LambdaTooSmallError,
    NotADensityError,
    NotTransientError,
    PositiveDiagonalError,
    SingularMatrixError,
    UnstableTError,
    ZeroAlphaError,
)
from .estimators import mc_expectation_untilted
from .modelio import (
    ParseError,
    config_from_dict,
    read_json,
    read_model,
    render_estimate_csv,
    run_estimate,
    simulate_run,
    write_model,
    write_split_outputs,
    write_trace,
)
from .splitting import (
    build_generator,
    check_transience,
    exit_profile,
    resolve_lambda,
    sign_split,
)

_VALIDATION_ERRORS = (
    NotADensityError,
    UnstableTError,
    PositiveDiagonalError,
    ZeroAlphaError,
    SingularMatrixError,
    EigenConvergenceError,
)
_PRECONDITION_ERRORS = (LambdaTooSmallError, NotTransientError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # validation failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lambda(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"--lambda must be a number or 'auto', got {text!r}")


def _parse_grid(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"--grid must be min:max:bins, got {text!r}")
    try:
        return {"x_min": float(parts[0]), "x_max": float(parts[1]), "n_bins": int(parts[2])}
    except ValueError:
        raise ParseError(f"--grid must be min:max:bins with numeric fields, got {text!r}")


def _matrix_lines(name, M):
    body = np.array2string(np.asarray(M), precision=10, suppress_small=False)
    return [f"{name} ="] + ["  " + line for line in body.splitlines()]


def _load_run_config(args):
    raw = {}
    if getattr(args, "config", None):
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise ParseError(f"{args.config}: top level must be a JSON object")
    if getattr(args, "lam", None) is not None:
        raw["lambda"] = _parse_lambda(args.lam)
    if getattr(args, "paths", None) is not None:
        raw["n_paths"] = args.paths
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "chunk", None) is not None:
        raw["chunk"] = args.chunk
    if getattr(args, "workers", None) is not None:
        raw["workers"] = args.workers
    if getattr(args, "grid", None) is not None:
        raw["grid"] = _parse_grid(args.grid)
    if getattr(args, "estimator", None) is not None:
        raw["estimator"] = args.estimator
    return config_from_dict(raw)


def cmd_validate(args) -> int:
    params, name = read_model(args.model)
    report = medist.validate(params)
    print(f"model: {name or args.model} (p={params.p})")
    print(f"sigma0: {report.sigma0!r}")
    print(f"normalization: {report.normalization!r}")
    print(f"diag_nonpositive: {str(report.diag_nonpositive).lower()}")
    for msg in report.messages:
        print(f"note: {msg}")
    return 0


def cmd_split(args) -> int:
    params, name = read_model(args.model)
    medist.validate(params)
    split = sign_split(params.T, params.s)
    lam = resolve_lambda(split, _parse_lambda(args.lam))
    gen = build_generator(split, lam)
    profile = exit_profile(split, lam)
    transient, abscissa = check_transience(split, lam)
    print(f"model: {name or args.model} (p={params.p})")
    print(f"lambda0: {split.lambda0!r}")
    print(f"lambda: {lam!r}")
    for block in (
        _matrix_lines("T_plus", split.Tplus),
        _matrix_lines("T_minus", split.Tminus),
        _matrix_lines("s_plus", split.splus),
        _matrix_lines("s_minus", split.sminus),
        _matrix_lines("D(lambda)", gen.D),
        _matrix_lines("termination", gen.term),
        _matrix_lines("d", profile.d),
        _matrix_lines("q_plus", profile.qplus),
        _matrix_lines("q_minus", profile.qminus),
        _matrix_lines("q_bar(original)", profile.qbar_original),
    ):
        for line in block:
            print(line)
    print(f"transient: {str(transient).lower()} (doubled abscissa {abscissa!r})")
    if args.out:
        write_split_outputs(args.out, split, lam, gen.D)
        print(f"wrote CSV files with prefix {args.out}_")
    return 0


def cmd_tilt(args) -> int:
    params, name = read_model(args.model)
    medist.validate(params)
    lam_spec = _parse_lambda(args.lam)
    if lam_spec == "auto":
        lam = resolve_lambda(sign_split(params.T, params.s), "auto")
    else:
        lam = lam_spec
    tilted, norm = medist.tilt(params, lam)
    print(f"model: {name or args.model} (p={params.p})")
    print(f"lambda: {lam!r}")
    print(f"normalizer alpha (lambda I - T)^-1 s: {norm!r}")
    for block in (
        _matrix_lines("alpha'", tilted.alpha),
        _matrix_lines("T'", tilted.T),
        _matrix_lines("s'", tilted.s),
    ):
        for line in block:
            print(line)
    if args.out:
        write_model(tilted, args.out, name=f"{name or 'model'}-tilted-{lam:g}")
        print(f"wrote tilted model to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    params, name = read_model(args.model)
    cfg = _load_run_config(args)
    run = run_estimate(params, cfg, collect_trace=args.trace is not None)
    transient, abscissa = check_transience(run.split, run.lam)
    print(f"model: {name or args.model} (p={params.p})")
    print(
        f"lambda: {run.lam!r} (lambda0 {run.split.lambda0!r}, "
        f"doubled abscissa {abscissa!r})"
    )
    print(
        f"seed: {cfg.seed}  chunk: {cfg.chunk}  n_paths: {cfg.n_paths}  "
        f"workers: {cfg.workers}  estimator: {cfg.estimator}"
    )
    print(f"scale (w_total / normalizer): {run.scale!r}")
    csv_text = render_estimate_csv(run)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    if args.trace is not None:
        write_trace(args.trace, run.batch)
        print(f"wrote trace to {args.trace}")
    return 0


def cmd_expect(args) -> int:
    params, name = read_model(args.model)
    cfg = _load_run_config(args)
    if cfg.h is None:
        raise ParseError(
            'expect needs an integrand: config {"h": {"type": "exp-decay", "c": ...}}'
        )
    # an invalid model exits 2 before a non-convergent h exits 1, and both
    # before any path is simulated
    medist.validate(params)
    analytic = cfg.h.analytic_expectation(params)
    split, lam, init, profile, batch = simulate_run(params, cfg)
    # bound here, not in modelio: the benchmark probe wraps this estimator
    # only after modelio is imported
    est_b = mc_expectation_untilted(batch, cfg.h, lam, init.w_total, form="beta")
    est_q = mc_expectation_untilted(
        batch, cfg.h, lam, init.w_total, form="qbar", profile=profile
    )
    print(f"model: {name or args.model} (p={params.p})")
    print(f"h: type={cfg.h.kind} c={cfg.h.c!r} degree={cfg.h.degree}")
    print(f"lambda: {lam!r}  seed: {cfg.seed}  n_paths: {cfg.n_paths}")
    print(f"analytic value: {analytic!r}")
    print(f"beta form:  {est_b.value!r} +- {est_b.stderr!r}")
    print(f"qbar form:  {est_q.value!r} +- {est_q.stderr!r}")
    print(f"max |h(tau) e^(lambda tau)|: {est_b.max_abs_weight!r}")
    warning = cfg.h.variance_warning(lam, split.eta)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_debug(args) -> int:
    """Summarize a trace file written by estimate --trace."""
    try:
        with open(args.trace_file, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {args.trace_file}: {exc}")
    paths = {}
    current = None
    try:
        for ln, line in enumerate(lines, 1):
            if line.startswith("# path "):
                current = int(line[len("# path "):])
                paths[current] = []
                continue
            parts = line.split("\t")
            if len(parts) != 3 or current is None:
                raise ParseError(f"{args.trace_file}:{ln}: malformed trace line {line!r}")
            paths[current].append((float(parts[0]), parts[1], parts[2]))
    except ValueError as exc:  # a path number or time that does not parse
        raise ParseError(f"{args.trace_file}:{ln}: {exc}") from exc
    for k, rows in paths.items():
        if not rows:
            raise ParseError(f"{args.trace_file}: path {k} has no jump rows")
    print(f"paths: {len(paths)}")
    if paths:
        jumps = [len(v) for v in paths.values()]
        taus = [v[-1][0] for v in paths.values()]
        landings = {}
        for v in paths.values():
            landings[v[-1][2]] = landings.get(v[-1][2], 0) + 1
        print(f"total jumps: {sum(jumps)}  mean jumps/path: {sum(jumps)/len(jumps):.3f}")
        print(f"mean exit time: {sum(taus)/len(taus):.6f}  max: {max(taus):.6f}")
        for label in sorted(landings):
            print(f"landing {label}: {landings[label]}")
    return 0


def cmd_reproduce_example(args) -> int:
    # the acceptance module is the only one that loads scipy
    from . import acceptance

    n_paths = args.paths if args.paths is not None else 1_000_000
    seed = args.seed if args.seed is not None else 42
    lam = _parse_lambda(args.lam) if args.lam is not None else "auto"
    print(f"acceptance run: n_paths={n_paths} seed={seed} lambda={lam}")
    results = acceptance.run_all(n_paths=n_paths, seed=seed, lam=lam)
    print(acceptance.format_table(results))
    for r in results:
        if r.extra:
            print(f"-- criterion {r.cid} detail --")
            for line in r.extra:
                print(line)
    print(f"note: {acceptance.ERRATUM_NOTE}")
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}", file=sys.stderr)
        return 4
    print("all acceptance criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mejump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False, grid=False, out=False, trace=False, lam_default=None):
        p.add_argument("--lambda", dest="lam", default=lam_default,
                       help="tilting rate (number or 'auto')")
        if config:
            p.add_argument("--config", default=None, help="run-config JSON file")
            p.add_argument("--paths", type=int, default=None, help="number of paths")
            p.add_argument("--seed", type=int, default=None, help="random seed")
            p.add_argument("--chunk", type=int, default=None, help="paths per random stream")
            p.add_argument("--workers", type=int, default=None, help="worker threads")
        if grid:
            p.add_argument("--grid", default=None, help="histogram grid min:max:bins")
            p.add_argument("--estimator", choices=("beta", "qbar", "both"), default=None)
        if out:
            p.add_argument("--out", default=None, help="output path")
        if trace:
            p.add_argument("--trace", default=None, help="write per-jump trace (TSV)")

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="sign split and doubled generator")
    p.add_argument("model")
    add_common(p, out=True, lam_default="auto")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("tilt", help="exponentially tilted parameters")
    p.add_argument("model")
    add_common(p, out=True, lam_default="auto")
    p.set_defaults(func=cmd_tilt)

    p = sub.add_parser("estimate", help="simulate and estimate the tilted density")
    p.add_argument("model")
    add_common(p, config=True, grid=True, out=True, trace=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("expect", help="untilted expectation of a declared integrand")
    p.add_argument("model")
    add_common(p, config=True)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("reproduce-example", help="run the acceptance checks")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=cmd_reproduce_example)

    p = sub.add_parser("debug", help="summarize a per-jump trace file")
    p.add_argument("trace_file")
    p.set_defaults(func=cmd_debug)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("out", "trace"):
            if getattr(args, flag, None) == "":
                # an empty path would silently drop the output
                raise ParseError(f"--{flag} needs a file path, got an empty string")
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Subcommands: validate, split, tilt, estimate, expect, reproduce-example;
estimate --trace also prints a summary of the paths it traced.  split, tilt
and estimate claim every output before reading any input, and a run that
fails removes the files it created.
Exit codes: 0 success; 1 parse/usage error, unwritable output, an output
path that names the model, the --config file or another output, a path
count too large to allocate, or a value refused as a ValueError (a
non-finite or too-large rate, an overflowing bin weight, a bin width or
x_min too large to exponentiate (T - lam I) at, a non-convergent or
non-finite h, an h degree whose exact value overflows, non-finite weights);
2 validation failure; 3 precondition failure (tilting rate / transience);
4 failed acceptance checks in reproduce-example.

The heap this module's imports leave behind (about 10^5 objects of numpy,
the stdlib and the package) lives until the process exits, so it is frozen
once, right after the imports: no cyclic collection walks it again, the
interpreter's final one at exit included, which would otherwise cost about
20 ms of every run.  The freeze is here, not in ``mejump/__init__.py``, so
that importing the library leaves the caller's collector alone, and not in
``main``, which tests call many times in one process: a freeze per call
would pin each call's cyclic garbage for good.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

import numpy as np

from . import medist
from .errors import LambdaTooSmallError, MEJumpError, NotTransientError
from .estimators import mc_expectation_untilted
from .modelio import (
    ParseError,
    config_from_dict,
    open_output,
    plan,
    read_json,
    read_model,
    render_estimate_csv,
    run_estimate,
    simulate,
    split_paths,
    trace_summary,
    write_model,
    write_split_outputs,
    write_trace,
)
from .splitting import build_generator, resolve_lambda, sign_split

gc.freeze()


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


def _print_matrix(name, M):
    body = np.array2string(np.asarray(M), precision=10, suppress_small=False)
    print("\n".join([f"{name} ="] + ["  " + line for line in body.splitlines()]))


#: Each option's argparse dest: its flag, the run-config field it sets (None
#: for none), the parser of its text and its help.  argparse reads an
#: ``int`` flag itself, so a malformed one is a usage error.
_FLAGS = {
    "lam": ("--lambda", "lambda", _parse_lambda, "tilting rate (number or 'auto')"),
    "config": ("--config", None, str, "run-config JSON file"),
    "paths": ("--paths", "n_paths", int, "number of paths"),
    "seed": ("--seed", "seed", int, "random seed"),
    "chunk": ("--chunk", "chunk", int, "paths per random stream"),
    "workers": ("--workers", "workers", int, "worker threads"),
    "grid": ("--grid", "grid", _parse_grid, "histogram grid min:max:bins"),
    "estimator": ("--estimator", "estimator", str, "beta, qbar or both"),
    "out": ("--out", None, str, "output path"),
    "trace": ("--trace", None, str, "write per-jump trace (TSV)"),
}


def _load_run_config(args):
    raw = {}
    if getattr(args, "config", None):
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise ParseError(f"{args.config}: top level must be a JSON object")
    for dest, (_, field, parse, _) in _FLAGS.items():
        if field is not None and getattr(args, dest, None) is not None:
            raw[field] = parse(getattr(args, dest))
    return config_from_dict(raw)


@contextlib.contextmanager
def _claimed_outputs(args, outputs):
    """The one rule for the files a command writes, ``outputs`` being its
    ``(option, path)`` pairs (a None path is skipped), entered before any
    input is read.  A path that names the model, the ``--config`` file or
    another output is refused: the run would replace an input with its
    result, or one output with another after both were reported written.
    Every path is then opened to append, so an unwritable one is refused
    before any work; an existing file keeps its bytes until it is written.
    If the work fails, the files this call created are removed."""
    named = {os.path.realpath(args.model): "the model"}
    if getattr(args, "config", None):
        named.setdefault(os.path.realpath(args.config), "--config")
    outputs = [(option, path) for option, path in outputs if path is not None]
    for option, path in outputs:
        real = os.path.realpath(path)
        if real in named:
            raise ParseError(f"{named[real]} and {option} name the same file, {path!r}")
        named[real] = option
    created = []
    try:
        for _, path in outputs:
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


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
    outputs = [("--out", path) for path in split_paths(args.out)] if args.out else []
    with _claimed_outputs(args, outputs):
        params, name = read_model(args.model)
        run_plan = plan(params, _parse_lambda(args.lam))
        split, profile = run_plan.split, run_plan.profile
        gen = build_generator(split, run_plan.lam)
        if args.out:
            write_split_outputs(args.out, run_plan, gen.D)
        print(f"model: {name or args.model} (p={params.p})")
        print(f"lambda0: {split.lambda0!r}")
        print(f"lambda: {run_plan.lam!r}")
        _print_matrix("T_plus", split.Tplus)
        _print_matrix("T_minus", split.Tminus)
        _print_matrix("s_plus", split.splus)
        _print_matrix("s_minus", split.sminus)
        _print_matrix("D(lambda)", gen.D)
        _print_matrix("termination", gen.term)
        _print_matrix("d", profile.d)
        _print_matrix("q_plus", profile.qplus)
        _print_matrix("q_minus", profile.qminus)
        _print_matrix("q_bar(original)", profile.qbar_original)
        print(
            f"transient: {str(run_plan.transient).lower()} "
            f"(doubled abscissa {run_plan.abscissa!r})"
        )
        if args.out:
            print(f"wrote CSV files with prefix {args.out}_")
    return 0


def cmd_tilt(args) -> int:
    with _claimed_outputs(args, [("--out", args.out)]):
        params, name = read_model(args.model)
        medist.validate(params)
        lam_spec = _parse_lambda(args.lam)
        if lam_spec == "auto":
            lam = resolve_lambda(sign_split(params.T, params.s), "auto")
        else:
            lam = lam_spec
        tilted, norm = medist.tilt(params, lam)
        if args.out:
            write_model(tilted, args.out, name=f"{name or 'model'}-tilted-{lam:g}")
        print(f"model: {name or args.model} (p={params.p})")
        print(f"lambda: {lam!r}")
        print(f"normalizer alpha (lambda I - T)^-1 s: {norm!r}")
        _print_matrix("alpha'", tilted.alpha)
        _print_matrix("T'", tilted.T)
        _print_matrix("s'", tilted.s)
        if args.out:
            print(f"wrote tilted model to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    with _claimed_outputs(args, [("--out", args.out), ("--trace", args.trace)]):
        params, name = read_model(args.model)
        cfg = _load_run_config(args)
        run = run_estimate(plan(params, cfg.lam), cfg, collect_trace=args.trace is not None)
        print(f"model: {name or args.model} (p={params.p})")
        print(
            f"lambda: {run.plan.lam!r} (lambda0 {run.plan.split.lambda0!r}, "
            f"doubled abscissa {run.plan.abscissa!r})"
        )
        print(
            f"seed: {cfg.seed}  chunk: {cfg.chunk}  n_paths: {cfg.n_paths}  "
            f"workers: {cfg.workers}  estimator: {cfg.estimator}"
        )
        print(f"scale (w_total / normalizer): {run.scale!r}")
        csv_text = render_estimate_csv(run)
        if args.out is not None:
            with open_output(args.out) as fh:
                fh.write(csv_text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(csv_text)
        if args.trace is not None:
            write_trace(args.trace, run.batch)
            print(f"wrote trace to {args.trace}")
            print(trace_summary(run.batch))
    return 0


def cmd_expect(args) -> int:
    params, name = read_model(args.model)
    cfg = _load_run_config(args)
    if cfg.h is None:
        raise ParseError(
            'expect needs an integrand: config {"h": {"type": "exp-decay", "c": ...}}'
        )
    # a model or rate refusal (exit 2 or 3) comes before a non-convergent h
    # (exit 1), and all of them before any path is simulated
    run_plan = plan(params, cfg.lam)
    lam, w_total = run_plan.lam, run_plan.init.w_total
    analytic = cfg.h.analytic_expectation(params)
    batch = simulate(run_plan, cfg)
    # bound here, not in modelio: the benchmark probe wraps this estimator
    # only after modelio is imported
    est_b = mc_expectation_untilted(batch, cfg.h, lam, w_total, form="beta")
    est_q = mc_expectation_untilted(
        batch, cfg.h, lam, w_total, form="qbar", profile=run_plan.profile
    )
    print(f"model: {name or args.model} (p={params.p})")
    print(f"h: type={cfg.h.kind} c={cfg.h.c!r} degree={cfg.h.degree}")
    print(f"lambda: {lam!r}  seed: {cfg.seed}  n_paths: {cfg.n_paths}")
    print(f"analytic value: {analytic!r}")
    print(f"beta form:  {est_b.value!r} +- {est_b.stderr!r}")
    print(f"qbar form:  {est_q.value!r} +- {est_q.stderr!r}")
    print(f"max |h(tau) e^(lambda tau)|: {est_b.max_abs_weight!r}")
    warning = cfg.h.variance_warning(lam, run_plan.split.eta)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_reproduce_example(args) -> int:
    from . import acceptance

    cfg = _load_run_config(args)
    print(f"acceptance run: n_paths={cfg.n_paths} seed={cfg.seed} lambda={cfg.lam}")
    results = acceptance.run_all(n_paths=cfg.n_paths, seed=cfg.seed, lam=cfg.lam)
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

    def add_options(p, dests, **defaults):
        for dest in dests.split():
            flag, _, parse, text = _FLAGS[dest]
            p.add_argument(flag, dest=dest, type=int if parse is int else None,
                           default=defaults.get(dest), help=text)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="sign split and doubled generator")
    p.add_argument("model")
    add_options(p, "lam out", lam="auto")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("tilt", help="exponentially tilted parameters")
    p.add_argument("model")
    add_options(p, "lam out", lam="auto")
    p.set_defaults(func=cmd_tilt)

    p = sub.add_parser("estimate", help="simulate and estimate the tilted density")
    p.add_argument("model")
    add_options(p, "lam config paths seed chunk workers grid estimator out trace")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("expect", help="untilted expectation of a declared integrand")
    p.add_argument("model")
    add_options(p, "lam config paths seed chunk workers")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("reproduce-example", help="run the acceptance checks")
    add_options(p, "paths seed lam", paths=1_000_000)
    p.set_defaults(func=cmd_reproduce_example)

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
    except (LambdaTooSmallError, NotTransientError) as exc:
        error, code = exc, 3
    except MEJumpError as exc:
        error, code = exc, 2
    except (ParseError, ValueError, OSError, MemoryError) as exc:
        # an unreadable input is a ParseError, so an OSError is an unwritable
        # output; numpy's MemoryError names the allocation it could not make
        error, code = exc, 1
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

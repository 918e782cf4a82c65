"""The ``mejump`` command, run as a user runs it, with hooks for the benchmark.

    python3 probe.py ARGS...                       # plain, with a set-up mark
    python3 -X importtime probe.py --trace OUT ARGS...   # traced

runs ``mejump ARGS...`` through the package's console entry point
``mejump.cli:main`` in this process.  Before ``mejump.modelio`` and
``mejump.cli`` are imported, the probe wraps some of the package's public
functions from outside; those modules then bind the wrappers through their
``from .x import f``, and the other modules call the ``linalg`` kernels
through the module object.  The package itself is not changed.

Always: the first call of ``RngStream.generator`` inside ``simulate_batch``
(the first random stream opened, after the jump tables are compiled) marks
the end of set-up, when the first path can be drawn.  If no stream is ever
opened there, the entry of ``simulate_batch`` is the mark.  At exit the probe
writes ``ready <time.monotonic()> <stream|simulate>`` to stderr.

With ``--trace OUT``, every call of the functions in ``LAYERS`` is recorded as
a span (``tracing.Tracer``): ``import.cli`` around the import of the CLI,
``cli`` around ``main``, and one span per wrapped call.  After ``main`` has
returned, the probe counts over the simulated batch and writes OUT: the
spans, its own start and end times and those counts.
"""

import sys
import time

T_MAIN = time.monotonic()

#: (module of ``mejump``, attribute, span name) of every call a traced run
#: records.  Wrapped in this order: the modules of the package core first,
#: then ``modelio``, which binds core functions when it is first imported.
LAYERS = [
    ("linalg", "mat_exp", "linalg.mat_exp"),
    ("linalg", "eigenvalues", "linalg.eig"),
    ("linalg", "solve_linear", "linalg.solve"),
    ("medist", "validate", "medist.validate"),
    ("medist", "laplace_transform", "medist.laplace"),
    ("splitting", "sign_split", "splitting.sign_split"),
    ("splitting", "resolve_lambda", "splitting.resolve_lambda"),
    ("splitting", "initial_split", "splitting.initial_split"),
    ("splitting", "check_transience", "splitting.check_transience"),
    ("splitting", "exit_profile", "splitting.exit_profile"),
    ("jumpsim", "JumpChain", "jumpsim.compile"),
    ("estimators", "tilted_bin_averages", "estimators.oracle"),
    ("estimators", "mc_density_beta", "estimators.beta"),
    ("estimators", "mc_density_qbar", "estimators.qbar"),
    ("modelio", "read_model", "modelio.read_model"),
    ("modelio", "config_from_dict", "modelio.read_config"),
    ("modelio", "run_estimate", "modelio.run_estimate"),
    ("modelio", "render_estimate_csv", "modelio.render_csv"),
]

_marks = {}
_batches = []


def _mark(key):
    _marks.setdefault(key, time.monotonic())


def _hook_simulate(jumpsim, tracer):
    """Wrap ``simulate_batch`` (set-up mark, span, CPU share, batch) and
    ``RngStream.generator`` (set-up mark)."""
    simulate = jumpsim.simulate_batch
    open_stream = jumpsim.RngStream.generator

    def marked_stream(self):
        _mark("stream")
        return open_stream(self)

    def marked_simulate(*args, **kwargs):
        _mark("simulate")
        if tracer is None:
            return simulate(*args, **kwargs)
        with tracer.span("jumpsim.simulate") as span:
            cpu0 = time.process_time()
            batch = simulate(*args, **kwargs)
            cpu = time.process_time() - cpu0
        _batches.append((batch, cpu / (span["end"] - span["start"])))
        return batch

    jumpsim.RngStream.generator = marked_stream
    jumpsim.simulate_batch = marked_simulate


def _hook_layers(tracer):
    import importlib

    for module, attr, name in LAYERS:
        mod = importlib.import_module(f"mejump.{module}")
        if hasattr(mod, attr):
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    from mejump import estimators

    expectation = estimators.mc_expectation_untilted

    def traced_expectation(*args, **kwargs):
        # the two forms of ``expect`` are the beta and qbar estimators
        with tracer.span(f"estimators.{kwargs.get('form', 'expect')}"):
            return expectation(*args, **kwargs)

    estimators.mc_expectation_untilted = traced_expectation
    estimators.HSpec.analytic_expectation = tracer.wrap(
        "estimators.oracle", estimators.HSpec.analytic_expectation
    )


def batch_counts(batch, cpu_per_wall) -> dict:
    """Counts over one simulated batch; landing codes 0, 1, 2 are the
    positive and negative absorbing states and termination."""
    import numpy as np

    n = len(batch.tau)
    sign = batch.sign.astype(float)
    columns = (batch.tau, batch.pre_exit, batch.landing, batch.sign, batch.n_jumps)
    return {
        "p": int(batch.p),
        "n_paths": n,
        "jumps": int(batch.n_jumps.sum(dtype=np.int64)),
        "cpu_per_wall": cpu_per_wall,
        "observed": {
            "jumps_per_path": float(batch.n_jumps.mean()),
            "pos_frac": np.count_nonzero(batch.landing == 0) / n,
            "neg_frac": np.count_nonzero(batch.landing == 1) / n,
            "term_frac": np.count_nonzero(batch.landing == 2) / n,
        },
        "cancel_eff": float(sign.mean() ** 2 / np.mean(sign * sign)),
        "batch_bytes_per_path": sum(c.itemsize for c in columns),
    }


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
    code = 1
    try:
        if tracer is None:
            import mejump.jumpsim

            _hook_simulate(mejump.jumpsim, None)
            import mejump.cli

            code = mejump.cli.main(argv)
        else:
            with tracer.span("import.cli"):
                import mejump.jumpsim

                _hook_simulate(mejump.jumpsim, tracer)
                _hook_layers(tracer)
                import mejump.cli
            with tracer.span("cli"):
                code = mejump.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        source = "stream" if "stream" in _marks else "simulate"
        if source in _marks:
            print(f"ready {_marks[source]!r} {source}", file=sys.stderr, flush=True)
    if tracer is not None and code == 0:
        import json

        t_counts = time.monotonic()
        counts = batch_counts(*_batches[-1]) if _batches else None
        result = {
            "t_main": T_MAIN,
            "t_counts": t_counts,
            "t_end": time.monotonic(),
            "spans": tracer.spans,
            "counts": counts,
        }
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Generated model and config files, and generated ``reproduce-example``
flags, run through the CLI in this process.

Whatever the files hold, a command exits 0, 1, 2 or 3; a failure prints one
``error:`` line and no traceback, and leaves no output file behind.
``reproduce-example`` may also exit 4, when an acceptance criterion fails,
as it may at a few hundred paths.  The runs are kept small: at most 1000
paths on at most two workers, and h degrees from a short list, since a
degree between 10^3 and 10^5 costs seconds of resolvent solves.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.random import default_rng

from mejump import cli
from mejump.models import exponential_model, random_me_model, reference_model

HUGE = 10**400

NUMBERS = st.sampled_from(
    [0, 1, 2, -1, 3, 0.5, -0.0, 1e300, -1e300, 1e-320, math.nan, math.inf, -math.inf,
     HUGE, -HUGE]
)

#: Nested JSON of any shape: what a field holds when it holds the wrong thing.
JUNK = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)

#: Models the mutations start from: the reference model, an exponential, a
#: model whose doubled chain is not transient at rate 0, and random models on
#: 4 and 7 states.
MODELS = [
    *({"alpha": m.alpha.tolist(), "T": m.T.tolist(), "s": m.s.tolist(), "name": name}
      for m, name in ((reference_model(), "reference"), (exponential_model(1.0), "exp"))),
    {"alpha": [0, 0, 1], "T": [[-1, -1, 0], [1, -1, 0], [0, 0, -1]], "s": [0, 0, 1]},
    *({"alpha": m.alpha.tolist(), "T": m.T.tolist(), "s": m.s.tolist()}
      for m in (random_me_model(p, default_rng(p)) for p in (4, 7))),
]

#: A config that runs, and for each field the values a mutation may put there.
CONFIG = {
    "lambda": "auto", "n_paths": 1000, "seed": 1, "chunk": 300, "workers": 2,
    "grid": {"x_min": 0.0, "x_max": 4.0, "n_bins": 8}, "estimator": "both",
    "h": {"type": "exp-decay", "c": 2.0},
}
FIELD_VALUES = {
    "lambda": st.sampled_from(["auto", "x"]) | NUMBERS,
    # 10^21 and HUGE are refused before any allocation; a count numpy would
    # try to allocate, such as 10^12, must never be drawn
    "n_paths": st.sampled_from([1, 10, 1000, 0, -5, 2.5, 1e3, "10", 10**21, HUGE]),
    "seed": st.sampled_from([0, 1, -1, HUGE, 2.5, "x"]),
    "chunk": st.sampled_from([1, 7, 300, 65536, 0, -1, HUGE]),
    "workers": st.sampled_from([1, 2, 0, -1, 1.0]),
    "x_min": NUMBERS,
    "x_max": NUMBERS,
    "n_bins": st.sampled_from([0, 1, 4, 8, -1, 2.5, HUGE]),
    "estimator": st.sampled_from(["beta", "qbar", "both", "x", 1]),
    "type": st.sampled_from(["exp-decay", "poly-exp-decay", "x"]),
    "c": NUMBERS,
    "degree": st.sampled_from([0, 1, 2, 50, 100_001, HUGE, -1, 2.5]),
}

#: The nested fields, by the field that holds them.
OWNER = {"x_min": "grid", "x_max": "grid", "n_bins": "grid", "type": "h", "c": "h", "degree": "h"}

CLI_LAMBDAS = st.sampled_from(["auto", "0", "1", "2", "3", "1e300", "-1", "nan", "inf", "x"])


@st.composite
def models(draw):
    """A JSON model: one of ``MODELS`` with, more often than not, none of
    its fields or entries replaced, dropped, emptied or cut short, else up to
    three; or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    model = copy.deepcopy(draw(st.sampled_from(MODELS)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        field = draw(st.sampled_from(["alpha", "T", "s", "name", "extra"]))
        kind = draw(st.sampled_from(["entry", "junk", "drop", "empty", "short"]))
        value = model.get(field)
        if kind == "entry" and isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if isinstance(value[i], list) and value[i]:
                value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(NUMBERS)
            else:
                value[i] = draw(NUMBERS)
        elif kind == "junk":
            model[field] = draw(JUNK)
        elif kind == "drop":
            model.pop(field, None)
        elif kind == "empty":
            model[field] = []
        elif kind == "short" and isinstance(value, list):
            model[field] = value[:-1]
    return model


@st.composite
def configs(draw):
    """A JSON run config: ``CONFIG`` with up to three fields, nested ones
    included, set from ``FIELD_VALUES``, replaced by junk, dropped or joined
    by an unknown field, or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    config = copy.deepcopy(CONFIG)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        field = draw(st.sampled_from(sorted(FIELD_VALUES)))
        owner = config.get(OWNER[field]) if field in OWNER else config
        if not isinstance(owner, dict):
            continue
        kind = draw(st.sampled_from(["value", "value", "value", "junk", "drop", "unknown"]))
        if kind == "value":
            owner[field] = draw(FIELD_VALUES[field])
        elif kind == "junk":
            owner[draw(st.sampled_from([field, "grid", "h"]))] = draw(JUNK)
        elif kind == "drop":
            owner.pop(field, None)
        else:
            owner[draw(st.text(max_size=4))] = draw(JUNK)
    return config


@st.composite
def invocations(draw):
    """A command, its input files by name and its other arguments, each file
    name in the run's directory ``{dir}``."""
    command = draw(st.sampled_from(["validate", "split", "tilt", "estimate", "expect"]))
    inputs = {"model.json": draw(models())}
    args = []
    if command in ("split", "tilt"):
        args += ["--lambda", draw(CLI_LAMBDAS)]
    if command in ("estimate", "expect"):
        inputs["cfg.json"] = draw(configs())
        args += ["--config", "{dir}/cfg.json"]
    if command in ("split", "tilt", "estimate") and draw(st.booleans()):
        args += ["--out", {"split": "{dir}/out", "tilt": "{dir}/out.json",
                           "estimate": "{dir}/out.csv"}[command]]
    if command == "estimate" and draw(st.booleans()):
        args += ["--trace", "{dir}/trace.tsv"]
    return command, inputs, args


def _run(command, model, rate, *args):
    """An invocation of ``command`` on ``MODELS[model]`` with ``CONFIG`` at ``rate``."""
    config = dict(CONFIG, **{"lambda": rate})
    return command, {"model.json": MODELS[model], "cfg.json": config}, [
        "--config", "{dir}/cfg.json", *args,
    ]


@settings(
    derandomize=True, database=None, deadline=None, max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocation=invocations())
# the rate refusals: below lambda_0, no visible landing, not transient
@example(invocation=_run("estimate", 0, 1, "--out", "{dir}/out.csv", "--trace", "{dir}/t.tsv"))
@example(invocation=_run("estimate", 0, 1e300, "--out", "{dir}/out.csv"))
@example(invocation=_run("estimate", 2, 0, "--out", "{dir}/out.csv"))
@example(invocation=_run("expect", 2, 0))
def test_generated_inputs_exit_cleanly(invocation):
    command, inputs, args = invocation
    with tempfile.TemporaryDirectory() as tmp:
        here = pathlib.Path(tmp)
        for name, doc in inputs.items():
            # NaN and Infinity tokens, -0.0 and integers past the float range
            (here / name).write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(here / "model.json"), *(arg.format(dir=tmp) for arg in args)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert [line for line in lines if "error:" in line] == lines[-1:], lines
            assert lines[-1].startswith("error: ") and "Traceback" not in err.getvalue()
            assert sorted(path.name for path in here.iterdir()) == sorted(inputs)


#: ``reproduce-example``'s flags: path counts it runs quickly or refuses, and
#: never one it would try to allocate; seeds and rates it runs or refuses.
REPRODUCE_FLAGS = st.tuples(
    st.sampled_from(["1", "2", "10", "300", "1000", "0", "-1", str(10**21)]),
    st.sampled_from(["0", "42", str(2**64), "-1", "-3"]),
    st.sampled_from(["auto", "nan", "inf", "-0.0", "1", "1e300"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(flags=REPRODUCE_FLAGS)
@example(flags=("1000", "42", "auto"))
def test_generated_reproduce_example_flags_exit_cleanly(flags):
    paths, seed, rate = flags
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reproduce-example", "--paths", paths, "--seed", seed, "--lambda", rate])
    assert code in (0, 1, 2, 3, 4), err.getvalue()
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    errors = [line for line in lines if "error:" in line]
    if code in (1, 2, 3):
        assert errors == lines[-1:] and lines[-1].startswith("error: "), lines
    else:
        assert errors == [], lines

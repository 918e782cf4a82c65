import ast
import importlib.util
import pathlib

import mejump


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so package checks must raise
    package = pathlib.Path(mejump.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_level_scipy_import_in_package():
    # the linalg kernel and criterion 4's quadrature are numpy: no scipy
    # import anywhere in the package, function bodies included
    package = pathlib.Path(mejump.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_probe_layers_resolve():
    # benchmarks/probe.py skips a layer it cannot find, so a renamed function
    # would drop its span from a traced run without any error
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "probe.py"
    spec = importlib.util.spec_from_file_location("probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in probe.LAYERS
        if not hasattr(importlib.import_module(f"mejump.{module}"), attr)
    ]
    assert missing == []
    # hooked by the probe outside LAYERS
    from mejump import estimators, jumpsim

    for owner, attr in (
        (jumpsim, "simulate_batch"),
        (jumpsim.RngStream, "generator"),
        (estimators, "mc_expectation_untilted"),
        (estimators.HSpec, "analytic_expectation"),
    ):
        assert callable(getattr(owner, attr, None)), attr


def test_rate_refusals_have_one_home():
    # splitting.admit_rate is the one gate on a simulation rate; medist's
    # laplace_transform guards the domain of the transform itself
    package = pathlib.Path(mejump.__file__).parent
    raised = {"NotTransientError": set(), "LambdaTooSmallError": set()}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(call, "id", getattr(call, "attr", None))
                if name in raised:
                    raised[name].add(path.name)
    assert raised == {
        "NotTransientError": {"splitting.py"},
        "LambdaTooSmallError": {"medist.py", "splitting.py"},
    }


def test_arrays_are_frozen_in_one_place():
    # records.Record makes every array a record holds read-only once the
    # record is built, so no other module freezes an array by hand
    package = pathlib.Path(mejump.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for target in getattr(node, "targets", ()):
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and getattr(target.value, "attr", None) == "flags"
                ):
                    found.add(path.name)
    assert found == {"records.py"}


def functions_where(match):
    """``module.function`` (``module.Class.method``) of every package
    function whose own body holds a node that ``match`` accepts."""
    package = pathlib.Path(mejump.__file__).parent
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def callers(name):
    """Every package function whose body calls ``name``, as a plain or
    attribute call."""
    return functions_where(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def test_each_run_derives_its_chain_once():
    # one guide table per chain, compiled from the generator the rate gate
    # returns, and a run estimates the plan its caller made
    assert callers("_guide_table") == {"jumpsim.JumpChain.__init__"}
    # the chain hands the table each cell's answer, so one table is built
    assert callers("GuideTable") == {"jumpsim._guide_table"}
    assert callers("admit_rate") == {"jumpsim.JumpChain.__init__"}
    assert "modelio.run_estimate" not in callers("plan")
    assert "modelio.run_estimate" in callers("simulate")


def test_one_function_builds_the_doubled_chain():
    # splitting.build_generator derives every row of the doubled chain at a
    # rate; exit_profile is the same function, under the name plan calls,
    # and the only build of a run: the gate and the simulator take the
    # plan's record, not a split and a rate
    from mejump import jumpsim, splitting

    assert splitting.exit_profile is splitting.build_generator
    assert not hasattr(splitting, "_rows") and not hasattr(splitting, "ExitProfile")
    assert callers("DoubledGenerator") == {"splitting.build_generator"}
    assert callers("exit_profile") == {"modelio.plan"}
    assert callers("build_generator") == set()
    assert not hasattr(jumpsim, "SignSplit")


def strings(node):
    """Every string constant under ``node``, the literal parts of f-strings
    included."""
    return [
        n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


#: The refusals of a run shape, each message's literal start.
RUN_SHAPE_MESSAGES = (
    "n_paths must be positive",
    "n_paths must be at most",
    "seed must be non-negative",
    "chunk must be positive",
    "workers must be positive",
    "workers must be at most",
)


def raising_modules(messages):
    """Each message's literal start, mapped to the package modules that raise
    an exception whose text starts with it."""
    package = pathlib.Path(mejump.__file__).parent
    raised = {message: set() for message in messages}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for text in strings(node.exc):
                    for message in messages:
                        if text.startswith(message):
                            raised[message].add(path.name)
    return raised


def test_run_shape_refusals_have_one_home():
    # jumpsim.check_run_shape refuses a run shape for simulate_batch and for
    # every RunConfig, so the two cannot drift apart
    assert raising_modules(RUN_SHAPE_MESSAGES) == {
        message: {"jumpsim.py"} for message in RUN_SHAPE_MESSAGES
    }


def test_trace_format_has_one_home():
    # modelio.write_trace writes the trace; nothing reads it back, and
    # estimate --trace summarizes the batch, not the file
    assert functions_where(
        lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "# path " in node.value
    ) == {"modelio.write_trace"}


def test_resolvent_and_doubled_laws_have_one_home():
    # medist.resolvent_moment is the one resolvent solve; the doubled initial
    # law and qbar are built by the records that hold their halves
    assert callers("solve_linear") == {"medist.resolvent_moment"}
    package = pathlib.Path(mejump.__file__).parent
    halves = {"alphahat_plus", "alphahat_minus"}
    found = {
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in halves
    }
    assert found == {"splitting.py"}


def opens_for_reading(node):
    """Whether ``node`` is an ``open()`` call without a write or append mode."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else None
    mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
    return not (isinstance(mode, ast.Constant) and mode.value in ("w", "a"))


def test_input_files_are_read_in_one_place():
    # modelio.read_input opens every input file and refuses, by name, one
    # that cannot be read or is not UTF-8; every open() writes
    assert callers("read_text") == {"modelio.read_input"}
    assert functions_where(opens_for_reading) == set()
    assert functions_where(
        lambda node: isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(getattr(n, "id", None) == "UnicodeDecodeError" for n in ast.walk(node.type))
    ) == {"modelio.read_input"}


def opens_for_writing(node):
    """Whether ``node`` is an ``open()`` call with a write or append mode."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "open"
        and not opens_for_reading(node)
    )


def test_output_files_are_opened_in_one_place():
    # modelio.open_output opens every output file, UTF-8 with LF endings;
    # the CLI claims its outputs by opening them to append, and writes nothing
    assert functions_where(opens_for_writing) == {"modelio.open_output", "cli._claimed_outputs"}
    assert callers("write_text") == set()
    assert callers("write_bytes") == set()


def test_output_rule_has_one_home():
    # cli._claimed_outputs refuses an output naming an input or another
    # output, claims every output and removes the files a failed run created,
    # for each command that writes a file; modelio._csv joins every CSV row
    assert functions_where(
        lambda node: isinstance(node, ast.Raise)
        and any("name the same file" in text for text in strings(node))
    ) == {"cli._claimed_outputs"}
    assert callers("_claimed_outputs") == {"cli.cmd_split", "cli.cmd_tilt", "cli.cmd_estimate"}
    assert functions_where(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "join"
        and getattr(node.value, "value", None) == ","
    ) == {"modelio._csv"}


def test_split_file_names_have_one_home():
    # modelio.split_paths names the files split --out PREFIX writes, for the
    # writer and for the claim; criterion 13 names its own temporary CSVs
    assert functions_where(
        lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.endswith(".csv")
    ) == {"modelio.split_paths", "acceptance.criterion_13"}
    assert callers("split_paths") == {"cli.cmd_split", "modelio.write_split_outputs"}


def test_estimator_choice_has_one_home():
    # RunConfig refuses an estimator, render_estimate_csv alone acts on it
    # and the estimate command echoes it; argparse checks no choice
    assert functions_where(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "estimator"
    ) == {"modelio.RunConfig.__post_init__", "modelio.render_estimate_csv", "cli.cmd_estimate"}
    assert raising_modules(("estimator must be",)) == {"estimator must be": {"modelio.py"}}
    assert functions_where(
        lambda node: isinstance(node, ast.keyword) and node.arg == "choices"
    ) == set()


def test_evaluation_points_and_exponential_refusal_have_one_home():
    # linalg.as_points refuses evaluation points for the density and the
    # doubled recovery; linalg.mat_exp alone sums an absolute matrix into a
    # 1-norm to refuse an exponential, which estimators._exp_at restates
    messages = ("x must be a scalar or 1-d array", "x must be nonnegative")
    assert raising_modules(messages) == {message: {"linalg.py"} for message in messages}
    assert functions_where(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "sum"
        and isinstance(node.func.value, ast.Call)
        and getattr(node.func.value.func, "attr", None) == "abs"
    ) == {"linalg.mat_exp"}


def test_doubled_abscissa_has_one_home():
    # splitting.check_transience computes eta - lam; RunPlan reads it there
    assert functions_where(
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and getattr(node.left, "attr", None) == "eta"
    ) == {"splitting.check_transience"}


def writes_to(node, name):
    """Whether ``node`` assigns into an array named ``name`` (a plain name or
    an attribute), by subscript assignment or as an ``out=`` argument."""
    def named(target):
        if isinstance(target, ast.Subscript):
            target = target.value
        return getattr(target, "id", getattr(target, "attr", None)) == name

    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Subscript) and named(t) for t in targets)
    if isinstance(node, ast.Call):
        return any(k.arg == "out" and named(k.value) for k in node.keywords)
    return False


def test_exits_are_counted_in_one_place():
    # estimators.count_exits bins every exit time, into one exact count that
    # both density estimators read; only the simulator writes the exit codes
    assert callers("_bin_index") == {"estimators.count_exits"}
    path = pathlib.Path(mejump.__file__).parent / "estimators.py"
    weighted = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "bincount"
        and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))
    ]
    assert weighted == []
    writers = functions_where(lambda node: writes_to(node, "exit_code"))
    assert {scope.split(".")[0] for scope in writers} == {"jumpsim"}


def layout_arithmetic(node):
    """Whether ``node`` works out the exit-code layout itself: a ``tile`` or
    ``repeat``, a ``//`` or ``%``, or arithmetic with the literal 3 or 6."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("tile", "repeat")
    if not isinstance(node, (ast.BinOp, ast.AugAssign)):
        return False
    if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
        return True
    sides = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
    return any(
        isinstance(side, ast.Constant) and type(side.value) is int and side.value in (3, 6)
        for side in sides
    )


def test_exit_code_layout_has_one_home():
    # jumpsim encodes an exit code, decodes it (split_exit_code, for the batch
    # and a trace's exit rows) and counts the codes; the estimators build one
    # weight per code through that decode
    path = pathlib.Path(mejump.__file__).parent / "estimators.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if layout_arithmetic(node)] == []
    assert callers("split_exit_code") == {
        "jumpsim.PathBatch.pre_exit", "jumpsim.PathBatch.landing", "jumpsim.simulate_batch",
        "estimators._code_weights",
    }
    package = pathlib.Path(mejump.__file__).parent
    defined = {
        node.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_signed_chunks" not in defined


def test_trace_labels_have_one_home():
    # modelio names each state code of a trace; jumpsim works on integer
    # codes only
    package = pathlib.Path(mejump.__file__).parent
    labels, defined = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if {"DeltaO", "DeltaA", "term"} & set(strings(tree)):
            labels.add(path.name)
        defined |= {
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "label" in node.name
        }
    assert labels == {"modelio.py"}
    assert defined == {"modelio.state_labels"}
    assert callers("state_labels") == {"modelio.write_trace"}


#: The flags that set a run-config field.
RUN_CONFIG_FLAGS = (
    "--lambda", "--paths", "--seed", "--chunk", "--workers", "--grid", "--estimator",
)


def test_run_config_flags_are_declared_once():
    # one declaration per flag, which both the parser and the run-config
    # loader read, so a flag cannot be parsed and then ignored
    path = pathlib.Path(mejump.__file__).parent / "cli.py"
    found = strings(ast.parse(path.read_text(encoding="utf-8")))
    assert {flag: found.count(flag) for flag in RUN_CONFIG_FLAGS} == {
        flag: 1 for flag in RUN_CONFIG_FLAGS
    }


def test_every_run_config_flag_reaches_the_run_config():
    # each flag a run-config command accepts, other than the files it names,
    # changes the RunConfig the command runs with
    from mejump import cli

    values = {
        "--lambda": "3.5", "--paths": "123", "--seed": "7", "--chunk": "99",
        "--workers": "3", "--grid": "0:2:5", "--estimator": "beta",
    }
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions if getattr(a, "choices", None))
    reached = {}
    for command in ("estimate", "expect", "reproduce-example"):
        model = [] if command == "reproduce-example" else ["model.json"]
        # records compare by identity, so the configs compare by their reprs
        base = repr(cli._load_run_config(parser.parse_args([command, *model])))
        flags = [
            flag for action in commands[command]._actions for flag in action.option_strings
            if flag not in ("-h", "--help", "--config", "--out", "--trace")
        ]
        reached[command] = [
            flag for flag in flags
            if repr(cli._load_run_config(parser.parse_args([command, *model, flag, values[flag]])))
            != base
        ]
        assert reached[command] == flags, command
    assert reached == {
        "estimate": list(RUN_CONFIG_FLAGS),
        "expect": ["--lambda", "--paths", "--seed", "--chunk", "--workers"],
        "reproduce-example": ["--paths", "--seed", "--lambda"],
    }


def test_bin_weight_refusal_has_one_home():
    # estimators.check_bin_weight refuses the per-path bin weight for the
    # finalizer and, before the first path, for run_estimate
    assert raising_modules(("per-path bin weight",)) == {"per-path bin weight": {"estimators.py"}}
    assert functions_where(
        lambda node: isinstance(node, ast.Raise)
        and any(text.startswith("per-path bin weight") for text in strings(node))
    ) == {"estimators.check_bin_weight"}
    assert callers("check_bin_weight") == {"estimators.finalize_density", "modelio.run_estimate"}


def test_mean_and_stderr_have_one_home():
    # estimators._mean_and_stderr finishes every Monte-Carlo estimate: the
    # one sample variance (the one division by n - 1) and the one refusal of
    # an empty outcome set, for the density estimators and the expectation
    assert functions_where(
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Sub)
        and getattr(node.right.right, "value", None) == 1
    ) == {"estimators._mean_and_stderr"}
    assert raising_modules(("empty outcome set",)) == {"empty outcome set": {"estimators.py"}}
    assert functions_where(
        lambda node: isinstance(node, ast.Raise) and "empty outcome set" in strings(node)
    ) == {"estimators._mean_and_stderr"}
    assert callers("_mean_and_stderr") == {
        "estimators.finalize_density", "estimators.mc_expectation_untilted",
    }

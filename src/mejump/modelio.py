"""Model/config file parsing, the run plan every chain-building command
reads, the simulation back end shared by ``estimate`` and ``expect``, the
estimation pipeline, and result rendering.

Model and run-configuration files are JSON (UTF-8, no comments).  Floats are
serialized through Python's shortest round-trip repr, so a model written from
parameters parses back bit-for-bit.  Estimate results render to CSV with '.'
decimals, LF line endings and a fixed header, making golden-file diffs stable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import medist
from .estimators import (
    DensityEstimate,
    Grid,
    HSpec,
    check_bin_weight,
    check_count_table,
    count_exits,
    mc_density_beta,
    mc_density_qbar,
    tilted_bin_averages,
)
from .jumpsim import DEFAULT_CHUNK, PathBatch, check_run_shape, simulate_batch
from .medist import MEParams
from .records import Record
from .splitting import (
    DoubledGenerator,
    InitialSplit,
    SignSplit,
    exit_profile,
    initial_split,
    resolve_lambda,
    sign_split,
)

ESTIMATE_CSV_HEADER = (
    "x_mid,f_tilted_analytic,est_beta,stderr_beta,est_qbar,stderr_qbar,n_hits"
)

#: Labels of landing codes 0/1/2, as a trace prints them.
LANDING_LABELS = ("DeltaO", "DeltaA", "term")


def state_labels(p: int) -> list:
    """Each state code's trace label on a chain on ``p`` states, by code:
    ``o0..`` original, ``a0..`` anti, then the landings ``2p + landing``."""
    return [f"o{i}" for i in range(p)] + [f"a{i}" for i in range(p)] + list(LANDING_LABELS)


class ParseError(Exception):
    """Malformed model/config file; message points at the offending field."""


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number: not a boolean, not a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, field: str, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ParseError(f"{where}: field {field!r} is too large for a float") from None


def _as_number_list(raw, field: str, where: str) -> list:
    if not isinstance(raw, list) or not all(map(_is_number, raw)):
        raise ParseError(f"{where}: field {field!r} must be an array of numbers")
    return [_as_float(v, field, where) for v in raw]


def model_from_dict(raw, where: str = "model"):
    """Parse ``{"alpha": [...], "T": [[...]], "s": [...], "name": ...}``."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: top level must be a JSON object")
    for field in ("alpha", "T", "s"):
        if field not in raw:
            raise ParseError(f"{where}: missing field {field!r}")
    alpha = _as_number_list(raw["alpha"], "alpha", where)
    p = len(alpha)
    if not isinstance(raw["T"], list) or len(raw["T"]) != p:
        raise ParseError(f"{where}: field 'T' must be an array of {p} rows")
    T = []
    for i, row in enumerate(raw["T"]):
        row = _as_number_list(row, f"T[{i}]", where)
        if len(row) != p:
            raise ParseError(f"{where}: row {i} of 'T' has length {len(row)}, expected {p}")
        T.append(row)
    s = _as_number_list(raw["s"], "s", where)
    if len(s) != p:
        raise ParseError(f"{where}: field 's' has length {len(s)}, expected {p}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{where}: field 'name' must be a string")
    try:
        params = MEParams(alpha=np.array(alpha), T=np.array(T), s=np.array(s))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return params, name


def read_input(path) -> str:
    """Text of an input file, the one place one is opened; a file that cannot
    be read or is not UTF-8 raises :class:`ParseError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def open_output(path):
    """An output file opened for writing, UTF-8 with LF endings, the one place one is opened."""
    return open(path, "w", encoding="utf-8", newline="\n")


def read_json(path):
    """Parsed JSON of a file; invalid JSON raises :class:`ParseError`."""
    path = Path(path)
    try:
        return json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def read_model(path):
    return model_from_dict(read_json(path), where=str(path))


def write_model(params: MEParams, path, name: str | None = None):
    doc = {
        "alpha": [float(v) for v in params.alpha],
        "T": [[float(v) for v in row] for row in params.T],
        "s": [float(v) for v in params.s],
    }
    if name is not None:
        doc["name"] = name
    with open_output(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


class RunConfig(Record):
    """Parameters of an estimation run (defaults match the JSON schema).

    Every way of making one (a config file, CLI flags, a library caller)
    goes through the range checks here; the rate is checked when the run is
    planned.
    """

    lam: object = "auto"  # float or the literal "auto"
    n_paths: int = 100_000
    seed: int = 42
    chunk: int = DEFAULT_CHUNK
    grid: Grid = Grid(0.0, 4.0, 40)
    estimator: str = "both"
    h: HSpec | None = None
    workers: int = 1

    def __post_init__(self):
        check_run_shape(self.n_paths, self.seed, self.chunk, self.workers)
        if self.estimator not in ("beta", "qbar", "both"):
            raise ValueError("estimator must be beta, qbar or both")


def _config_number(raw: dict, field: str, integer: bool = False):
    """``raw[field]`` as a float, or as an int if ``integer``, refusing a fraction."""
    value = raw[field]
    if not _is_number(value):
        raise ParseError(f"config: field {field!r} must be a number, got {value!r}")
    if not integer:
        return _as_float(value, field, "config")
    if isinstance(value, float) and not value.is_integer():
        raise ParseError(f"config: field {field!r} must be an integer, got {value!r}")
    return int(value)


def _refuse_unknown_fields(raw: dict, known: set, where: str):
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def config_from_dict(raw) -> RunConfig:
    """Parse a run configuration: the JSON schema lives here, the range
    checks in :class:`RunConfig` and :class:`HSpec`."""
    if not isinstance(raw, dict):
        raise ParseError("config: top level must be a JSON object")
    _refuse_unknown_fields(
        raw, {"lambda", "n_paths", "seed", "chunk", "grid", "estimator", "h", "workers"}, "config"
    )
    for field, known in (("grid", {"x_min", "x_max", "n_bins"}), ("h", {"type", "c", "degree"})):
        if isinstance(raw.get(field), dict):
            _refuse_unknown_fields(raw[field], known, f"config: field {field!r}")
    fields = {}
    try:
        if "lambda" in raw:
            fields["lam"] = "auto" if raw["lambda"] == "auto" else _config_number(raw, "lambda")
        for field in ("n_paths", "seed", "chunk", "workers"):
            if field in raw:
                fields[field] = _config_number(raw, field, integer=True)
        if "estimator" in raw:
            fields["estimator"] = str(raw["estimator"])
        if "grid" in raw:
            g = raw["grid"]
            if not isinstance(g, dict) or not {"x_min", "x_max", "n_bins"} <= set(g):
                raise ValueError(
                    'grid must be an object with "x_min", "x_max" and "n_bins" fields'
                )
            fields["grid"] = Grid(
                _config_number(g, "x_min"), _config_number(g, "x_max"),
                _config_number(g, "n_bins", integer=True),
            )
        h = raw.get("h")
        if h is not None:
            if not isinstance(h, dict) or not {"type", "c"} <= set(h):
                raise ValueError('h must be an object with "type" and "c" fields')
            fields["h"] = HSpec(
                str(h["type"]), _config_number(h, "c"),
                _config_number(h, "degree", integer=True) if "degree" in h else 0,
            )
        return RunConfig(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"config: {exc}") from exc


class RunPlan(Record):
    """What a command derives once from a model and a tilting-rate request: the
    validated parameters, their sign split, the initial mixture and ``profile``,
    the doubled chain at the resolved rate, which holds that rate ``lam``, the
    doubled ``abscissa`` and ``transient``."""

    params: MEParams
    split: SignSplit
    init: InitialSplit
    profile: DoubledGenerator


def plan(params: MEParams, lam_request) -> RunPlan:
    """Validate, split, resolve the rate and build the doubled chain, once each.

    A rate below ``lambda_0`` is refused (by :func:`exit_profile`, which is
    ``build_generator``); a non-transient one is only reported, for ``split``
    to show, and refused by ``admit_rate`` when :func:`simulate` runs this
    chain.  Errors are raised unchanged; the CLI maps them to exit codes.
    """
    medist.validate(params)
    split = sign_split(params.T, params.s)
    profile = exit_profile(split, resolve_lambda(split, lam_request))
    return RunPlan(params, split, initial_split(params.alpha), profile)


class EstimateRun(Record):
    """Everything produced by one estimation pipeline run, both estimates included."""

    plan: RunPlan
    scale: float
    config: RunConfig
    batch: PathBatch
    analytic: np.ndarray
    est_beta: DensityEstimate
    est_qbar: DensityEstimate


def check_landing(run_plan: RunPlan):
    """Refuse a rate at which every landing probability ``(s^+ + s^-)_i / d_i``
    is below machine epsilon: no path could be seen to land, so every
    estimate would read zero."""
    profile = run_plan.profile
    if np.all(profile.qplus + profile.qminus < np.finfo(float).eps):
        raise ValueError(
            f"tilting rate {profile.lam!r} is too large: every landing probability "
            "is below machine epsilon, so no path can be seen to land"
        )


def simulate(run_plan: RunPlan, cfg: RunConfig, collect_trace: bool = False) -> PathBatch:
    """Simulate the planned chain ``run_plan.profile``, with no second build,
    for ``estimate`` and ``expect``, once :func:`check_landing` has passed its rate."""
    check_landing(run_plan)
    return simulate_batch(
        run_plan.profile, run_plan.init, n_paths=cfg.n_paths, seed=cfg.seed,
        chunk=cfg.chunk, workers=cfg.workers, collect_trace=collect_trace,
    )


def run_estimate(run_plan: RunPlan, cfg: RunConfig, collect_trace: bool = False) -> EstimateRun:
    """Simulate the chain its caller planned, then estimate.

    The rate is ``run_plan.profile.lam``, resolved when the caller planned the model;
    ``cfg.lam`` is not read here.  A grid whose count table is too large is
    refused first; the oracle, the scale, the rate's landings and the
    per-path bin weight are checked before any path is drawn.
    The batch's exits are counted once, and both estimators, whichever
    ``cfg.estimator`` names, read the counts: a finalizer takes under 1 ms.
    """
    check_count_table(cfg.grid, run_plan.params.p)
    lam = run_plan.profile.lam
    analytic, norm = tilted_bin_averages(run_plan.params, lam, cfg.grid)
    scale = run_plan.init.w_total / norm
    if not (np.isfinite(scale) and np.all(np.isfinite(analytic))):
        raise ValueError(
            f"tilting rate {lam!r} is too large: the scale or the analytic "
            "bin averages of the tilted density are not finite"
        )
    check_landing(run_plan)  # a rate with no visible landing is named first
    check_bin_weight(scale, cfg.grid)
    batch = simulate(run_plan, cfg, collect_trace)
    counts = count_exits(batch, cfg.grid)
    est_beta = mc_density_beta(counts, scale)
    est_qbar = mc_density_qbar(counts, run_plan.profile, scale)
    return EstimateRun(run_plan, scale, cfg, batch, analytic, est_beta, est_qbar)


def _fmt_column(col):
    """Shortest round-trip text of every entry of ``col`` as a float, converted once per column."""
    return map(repr, np.asarray(col, dtype=float).tolist())


def _csv(header, columns) -> str:
    """CSV text of ``columns`` of cell texts, under ``header`` unless it is
    None: the one place a CSV file's rows are joined."""
    rows = map(",".join, zip(*columns))
    return "\n".join([header, *rows] if header is not None else rows) + "\n"


def render_estimate_csv(run: EstimateRun) -> str:
    """CSV text of an estimation run: fixed header, '.' decimals, LF endings,
    shortest round-trip float formatting.  The columns of an estimator that
    ``run.config.estimator`` does not ask for are left empty; this is the one
    place the choice is acted on."""
    grid, estimator = run.config.grid, run.config.estimator
    columns = [_fmt_column(grid.mids), _fmt_column(run.analytic)]
    for name, est in (("beta", run.est_beta), ("qbar", run.est_qbar)):
        if estimator in (name, "both"):
            columns += [_fmt_column(est.estimate), _fmt_column(est.stderr)]
        else:
            columns += [[""] * grid.n_bins] * 2
    columns.append(map(str, np.asarray(run.est_beta.n_hits, dtype=np.int64).tolist()))
    return _csv(ESTIMATE_CSV_HEADER, columns)


#: Rows of the trace that :func:`write_trace` renders and writes at a time.
TRACE_BLOCK_ROWS = 1 << 16


def write_trace(path, batch: PathBatch):
    """Tab-separated per-jump trace: per path, a ``# path k`` line, then one line
    per jump (time, from_state, to_state), each state code named by
    :func:`state_labels`.

    The rows are rendered a block at a time, column by column: the times
    through :func:`_fmt_column`, the states through a table of their labels,
    and the ``# path k`` line prefixed to each row whose path differs from
    the row before it."""
    if batch.trace is None:
        raise ValueError("batch carries no trace; simulate with collect_trace=True")
    path_idx, times, frm, to = batch.trace
    labels = np.array(state_labels(batch.p), dtype=object)
    # path indices are nonnegative, so the first row starts a path
    starts = np.diff(path_idx, prepend=-1) != 0
    with open_output(path) as fh:
        for lo in range(0, path_idx.shape[0], TRACE_BLOCK_ROWS):
            block = slice(lo, lo + TRACE_BLOCK_ROWS)
            rows = list(_fmt_column(times[block]))
            first = starts[block]
            for i, k in zip(np.flatnonzero(first).tolist(), path_idx[block][first].tolist()):
                rows[i] = f"# path {k}\n{rows[i]}"
            lines = map("\t".join, zip(rows, labels[frm[block]], labels[to[block]]))
            fh.write("\n".join(lines) + "\n")


def trace_summary(batch: PathBatch) -> str:
    """What ``estimate --trace`` prints of the batch it traced: the path
    count, the jumps, the exit times and each landing's count, in the order
    of the landings' names."""
    jumps = int(batch.n_jumps.sum())
    taus = batch.tau.tolist()
    counts = np.bincount(batch.landing, minlength=len(LANDING_LABELS)).tolist()
    lines = [
        f"paths: {len(taus)}",
        f"total jumps: {jumps}  mean jumps/path: {jumps / len(taus):.3f}",
        f"mean exit time: {sum(taus) / len(taus):.6f}  max: {max(taus):.6f}",
    ]
    seen = {LANDING_LABELS[code]: n for code, n in enumerate(counts) if n}
    lines += [f"landing {name}: {seen[name]}" for name in sorted(seen)]
    return "\n".join(lines)


def split_paths(prefix) -> list:
    """The files ``split --out PREFIX`` writes, in the order it writes them:
    the one place their names are made."""
    names = ("Tplus", "Tminus", "splus", "sminus", "D", "exit_profile", "summary")
    return [f"{prefix}_{name}.csv" for name in names]


def write_split_outputs(prefix, run_plan: RunPlan):
    """Write the split pieces as the CSV files :func:`split_paths` names; a
    vector is written as one row."""
    split, profile = run_plan.split, run_plan.profile
    lambda0, lam, abscissa = _fmt_column([split.lambda0, profile.lam, profile.abscissa])
    profile_columns = (profile.d, profile.qplus, profile.qminus, profile.qbar_original)
    texts = [
        *(_csv(None, map(_fmt_column, np.atleast_2d(M).T))
          for M in (split.Tplus, split.Tminus, split.splus, split.sminus, profile.D)),
        _csv("state,d,q_plus,q_minus,q_bar_original",
             [map(str, range(split.p)), *map(_fmt_column, profile_columns)]),
        _csv("key,value", [("lambda0", "lambda", "transient", "doubled_abscissa"),
                           (lambda0, lam, str(profile.transient).lower(), abscissa)]),
    ]
    for path, text in zip(split_paths(prefix), texts):
        with open_output(path) as fh:
            fh.write(text)

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
    check_count_table,
    count_exits,
    mc_density_beta,
    mc_density_qbar,
    tilted_bin_averages,
)
from .jumpsim import (
    DEFAULT_CHUNK,
    LANDING_LABELS,
    PathBatch,
    check_run_shape,
    code_label,
    simulate_batch,
)
from .medist import MEParams
from .records import Record
from .splitting import (
    ExitProfile,
    InitialSplit,
    SignSplit,
    check_transience,
    exit_profile,
    initial_split,
    resolve_lambda,
    sign_split,
)

ESTIMATE_CSV_HEADER = (
    "x_mid,f_tilted_analytic,est_beta,stderr_beta,est_qbar,stderr_qbar,n_hits"
)


class ParseError(Exception):
    """Malformed model/config file; message points at the offending field."""


def _as_number_list(raw, field: str, where: str) -> list:
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise ParseError(f"{where}: field {field!r} must be an array of numbers")
    return [float(v) for v in raw]


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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


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


#: Run-config fields holding integers, at any nesting depth.
_INTEGER_FIELDS = frozenset({"n_paths", "seed", "chunk", "workers", "n_bins", "degree"})


def _refuse_loose_numbers(raw: dict):
    """Refuse booleans, which ``float()`` reads as 1, and fractions in integer fields."""
    for key, value in raw.items():
        if isinstance(value, dict):
            _refuse_loose_numbers(value)
        elif isinstance(value, bool):
            raise ParseError(f"config: field {key!r} must not be a boolean")
        elif key in _INTEGER_FIELDS and isinstance(value, float) and not value.is_integer():
            raise ParseError(f"config: field {key!r} must be an integer, got {value!r}")


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
    _refuse_loose_numbers(raw)
    fields = {}
    try:
        if "lambda" in raw:
            lam = raw["lambda"]
            fields["lam"] = lam if lam == "auto" else float(lam)
        for field in ("n_paths", "seed", "chunk", "workers"):
            if field in raw:
                fields[field] = int(raw[field])
        if "estimator" in raw:
            fields["estimator"] = str(raw["estimator"])
        if "grid" in raw:
            g = raw["grid"]
            if not isinstance(g, dict) or not {"x_min", "x_max", "n_bins"} <= set(g):
                raise ValueError(
                    'grid must be an object with "x_min", "x_max" and "n_bins" fields'
                )
            fields["grid"] = Grid(
                x_min=float(g["x_min"]),
                x_max=float(g["x_max"]),
                n_bins=int(g["n_bins"]),
            )
        h = raw.get("h")
        if h is not None:
            if not isinstance(h, dict) or not {"type", "c"} <= set(h):
                raise ValueError('h must be an object with "type" and "c" fields')
            fields["h"] = HSpec(
                kind=str(h["type"]), c=float(h["c"]), degree=int(h.get("degree", 0))
            )
        return RunConfig(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"config: {exc}") from exc


class RunPlan(Record):
    """What a command derives once from a model and a tilting-rate request:
    the validated parameters, their sign split, the resolved rate ``lam``, the
    initial mixture and the exit profile at ``lam``.  The doubled abscissa
    and transience follow, from :func:`check_transience`."""

    params: MEParams
    split: SignSplit
    lam: float
    init: InitialSplit
    profile: ExitProfile

    @property
    def abscissa(self) -> float:
        return check_transience(self.split, self.lam)[1]

    @property
    def transient(self) -> bool:
        return check_transience(self.split, self.lam)[0]


def plan(params: MEParams, lam_request) -> RunPlan:
    """Validate, split, resolve the rate and derive the profile, once each.

    A rate below ``lambda_0`` is refused (by :func:`exit_profile`); a
    non-transient one is only reported, for ``split`` to show, and refused by
    ``admit_rate`` when the simulator compiles its chain.  Errors are raised
    unchanged; the CLI maps them to exit codes.
    """
    medist.validate(params)
    split = sign_split(params.T, params.s)
    lam = resolve_lambda(split, lam_request)
    profile = exit_profile(split, lam)
    return RunPlan(params, split, lam, initial_split(params.alpha), profile)


class EstimateRun(Record):
    """Everything produced by one estimation pipeline run."""

    plan: RunPlan
    scale: float
    config: RunConfig
    batch: PathBatch
    analytic: np.ndarray
    est_beta: DensityEstimate | None
    est_qbar: DensityEstimate | None


def simulate(run_plan: RunPlan, cfg: RunConfig, collect_trace: bool = False) -> PathBatch:
    """Simulate the planned chain: the back end shared by ``estimate`` and
    ``expect``.

    A rate at which every landing probability ``(s^+ + s^-)_i / d_i`` is
    below machine epsilon is refused before any path is simulated: no path
    could be seen to land, so every estimate would read zero.
    """
    profile = run_plan.profile
    if np.all(profile.qplus + profile.qminus < np.finfo(float).eps):
        raise ValueError(
            f"tilting rate {run_plan.lam!r} is too large: every landing probability "
            "is below machine epsilon, so no path can be seen to land"
        )
    return simulate_batch(
        run_plan.split, run_plan.lam, run_plan.init, n_paths=cfg.n_paths, seed=cfg.seed,
        chunk=cfg.chunk, workers=cfg.workers, collect_trace=collect_trace,
    )


def run_estimate(run_plan: RunPlan, cfg: RunConfig, collect_trace: bool = False) -> EstimateRun:
    """Simulate the chain its caller planned, then estimate.

    The rate is ``run_plan.lam``, resolved when the caller planned the model;
    ``cfg.lam`` is not read here.  A grid whose count table is too large is
    refused first, and the oracle is checked before any path is drawn.
    The batch's exits are counted once, and each requested estimator reads
    the counts.
    """
    check_count_table(cfg.grid, run_plan.params.p)
    lam = run_plan.lam
    analytic, norm = tilted_bin_averages(run_plan.params, lam, cfg.grid)
    scale = run_plan.init.w_total / norm
    if not (np.isfinite(scale) and np.all(np.isfinite(analytic))):
        raise ValueError(
            f"tilting rate {lam!r} is too large: the scale or the analytic "
            "bin averages of the tilted density are not finite"
        )
    batch = simulate(run_plan, cfg, collect_trace)
    counts = count_exits(batch, cfg.grid)
    est_beta = est_qbar = None
    if cfg.estimator in ("beta", "both"):
        est_beta = mc_density_beta(counts, scale)
    if cfg.estimator in ("qbar", "both"):
        est_qbar = mc_density_qbar(counts, run_plan.profile, scale)
    return EstimateRun(run_plan, scale, cfg, batch, analytic, est_beta, est_qbar)


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_column(col):
    """``_fmt`` of every entry of ``col``, converted once per column."""
    return map(repr, np.asarray(col, dtype=float).tolist())


def render_estimate_csv(run: EstimateRun) -> str:
    """CSV text of an estimation run: fixed header, '.' decimals, LF endings,
    shortest round-trip float formatting.  Columns of estimators that were not
    requested are left empty."""
    grid = run.config.grid
    some = run.est_beta if run.est_beta is not None else run.est_qbar
    columns = [_fmt_column(grid.mids), _fmt_column(run.analytic)]
    for est in (run.est_beta, run.est_qbar):
        if est is None:
            columns += [[""] * grid.n_bins] * 2
        else:
            columns += [_fmt_column(est.estimate), _fmt_column(est.stderr)]
    columns.append(map(str, np.asarray(some.n_hits, dtype=np.int64).tolist()))
    return "\n".join([ESTIMATE_CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def write_trace(path, batch: PathBatch):
    """Tab-separated debug trace: per path, one line per jump
    (time, from_state, to_state)."""
    if batch.trace is None:
        raise ValueError("batch carries no trace; simulate with collect_trace=True")
    path_idx, times, frm, to = batch.trace
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        current = None
        for k in range(path_idx.shape[0]):
            if path_idx[k] != current:
                current = path_idx[k]
                fh.write(f"# path {int(current)}\n")
            fh.write(
                f"{_fmt(times[k])}\t{code_label(int(frm[k]), batch.p)}"
                f"\t{code_label(int(to[k]), batch.p)}\n"
            )


def read_trace(path) -> dict:
    """Each path of a trace that :func:`write_trace` wrote, mapped to its
    ``(time, from_label, to_label)`` rows; a bad file raises ParseError.

    Each path appears once and ends in a landing (``DeltaO``, ``DeltaA`` or
    ``term``), as every path that :func:`write_trace` writes does.  Within a
    path, no row follows the landing, each row leaves the state the row
    before it entered, and no time is below the time before it."""
    paths, rows, last_line = {}, None, {}
    try:
        for ln, line in enumerate(read_input(path).splitlines(), 1):
            if line.startswith("# path "):
                k = int(line[len("# path "):])
                if k in paths:
                    raise ParseError(f"{path}:{ln}: path {k} appears twice")
                rows = paths[k] = []
                continue
            parts = line.split("\t")
            if len(parts) != 3 or rows is None:
                raise ParseError(f"{path}:{ln}: malformed trace line {line!r}")
            t, frm, to = float(parts[0]), parts[1], parts[2]
            if rows:
                t_before, _, to_before = rows[-1]
                if to_before in LANDING_LABELS:
                    raise ParseError(f"{path}:{ln}: path {k} has a row after its landing")
                if frm != to_before:
                    raise ParseError(
                        f"{path}:{ln}: path {k} jumps from {frm!r}, "
                        f"but its previous jump entered {to_before!r}"
                    )
                if t < t_before:
                    raise ParseError(
                        f"{path}:{ln}: path {k} jumps at {t!r}, "
                        f"before its previous jump at {t_before!r}"
                    )
            rows.append((t, frm, to))
            last_line[k] = ln
    except ValueError as exc:  # a path number or time that does not parse
        raise ParseError(f"{path}:{ln}: {exc}") from exc
    for k, jumps in paths.items():
        if not jumps:
            raise ParseError(f"{path}: path {k} has no jump rows")
        if jumps[-1][2] not in LANDING_LABELS:
            raise ParseError(
                f"{path}:{last_line[k]}: path {k} ends in {jumps[-1][2]!r}, not a landing"
            )
    return paths


def write_matrix_csv(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in M:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_split_outputs(prefix, run_plan: RunPlan, D: np.ndarray):
    """Write the split pieces as CSV files sharing a path prefix."""
    prefix = str(prefix)
    split, profile = run_plan.split, run_plan.profile
    qbar = profile.qbar_original  # a property that builds the array on every read
    write_matrix_csv(f"{prefix}_Tplus.csv", split.Tplus)
    write_matrix_csv(f"{prefix}_Tminus.csv", split.Tminus)
    write_matrix_csv(f"{prefix}_splus.csv", split.splus)
    write_matrix_csv(f"{prefix}_sminus.csv", split.sminus)
    write_matrix_csv(f"{prefix}_D.csv", D)
    with open(f"{prefix}_exit_profile.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("state,d,q_plus,q_minus,q_bar_original\n")
        for i in range(split.p):
            fh.write(
                f"{i},{_fmt(profile.d[i])},{_fmt(profile.qplus[i])},"
                f"{_fmt(profile.qminus[i])},{_fmt(qbar[i])}\n"
            )
    with open(f"{prefix}_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        fh.write(f"lambda0,{_fmt(split.lambda0)}\n")
        fh.write(f"lambda,{_fmt(run_plan.lam)}\n")
        fh.write(f"transient,{str(run_plan.transient).lower()}\n")
        fh.write(f"doubled_abscissa,{_fmt(run_plan.abscissa)}\n")

"""Model/config file parsing, the simulate front end shared by ``estimate``
and ``expect``, the estimation pipeline, and result rendering.

Model and run-configuration files are JSON (UTF-8, no comments).  Floats are
serialized through Python's shortest round-trip repr, so a model written from
parameters parses back bit-for-bit.  Estimate results render to CSV with '.'
decimals, LF line endings and a fixed header, making golden-file diffs stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import medist
from .estimators import (
    DensityEstimate,
    Grid,
    HSpec,
    h_spec_from_dict,
    mc_density_beta,
    mc_density_qbar,
    tilted_bin_averages,
)
from .jumpsim import DEFAULT_CHUNK, PathBatch, code_label, simulate_batch
from .medist import MEParams
from .splitting import (
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


def read_json(path):
    """Parsed JSON of a file; unreadable files and invalid JSON raise
    :class:`ParseError`."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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


@dataclass
class RunConfig:
    """Parameters of an estimation run (defaults match the JSON schema)."""

    lam: object = "auto"  # float or the literal "auto"
    n_paths: int = 100_000
    seed: int = 42
    chunk: int = DEFAULT_CHUNK
    grid: Grid = Grid(0.0, 4.0, 40)
    estimator: str = "both"
    h: HSpec | None = None
    workers: int = 1


#: Run-config fields holding integers, at any nesting depth.
_INTEGER_FIELDS = frozenset({"n_paths", "seed", "chunk", "workers", "n_bins", "degree"})


def _refuse_loose_numbers(raw: dict, where: str):
    """Refuse booleans, which ``float()`` reads as 1, and fractions in integer fields."""
    for key, value in raw.items():
        if isinstance(value, dict):
            _refuse_loose_numbers(value, where)
        elif isinstance(value, bool):
            raise ParseError(f"{where}: field {key!r} must not be a boolean")
        elif key in _INTEGER_FIELDS and isinstance(value, float) and not value.is_integer():
            raise ParseError(f"{where}: field {key!r} must be an integer, got {value!r}")


def _refuse_unknown_fields(raw: dict, known: set, where: str):
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def config_from_dict(raw, where: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: top level must be a JSON object")
    _refuse_unknown_fields(
        raw, {"lambda", "n_paths", "seed", "chunk", "grid", "estimator", "h", "workers"}, where
    )
    for field, known in (("grid", {"x_min", "x_max", "n_bins"}), ("h", {"type", "c", "degree"})):
        if isinstance(raw.get(field), dict):
            _refuse_unknown_fields(raw[field], known, f"{where}: field {field!r}")
    _refuse_loose_numbers(raw, where)
    cfg = RunConfig()
    try:
        lam = raw.get("lambda", cfg.lam)
        if lam != "auto":
            lam = float(lam)
        n_paths = int(raw.get("n_paths", cfg.n_paths))
        seed = int(raw.get("seed", cfg.seed))
        chunk = int(raw.get("chunk", cfg.chunk))
        workers = int(raw.get("workers", cfg.workers))
        estimator = str(raw.get("estimator", cfg.estimator))
        grid = cfg.grid
        if "grid" in raw:
            g = raw["grid"]
            grid = Grid(
                x_min=float(g["x_min"]),
                x_max=float(g["x_max"]),
                n_bins=int(g["n_bins"]),
            )
        h = h_spec_from_dict(raw["h"]) if raw.get("h") is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if n_paths <= 0:
        raise ParseError(f"{where}: n_paths must be positive")
    if chunk <= 0:
        raise ParseError(f"{where}: chunk must be positive")
    if workers <= 0:
        raise ParseError(f"{where}: workers must be positive")
    if estimator not in ("beta", "qbar", "both"):
        raise ParseError(f"{where}: estimator must be beta, qbar or both")
    return RunConfig(
        lam=lam, n_paths=n_paths, seed=seed, chunk=chunk, grid=grid,
        estimator=estimator, h=h, workers=workers,
    )


@dataclass
class EstimateRun:
    """Everything produced by one estimation pipeline run."""

    params: MEParams
    split: SignSplit
    lam: float
    scale: float
    config: RunConfig
    batch: PathBatch
    analytic: np.ndarray
    est_beta: DensityEstimate | None
    est_qbar: DensityEstimate | None


def simulate_run(params: MEParams, cfg: RunConfig, collect_trace: bool = False):
    """Validate, split, resolve the tilting rate and simulate: the front end
    shared by ``estimate`` and ``expect``.

    A rate at which every landing probability ``(s^+ + s^-)_i / d_i`` is
    below machine epsilon is refused before any path is simulated: no path
    could be seen to land, so every estimate would read zero.

    Returns ``(split, lam, init, profile, batch)`` with ``profile`` the
    :class:`ExitProfile` at ``lam``.  Raises the underlying
    model/construction errors unchanged; the CLI maps them to exit codes.
    """
    medist.validate(params)
    split = sign_split(params.T, params.s)
    lam = resolve_lambda(split, cfg.lam)
    profile = exit_profile(split, lam)
    if np.all(profile.qplus + profile.qminus < np.finfo(float).eps):
        raise ValueError(
            f"tilting rate {lam!r} is too large: every landing probability "
            "is below machine epsilon, so no path can be seen to land"
        )
    init = initial_split(params.alpha)
    batch = simulate_batch(
        split,
        lam,
        init,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        chunk=cfg.chunk,
        workers=cfg.workers,
        collect_trace=collect_trace,
    )
    return split, lam, init, profile, batch


def run_estimate(params: MEParams, cfg: RunConfig, collect_trace: bool = False) -> EstimateRun:
    """Simulate through :func:`simulate_run`, then estimate."""
    split, lam, init, profile, batch = simulate_run(params, cfg, collect_trace)
    analytic, norm = tilted_bin_averages(params, lam, cfg.grid)
    scale = init.w_total / norm
    if not (np.isfinite(scale) and np.all(np.isfinite(analytic))):
        raise ValueError(
            f"tilting rate {lam!r} is too large: the scale or the analytic "
            "bin averages of the tilted density are not finite"
        )
    est_beta = est_qbar = None
    if cfg.estimator in ("beta", "both"):
        est_beta = mc_density_beta(batch, cfg.grid, scale)
    if cfg.estimator in ("qbar", "both"):
        est_qbar = mc_density_qbar(batch, profile, cfg.grid, scale)
    return EstimateRun(
        params=params,
        split=split,
        lam=lam,
        scale=scale,
        config=cfg,
        batch=batch,
        analytic=analytic,
        est_beta=est_beta,
        est_qbar=est_qbar,
    )


def _fmt(x) -> str:
    return repr(float(x))


def render_estimate_csv(run: EstimateRun) -> str:
    """CSV text of an estimation run: fixed header, '.' decimals, LF endings,
    shortest round-trip float formatting.  Columns of estimators that were not
    requested are left empty."""
    grid = run.config.grid
    some = run.est_beta if run.est_beta is not None else run.est_qbar
    lines = [ESTIMATE_CSV_HEADER]
    for b in range(grid.n_bins):
        beta_cols = (
            [_fmt(run.est_beta.estimate[b]), _fmt(run.est_beta.stderr[b])]
            if run.est_beta is not None
            else ["", ""]
        )
        qbar_cols = (
            [_fmt(run.est_qbar.estimate[b]), _fmt(run.est_qbar.stderr[b])]
            if run.est_qbar is not None
            else ["", ""]
        )
        lines.append(
            ",".join(
                [_fmt(grid.mids[b]), _fmt(run.analytic[b])]
                + beta_cols
                + qbar_cols
                + [str(int(some.n_hits[b]))]
            )
        )
    return "\n".join(lines) + "\n"


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


def write_matrix_csv(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in M:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_split_outputs(prefix, split: SignSplit, lam: float, D: np.ndarray):
    """Write the split pieces as CSV files sharing a path prefix."""
    prefix = str(prefix)
    write_matrix_csv(f"{prefix}_Tplus.csv", split.Tplus)
    write_matrix_csv(f"{prefix}_Tminus.csv", split.Tminus)
    write_matrix_csv(f"{prefix}_splus.csv", split.splus)
    write_matrix_csv(f"{prefix}_sminus.csv", split.sminus)
    write_matrix_csv(f"{prefix}_D.csv", D)
    profile = exit_profile(split, lam)
    transient, abscissa = check_transience(split, lam)
    with open(f"{prefix}_exit_profile.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("state,d,q_plus,q_minus,q_bar_original\n")
        for i in range(split.p):
            fh.write(
                f"{i},{_fmt(profile.d[i])},{_fmt(profile.qplus[i])},"
                f"{_fmt(profile.qminus[i])},{_fmt(profile.qbar_original[i])}\n"
            )
    with open(f"{prefix}_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        fh.write(f"lambda0,{_fmt(split.lambda0)}\n")
        fh.write(f"lambda,{_fmt(lam)}\n")
        fh.write(f"transient,{str(bool(transient)).lower()}\n")
        fh.write(f"doubled_abscissa,{_fmt(abscissa)}\n")

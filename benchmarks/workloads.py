"""Workloads of the mejump benchmark and the input files they feed the CLI.

Each workload is one ``mejump`` subcommand run on a generated model file and a
generated run-config file; the CLI receives nothing else.  The benchmark seed
becomes the run config's ``seed``, so it picks the random streams of every
simulated path.  The models are fixed: the reference model of the package and
``random_me_model(100, default_rng(100))`` from ROADMAP.  A model drawn per
seed was tried and rejected: over eight seeds the expected jumps per path of
a 100-state random model ranged from 10.2 to 15.4, which alone moves wall time
by more than the benchmark's bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Seed of the golden production run; at this seed ``ref-estimate`` must
#: reproduce ``tests/data/golden_estimate.csv`` byte for byte.
DEFAULT_SEED = 42

#: Size of the wide model and the seed of its generator.
WIDE_P = 100


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mejump subcommand: "estimate" or "expect"
    model: str  # "reference" or "wide"
    config: dict  # run config without the seed
    sigma_target: float  # sigma* of tta_s

    @property
    def n_paths(self) -> int:
        return self.config["n_paths"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref-estimate",
            "estimate",
            "reference",
            {
                "lambda": "auto",
                "n_paths": 1_000_000,
                "chunk": 65536,
                "workers": 1,
                "grid": {"x_min": 0.0, "x_max": 4.0, "n_bins": 40},
                "estimator": "both",
            },
            0.005,
        ),
        Workload(
            "wide-estimate",
            "estimate",
            "wide",
            {
                "lambda": "auto",
                "n_paths": 200_000,
                "chunk": 65536,
                "workers": 1,
                "grid": {"x_min": 0.0, "x_max": 2.0, "n_bins": 20},
                "estimator": "both",
            },
            0.01,
        ),
        Workload(
            "ref-expect-2w",
            "expect",
            "reference",
            {
                "lambda": 3.0,
                "h": {"type": "exp-decay", "c": 2.0},
                "n_paths": 1_000_000,
                "chunk": 65536,
                "workers": 2,
            },
            5e-4,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path):
    """Write the workload's model and run-config files; returns their paths.

    The same (workload, seed) always gives byte-identical files.
    """
    import numpy as np

    from mejump.modelio import write_model
    from mejump.models import random_me_model, reference_model

    if workload.model == "reference":
        params, name = reference_model(), "reference"
    else:
        params, name = random_me_model(WIDE_P, np.random.default_rng(WIDE_P)), f"random-me-{WIDE_P}"
    directory.mkdir(parents=True, exist_ok=True)
    model_path = directory / "model.json"
    write_model(params, model_path, name=name)
    config_path = directory / "config.json"
    config = dict(workload.config, seed=seed)
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return model_path, config_path


def cli_args(workload: Workload, model_path: Path, config_path: Path, out_csv: Path):
    """Arguments of ``mejump`` for one invocation of the workload."""
    args = [workload.command, str(model_path), "--config", str(config_path)]
    if workload.command == "estimate":
        args += ["--out", str(out_csv)]
    return args

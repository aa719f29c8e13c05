"""The benchmark's pinned workloads and the seeded inputs each one runs on.

A workload is a fixed experiment shape plus the CLI subcommand that runs it.
The benchmark seed only picks the data and the run seed; the shape never
changes, so timings from different seeds measure the same amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the frozen rounds.csv schema from the README
ROUNDS_HEADER = "run_id,seed,t,k,eta_k,global_loss,y_k,bound_y_k,noise_l2"
CSV_HEADER = "x1,x2,x3,x4,x5,y"
MALFORMED_FRAC = 0.01


@dataclass(frozen=True)
class Workload:
    """One pinned experiment shape.

    ``config`` holds every config section except the seeds and the CSV path,
    which ``prepare`` fills in from the benchmark seed. ``sensitivity`` is the
    share of the speed probe's contention slowdown that the workload's calls
    feel (``hostspeed``): for each workload, the value at which its normalised
    command times in fast and in slow host phases agree, fitted on 26-52
    commands per workload at the commit that added it (``bench/README.md``).
    """

    name: str
    why: str
    command: str  # "run" or "validate"
    config: dict
    draws: int = 0  # validate only: simulated pool aggregations per command
    csv_rows: int = 0  # > 0: the data is a generated CSV with this many rows
    sensitivity: float = 1.0

    @property
    def rounds_rows(self) -> int:
        """Rows a successful run writes to rounds.csv: repeats * T_g."""
        fed = self.config["federation"]
        return fed["repeats"] * fed["global_iters"]

    @property
    def work(self) -> int:
        """Work units per command: local clipped steps (run) or pool draws (validate)."""
        if self.command == "validate":
            return self.draws
        fed = self.config["federation"]
        return self.rounds_rows * fed["pool_size"] * fed["local_iters"]

    @property
    def work_unit(self) -> str:
        return "draws/s" if self.command == "validate" else "steps/s"

    @property
    def work_name(self) -> str:
        return "mc_draws_per_s" if self.command == "validate" else "client_steps_per_s"


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="run-default",
            why=(
                "ROADMAP default shape: five local steps per noise draw make per-step "
                "regression/engine dispatch dominant; the only workload with the L1 pilot"
            ),
            command="run",
            config={
                "federation": dict(
                    clients=100, pool_size=10, local_iters=5, global_iters=100,
                    clip_threshold=150.0, clip_norm="l1", repeats=20, workers=1,
                ),
                "dp": dict(mechanism="laplace", epsilon=3.0),
                "data": dict(kind="synth", n_per_client=20, features=5),
            },
            sensitivity=1.0,
        ),
        Workload(
            name="run-many-clients",
            why=(
                "10^4 clients on a generated CSV, one noise stream per step: stream "
                "construction, pooled loss and CSV/partition/lstsq setup dominate"
            ),
            command="run",
            config={
                "federation": dict(
                    clients=10_000, pool_size=100, local_iters=1, global_iters=100,
                    clip_threshold=1.0, clip_norm="l2", repeats=5, workers=1,
                ),
                "dp": dict(mechanism="gaussian", epsilon=8.0, delta=1e-4),
                "data": dict(kind="csv", target_column="y"),
            },
            csv_rows=200_000,
            sensitivity=0.65,
        ),
        Workload(
            name="run-wide",
            why=(
                "p=200 with n_l=50 < p: the only shape where a p x p sufficient-statistics "
                "form costs more than the residual form"
            ),
            command="run",
            config={
                "federation": dict(
                    clients=200, pool_size=20, local_iters=5, global_iters=50,
                    clip_threshold=1.0, clip_norm="l2", repeats=10, workers=1,
                ),
                "dp": dict(mechanism="laplace", epsilon=3.0),
                "data": dict(kind="synth", n_per_client=50, features=199),
            },
            sensitivity=0.7,
        ),
        Workload(
            name="validate-gaussian",
            why=(
                "harness Monte-Carlo path and bulk numpy RNG only, no engine calls: "
                "the no-change control for engine work"
            ),
            command="validate",
            config={
                "federation": dict(
                    clients=100, pool_size=10, clip_threshold=2.0, clip_norm="l2",
                    workers=1,
                ),
                "dp": dict(mechanism="gaussian", epsilon=8.0, delta=1e-4),
                "data": dict(kind="synth", features=19),
            },
            draws=1_000_000,
            sensitivity=0.35,
        ),
    ]
}


@dataclass(frozen=True)
class Inputs:
    """Files generated for one workload and seed, and the argv that runs them."""

    config_path: str
    out_dir: str
    argv: list
    csv_path: str = ""
    csv_rows: int = 0
    malformed: int = 0


def write_regression_csv(path: Path, rows: int, seed: int) -> int:
    """Write a 5-feature regression CSV with about 1% malformed rows.

    A malformed row has one cell blank or set to ``n/a``. Returns the number
    of malformed rows; the same (rows, seed) always writes the same bytes.
    """
    rng = np.random.default_rng([seed, 1])
    x = rng.standard_normal((rows, 5))
    y = x @ rng.standard_normal(5) + 0.5 + 0.1 * rng.standard_normal(rows)
    bad_rows = np.flatnonzero(rng.random(rows) < MALFORMED_FRAC)
    bad_cols = rng.integers(0, 6, size=bad_rows.size)
    bad_text = rng.integers(0, 2, size=bad_rows.size)

    fmt = ",".join(["%.6f"] * 6)
    lines = [fmt % tuple(r) for r in np.column_stack([x, y]).tolist()]
    for row, col, text in zip(bad_rows.tolist(), bad_cols.tolist(), bad_text.tolist()):
        cells = lines[row].split(",")
        cells[col] = "n/a" if text else ""
        lines[row] = ",".join(cells)
    path.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
    return int(bad_rows.size)


def _config_text(sections: dict) -> str:
    out = []
    for section, keys in sections.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(out) + "\n"


def prepare(workload: Workload, seed: int, run_dir: Path) -> Inputs:
    """Generate the workload's config (and CSV) for ``seed`` under ``run_dir``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    # the program's seeds must be non-negative; any benchmark seed maps to one
    program_seed = seed % 2**31
    sections = {name: dict(keys) for name, keys in workload.config.items()}
    sections["federation"]["seed"] = program_seed
    sections["data"]["seed"] = program_seed
    csv_path, malformed = "", 0
    if workload.csv_rows:
        csv_path = str(run_dir / "input.csv")
        malformed = write_regression_csv(Path(csv_path), workload.csv_rows, program_seed)
        sections["data"]["path"] = csv_path
    config_path = run_dir / "workload.cfg"
    config_path.write_text(_config_text(sections))

    out_dir = str(run_dir / "out")
    argv = [workload.command, "--config", str(config_path), "--out", out_dir]
    if workload.command == "validate":
        argv += ["--draws", str(workload.draws)]
    return Inputs(
        config_path=str(config_path),
        out_dir=out_dir,
        argv=argv,
        csv_path=csv_path,
        csv_rows=workload.csv_rows,
        malformed=malformed,
    )

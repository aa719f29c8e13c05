"""Best-of-N in-process times of one benchmark workload's set-up and run phases.

    python3 tools/phase_times.py [workload] [--repeats N]

Generates the workload's inputs (``bench/workloads.prepare`` at seed 31, read
and not modified) in a temporary directory and times, in this process, with
the package in this checkout's ``src`` and BLAS threads pinned to 1:

- the dataset phases: ``load_csv`` and ``sorted_partition`` for a CSV
  workload, ``synth_regression`` for a synthetic one;
- ``problem_constants`` on that dataset;
- ``build_experiment`` and, for a ``run`` workload, ``run_repeats``, or for
  a ``validate`` workload ``_simulate_noise_aggregates`` at the workload's
  draw count;
- for a run whose steps take the dual form, ``pool_kernels``: its T_g pool
  kernels K_l = X_l X_l', built one after another on the calling thread. A
  run builds them one round ahead on its worker thread, so ``run_repeats``
  no longer shows their cost;
- for a run workload clipped in L1, ``pilot``: ``pilot_gradient_bound``
  alone, the noise-free run that measures the gradient bound G (the "L1
  pilot run" layer; ``build_experiment`` includes it);
- for a run workload, ``rounds_csv``: ``_rounds_csv`` on one ``run_repeats``
  result, the text of rounds.csv (the "CSV write" layer, no file written);
- ``cli.main`` on the workload's own argv, with ``--quiet``.

Each phase runs N times in a row (default 15) after one untimed call; the
minimum and the median are printed in milliseconds. Nothing is written
outside the temporary directory.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[name] = "1"  # before numpy is imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

from dpfedsim import cli  # noqa: E402
from dpfedsim.config import parse_config  # noqa: E402
from dpfedsim.data import load_csv, sorted_partition, synth_regression  # noqa: E402
from dpfedsim.engine import pilot_gradient_bound, pool_slice  # noqa: E402
from dpfedsim.harness import (  # noqa: E402
    _rounds_csv, _simulate_noise_aggregates, build_experiment, run_repeats,
)
from dpfedsim.regression import pool_kernel, problem_constants  # noqa: E402

BENCH_SEED = 31


def best_of(call, repeats: int) -> tuple[float, float]:
    """(minimum, median) milliseconds of ``repeats`` timed calls after one warm-up call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times), 1e3 * statistics.median(times)


def pool_kernels(experiment) -> None:
    """Build the pool kernel of every round of the experiment's run, in round order."""
    config, dataset = experiment.config, experiment.dataset
    for t in range(config.global_iters):
        pool_kernel(dataset.x[pool_slice(t, config.n_clients, config.pool_size)])


def phases(workload, run_dir: Path) -> dict:
    """Phase name -> a call that runs it on the workload's seed-31 inputs."""
    inputs = prepare(workload, BENCH_SEED, run_dir)
    raw = parse_config(inputs.config_path)
    d, fed = raw.data, raw.federation
    out = {}
    if d["kind"] == "csv":
        # the harness's own arguments: every feature column, the target as sort key
        out["load_csv"] = lambda: load_csv(d["path"], d["target_column"],
                                           train_fraction=d["train_fraction"], seed=d["seed"])
        train, _ = out["load_csv"]()
        out["sorted_partition"] = lambda: sorted_partition(train, -1, fed["clients"],
                                                           add_bias=d["add_bias"])
        dataset = out["sorted_partition"]()
    else:
        out["synth_regression"] = lambda: synth_regression(
            fed["clients"], d["n_per_client"], d["features"], d["heterogeneity"],
            d["noise_std"], d["seed"], add_bias=d["add_bias"])
        dataset = out["synth_regression"]()
    out["problem_constants"] = lambda: problem_constants(
        dataset, np.zeros(dataset.dim), fed["clip_threshold"])
    out["build_experiment"] = lambda: build_experiment(raw)
    experiment = build_experiment(raw)
    if workload.command == "run":
        if experiment.config.clip.norm == "l1":
            out["pilot"] = lambda: pilot_gradient_bound(experiment.config, experiment.dataset)
        if experiment.dataset.step_form(experiment.config.clip.norm) == "dual":
            out["pool_kernels"] = lambda: pool_kernels(experiment)
        out["run_repeats"] = lambda: run_repeats(experiment)
        results = run_repeats(experiment)
        out["rounds_csv"] = lambda: _rounds_csv(results, experiment.config.seed)
    else:
        out["_simulate_noise_aggregates"] = lambda: _simulate_noise_aggregates(
            experiment, workload.draws)
    out["cli.main"] = lambda: cli.main([*inputs.argv, "--quiet"])
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="run-many-clients", choices=WORKLOADS)
    parser.add_argument("--repeats", type=int, default=15, help="timed calls per phase")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the CSV's skipped-row warning, once per call
        warnings.simplefilter("ignore")
        calls = phases(WORKLOADS[args.workload], Path(tmp) / "run")
        print(f"{args.workload}, seed {BENCH_SEED}, best of {args.repeats}")
        print(f"{'phase':<28}{'min ms':>10}{'median ms':>12}")
        for name, call in calls.items():
            low, mid = best_of(call, args.repeats)
            print(f"{name:<28}{low:>10.1f}{mid:>12.1f}")


if __name__ == "__main__":
    main()

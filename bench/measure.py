"""Measure one workload command by command: set-up, the CLI call, output checks.

``bench/run.py`` runs ``python3 bench/measure.py <spec.json> <index> <traced>``
once per command, each in a fresh process whose BLAS thread variables are
already pinned to 1. The process times the set-up (``parse_config`` +
``build_experiment``) and one ``dpfedsim.cli.main(argv)`` call, raw and
normalised to the reference host speed (``hostspeed``), checks the command's
outputs and writes one record; ``sampling.summarize`` turns the
records of a run into its metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

import dpfedsim
from dpfedsim import cli
from dpfedsim.config import parse_config
from dpfedsim.data import load_csv
from dpfedsim.harness import build_experiment

import checks
from hostspeed import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Inputs, Workload

SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 5


def _timed_setup(inputs: Inputs, probe: SpeedProbe):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the commands' own warnings are checked
        with probe.window() as window:
            raw = parse_config(inputs.config_path)
            exp = build_experiment(raw)
    return window, raw, exp.dataset.n


def _run_command(inputs: Inputs, main, probe: SpeedProbe):
    """Time one CLI call into a clean output directory; return its facts."""
    out = Path(inputs.out_dir)
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        with probe.window() as window:
            try:
                code = main(list(inputs.argv))
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = traceback.format_exc(limit=3)
    return window, code, stdout.getvalue(), [str(w.message) for w in caught]


def _csv_problems(inputs: Inputs, raw, dataset_rows: int) -> list:
    if not inputs.csv_rows:
        return []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train, holdout = load_csv(inputs.csv_path, target_column=raw.data["target_column"])
    return checks.check_csv_load(
        inputs, train.shape[0] + holdout.shape[0], dataset_rows, raw.data["train_fraction"])


def measure_once(workload: Workload, inputs: Inputs, traced: bool = False,
                 check_csv: bool = False, spans_path: Path | None = None) -> dict:
    """Time the set-up and one command, check the outputs and return the record.

    The set-up is timed several times (at least ``SETUP_MIN_S`` in total, at
    most ``SETUP_MAX_REPEATS`` times), since a single short sample is easily
    caught by a burst of host slowness. Times are kept raw and normalised to
    the reference host speed (``hostspeed``); the speed probe is off during a
    traced command, so that it does not add to the layers' times.
    """
    probe = SpeedProbe(workload.sensitivity)
    setups: list = []
    with probe:
        while sum(w.raw_s for w in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS:
            window, raw, dataset_rows = _timed_setup(inputs, probe)
            setups.append(window)
        if not traced:
            window, code, stdout, warned = _run_command(inputs, cli.main, probe)
    if traced:
        with Tracer() as tracer:
            window, code, stdout, warned = _run_command(
                inputs, tracer.wrap("cli.main", cli.main), probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = checks.check_command(workload, inputs, code, stdout, warned)
    if check_csv:
        problems += _csv_problems(inputs, raw, dataset_rows)
    record = {
        "traced": traced,
        "setup_s": [w.normalised_s for w in setups],
        "raw_setup_s": [w.raw_s for w in setups],
        "wall_s": window.normalised_s,
        "raw_wall_s": window.raw_s,
        "slowdown": probe.slowdown(window.start, window.end),
        "probes": len(probe.probes),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "digests": {} if problems else checks.digests(Path(inputs.out_dir), stdout),
    }
    if traced:
        record["layers"] = layer_metrics(tracer.summary(), tracer.counters, window.raw_s)
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def _numpy_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "dpfedsim_file": dpfedsim.__file__,
    }


def main(spec_path: str, index: str, traced: str) -> int:
    """Measure command ``index`` of the run described by ``spec_path``."""
    spec = json.loads(Path(spec_path).read_text())
    run_dir = Path(spec["run_dir"])
    first = int(index) == 0
    record = measure_once(
        WORKLOADS[spec["workload"]], Inputs(**spec["inputs"]), traced=traced == "1",
        check_csv=first, spans_path=run_dir / "spans.tsv" if traced == "1" else None,
    )
    if first:
        record["numpy"] = _numpy_info()
    (run_dir / f"command-{index}.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

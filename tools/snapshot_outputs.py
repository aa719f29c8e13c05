"""Write every CLI output of the demo and benchmark configs into one directory.

    python3 tools/snapshot_outputs.py <outdir>

For each of the four ``demos/configs``, the four benchmark workloads
(``bench/workloads.prepare`` at seed 31, read and not modified) and two more
configs it runs ``run``, ``plan``, ``sweep`` and ``validate --draws 20000`` of
the package in this checkout's ``src``, one fresh process each with BLAS
threads pinned to 1, and keeps each command's output files, stdout, stderr
and exit code under
``<outdir>/<config>/<command>/``. Every path a command sees is relative to
``<outdir>``, so two checkouts that print the same bytes give two snapshots
that ``diff -r`` finds identical: the check that a change moved no output.

The two more configs reach paths the others do not: ``run-wide-l1`` is
run-wide's shape under L1 clipping (also through ``prepare``), whose pilot and
steps take the residual form, and ``diverging`` is a Laplace run in which 9
of the 20 repeats diverge part way through.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, prepare  # noqa: E402

BENCH_SEED = 31
DRAWS = 20_000
COMMANDS = ("run", "plan", "sweep", "validate")
# run-wide's steps under l1: the residual form (p = 200 > n_l = 50, no dual form under l1)
RUN_WIDE_L1 = dataclasses.replace(WORKLOADS["run-wide"], name="run-wide-l1", config={
    **WORKLOADS["run-wide"].config,
    "federation": {**WORKLOADS["run-wide"].config["federation"], "clip_norm": "l1"},
})
# 9 of the 20 repeats leave PARAM_LIMIT part way through; the other 11 complete
DIVERGING = """\
[federation]
clients = 20
pool_size = 10
local_iters = 5
global_iters = 100
clip_threshold = 1.0
clip_norm = l2
repeats = 20

[dp]
mechanism = laplace
epsilon = 1.0
xi1 = 3e10

[data]
kind = synth
n_per_client = 20
features = 3
"""
ENV = dict(
    os.environ, PYTHONPATH=str(ROOT / "src"),
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
)


def _configs() -> dict[str, str]:
    """Config name -> its path, the inputs copied or generated under ``inputs/``."""
    configs = {}
    for path in sorted((ROOT / "demos" / "configs").glob("*.cfg")):
        target = Path("inputs") / path.name
        shutil.copyfile(path, target)
        configs[path.stem] = str(target)
    for name, workload in [*WORKLOADS.items(), (RUN_WIDE_L1.name, RUN_WIDE_L1)]:
        # a relative run directory keeps the generated CSV path relative too
        configs[name] = prepare(workload, BENCH_SEED, Path("inputs") / name).config_path
    target = Path("inputs") / "diverging.cfg"
    target.write_text(DIVERGING)
    configs["diverging"] = str(target)
    return configs


def snapshot(out: Path) -> None:
    out.mkdir(parents=True)
    os.chdir(out)
    Path("inputs").mkdir()
    for name, config in _configs().items():
        for command in COMMANDS:
            where = Path(name) / command
            where.mkdir(parents=True)
            argv = [command, "--config", config, "--out", str(where / "files")]
            if command == "validate":
                argv += ["--draws", str(DRAWS)]
            done = subprocess.run([sys.executable, "-m", "dpfedsim.cli", *argv], env=ENV,
                                  capture_output=True)
            (where / "stdout").write_bytes(done.stdout)
            (where / "stderr").write_bytes(done.stderr)
            (where / "exit_code").write_text(f"{done.returncode}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: snapshot_outputs.py <outdir>")
    snapshot(Path(sys.argv[1]))

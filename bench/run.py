"""dpfedsim benchmark: pinned CLI workloads, end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload run-default --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from any directory of a source checkout. Each workload is generated from
the seed, then measured in a closed loop: one command at a time, each in a
fresh process (``bench/measure.py``) with BLAS threads pinned to 1. Times are
normalised to a reference host speed (``bench/hostspeed.py``); the raw ones go
to the report. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A report with
the environment, every sample and the output digests goes to
``.bench_out/<workload>-seed<n>-trace<t>/report.json`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BLAS_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(BLAS_PINS)  # before numpy is imported, here and in the child

from sampling import closed_loop, summarize  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# every command of a run must end within this many seconds of its start
RUN_TIMEOUT_S = 170

# end-to-end metric name -> unit, in report order
END_TO_END = {"wall_s": "s", "setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_frac": "ratio"}


def _layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _cpu_counters() -> dict:
    """Aggregate idle and steal jiffies from /proc/stat (read only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return {}
    values = [int(v) for v in fields[1:]]
    return {"idle": values[3], "steal": values[7] if len(values) > 7 else 0,
            "total": sum(values)}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpfedsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pins": BLAS_PINS,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate inputs, measure command by command, write and return the report."""
    workload = WORKLOADS[name]
    run_dir = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = prepare(workload, seed, run_dir)
    spec = {"workload": name, "run_dir": str(run_dir), "inputs": asdict(inputs)}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run_one(traced: bool, index: int) -> dict:
        subprocess.run(
            [sys.executable, str(BENCH / "measure.py"), str(spec_path), str(index),
             str(int(traced))],
            env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        return json.loads((run_dir / f"command-{index}.json").read_text())

    before = _cpu_counters()
    records = closed_loop(run_one, seconds, trace)
    after = _cpu_counters()
    if inputs.csv_path:
        os.remove(inputs.csv_path)  # regenerable from the seed; keeps runs small on disk
    result = summarize(workload, records, trace)
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        environment=environment(), numpy=records[0].get("numpy"),
        cpu_before=before, cpu_after=after,
    )
    (run_dir / "report.json").write_text(json.dumps(result, indent=1))
    return result


def _print_human(report: dict) -> None:
    workload = WORKLOADS[report["workload"]]
    m = report["metrics"]
    names = {"throughput_per_s": (workload.work_name, workload.work_unit),
             "failed_frac": ("failed_frac", "ratio")}
    print(f"== {workload.name} (seed {report['seed']}, {report['attempted']} commands, "
          f"trace {int(report['trace'])})")
    for key in list(END_TO_END) + ["failed_frac"]:
        label, unit = names.get(key, (key, END_TO_END.get(key)))
        print(f"  {label:<22} {m[key]:.6g} {unit}")
    raw = report["raw"]
    print(f"  {'raw_wall_s':<22} {raw['wall_s']:.6g} s (not normalised)")
    print(f"  {'raw_setup_s':<22} {raw['setup_s']:.6g} s (not normalised)")
    print(f"  {'host_slowdown':<22} {raw['host_slowdown']:.4g} x (median probe / reference)")
    for key, value in sorted(report.get("layers", {}).items()):
        print(f"  {key:<32} {value:.6g} {_layer_unit(key)}")
    for problem in report["problems"][:10]:
        print(f"  FAILED: {problem}")
    for file, digest in report["digests"].items():
        print(f"  sha256 {file}: {digest}")


def _result_line(reports: list, trace: bool) -> dict:
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        if trace:
            values = {k: (v, _layer_unit(k)) for k, v in report["layers"].items()}
        else:
            values = {k: (report["metrics"][k], u) for k, u in END_TO_END.items()}
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpfedsim" / "cli.py").is_file():
        print(f"error: no dpfedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_human(report)
        reports.append(report)
    print(json.dumps(_result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

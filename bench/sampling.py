"""The closed loop over commands and the medians it reports.

The reported times are normalised to the reference host speed
(``hostspeed``); the raw medians and the host's slowdown go to the report.
"""
from __future__ import annotations

import statistics
import time

from workloads import Workload

MIN_ITERATIONS = 2


def closed_loop(run_one, seconds: float, trace: bool) -> list:
    """Call ``run_one(traced, index)`` one command at a time for about ``seconds``.

    With tracing, every iteration runs one untraced and one traced command,
    alternating which goes first. A new iteration starts only if the last
    one's duration still fits.
    """
    records = []
    start = time.perf_counter()
    iteration = 0
    while True:
        began = time.perf_counter()
        modes = [iteration % 2 == 1, iteration % 2 == 0] if trace else [False]
        for traced in modes:
            records.append(run_one(traced, len(records)))
        iteration += 1
        now = time.perf_counter()
        if iteration >= MIN_ITERATIONS and now - start + (now - began) > seconds:
            return records


def summarize(workload: Workload, records: list, trace: bool) -> dict:
    """Medians over the commands, and the failures among them.

    A command fails when its own checks found a problem or when its output
    bytes differ from those of the first command that passed its checks.
    """
    reference = next((r["digests"] for r in records if not r["problems"]), {})
    problems = []
    failed = 0
    for record in records:
        found = list(record["problems"])
        if not found and record["digests"] != reference:
            found.append("output bytes differ from the first command's")
        failed += bool(found)
        problems += found
    plain = [r for r in records if not r["traced"]]
    # throughput subtracts the set-up timed in the command's own process, so
    # both terms of the difference see the same host state
    throughputs = [workload.work / (r["wall_s"] - statistics.median(r["setup_s"]))
                   for r in plain]
    result = {
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
        "digests": reference,
        "samples": {key: [r[key] for r in records] for key in (
            "traced", "setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "slowdown")},
        "metrics": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(s for r in records for s in r["setup_s"]),
            "throughput_per_s": statistics.median(throughputs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "failed_frac": failed / len(records),
        },
        "raw": {
            "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
            "setup_s": statistics.median(s for r in records for s in r["raw_setup_s"]),
            "host_slowdown": statistics.median(r["slowdown"] for r in plain),
        },
    }
    if trace:
        traced = [r for r in records if r["traced"]]
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["trace.wall_s"] = statistics.median(r["raw_wall_s"] for r in traced)
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / result["raw"]["wall_s"] - 1
        result["layers"] = layers
    return result

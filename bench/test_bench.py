"""Tests of the benchmark's own machinery, on shapes small enough to run in seconds."""
from __future__ import annotations

import dataclasses
import importlib
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import measure  # noqa: E402
from hostspeed import REF_PROBE_S, SpeedProbe  # noqa: E402
from sampling import MIN_ITERATIONS, closed_loop, summarize  # noqa: E402
from dpfedsim import cli  # noqa: E402
from tracer import PATCH_POINTS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, prepare, write_regression_csv  # noqa: E402

# run-default's structure (L1 pilot, Laplace noise) at a tiny size
TINY_RUN = Workload(
    name="tiny-run",
    why="test",
    command="run",
    config={
        "federation": dict(clients=10, pool_size=5, local_iters=2, global_iters=4,
                           clip_threshold=5.0, clip_norm="l1", repeats=2, workers=1),
        "dp": dict(mechanism="laplace", epsilon=3.0),
        "data": dict(kind="synth", n_per_client=8, features=3),
    },
)
# run-many-clients' structure (generated CSV, Gaussian noise) at a tiny size
TINY_CSV = dataclasses.replace(
    WORKLOADS["run-many-clients"],
    name="tiny-csv",
    config={
        "federation": dict(clients=20, pool_size=10, local_iters=1, global_iters=2,
                           clip_threshold=1.0, clip_norm="l2", repeats=2, workers=1),
        "dp": dict(mechanism="gaussian", epsilon=8.0, delta=1e-4),
        "data": dict(kind="csv", target_column="y"),
    },
    csv_rows=2_000,
)


def _measure(workload, inputs, trace=False):
    """The benchmark's closed loop, with the commands run in this process."""
    def run_one(traced, index):
        return measure.measure_once(workload, inputs, traced=traced, check_csv=index == 0)

    return summarize(workload, closed_loop(run_one, seconds=0, trace=trace), trace)


def test_generator_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    counts = [write_regression_csv(p, 3_000, seed) for p, seed in zip(paths, (7, 7, 8))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert counts[0] == counts[1]

    rows = paths[0].read_text().splitlines()[1:]
    bad = 0
    for row in rows:
        try:
            [float(c) for c in row.split(",")]
        except ValueError:
            bad += 1
    assert len(rows) == 3_000
    assert bad == counts[0]
    assert 10 <= bad <= 60  # about 1%


def test_prepare_is_deterministic_per_seed(tmp_path):
    one = prepare(TINY_CSV, 5, tmp_path / "one")
    two = prepare(TINY_CSV, 5, tmp_path / "two")
    assert Path(one.csv_path).read_bytes() == Path(two.csv_path).read_bytes()
    assert one.malformed == two.malformed


def test_normalised_time_rescales_each_stretch_by_its_probes():
    probe = SpeedProbe(sensitivity=1.0)
    # (handler start, handler end, probe duration): twice, twice, once the reference
    probe.probes = [(0.0, 1.0, 2 * REF_PROBE_S), (3.0, 3.5, 2 * REF_PROBE_S),
                    (5.5, 6.0, REF_PROBE_S)]
    # 1.0 -> 3.0 slowed 2x, then 3.5 -> 5.5 slowed by the mean of 2x and 1x
    assert probe.normalised(1.0, 5.5) == pytest.approx(2.0 / 2 + 2.0 / 1.5)
    assert probe.slowdown(0.0, 5.5) == pytest.approx(2.0)
    # a workload that feels half of the probe's extra time
    probe.sensitivity = 0.5
    assert probe.normalised(1.0, 5.5) == pytest.approx(2.0 / 1.5 + 2.0 / 1.25)


def test_speed_probe_samples_while_on_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(sensitivity=1.0) as probe:
        with probe.window() as window:
            end = window.start + 0.1
            while probe.probes[-1][1] < end:
                sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.probes) > 3  # the two around the window, and the timer's
    assert 0 < window.normalised_s
    assert window.raw_s >= 0.1


def test_tracer_restores_every_patched_attribute(tmp_path):
    def current():
        return [getattr(importlib.import_module(m), a) for m, a, _, _ in PATCH_POINTS]

    before = current()
    inputs = prepare(TINY_RUN, 0, tmp_path)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert all(now is not old for now, old in zip(current(), before))
            cli.main(inputs.argv + ["--quiet"])
            raise RuntimeError("leave the block early")
    assert all(now is old for now, old in zip(current(), before))
    assert tracer.summary()["regression.clip_gradient"][0] > 0


def test_traced_outputs_match_untraced_bytes(tmp_path):
    inputs = prepare(TINY_RUN, 3, tmp_path)
    result = _measure(TINY_RUN, inputs, trace=True)
    assert result["failed"] == 0
    assert result["attempted"] == 2 * MIN_ITERATIONS
    layers = result["layers"]
    assert layers["regression.clip_calls"] > 0
    assert layers["engine.pilot_s"] > 0
    assert 0 <= layers["regression.clip_active_frac"] <= 1
    assert layers["engine.rounds"] == TINY_RUN.rounds_rows


def test_csv_workload_checks_pass(tmp_path):
    inputs = prepare(TINY_CSV, 1, tmp_path)
    result = _measure(TINY_CSV, inputs)
    assert result["problems"] == []
    assert result["metrics"]["failed_frac"] == 0
    assert result["metrics"]["wall_s"] > 0
    assert result["raw"]["wall_s"] > 0


def _set_first_row_cell(path: Path, column: int, value: str) -> None:
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[column] = value
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


@pytest.mark.parametrize("column, value, problem", [
    (5, "nan", "finite"),  # global_loss no longer finite
    (4, "0.5", "differ"),  # still valid, but other bytes than the first command's
])
def test_corrupted_output_counts_in_failed_frac(tmp_path, monkeypatch, column, value,
                                                problem):
    inputs = prepare(TINY_RUN, 2, tmp_path)
    real_main = cli.main
    calls = []

    def corrupting_main(argv):
        code = real_main(argv)
        calls.append(argv)
        if len(calls) == 2:
            _set_first_row_cell(Path(inputs.out_dir) / "rounds.csv", column, value)
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = _measure(TINY_RUN, inputs)
    assert result["attempted"] == MIN_ITERATIONS
    assert result["failed"] == 1
    assert result["metrics"]["failed_frac"] == 1 / MIN_ITERATIONS
    assert any(problem in p for p in result["problems"])

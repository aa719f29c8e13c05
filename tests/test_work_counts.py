"""Deterministic work counts on the benchmark workloads' step shapes: a perf guard without timings.

Each case runs a benchmark workload's shape (pool size, local steps, repeats,
shard size, features, clip norm and mechanism) for a few rounds through the
CLI drivers, and counts the work the program does through entry points that
a restructure of the kernel keeps: local-step states built, dual-form K_l
builds (``pool_kernel``), norm passes per clip, noise draws and the threads
that make them, client updates and aggregations; and, for a CSV read, the
bulk parser's calls and the row-by-row reader's. The counts are exact integers, but for the
threads validate starts, which depend on timing (see
``test_bench_shapes_do_the_pinned_work``); a change that alters one states
so where it is made.
"""
import threading
from collections import Counter

import numpy as np
import pytest

from dpfedsim import data, engine, harness, regression
from dpfedsim.config import parse_config
from dpfedsim.data import load_csv
from dpfedsim.engine import pilot_gradient_bound
from dpfedsim.harness import build_experiment, cmd_run, cmd_validate, run_repeats
from dpfedsim.regression import PaddedShards, _DualSteps

# each benchmark workload's shape at 4 rounds over 2 pools (run-many-clients
# on synthetic shards of its ~20 rows rather than its CSV)
WORK_SHAPES = {
    "run-default": """
[federation]
clients = 20
pool_size = 10
local_iters = 5
global_iters = 4
clip_threshold = 150.0
clip_norm = l1
repeats = 20
seed = 31

[dp]
mechanism = laplace
epsilon = 3.0

[data]
n_per_client = 20
features = 5
seed = 31
""",
    "run-many-clients": """
[federation]
clients = 200
pool_size = 100
local_iters = 1
global_iters = 4
clip_threshold = 1.0
clip_norm = l2
repeats = 5
seed = 31

[dp]
mechanism = gaussian
epsilon = 8.0
delta = 1e-4

[data]
n_per_client = 20
features = 5
seed = 31
""",
    "run-wide": """
[federation]
clients = 40
pool_size = 20
local_iters = 5
global_iters = 4
clip_threshold = 1.0
clip_norm = l2
repeats = 10
seed = 31

[dp]
mechanism = laplace
epsilon = 3.0

[data]
n_per_client = 50
features = 199
seed = 31
""",
    "validate-gaussian": """
[federation]
clients = 100
pool_size = 10
clip_threshold = 2.0
clip_norm = l2
seed = 31

[dp]
mechanism = gaussian
epsilon = 8.0
delta = 1e-4

[data]
features = 19
seed = 31
""",
}

# taken from the code before local_steps became the one place that picks the
# step form, and the noise counts from the code that first drew in chunks.
# run-default: 4 rounds of the run and 4 of its L1 pilot, which takes its
# local steps without client_update; a "clip_passes_k" entry counts the clips
# that took k norm passes. run-wide builds its pool's
# K_l once a round, round 0's in line and the next 3 on the run's one worker
# thread, and hands each to a _DualSteps; the Gram-form shapes build none. A
# run draws its noise with one unit_noise call per repeat per chunk of
# rounds: 4 rounds are one chunk of run-default's and run-many-clients'
# shapes, so they start no thread, but 4 chunks of run-wide's, whose worker
# draws the last 3. validate draws each of its 10 pools' 1000 aggregations
# in one slice, which holds 2^18 // (10 * 20) = 1310 rows
WORK_COUNTS = {
    "run-default": dict(local_steps_calls=8, client_update_calls=4, aggregate_calls=12,
                        clip_passes_1=25, clip_passes_2=15,
                        run_noise_calls=20, run_noise_values=4800),
    "run-many-clients": dict(local_steps_calls=4, client_update_calls=4, aggregate_calls=8,
                             clip_passes_2=4, run_noise_calls=5, run_noise_values=12000),
    "run-wide": dict(local_steps_calls=4, client_update_calls=4, aggregate_calls=8,
                     clip_passes_2=20, run_noise_calls=40, run_noise_values=160000,
                     dual_steps_init_calls=4, pool_kernel_calls=4, threads_started=1),
    # no engine call: validate draws its pool noise in the harness
    "validate-gaussian": dict(validate_noise_calls=10, validate_noise_values=2000000),
}


def _counting(monkeypatch):
    """Wrap the counted entry points; returns the Counter they add to.

    validate draws on worker threads, so every count is added under a lock.
    """
    counts = Counter()
    lock = threading.Lock()

    def add(key, n=1):
        with lock:
            counts[key] += n

    def count(owner, name, key, drawn=False):
        original = getattr(owner, name)

        def passthrough(*args, **kwargs):
            out = original(*args, **kwargs)
            add(f"{key}_calls")
            if drawn:
                add(f"{key}_values", out.size)
            return out

        monkeypatch.setattr(owner, name, passthrough)

    count(PaddedShards, "local_steps", "local_steps")
    count(_DualSteps, "__init__", "dual_steps_init")
    # the engine builds K_l ahead by its own name, local_steps in line by regression's
    count(engine, "pool_kernel", "pool_kernel")
    count(regression, "pool_kernel", "pool_kernel")
    count(engine, "client_update", "client_update")
    count(engine, "aggregate", "aggregate")
    count(engine, "unit_noise", "run_noise", drawn=True)
    count(harness, "sample_noise", "validate_noise", drawn=True)
    count(np, "loadtxt", "loadtxt")
    count(data, "_read_rows", "read_rows")

    class Counted(threading.Thread):
        def start(self):
            add("threads_started")
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    clip = engine.clip_gradient

    def clip_gradient(g, zeta, norm_kind, row_norms):
        passes = 0

        def counted(rows, kind):
            nonlocal passes
            passes += 1
            return row_norms(rows, kind)

        out = clip(g, zeta, norm_kind, counted)
        add(f"clip_passes_{passes}")
        return out

    monkeypatch.setattr(engine, "clip_gradient", clip_gradient)
    return counts


@pytest.mark.parametrize("shape", WORK_SHAPES)
def test_bench_shapes_do_the_pinned_work(shape, tmp_path, monkeypatch):
    config = tmp_path / "work.cfg"
    config.write_text(WORK_SHAPES[shape])
    counts = _counting(monkeypatch)
    if shape.startswith("validate"):
        # two workers for the 10 pools: the executor starts a second thread
        # only if no worker is idle when a pool is handed over, so it starts 1 or 2
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        cmd_validate(config, draws=10**4, quiet=True)
        assert 1 <= counts.pop("threads_started", 0) <= 2
    else:
        cmd_run(config, tmp_path / "out", quiet=True)
    assert dict(counts) == WORK_COUNTS[shape]


# a run keeps its per-round metrics as columns and writes rounds.csv from
# them, so cmd_run builds no RoundRecord; the bound is still evaluated once a
# round for all the repeats: the 4 rounds' k, on the module as the tracer
# patches it. Every run shape uses the decay schedule from theta_0 = 0, so
# each round has a bound; the L1 pilot has none
RECORD_COUNTS = dict(round_record_calls=0, convergence_bound_calls=4)


@pytest.mark.parametrize("shape", [shape for shape in WORK_SHAPES if shape.startswith("run")])
def test_a_run_builds_no_round_record_and_bounds_each_round_once(shape, tmp_path, monkeypatch):
    config = tmp_path / "work.cfg"
    config.write_text(WORK_SHAPES[shape])
    counts = Counter()
    for owner, name, key in [(engine.RoundRecord, "__init__", "round_record_calls"),
                             (engine.bounds, "convergence_bound", "convergence_bound_calls")]:
        original = getattr(owner, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    summary = cmd_run(config, tmp_path / "out", quiet=True)
    assert summary.divergence_count == 0
    assert {key: counts[key] for key in RECORD_COUNTS} == RECORD_COUNTS
    rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * summary.repeats
    assert "nan" not in {row.split(",")[7] for row in rows}


# np.matmul calls of one run_repeats at 4 rounds, the set-up and the L1 pilot
# excluded, taken from the code that drew the run's noise through a cursor
# class. Each round's metrics make 5: the pooled loss's product and four row
# dot products (``regression._row_dots``). Beyond them, run-default's Gram form
# takes one GEMM per local step (20 steps); run-many-clients builds the Gram
# statistics of every client once (2), then takes one GEMM per step (4) and
# one row dot product per L2 norm pass (8); run-wide's dual form builds each
# pool's K_l and dual start (8), takes two GEMMs per step, one for the clip's
# norms and one for the step (40), and forms the parameters once a round (4).
# run-wide's K_l products after round 0's are made on the worker thread, so
# the count is taken under a lock
MATMUL_COUNTS = {"run-default": 40, "run-many-clients": 34, "run-wide": 72}


@pytest.mark.parametrize("shape", MATMUL_COUNTS)
def test_bench_shapes_make_the_pinned_matmul_calls(shape, tmp_path, monkeypatch):
    config = tmp_path / "work.cfg"
    config.write_text(WORK_SHAPES[shape])
    experiment = build_experiment(parse_config(config))
    calls = 0
    lock = threading.Lock()
    matmul = np.matmul

    def counted(*args, **kwargs):
        nonlocal calls
        with lock:
            calls += 1
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    run_repeats(experiment)
    assert calls == MATMUL_COUNTS[shape]


# the benchmark's own round counts: run-default's 100 rounds are chunks of 54
# and 46, run-many-clients' are 4 chunks of 21 and one of 16, and every one of
# run-wide's 50 rounds is a chunk, since its 10 x 20 x 200 values per round
# pass half of engine.NOISE_CHUNK_ELEMENTS; one worker thread draws every
# chunk after the first
BENCH_ROUNDS = {"run-default": 100, "run-many-clients": 100, "run-wide": 50}
BENCH_NOISE_COUNTS = {
    "run-default": dict(run_noise_calls=40, run_noise_values=120000, threads_started=1),
    "run-many-clients": dict(run_noise_calls=25, run_noise_values=300000, threads_started=1),
    "run-wide": dict(run_noise_calls=500, run_noise_values=2000000, threads_started=1),
}


@pytest.mark.parametrize("shape", BENCH_ROUNDS)
def test_bench_shapes_draw_their_noise_in_the_pinned_chunks(shape, tmp_path, monkeypatch):
    config = tmp_path / "work.cfg"
    config.write_text(WORK_SHAPES[shape].replace(
        "global_iters = 4", f"global_iters = {BENCH_ROUNDS[shape]}"))
    counts = _counting(monkeypatch)
    cmd_run(config, tmp_path / "out", quiet=True)
    noise = {key: counts[key] for key in BENCH_NOISE_COUNTS[shape]}
    assert noise == BENCH_NOISE_COUNTS[shape]


def _l1_experiment(shape, tmp_path):
    """The experiment of a run shape under L1 clipping, at the benchmark's round count."""
    config = tmp_path / "work.cfg"
    config.write_text(WORK_SHAPES[shape].replace("clip_norm = l2", "clip_norm = l1").replace(
        "global_iters = 4", f"global_iters = {BENCH_ROUNDS[shape]}"))
    return build_experiment(parse_config(config))


# the pilot runs noise-free under L1 clipping, so in Gram form (run-default)
# and in residual form (run-wide's shape under L1) it builds no kernel and no
# noise chunk, and starts no thread, at the benchmark's round counts
@pytest.mark.parametrize("shape", ["run-default", "run-wide"])
def test_the_noise_free_l1_pilot_builds_no_kernel_and_starts_no_thread(
        shape, tmp_path, monkeypatch):
    experiment = _l1_experiment(shape, tmp_path)
    counts = _counting(monkeypatch)
    pilot_gradient_bound(experiment.config, experiment.dataset)
    assert counts["local_steps_calls"] == BENCH_ROUNDS[shape]
    assert counts["pool_kernel_calls"] == counts["run_noise_calls"] == 0
    assert counts["threads_started"] == 0


# the pilot's G, bit for bit, as the round loop measured it when the pilot ran
# through it: in Gram form on run-default's shape and in residual form on
# run-wide's (p = 200 > n_l = 50) under L1
@pytest.mark.parametrize("shape,form,bound", [("run-default", "gram", "0x1.7f9703b22e4ffp+2"),
                                              ("run-wide", "residual", "0x1.7be1ab6848d3cp-4")])
def test_the_l1_pilot_measures_the_pinned_gradient_bound(shape, form, bound, tmp_path):
    experiment = _l1_experiment(shape, tmp_path)
    assert experiment.dataset.step_form("l1") == form
    assert pilot_gradient_bound(experiment.config, experiment.dataset).hex() == bound


# a plain 6-column CSV of 5500 rows, like the run-many-clients input: about 1%
# of the rows have one blank or n/a cell, and the file spans 3 read blocks
INGEST_ROWS = 5500
# one np.loadtxt call per block and no read_rows call: the csv.reader stream
# reads the same records about twice as slowly
INGEST_COUNTS = dict(loadtxt_calls=3)


def _plain_csv(path):
    rng = np.random.default_rng(31)
    lines = [",".join(f"{v:.6f}" for v in row) for row in rng.standard_normal((INGEST_ROWS, 6))]
    for row in np.flatnonzero(rng.random(INGEST_ROWS) < 0.01).tolist():
        cells = lines[row].split(",")
        cells[rng.integers(6)] = rng.choice(["", "n/a"])
        lines[row] = ",".join(cells)
    path.write_text("x1,x2,x3,x4,x5,y\n" + "\n".join(lines) + "\n")
    return path


def test_a_plain_csv_is_read_in_one_bulk_parse_per_block(tmp_path, monkeypatch):
    path = _plain_csv(tmp_path / "input.csv")
    assert 2 * data._PLAIN_BLOCK_BYTES < path.stat().st_size <= 3 * data._PLAIN_BLOCK_BYTES
    counts = _counting(monkeypatch)
    with pytest.warns(UserWarning, match="skipped 46 rows"):
        load_csv(path, "y", seed=31)
    assert dict(counts) == INGEST_COUNTS

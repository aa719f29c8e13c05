import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpfedsim.cli import main as cli_main
from dpfedsim.bounds import e_from_rule
from dpfedsim.config import parse_config
from dpfedsim.engine import ClipSpec, Schedule, pool_slice, run_federation
from dpfedsim.harness import (
    build_experiment,
    cmd_plan,
    cmd_run,
    cmd_sweep,
    cmd_validate,
    run_repeats,
)
from dpfedsim import harness
from dpfedsim.mechanisms import sample_noise
from dpfedsim.reference import centralized_gd_oracle
from dpfedsim.regression import ClientShard, ConfigError, PaddedShards

SMALL_TASK = """
[federation]
clients = 8
pool_size = 4
local_iters = 2
global_iters = 20
clip_threshold = 20
clip_norm = l2
seed = 0
repeats = 3

[data]
n_per_client = 10
features = 3
heterogeneity = 0.3
noise_std = 0.1
"""


def write(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------


def test_build_experiment_default_synth(tmp_path):
    exp = build_experiment(parse_config(write(tmp_path, SMALL_TASK)))
    assert exp.config.n_clients == 8
    assert exp.dataset.n == 80
    assert exp.config.schedule.kind == "decay"
    assert exp.constants.assumptions_ok
    assert exp.constants.g_bound == 20.0  # L2 clipping: threshold is the bound


def test_l1_clipping_tightens_gradient_bound_via_pilot(tmp_path):
    body = SMALL_TASK.replace("clip_norm = l2", "clip_norm = l1")
    exp = build_experiment(parse_config(write(tmp_path, body)))
    assert 0 < exp.constants.g_bound < 20.0


@pytest.mark.parametrize("norm,pilots", [("l2", 0), ("l1", 1)])
def test_only_l1_clipping_runs_the_pilot(tmp_path, monkeypatch, norm, pilots):
    # the pilot measures G under L1 clipping only, and refuses any other norm
    calls = []
    pilot = harness.pilot_gradient_bound
    monkeypatch.setattr(harness, "pilot_gradient_bound",
                        lambda *args: calls.append(args) or pilot(*args))
    body = SMALL_TASK.replace("clip_norm = l2", f"clip_norm = {norm}")
    exp = build_experiment(parse_config(write(tmp_path, body)))
    assert len(calls) == pilots
    if norm == "l2":
        assert exp.constants.g_bound == 20.0
        with pytest.raises(ConfigError, match="l1 clipping only"):
            pilot(exp.config, exp.dataset)


def test_overflowing_pilot_warns_nothing(tmp_path):
    # the pilot's first local step overflows; like a run, it stops there silently
    body = """
[federation]
clients = 10
pool_size = 5
local_iters = 3
global_iters = 10
clip_threshold = 1e10
clip_norm = l1

[schedule]
kind = constant
eta = 1.5e308
"""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = build_experiment(parse_config(write(tmp_path, body)))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert 0 < exp.constants.g_bound <= 1e10


def test_decay_schedule_rejected_on_singular_task(tmp_path):
    # one client, one sample, several features: the pooled Hessian is singular
    body = """
[federation]
clients = 1
pool_size = 1
local_iters = 1
global_iters = 5
clip_threshold = 10
clip_norm = l2

[data]
n_per_client = 1
features = 3
"""
    with pytest.raises(ConfigError, match="assumptions violated"):
        build_experiment(parse_config(write(tmp_path, body)))
    # the constant schedule still runs, with bound reporting disabled
    exp = build_experiment(
        parse_config(write(tmp_path, body + "\n[schedule]\nkind = constant\neta = 0.01\n"))
    )
    res = run_repeats(exp)[0]
    assert all(math.isnan(r.bound_y_k) for r in res.records)


def test_csv_experiment_roundtrip(tmp_path):
    rows = ["f1,f2,rate"]
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b = rng.standard_normal(2)
        rows.append(f"{a},{b},{a * 2 - b + rng.standard_normal() * 0.1}")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    body = f"""
[federation]
clients = 4
pool_size = 2
local_iters = 1
global_iters = 8
clip_threshold = 20
clip_norm = l2
repeats = 1

[data]
kind = csv
path = {csv_path}
target_column = rate
train_fraction = 1.0
"""
    exp = build_experiment(parse_config(write(tmp_path, body)))
    assert exp.dataset.n == 40
    assert exp.dataset.dim == 3  # 2 features + bias
    res = run_repeats(exp)[0]
    assert len(res.records) == 8


# ---------------------------------------------------------------------------
# cmd_run
# ---------------------------------------------------------------------------


def test_run_writes_fixed_schema_csv(tmp_path):
    path = write(tmp_path, SMALL_TASK)
    summary = cmd_run(path, tmp_path / "out", quiet=True)
    csv_path = tmp_path / "out" / "rounds.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "run_id,seed,t,k,eta_k,global_loss,y_k,bound_y_k,noise_l2"
    # 3 repeats x 20 rounds
    assert len(lines) == 1 + 3 * 20
    # each row is its record, field by field: ints as written, floats by repr
    exp = build_experiment(parse_config(path))
    assert lines[1:] == [
        ",".join(map(harness._fmt, (run_id, exp.config.seed + run_id, *dataclasses.astuple(rec))))
        for run_id, run in enumerate(run_repeats(exp)) for rec in run.records
    ]
    assert summary.divergence_count == 0
    assert summary.final.t == 19


def test_run_rerun_is_byte_identical(tmp_path):
    path = write(tmp_path, SMALL_TASK)
    cmd_run(path, tmp_path / "a", quiet=True)
    cmd_run(path, tmp_path / "b", quiet=True)
    assert (tmp_path / "a" / "rounds.csv").read_bytes() == (
        tmp_path / "b" / "rounds.csv"
    ).read_bytes()


def _rounds_csv_per_record(results, base_seed):
    """rounds.csv written the way it was before the metric columns: one f-string per RoundRecord."""
    lines = [harness.ROUNDS_COLUMNS]
    for run_id, result in enumerate(results):
        seed = base_seed + run_id
        lines += [
            f"{run_id},{seed},{rec.t},{rec.k},{rec.eta_k!r},{rec.global_loss!r},"
            f"{rec.y_k!r},{rec.bound_y_k!r},{rec.noise_l2!r}"
            for rec in result.records
        ]
    return "\n".join(lines) + "\n"


# at this constant rate and Gaussian noise the 20 repeats of seed 0 diverge
# after 8 to 19 rounds, and three complete all 20
DIVERGING_TASK = SMALL_TASK.replace("clip_threshold = 20", "clip_threshold = 1.0").replace(
    "repeats = 3", "repeats = 20") + """
[schedule]
kind = constant
eta = 0.1

[dp]
mechanism = gaussian
epsilon = 6e-12
delta = 1e-4
"""
CSV_CASES = {
    # the bound is NaN under the constant schedule; y_k is not
    "diverging": (DIVERGING_TASK, True),
    # noise_l2 is 0.0 in every row
    "noise-free": (SMALL_TASK, True),
    # without constants both y_k and bound_y_k are NaN
    "no-constants": (SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 2.0\n", False),
}


@pytest.mark.parametrize("blocks", ["one-block", "lane-blocks"])
@pytest.mark.parametrize("case", CSV_CASES)
def test_rounds_csv_from_the_columns_equals_the_per_record_writer(
        tmp_path, monkeypatch, case, blocks):
    task, with_constants = CSV_CASES[case]
    exp = build_experiment(parse_config(write(tmp_path, task)))
    if blocks == "lane-blocks":
        # a cap below one repeat's work array: one lane block of repeats per _run_block
        monkeypatch.setattr("dpfedsim.engine.CHUNK_ELEMENTS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the diverging repeats' overflow
        results = run_federation(exp.config, exp.dataset,
                                 exp.constants if with_constants else None).runs
    metrics = {id(run.metrics) for run in results}
    assert len(metrics) == (1 if blocks == "one-block" else -(-len(results) // 8))
    rounds = {run.rounds for run in results}
    if case == "diverging":
        assert len(rounds) > 1 and exp.config.global_iters in rounds
    else:
        assert rounds == {exp.config.global_iters}
    got = harness._rounds_csv(results, exp.config.seed)
    want = _rounds_csv_per_record(results, exp.config.seed)
    assert got == want
    rows = [line.split(",") for line in got.splitlines()[1:]]
    assert len(rows) == sum(run.rounds for run in results)
    if case == "noise-free":
        assert {row[-1] for row in rows} == {"0.0"}
    if case == "no-constants":
        assert {row[6] for row in rows} == {row[7] for row in rows} == {"nan"}
    if case == "diverging":
        assert {row[7] for row in rows} == {"nan"} and "nan" not in {row[6] for row in rows}


@pytest.mark.parametrize("global_iters", [10**15, 10**30])
def test_cli_metric_columns_that_cannot_be_allocated_are_one_error_line(
        tmp_path, capsys, global_iters):
    # (T_g, 3) float columns of 21 PiB and past numpy's dimension limit: numpy
    # refuses both before any page is touched; b T_g is a multiple of N = 8
    path = write(tmp_path, SMALL_TASK.replace("global_iters = 20",
                                              f"global_iters = {global_iters}"))
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the per-round metrics of global_iters={global_iters} "
                          "rounds x 3 repeats do not fit in memory (")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_run_single_repeat_has_zero_std(tmp_path):
    path = write(tmp_path, SMALL_TASK)
    summary = cmd_run(path, tmp_path / "out", repeats=1, quiet=True)
    assert summary.final.loss_std == 0.0 and summary.final.y_std == 0.0


def test_run_noise_free_default_task_converges(tmp_path):
    # empty config = the documented default synthetic task
    path = write(tmp_path, "# defaults\n")
    summary = cmd_run(path, tmp_path / "out", repeats=1, quiet=True)
    exp = build_experiment(parse_config(path))
    assert summary.final.y_mean <= 1e-3 * exp.constants.y0


def test_run_seed_override_changes_noise(tmp_path):
    body = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 2.0\nxi1 = 1.0\n"
    path = write(tmp_path, body)
    a = cmd_run(path, tmp_path / "a", seed=0, repeats=1, quiet=True)
    b = cmd_run(path, tmp_path / "b", seed=99, repeats=1, quiet=True)
    assert a.final.loss_mean != b.final.loss_mean


WRITERS = {
    "run": (lambda cfg, out: cmd_run(cfg, out, repeats=1, quiet=True), "rounds.csv"),
    "sweep": (lambda cfg, out: cmd_sweep(cfg, out, repeats=1, quiet=True), "sweep.csv"),
    "plan": (lambda cfg, out: cmd_plan(cfg, out, quiet=True), "plan.txt"),
    "validate": (lambda cfg, out: cmd_validate(cfg, 10**4, out, quiet=True), "validate.txt"),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_failed_output_replace_keeps_the_previous_file(tmp_path, monkeypatch, command):
    body = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 2.0\nxi1 = 1.0\n"
    body += "[sweep]\naxis = T\nvalues = 40\n"
    run, name = WRITERS[command]
    out = tmp_path / "out"
    run(write(tmp_path, body), out)
    before = (out / name).read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        run(write(tmp_path, body.replace("seed = 0", "seed = 1")), out)
    assert (out / name).read_bytes() == before
    assert [p.name for p in out.iterdir()] == [name]  # no temporary file left behind


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_and_csv(tmp_path):
    body = SMALL_TASK + "\n[sweep]\naxis = T\nvalues = 20, 40\n"
    path = write(tmp_path, body)
    rows = cmd_sweep(path, tmp_path / "out", repeats=2, quiet=True)
    assert [r.value for r in rows] == [20, 40]
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,mean_final_loss,std_final_loss,mean_final_y,diverged_runs"
    assert len(lines) == 3


def test_data_is_built_once_per_run_and_per_sweep(tmp_path, monkeypatch):
    builds, loads = [], []
    build, load_csv = PaddedShards.from_pooled.__func__, harness.load_csv
    monkeypatch.setattr(PaddedShards, "from_pooled",
                        classmethod(lambda cls, *a: builds.append(1) or build(cls, *a)))
    monkeypatch.setattr(harness, "load_csv", lambda *a, **k: loads.append(1) or load_csv(*a, **k))
    # L1 clipping runs the pilot; the constants, the pilot and three repeats share one store
    l1_task = SMALL_TASK.replace("clip_norm = l2", "clip_norm = l1")
    cmd_run(write(tmp_path, l1_task), tmp_path / "out", quiet=True)
    assert len(builds) == 1
    builds.clear()
    # every grid point runs its own pilot on the one store
    body = CSV_TASK.format(csv_path=write_rate_csv(tmp_path)).replace("= l2", "= l1") + (
        "target_column = rate\n\n[sweep]\naxis = E\nvalues = 1, 2\n"
    )
    rows = cmd_sweep(write(tmp_path, body), tmp_path / "out", quiet=True)
    assert len(rows) == 2 and len(loads) == 1 and len(builds) == 1


def test_sweep_requires_axis(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        cmd_sweep(write(tmp_path, SMALL_TASK), tmp_path / "out", quiet=True)


def test_sweep_rejects_bad_grid_point_before_running(tmp_path):
    body = SMALL_TASK + "\n[sweep]\naxis = T\nvalues = 20, 25\n"  # 25 not divisible by E=2
    path = write(tmp_path, body)
    with pytest.raises(ConfigError, match="divide"):
        cmd_sweep(path, tmp_path / "out", quiet=True)
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_epsilon_axis_with_inf_benchmark(tmp_path):
    body = (
        SMALL_TASK
        + "\n[dp]\nmechanism = laplace\nepsilon = 1.0\nxi1 = 2.0\n"
        + "\n[sweep]\naxis = epsilon\nvalues = 0.5, inf\n"
    )
    rows = cmd_sweep(write(tmp_path, body), tmp_path / "out", repeats=2, quiet=True)
    assert math.isinf(rows[1].value)
    # the noise-free benchmark ends lower than the small-budget run
    assert rows[1].mean_final_loss < rows[0].mean_final_loss


def test_sweep_e_rule_axis(tmp_path):
    # full participation: the T rule collapses to T_g = 1, which needs b = N
    body = (
        SMALL_TASK.replace("local_iters = 2", "local_iters = 1")
        .replace("global_iters = 20", "global_iters = 40")
        .replace("pool_size = 4", "pool_size = 8")
        + "\n[dp]\nmechanism = laplace\nepsilon = 3.0\nxi1 = 2.0\n"
        + "\n[sweep]\naxis = E_rule\nvalues = 1, T^{1/2}, T\n"
    )
    rows = cmd_sweep(write(tmp_path, body), tmp_path / "out", repeats=2, quiet=True)
    assert [r.value for r in rows] == ["1", "T^{1/2}", "T"]


def test_sweep_rows_are_independent(tmp_path):
    # deleting a grid point must not change any other row's bytes
    full = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 2.0\nxi1 = 1.0\n[sweep]\naxis = T\nvalues = 12, 20, 40\n"
    part = full.replace("values = 12, 20, 40", "values = 12, 40")
    cmd_sweep(write(tmp_path, full, "full.cfg"), tmp_path / "full", repeats=2, quiet=True)
    cmd_sweep(write(tmp_path, part, "part.cfg"), tmp_path / "part", repeats=2, quiet=True)
    full_rows = (tmp_path / "full" / "sweep.csv").read_text().splitlines()
    part_rows = (tmp_path / "part" / "sweep.csv").read_text().splitlines()
    assert part_rows == [full_rows[0], full_rows[1], full_rows[3]]


LONG_RUN_TASK = """
[federation]
clients = 10
pool_size = 10
local_iters = 5
global_iters = 80
clip_threshold = 8.0
clip_norm = l2
repeats = {reps}

[dp]
mechanism = {mech}
epsilon = {eps}
delta = 0.0001

[data]
n_per_client = 20
features = 3
heterogeneity = 0.5
noise_std = 0.1
"""


def _final_y_by_total(tmp_path, name, mech, eps, reps, totals):
    raw = parse_config(write(tmp_path, LONG_RUN_TASK.format(mech=mech, eps=eps, reps=reps), name))
    from dpfedsim.harness import _point_raw

    out = []
    for total in totals:
        exp = build_experiment(_point_raw(raw, "T", total))
        out.append(float(np.mean([r.records[-1].y_k for r in run_repeats(exp)])))
    return out


def test_rate_exponent_sign_predicts_long_run_behavior(tmp_path):
    # z=0: the noise-free error keeps shrinking on a doubling grid
    free = _final_y_by_total(tmp_path, "f.cfg", "none", "inf", 10, [50, 100, 200, 400])
    assert all(a > b for a, b in zip(free, free[1:]))
    # z=2: the laplace error grows over the top half of the grid
    lap = _final_y_by_total(tmp_path, "l.cfg", "laplace", 64.0, 10, [50, 100, 200, 400])
    assert lap[1] < lap[2] < lap[3]
    # z=1: the gaussian error levels off; the floor is all noise, so it takes
    # many seeds for the mean to stabilize below the 10% gate: the per-repeat
    # relative sd of the paired difference is about 0.9, so 1000 repeats give a
    # standard error of about 3% against a true difference of about 4%
    gauss = _final_y_by_total(tmp_path, "g.cfg", "gaussian", 32.0, 1000, [200, 400])
    assert abs(gauss[1] - gauss[0]) / gauss[0] < 0.10


def test_e_from_rule_divisor_adjustment():
    assert e_from_rule("1", 120) == 1
    assert e_from_rule("T", 120) == 120
    assert e_from_rule("T^{1/3}", 120) == 5  # 4.93 -> 5, divides 120
    assert e_from_rule("T^{1/2}", 120) == 10  # 10.95 -> 11 -> tie 10/12 -> 10
    assert e_from_rule("T^{2/3}", 120) == 24
    with pytest.raises(ConfigError):
        e_from_rule("T^{3/4}", 120)


# ---------------------------------------------------------------------------
# cmd_plan
# ---------------------------------------------------------------------------


def test_plan_laplace_large_t(tmp_path):
    body = """
[federation]
clients = 10
pool_size = 10
local_iters = 1
global_iters = 1000
clip_threshold = 5
clip_norm = l2

[dp]
mechanism = laplace
epsilon = 1.0
"""
    report = cmd_plan(write(tmp_path, body), quiet=True)
    assert report.z == 2.0
    assert report.rate_exp == pytest.approx(1 / 3)
    assert report.e_star_raw == 100
    assert report.e_star == 100  # 100 divides 1000
    assert report.scale_label == "laplace scale"
    assert report.bound_samples is not None
    assert "finite optimal T" in report.classification


def test_plan_gaussian_reports_constant_plateau(tmp_path):
    body = SMALL_TASK + "\n[dp]\nmechanism = gaussian\nepsilon = 2.0\ndelta = 0.0001\n"
    report = cmd_plan(write(tmp_path, body), quiet=True)
    assert report.z == 1.0
    assert report.rate_exp == 0.0
    assert "O(1)" in report.classification
    assert report.variance_paper == pytest.approx(2 * report.variance_exact)


def test_plan_epsilon_scaling(tmp_path):
    base = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = {eps}\nxi1 = 2.0\n"
    r1 = cmd_plan(write(tmp_path, base.format(eps=1.0), "a.cfg"), quiet=True)
    r2 = cmd_plan(write(tmp_path, base.format(eps=0.5), "b.cfg"), quiet=True)
    assert r2.variance_exact == pytest.approx(4 * r1.variance_exact, rel=1e-12)


def test_plan_noise_free_reports_rate_only(tmp_path):
    report = cmd_plan(write(tmp_path, SMALL_TASK), quiet=True)
    assert report.mechanism == "none"
    assert report.rate_exp == -1.0
    assert report.variance_exact == 0.0
    assert report.scale_label is None


def test_plan_warns_when_laplace_xi1_is_below_the_l2_clip_reach(tmp_path):
    # p = 4 (3 features + bias) and zeta = 20: an l2-clipped gradient reaches L1 norm 40
    laplace = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 1.0\n"
    report = cmd_plan(write(tmp_path, laplace), out_dir=tmp_path / "out", quiet=True)
    assert report.warning.startswith("xi1=20 is below sqrt(p)*zeta=40")
    assert f"warning: {report.warning}" in (tmp_path / "out" / "plan.txt").read_text()
    for body in (laplace + "xi1 = 40\n",
                 laplace.replace("clip_norm = l2", "clip_norm = l1"),
                 SMALL_TASK + "\n[dp]\nmechanism = gaussian\nepsilon = 1.0\n"):
        assert cmd_plan(write(tmp_path, body, "quiet.cfg"), quiet=True).warning is None


@pytest.mark.parametrize("schedule", ["decay", "constant"])
def test_plan_and_run_report_the_same_bound(tmp_path, schedule):
    body = SMALL_TASK.replace("clip_norm = l2", "clip_norm = l1") + (
        "\n[dp]\nmechanism = laplace\nepsilon = 2.0\n")
    if schedule == "constant":
        body += "\n[schedule]\nkind = constant\neta = 0.01\n"
    path = write(tmp_path, body)
    report = cmd_plan(path, quiet=True)
    cmd_run(path, tmp_path / "out", quiet=True)
    rows = [line.split(",") for line in
            (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 * 20
    if schedule == "constant":
        assert report.bound_samples is None
        assert all(row[7] == "nan" for row in rows)
        return
    plan = {k: repr(value) for k, value in report.bound_samples}
    assert len(plan) == 20
    assert all(plan[int(row[3])] == row[7] for row in rows)


def test_plan_writes_report_file(tmp_path):
    cmd_plan(write(tmp_path, SMALL_TASK), out_dir=tmp_path / "out", quiet=True)
    text = (tmp_path / "out" / "plan.txt").read_text()
    assert "rate exponent" in text


# ---------------------------------------------------------------------------
# cmd_validate
# ---------------------------------------------------------------------------


def test_validate_laplace_small_draw_budget(tmp_path):
    body = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 1.0\nxi1 = 2.0\n"
    report = cmd_validate(write(tmp_path, body), draws=10**4, quiet=True)
    assert report.tolerance == 0.05
    assert report.passed


def test_validate_gaussian_matches_exact_not_paper(tmp_path):
    body = SMALL_TASK + "\n[dp]\nmechanism = gaussian\nepsilon = 1.0\nxi2 = 2.0\n"
    report = cmd_validate(write(tmp_path, body), draws=200_000, quiet=True)
    assert report.passed
    assert report.rel_err_exact < 0.05
    # the published-constant mode is off by a factor ~2
    assert 0.45 < report.predicted_exact / report.predicted_paper < 0.55


def test_validate_none_trivially_passes(tmp_path):
    report = cmd_validate(write(tmp_path, SMALL_TASK), draws=10**4, quiet=True)
    assert report.passed
    assert report.empirical == 0.0 == report.predicted_exact


def test_validate_rejects_tiny_draw_count(tmp_path):
    with pytest.raises(ConfigError):
        cmd_validate(write(tmp_path, SMALL_TASK), draws=100, quiet=True)


def _one_draw_per_pool(exp, draws):
    # reference: the whole (per_pool, b, p) noise of a pool in one draw on the
    # pool's child stream of SeedSequence((seed, draws)), its squares summed
    # in the slices validate sums them in
    cfg = exp.config
    ctx = harness._round0_context(exp)
    n_pools = cfg.n_clients // cfg.pool_size
    per_pool = draws // n_pools
    rows = max(1, min(per_pool, harness.VALIDATE_SLICE_ELEMENTS // (cfg.pool_size * ctx.p)))
    total = 0.0
    for t in range(n_pools):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, draws), spawn_key=(t,)))
        weights = (cfg.n_clients / cfg.pool_size) * exp.dataset.weights[
            pool_slice(t, cfg.n_clients, cfg.pool_size)
        ]
        w = sample_noise(cfg.mechanism, ctx, rng, (per_pool, cfg.pool_size))
        squares = np.einsum("dbp,b->dp", w, weights) ** 2
        pool_total = 0.0
        for lo in range(0, per_pool, rows):
            pool_total += float(np.sum(squares[lo:lo + rows]))
        total += pool_total
    return total / (per_pool * n_pools)


def _pools_task(tmp_path, mechanism, clients=6):
    # b = 3, p = 4, and T_g = 6 rounds divide among 6 or 9 clients
    body = (SMALL_TASK.replace("clients = 8\npool_size = 4", f"clients = {clients}\npool_size = 3")
            .replace("global_iters = 20", "global_iters = 6"))
    body += f"\n[dp]\nmechanism = {mechanism}\nepsilon = 1.0\n"
    return write(tmp_path, body)


@pytest.mark.parametrize("mechanism", ["laplace", "gaussian"])
@pytest.mark.parametrize("slice_elements", [24, 120])
def test_sliced_noise_draws_equal_one_draw_per_pool(tmp_path, monkeypatch, mechanism,
                                                    slice_elements):
    # b=3, p=4: 120 values are 10-row slices (4 of 10 and one of 7), 24 are
    # 2-row slices; 47 draws per pool leave a ragged last slice either way
    exp = build_experiment(parse_config(_pools_task(tmp_path, mechanism)))
    monkeypatch.setattr(harness, "VALIDATE_SLICE_ELEMENTS", slice_elements)
    got = harness._simulate_noise_aggregates(exp, 94)
    want = _one_draw_per_pool(exp, 94)
    assert got == want


@pytest.mark.parametrize("mechanism", ["laplace", "gaussian"])
def test_validate_mean_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, mechanism):
    # 3 pools on 1, 2 (one worker takes two pools) and 3 workers, in slices of
    # 2 rows, switching threads every microsecond, so each pool's draws
    # interleave with the other workers'
    exp = build_experiment(parse_config(_pools_task(tmp_path, mechanism, clients=9)))
    monkeypatch.setattr(harness, "VALIDATE_SLICE_ELEMENTS", 24)
    means = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
            means.append(harness._simulate_noise_aggregates(exp, 3 * 501))
    finally:
        sys.setswitchinterval(interval)
    assert means[0] == means[1] == means[2] == _one_draw_per_pool(exp, 3 * 501)


@pytest.mark.parametrize("failing_call", [1, 4, 9])
def test_a_noise_worker_out_of_memory_is_one_error_line(
        tmp_path, capsys, monkeypatch, failing_call):
    # 3 pools of 10^4 / 3 draws on 2 workers, 10 rows a slice: the k-th slice
    # drawn, in whichever worker, fails as numpy's allocator would
    before = threading.active_count()
    draw = harness.sample_noise
    calls = itertools.count(1)

    def fail_once(*args):
        if next(calls) == failing_call:
            raise MemoryError("Unable to allocate 2.00 MiB")
        return draw(*args)

    monkeypatch.setattr(harness, "sample_noise", fail_once)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "VALIDATE_SLICE_ELEMENTS", 120)
    path = _pools_task(tmp_path, "laplace", clients=9)
    code = cli_main(["validate", "--config", str(path), "--draws", str(10**4), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 2.00 MiB"]
    assert threading.active_count() == before


def test_a_failed_validate_pool_cancels_the_pools_not_started(tmp_path, monkeypatch):
    # 3 pools of 2 slices on one worker: the first slice fails and every later
    # draw takes 50 ms. The worker may take pool 1 before the caller cancels
    # the pools left, so at most pools 0 and 1 draw; pool 2 never starts
    before = threading.active_count()
    draw = harness.sample_noise
    drawn = []

    def fail_first(spec, ctx, rng, size):
        drawn.append(rng.bit_generator.seed_seq.spawn_key)
        if len(drawn) == 1:
            raise MemoryError("Unable to allocate 2.00 MiB")
        time.sleep(0.05)
        return draw(spec, ctx, rng, size)

    monkeypatch.setattr(harness, "sample_noise", fail_first)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(harness, "VALIDATE_SLICE_ELEMENTS", 120)
    exp = build_experiment(parse_config(_pools_task(tmp_path, "laplace", clients=9)))
    with pytest.raises(MemoryError, match="Unable to allocate"):
        harness._simulate_noise_aggregates(exp, 3 * 20)
    assert threading.active_count() == before
    assert drawn[0] == (0,) and set(drawn) <= {(0,), (1,)}


def test_validate_holds_one_noise_slice_per_worker_not_a_noise_block(tmp_path, monkeypatch):
    # b=10, p=20 and 10^4 draws per pool, on 2 workers: one draw per pool would
    # be a 16 MB (10^4, b, p) block. tracemalloc sees numpy's data allocations
    # on every thread. A worker holds one slice of 2^18 // (b p) = 1310 rows
    # (2.1 MB) and its (1310, p) aggregate; the two workers peaked at 1.009x
    # that pair, 0.29x the block.
    body = (
        "[federation]\nclients = 100\npool_size = 10\nclip_threshold = 2\nclip_norm = l2\n"
        "[dp]\nmechanism = gaussian\nepsilon = 8\ndelta = 1e-4\n[data]\nfeatures = 19\n"
    )
    exp = build_experiment(parse_config(write(tmp_path, body)))
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    harness._simulate_noise_aggregates(exp, 10**4)  # first-use allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        harness._simulate_noise_aggregates(exp, 10**5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = harness.VALIDATE_SLICE_ELEMENTS // (10 * 20)
    one_worker = (rows * 10 * 20 + rows * 20) * 8
    assert peak < 2.1 * one_worker < 10**4 * 10 * 20 * 8


# ---------------------------------------------------------------------------
# centralized oracle
# ---------------------------------------------------------------------------


def test_oracle_one_step_quadratic():
    # f(theta) = (theta - 1)^2 realized as a single sample x=1, y=1
    shard = ClientShard(0, np.array([[1.0]]), np.array([1.0]))
    traj = centralized_gd_oracle(
        [shard], total_iters=1, schedule=Schedule.constant(0.25),
        clip=ClipSpec(1e9, "l2"), theta_0=np.zeros(1),
    )
    assert traj[1] == pytest.approx([0.5])


def test_oracle_monotone_loss_under_small_rate():
    rng = np.random.default_rng(0)
    shards = [
        ClientShard(i, rng.standard_normal((10, 2)), rng.standard_normal(10))
        for i in range(3)
    ]
    from dpfedsim.reference import global_loss
    from dpfedsim.regression import PaddedShards, problem_constants

    pc = problem_constants(PaddedShards.build(shards), np.zeros(2), zeta=1e9)
    traj = centralized_gd_oracle(
        shards, 50, Schedule.constant(0.5 / pc.lam), ClipSpec(1e9, "l2")
    )
    losses = [global_loss(th, shards) for th in traj]
    # allow last-ulp wiggle once the iterates have converged
    assert all(b <= a * (1 + 1e-12) for a, b in zip(losses, losses[1:]))


def test_oracle_matches_engine_special_case(tmp_path):
    exp = build_experiment(
        parse_config(
            write(
                tmp_path,
                SMALL_TASK.replace("pool_size = 4", "pool_size = 8").replace(
                    "local_iters = 2", "local_iters = 1"
                ),
            )
        )
    )
    res = run_federation(exp.config, exp.dataset, exp.constants,
                         record_trajectory=True).runs[0]
    traj = centralized_gd_oracle(
        exp.dataset.shards, exp.config.global_iters, exp.config.schedule,
        exp.config.clip, exp.config.theta_0,
    )
    diff = max(
        float(np.max(np.abs(a - b))) for a, b in zip(res.trajectory, traj)
    )
    assert diff <= 1e-12


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    path = write(tmp_path, SMALL_TASK)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert (tmp_path / "o" / "rounds.csv").exists()


@pytest.mark.parametrize("command,key", [("run", "rounds_csv"), ("sweep", "sweep_csv")])
def test_cli_output_name_in_a_subdirectory(tmp_path, capsys, command, key):
    body = SMALL_TASK + f"\n[output]\n{key} = sub/deeper/out.csv\n"
    if command == "sweep":
        body += "\n[sweep]\naxis = E\nvalues = 1, 2\n"
    path = write(tmp_path, body)
    code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert [p.name for p in (tmp_path / "o" / "sub" / "deeper").iterdir()] == ["out.csv"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "[federation]\nclients = 7\npool_size = 2\n")
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1


@pytest.mark.parametrize("setting", ["n_per_client = 10", "features = 3"])
def test_cli_oversized_synthetic_design_is_a_config_error(tmp_path, capsys, setting):
    # 10^17 rows or columns is past numpy's byte limit: refused before any allocation
    key = setting.split(" = ")[0]
    path = write(tmp_path, SMALL_TASK.replace(setting, f"{key} = {10**17}"))
    code = cli_main(["plan", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: the synthetic design of N·n_l·p = ")


@pytest.mark.parametrize("command", ["run", "plan", "validate", "sweep"])
def test_cli_gram_matrix_that_cannot_be_allocated_is_a_config_error(
        tmp_path, capsys, monkeypatch, command):
    # a 1.6 MB design whose p x p Gram matrix is 74.5 GiB; numpy's refusal is
    # injected, so the test allocates nothing of that size
    def refuse(self):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")

    monkeypatch.setattr(PaddedShards, "gram", property(refuse))
    task = (SMALL_TASK.replace("clients = 8", "clients = 2")
            .replace("pool_size = 4", "pool_size = 2")
            .replace("n_per_client = 10", "n_per_client = 1")
            .replace("features = 3", "features = 100000"))
    if command == "sweep":
        task += "\n[sweep]\naxis = E\nvalues = 1, 2\n"
    path = write(tmp_path, task)
    code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: the pooled p x p Gram matrix of p = 100001, p² = 10000200001 floats, ")


@pytest.mark.parametrize("message", ["", "Unable to allocate 36 GiB"])
def test_cli_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # what `run --repeats 1000000000` meets when its seed list does not fit;
    # the failure is injected, so the test allocates nothing of that size
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "run_federation", refuse)
    path = write(tmp_path, SMALL_TASK)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert message in err and len(err.splitlines()) == 1


def test_cli_pooled_hessian_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # finite features near 1e159 square past the float range, and eigvalsh of
    # the overflowed Gram matrix does not converge
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 1.0, (200, 3)) * 1e159
    rows = [",".join(map(repr, row)) for row in np.column_stack(
        [x, rng.standard_normal(200)]).tolist()]
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("a,b,c,y\n" + "\n".join(rows) + "\n")
    task = SMALL_TASK.replace("clients = 8", "clients = 10").replace(
        "[data]", f"[data]\nkind = csv\npath = {csv_path}\ntarget_column = y")
    code = cli_main(["run", "--config", str(write(tmp_path, task)),
                     "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the pooled Hessian (2/n) X'X overflows float64")
    assert len(err.splitlines()) == 1


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    code = cli_main(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]
    )
    assert code == 3


def test_cli_all_repeats_diverged_exit_code(tmp_path, capsys):
    body = """
[federation]
clients = 2
pool_size = 2
local_iters = 2
global_iters = 30
clip_threshold = 1e30
clip_norm = l2
repeats = 2

[schedule]
kind = constant
eta = 50.0

[data]
n_per_client = 6
features = 2
"""
    path = write(tmp_path, body)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2


CSV_TASK = """
[federation]
clients = 4
pool_size = 2
local_iters = 1
global_iters = 4
clip_threshold = 20
clip_norm = l2
repeats = 1

[data]
kind = csv
path = {csv_path}
train_fraction = 1.0
"""


def write_rate_csv(tmp_path):
    rows = ["f1,f2,rate"]
    rng = np.random.default_rng(0)
    for _ in range(24):
        a, b = rng.standard_normal(2)
        rows.append(f"{a},{b},{a * 2 - b}")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    return csv_path


def test_cli_sort_key_outside_feature_columns_is_config_error(tmp_path, capsys):
    body = CSV_TASK.format(csv_path=write_rate_csv(tmp_path)) + (
        "target_column = rate\nfeature_columns = f1\nsort_key = f2\n"
    )
    path = write(tmp_path, body)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'f2'" in err


@pytest.mark.parametrize("columns", [
    "target_column = 2\nfeature_columns = f1,f2\nsort_key = rate\n",
    "target_column = rate\nfeature_columns = 0,1\nsort_key = f1\n",
    "target_column = rate\nfeature_columns = f1,f2\nsort_key = 0\n",
    "target_column = rate\nsort_key = f1\n",
])
def test_cli_sort_key_matches_columns_named_another_way(tmp_path, columns):
    csv_body = CSV_TASK.format(csv_path=write_rate_csv(tmp_path))
    sort_key = "rate" if "sort_key = rate" in columns else "f1"
    canonical = f"target_column = rate\nfeature_columns = f1,f2\nsort_key = {sort_key}\n"
    outs = []
    for name, tail in (("mixed.cfg", columns), ("names.cfg", canonical)):
        out = tmp_path / name.removesuffix(".cfg")
        path = write(tmp_path, csv_body + tail, name)
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "rounds.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_warning_is_one_line_without_python_source(tmp_path):
    csv_path = write_rate_csv(tmp_path)
    with open(csv_path, "a") as fh:
        fh.write("oops,1,2\n")
    path = write(tmp_path, CSV_TASK.format(csv_path=csv_path) + "target_column = rate\n")
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    # pytest records warnings in process, so the printed form needs its own interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dpfedsim.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == (
        f"warning: {csv_path}: skipped 1 rows with missing or non-numeric cells\n"
    )
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="skipped 1 rows"):
        assert cli_main(argv) == 0
    assert warnings.formatwarning is formatwarning


@pytest.mark.parametrize("target,code", [("rate", 0), ("2", 0), ("3", 1)])
def test_cli_target_column_by_name_or_index(tmp_path, capsys, target, code):
    body = CSV_TASK.format(csv_path=write_rate_csv(tmp_path)) + f"target_column = {target}\n"
    path = write(tmp_path, body)
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == code
    if code == 0:
        by_name = tmp_path / "by_name"
        name_cfg = write(tmp_path, body.replace(f"target_column = {target}",
                                                "target_column = rate"), "name.cfg")
        cli_main(["run", "--config", str(name_cfg), "--out", str(by_name), "--quiet"])
        assert (out / "rounds.csv").read_bytes() == (by_name / "rounds.csv").read_bytes()
    else:
        assert "index 3 out of range" in capsys.readouterr().err


def test_cli_validate_and_plan(tmp_path, capsys):
    body = SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 1.0\nxi1 = 2.0\n"
    path = write(tmp_path, body)
    assert cli_main(["plan", "--config", str(path), "--quiet"]) == 0
    assert cli_main(["validate", "--config", str(path), "--draws", "10000", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out == ""  # --quiet suppresses stdout


@pytest.mark.parametrize("axis,values", [("E", "0"), ("E", "2, -1"), ("T", "0"), ("T", "-20")])
def test_cli_sweep_counts_below_one_are_config_errors(tmp_path, capsys, axis, values):
    path = write(tmp_path, SMALL_TASK + f"\n[sweep]\naxis = {axis}\nvalues = {values}\n")
    code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: sweep axis {axis} takes positive integer values")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config_bytes,csv_bytes", [
    (b"[output]\nrounds_csv = a%b.csv\n", None),
    (b"[federation]\nclients = 8  # caf\xe9\n", None),
    (None, b"f1,f2,rate\n1,2,\xff\n"),
    (None, b"f1,f2,rate\n1,2," + b"3" * 140_000 + b"\n"),
], ids=["percent", "config-not-utf8", "csv-not-utf8", "csv-field-too-long"])
def test_cli_unreadable_inputs_are_config_errors(tmp_path, capsys, config_bytes, csv_bytes):
    if config_bytes is None:
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(csv_bytes)
        config_bytes = (CSV_TASK.format(csv_path=csv_path) + "target_column = rate\n").encode()
    path = tmp_path / "exp.cfg"
    path.write_bytes(config_bytes)
    bad = path if csv_bytes is None else csv_path
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("command,task", [
    ("run", SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 3\nxi1 = 1e300\n"),
    ("plan", SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 1e-300\n"),
    ("validate", SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 3\nxi1 = 1e-300\n"),
    ("validate", SMALL_TASK + "\n[dp]\nmechanism = laplace\nepsilon = 1e-300\n"),
    ("sweep", SMALL_TASK.replace("local_iters = 2", "local_iters = 0")
     + "\n[sweep]\naxis = T\nvalues = 2\n"),
], ids=["xi1-squared-overflows", "epsilon-squared-underflows", "variance-underflows",
        "variance-overflows", "t-sweep-on-zero-local-iters"])
def test_cli_numeric_edge_configs_are_config_errors(tmp_path, capsys, command, task):
    path = write(tmp_path, task)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    if command == "validate":
        argv += ["--draws", "10000"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["run", "plan", "validate", "sweep"])
@pytest.mark.parametrize("mechanism,extra,key", [
    ("laplace", "", "xi1"), ("gaussian", "delta = 1e-4\n", "xi2"),
], ids=["laplace", "gaussian"])
def test_cli_infinite_noise_sensitivity_is_a_config_error(
        tmp_path, capsys, command, mechanism, extra, key):
    # the sensitivity defaults to clip_threshold, so zeta = inf would scale
    # the noise to infinity: every subcommand refuses it with one error line
    task = (SMALL_TASK.replace("clip_threshold = 20", "clip_threshold = inf")
            + f"\n[dp]\nmechanism = {mechanism}\nepsilon = 3\n{extra}")
    if command == "sweep":
        task += "\n[sweep]\naxis = E\nvalues = 1, 2\n"
    argv = [command, "--config", str(write(tmp_path, task)), "--out", str(tmp_path / "o"),
            "--quiet"]
    if command == "validate":
        argv += ["--draws", "10000"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {mechanism} mechanism requires a finite {key} > 0\n"


@pytest.mark.parametrize("command", ["run", "plan"])
def test_cli_infinite_clip_threshold_without_noise_is_valid(tmp_path, capsys, command):
    task = SMALL_TASK.replace("clip_threshold = 20", "clip_threshold = inf")
    argv = [command, "--config", str(write(tmp_path, task)), "--out", str(tmp_path / "o"),
            "--quiet"]
    assert cli_main(argv) == 0

"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Every tolerance is pinned here; the whole module finishes in about a minute.
"""
import math
import time

import numpy as np
import pytest

from dpfedsim.bounds import optimal_local_iterations, rate_exponent
from dpfedsim.config import parse_config
from dpfedsim.engine import aggregate, run_federation, select_pool
from dpfedsim.harness import (
    _round0_context,
    build_experiment,
    centralized_gd_oracle,
    cmd_run,
    cmd_sweep,
    cmd_validate,
    run_repeats,
)
from dpfedsim.mechanisms import noise_item_variance


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, f"criterion {num} ({name}) failed {detail}"


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return path


# ---------------------------------------------------------------------------
# 1. noise-variance oracle
# ---------------------------------------------------------------------------

VALIDATE_TEMPLATE = """
[federation]
clients = {N}
pool_size = {b}
local_iters = {E}
global_iters = {Tg}
clip_threshold = 1.5
clip_norm = l2

[schedule]
kind = constant
eta = {eta}

[dp]
mechanism = {mech}
epsilon = {eps}
delta = 0.0001

[data]
n_per_client = {npc}
features = {features}
add_bias = {bias}
"""

# five shapes varying p in {1, 10, 100}, b, N, T_g and epsilon
VALIDATE_CONFIGS = [
    dict(mech="laplace", eps=1.3, features=1, bias="false", N=4, b=2, Tg=10, npc=12, E=2, eta=0.05),
    dict(mech="laplace", eps=0.7, features=9, bias="true", N=6, b=3, Tg=8, npc=15, E=1, eta=0.1),
    dict(mech="laplace", eps=2.5, features=99, bias="true", N=4, b=1, Tg=4, npc=8, E=3, eta=0.02),
    dict(mech="gaussian", eps=1.1, features=9, bias="true", N=8, b=4, Tg=6, npc=10, E=2, eta=0.08),
    dict(mech="gaussian", eps=0.6, features=99, bias="true", N=2, b=2, Tg=4, npc=9, E=1, eta=0.03),
]


def test_criterion_1_noise_variance_oracle(tmp_path):
    start = time.monotonic()
    worst = 0.0
    for i, params in enumerate(VALIDATE_CONFIGS):
        path = write(tmp_path, f"val{i}.cfg", VALIDATE_TEMPLATE.format(**params))
        report = cmd_validate(path, draws=10**6, quiet=True)
        worst = max(worst, report.rel_err_exact)
        assert report.passed, f"config {i} ({params['mech']}): {report.rel_err_exact:.4f}"
    elapsed = time.monotonic() - start
    _report(
        1,
        "noise-variance oracle",
        worst <= 0.01 and elapsed < 30.0,
        f"worst rel err {worst:.5f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. unbiased round-robin sampling, exact over a cycle
# ---------------------------------------------------------------------------


def test_criterion_2_cycle_average_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        b = int(rng.integers(1, 6))
        n_clients = b * int(rng.integers(1, 7))
        sizes = rng.integers(1, 40, size=n_clients)
        n = int(sizes.sum())
        nus = [rng.standard_normal(5) for _ in range(n_clients)]
        global_mean = sum((sizes[l] / n) * nus[l] for l in range(n_clients))
        estimates = []
        for t in range(n_clients // b):
            pool = sorted(select_pool(t, n_clients, b))
            estimates.append(
                aggregate([(nus[l], int(sizes[l])) for l in pool], n_clients, b, n)
            )
        cycle_mean = np.mean(estimates, axis=0)
        rel = float(
            np.linalg.norm(cycle_mean - global_mean) / np.linalg.norm(global_mean)
        )
        worst = max(worst, rel)
    _report(2, "cycle average exactness", worst <= 1e-12, f"worst rel {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. engine reduces to centralized gradient descent
# ---------------------------------------------------------------------------

ORACLE_TASK = """
[federation]
clients = 8
pool_size = 8
local_iters = 1
global_iters = 200
clip_threshold = 25
clip_norm = l2
repeats = 1

[data]
n_per_client = 12
features = 4
heterogeneity = 0.4
noise_std = 0.1
"""


def test_criterion_3_centralized_equivalence(tmp_path):
    exp = build_experiment(parse_config(write(tmp_path, "oracle.cfg", ORACLE_TASK)))
    [res] = run_federation(exp.config, exp.dataset, exp.constants,
                           record_trajectory=True).runs
    traj = centralized_gd_oracle(
        exp.dataset.shards, 200, exp.config.schedule, exp.config.clip,
        exp.config.theta_0,
    )
    assert not res.diverged and len(res.trajectory) == 201
    diff = max(float(np.max(np.abs(a - b))) for a, b in zip(res.trajectory, traj))
    _report(3, "centralized-GD equivalence", diff <= 1e-12, f"max coord diff {diff:.2e}")


# ---------------------------------------------------------------------------
# 4 & 5. bound validity, noise-free and under calibrated Laplace noise
# ---------------------------------------------------------------------------

BOUND_TASK = """
[federation]
clients = 100
pool_size = 10
local_iters = 5
global_iters = 100
clip_threshold = 10
clip_norm = l2
repeats = 20

[dp]
mechanism = {mech}
epsilon = {eps}

[data]
n_per_client = 20
features = 5
heterogeneity = 0.5
noise_std = 0.1
"""


def _mean_y_and_bound(exp):
    results = run_repeats(exp)
    assert not any(r.diverged for r in results)
    ys = np.array([[rec.y_k for rec in r.records] for r in results])
    bound = np.array([rec.bound_y_k for rec in results[0].records])
    return ys.mean(axis=0), bound


def test_criterion_4_bound_validity_noise_free(tmp_path):
    start = time.monotonic()
    exp = build_experiment(
        parse_config(write(tmp_path, "b4.cfg", BOUND_TASK.format(mech="none", eps="inf")))
    )
    mean_y, bound = _mean_y_and_bound(exp)
    elapsed = time.monotonic() - start
    ok = bool(np.all(mean_y <= bound)) and elapsed < 60.0
    _report(
        4,
        "bound validity, noise-free",
        ok,
        f"max ratio {float((mean_y / bound).max()):.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_bound_validity_laplace(tmp_path):
    # choose epsilon so the predicted round-0 noise variance is ~10% of y0
    probe = build_experiment(
        parse_config(write(tmp_path, "b5probe.cfg", BOUND_TASK.format(mech="laplace", eps=1.0)))
    )
    v1 = noise_item_variance(probe.config.mechanism, _round0_context(probe))
    eps = math.sqrt(v1 / (0.1 * probe.constants.y0))
    exp = build_experiment(
        parse_config(write(tmp_path, "b5.cfg", BOUND_TASK.format(mech="laplace", eps=eps)))
    )
    v_at_eps = noise_item_variance(exp.config.mechanism, _round0_context(exp))
    assert v_at_eps == pytest.approx(0.1 * exp.constants.y0, rel=1e-6)
    mean_y, bound = _mean_y_and_bound(exp)
    _report(
        5,
        "bound validity, laplace",
        bool(np.all(mean_y <= bound)),
        f"eps {eps:.1f}, max ratio {float((mean_y / bound).max()):.2e}",
    )


# ---------------------------------------------------------------------------
# 6. finite optimal T under Laplace noise (U-shape over T)
# ---------------------------------------------------------------------------

TSWEEP_TASK = """
[federation]
clients = 20
pool_size = 10
local_iters = 1
global_iters = 100
clip_threshold = 0.3
clip_norm = l2
repeats = 20

[dp]
mechanism = {mech}
epsilon = {eps}

[data]
n_per_client = 20
features = 3
heterogeneity = 0.5
noise_std = 0.1

[sweep]
axis = T
values = 10, 20, 30, 40, 50, 60, 70, 80, 90, 100
"""


def test_criterion_6_interior_optimal_t(tmp_path):
    start = time.monotonic()
    noisy = cmd_sweep(
        write(tmp_path, "t_lap.cfg", TSWEEP_TASK.format(mech="laplace", eps=3.0)),
        tmp_path / "out6a", quiet=True,
    )
    free = cmd_sweep(
        write(tmp_path, "t_free.cfg", TSWEEP_TASK.format(mech="none", eps="inf")),
        tmp_path / "out6b", quiet=True,
    )
    elapsed = time.monotonic() - start

    noisy_losses = [r.mean_final_loss for r in noisy]
    amin = int(np.argmin(noisy_losses))
    interior = 0 < amin < len(noisy) - 1
    rise = noisy_losses[-1] / noisy_losses[amin]
    free_amin = int(np.argmin([r.mean_final_loss for r in free]))
    ok = interior and rise >= 1.2 and free[free_amin].value == 100 and elapsed < 300.0
    _report(
        6,
        "interior T* under Laplace",
        ok,
        f"argmin T={noisy[amin].value}, rise {rise:.2f}, noise-free argmin "
        f"T={free[free_amin].value}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. the T^(2/3) local-iteration rule wins at fixed T
# ---------------------------------------------------------------------------

ERULE_TASK = """
[federation]
clients = 20
pool_size = 20
local_iters = 1
global_iters = 120
clip_threshold = 0.3
clip_norm = l2
repeats = 20

[dp]
mechanism = laplace
epsilon = 5.0

[data]
n_per_client = 20
features = 3
heterogeneity = 0.5
noise_std = 0.1

[sweep]
axis = E_rule
values = 1, T^{1/3}, T^{1/2}, T^{2/3}, T
"""


def test_criterion_7_best_local_iteration_rule(tmp_path):
    rows = cmd_sweep(write(tmp_path, "erule.cfg", ERULE_TASK), tmp_path / "out7",
                     quiet=True)
    losses = {r.value: r.mean_final_loss for r in rows}
    best = min(losses, key=losses.get)
    _report(
        7,
        "T^(2/3) rule attains the minimum",
        best == "T^{2/3}",
        ", ".join(f"{k}={v:.3f}" for k, v in losses.items()),
    )


# ---------------------------------------------------------------------------
# 8. Gaussian plateau vs Laplace growth on a doubling grid
# ---------------------------------------------------------------------------

DOUBLING_TASK = """
[federation]
clients = 10
pool_size = 10
local_iters = 5
global_iters = 80
clip_threshold = 2.0
clip_norm = l2
repeats = 20

[dp]
mechanism = {mech}
epsilon = {eps}
delta = 0.0001

[data]
n_per_client = 20
features = 3
heterogeneity = 0.5
noise_std = 0.1

[sweep]
axis = T
values = 50, 100, 200, 400
"""


def test_criterion_8_plateau_vs_divergence(tmp_path):
    gauss = cmd_sweep(
        write(tmp_path, "d_gauss.cfg", DOUBLING_TASK.format(mech="gaussian", eps=8.0)),
        tmp_path / "out8a", quiet=True,
    )
    lap = cmd_sweep(
        write(tmp_path, "d_lap.cfg", DOUBLING_TASK.format(mech="laplace", eps=16.0)),
        tmp_path / "out8b", quiet=True,
    )
    g = [r.mean_final_loss for r in gauss]
    l = [r.mean_final_loss for r in lap]
    plateau = abs(g[3] - g[2]) / g[2] < 0.10
    growth = l[1] < l[2] < l[3]
    _report(
        8,
        "gaussian plateau, laplace growth",
        plateau and growth,
        f"gaussian change {abs(g[3] - g[2]) / g[2]:.3f}, laplace top half "
        f"{l[1]:.2f} -> {l[2]:.2f} -> {l[3]:.2f}",
    )


# ---------------------------------------------------------------------------
# 9. planner correctness on the fixed grid
# ---------------------------------------------------------------------------


def test_criterion_9_planner_grid():
    ok = True
    for total in (8, 27, 64, 120, 1000):
        for z in (0.0, 1.0, 2.0):
            expected = max(1, min(total, round(total ** (z / (z + 1.0)))))
            got = optimal_local_iterations(total, z, divisor_adjust=False)
            ok = ok and got == expected
    rates = [rate_exponent(z) for z in (0.0, 1.0, 2.0)]
    ok = ok and rates[0] == -1.0 and rates[1] == 0.0 and rates[2] == pytest.approx(1 / 3)
    _report(9, "planner grid", ok, f"rate exponents {rates}")


# ---------------------------------------------------------------------------
# 10. byte determinism across reruns and worker counts
# ---------------------------------------------------------------------------

DETERMINISM_TASK = """
[federation]
clients = 16
pool_size = 4
local_iters = 3
global_iters = 24
clip_threshold = 2.0
clip_norm = l2
repeats = 4
workers = {workers}

[dp]
mechanism = laplace
epsilon = 2.0

[data]
n_per_client = 12
features = 3
heterogeneity = 0.5
noise_std = 0.1
"""


def test_criterion_10_byte_determinism(tmp_path):
    one = write(tmp_path, "w1.cfg", DETERMINISM_TASK.format(workers=1))
    eight = write(tmp_path, "w8.cfg", DETERMINISM_TASK.format(workers=8))
    cmd_run(one, tmp_path / "a", quiet=True)
    cmd_run(one, tmp_path / "b", quiet=True)
    cmd_run(eight, tmp_path / "c", quiet=True)
    read = lambda d: (tmp_path / d / "rounds.csv").read_bytes()
    rerun_same = read("a") == read("b")
    workers_same = read("a") == read("c")
    _report(
        10,
        "byte determinism (rerun, 1 vs 8 workers)",
        rerun_same and workers_same,
        f"rerun {rerun_same}, workers {workers_same}",
    )

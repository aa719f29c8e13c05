import dataclasses
import math

import numpy as np
import pytest

from dpfedsim.engine import (
    ClipSpec,
    FederationConfig,
    Schedule,
    pilot_gradient_bound,
    run_bound_params,
    run_federation,
)
from dpfedsim.bounds import schedule_offset
from dpfedsim.data import synth_regression
from dpfedsim.mechanisms import MechanismSpec, NoiseContext, round_sensitivity
from dpfedsim.regression import (
    ClientShard,
    ConfigError,
    PaddedShards,
    ProblemConstants,
    clip_gradient,
    mse_gradient,
    problem_constants,
)
from dpfedsim.reference import aggregate, client_update, local_optimum, select_pool


def make_shards(rng, n_clients, n_per=10, d=3, spread=0.5):
    theta_true = rng.standard_normal(d)
    shards = []
    for cid in range(n_clients):
        theta_l = theta_true + spread * rng.standard_normal(d)
        X = rng.standard_normal((n_per, d))
        y = X @ theta_l + 0.05 * rng.standard_normal(n_per)
        shards.append(ClientShard(cid, X, y))
    return shards


def decay_schedule_for(shards, local_iters, zeta=50.0):
    pc = problem_constants(PaddedShards.build(shards), np.zeros(shards[0].dim), zeta)
    return Schedule.decay(pc, local_iters), pc


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_direct_substitution():
    assert Schedule(kind="decay", mu=2.0, gamma=8.0).rate(0) == pytest.approx(0.125)


def test_lr_schedule_halves_at_most_per_round():
    E = 10
    sched = Schedule(kind="decay", mu=1.0, gamma=12.0)  # gamma >= E
    for k in range(0, 100):
        assert sched.rate(k) <= 2 * sched.rate(k + E)


@pytest.mark.parametrize("kwargs,message", [
    (dict(kind="cyclic", eta=0.1),
     "unknown schedule kind 'cyclic', expected one of ('decay', 'constant')"),
    (dict(kind="decay", gamma=2.0), "decay schedule needs mu and gamma"),
    (dict(kind="decay", mu=1.0), "decay schedule needs mu and gamma"),
    (dict(kind="decay", mu=0.0, gamma=2.0), "decay schedule requires mu > 0"),
    (dict(kind="decay", mu=-1.0, gamma=2.0), "decay schedule requires mu > 0"),
    (dict(kind="decay", mu=math.nan, gamma=2.0), "decay schedule requires mu > 0"),
    (dict(kind="decay", mu=1.0, gamma=0.5), "decay schedule requires gamma >= 1"),
    (dict(kind="decay", mu=1.0, gamma=math.nan), "decay schedule requires gamma >= 1"),
    (dict(kind="constant"), "constant schedule needs eta > 0"),
    (dict(kind="constant", eta=0.0), "constant schedule needs eta > 0"),
    (dict(kind="constant", eta=-0.1), "constant schedule needs eta > 0"),
    (dict(kind="constant", eta=math.nan), "constant schedule needs eta > 0"),
])
def test_schedule_rejects_invalid_parameters(kwargs, message):
    with pytest.raises(ConfigError) as info:
        Schedule(**kwargs)
    assert str(info.value) == message


def test_schedule_offset_max_rule():
    assert schedule_offset(lam=4.0, mu=1.0, local_iters=10) == 32.0
    assert schedule_offset(lam=1.0, mu=1.0, local_iters=20) == 20.0


# ---------------------------------------------------------------------------
# pool selection
# ---------------------------------------------------------------------------


def test_select_pool_round_robin_progression():
    assert select_pool(0, 6, 2) == [0, 1]
    assert select_pool(1, 6, 2) == [2, 3]
    assert select_pool(2, 6, 2) == [4, 5]
    assert select_pool(3, 6, 2) == [0, 1]


def test_select_pool_full_participation():
    assert select_pool(5, 4, 4) == [0, 1, 2, 3]


def test_select_pool_cycle_counts():
    N, b, m = 12, 3, 5
    counts = {cid: 0 for cid in range(N)}
    for t in range(N // b * m):
        for cid in select_pool(t, N, b):
            counts[cid] += 1
    assert all(c == b * (N // b * m) // N == m for c in counts.values())


def test_pool_size_must_divide_clients():
    with pytest.raises(ConfigError):
        select_pool(0, 7, 2)


# ---------------------------------------------------------------------------
# client update
# ---------------------------------------------------------------------------


def test_client_update_single_unclipped_step():
    rng = np.random.default_rng(0)
    shard = ClientShard(0, rng.standard_normal((6, 2)), rng.standard_normal(6))
    theta = rng.standard_normal(2)
    sched = Schedule.constant(0.05)
    out = client_update(theta, shard, t=3, local_iters=1, schedule=sched,
                        clip=ClipSpec(1e9, "l2"))
    expected = theta - 0.05 * mse_gradient(theta, shard)
    assert np.allclose(out, expected, rtol=0, atol=0)


def test_client_update_fixed_point_at_local_optimum():
    rng = np.random.default_rng(1)
    shard = ClientShard(0, rng.standard_normal((8, 2)), rng.standard_normal(8))
    theta_star, _ = local_optimum(shard)
    sched = Schedule.constant(0.1)
    out = client_update(theta_star, shard, 0, 4, sched, ClipSpec(10.0, "l2"))
    assert np.allclose(out, theta_star, atol=1e-12)


def test_client_update_matches_manual_three_steps():
    rng = np.random.default_rng(2)
    shard = ClientShard(0, rng.standard_normal((5, 3)), rng.standard_normal(5))
    theta0 = rng.standard_normal(3)
    shards = [dataclasses.replace(shard, client_id=0)]
    sched, _ = decay_schedule_for(shards, local_iters=3, zeta=0.8)
    clip = ClipSpec(0.8, "l1")
    t = 2
    theta = theta0
    for i in range(3):
        g = clip_gradient(mse_gradient(theta, shard), clip.zeta, clip.norm)
        theta = theta - sched.rate(t * 3 + i) * g
    out = client_update(theta0, shard, t, 3, sched, clip)
    assert np.array_equal(out, theta)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_equal_sizes_full_pool_is_plain_average():
    thetas = [np.array([1.0, 2.0]), np.array([3.0, -2.0]), np.array([5.0, 0.0])]
    out = aggregate([(th, 4) for th in thetas], n_clients=3, pool_size=3, n_total=12)
    assert np.allclose(out, np.mean(thetas, axis=0))


def test_aggregate_single_client_identity():
    theta = np.array([0.5, -1.5])
    out = aggregate([(theta, 7)], n_clients=1, pool_size=1, n_total=7)
    assert np.allclose(out, theta)


def test_aggregate_rejects_empty_or_wrong_size():
    with pytest.raises(ConfigError):
        aggregate([], 2, 2, 10)
    with pytest.raises(ConfigError):
        aggregate([(np.zeros(2), 5)], 2, 2, 10)


def test_cycle_average_of_pool_estimates_is_global_mean():
    # round-robin sampling is unbiased: averaging the weighted pool estimates
    # over one full cycle reproduces the global weighted mean exactly
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = int(rng.integers(1, 5))
        N = b * int(rng.integers(1, 6))
        sizes = rng.integers(1, 30, size=N)
        n = int(sizes.sum())
        nus = [rng.standard_normal(4) for _ in range(N)]
        global_mean = sum((sizes[l] / n) * nus[l] for l in range(N))
        cycle = []
        for t in range(N // b):
            pool = sorted(select_pool(t, N, b))
            cycle.append(aggregate([(nus[l], int(sizes[l])) for l in pool], N, b, n))
        cycle_mean = np.mean(cycle, axis=0)
        assert np.allclose(cycle_mean, global_mean, rtol=1e-12, atol=1e-14)


def test_pool_estimate_divergence_within_sampling_bound():
    # averaged over a round-robin cycle, the gap between the pool estimate and
    # the all-client mean stays below 4 E^2 eta_k^2 G^2 (N-b)/((N-1) b)
    rng = np.random.default_rng(4)
    N, b, E = 6, 2, 3
    zeta = 0.5
    shards = make_shards(rng, N, n_per=8, d=3, spread=2.0)
    sched, _ = decay_schedule_for(shards, E, zeta=zeta)
    theta0 = rng.standard_normal(3)
    sizes = [s.n_l for s in shards]
    n = sum(sizes)
    t = 0
    nus = [client_update(theta0, s, t, E, sched, ClipSpec(zeta, "l2")) for s in shards]
    nu_bar = sum((sizes[l] / n) * nus[l] for l in range(N))
    gaps = []
    for tt in range(N // b):
        pool = sorted(select_pool(tt, N, b))
        est = aggregate([(nus[l], sizes[l]) for l in pool], N, b, n)
        gaps.append(float(np.sum((est - nu_bar) ** 2)))
    eta_k = sched.rate(t * E + E - 1)
    bound = 4 * E**2 * eta_k**2 * zeta**2 * (N - b) / ((N - 1) * b)
    assert np.mean(gaps) <= bound


def test_local_drift_within_bound_and_zero_for_single_step():
    rng = np.random.default_rng(5)
    N, E = 4, 4
    zeta = 0.5
    shards = make_shards(rng, N, n_per=8, d=3, spread=2.0)
    sched, _ = decay_schedule_for(shards, E, zeta=zeta)
    sizes = [s.n_l for s in shards]
    n = sum(sizes)
    thetas = [rng.standard_normal(3)] * N
    for i in range(E):
        k = i
        theta_bar = sum((sizes[l] / n) * thetas[l] for l in range(N))
        spread = sum(
            (sizes[l] / n) * float(np.sum((theta_bar - thetas[l]) ** 2)) for l in range(N)
        )
        eta_k = sched.rate(k)
        assert spread <= 4 * eta_k**2 * (E - 1) ** 2 * zeta**2 + 1e-18
        if E == 1:
            assert spread == 0.0
        thetas = [
            thetas[l]
            - eta_k * clip_gradient(mse_gradient(thetas[l], shards[l]), zeta, "l2")
            for l in range(N)
        ]


# ---------------------------------------------------------------------------
# accumulated update vs sensitivity
# ---------------------------------------------------------------------------


def test_round_update_within_l1_sensitivity():
    rng = np.random.default_rng(6)
    N, E = 3, 5
    zeta = 0.7
    shards = make_shards(rng, N, n_per=6, d=4, spread=3.0)
    sched, _ = decay_schedule_for(shards, E, zeta=zeta)
    for t in range(4):
        eta_tilde = sched.rate(t * E)
        ctx = NoiseContext(p=4, eta_tilde=eta_tilde, E=E, T_l=4, T_g=4, b=N, N=N,
                           n=sum(s.n_l for s in shards), n_bar_sq=36.0)
        xi1 = zeta
        theta0 = rng.standard_normal(4)
        for shard in shards:
            nu = client_update(theta0, shard, t, E, sched, ClipSpec(zeta, "l1"))
            moved = float(np.sum(np.abs(theta0 - nu)))
            assert moved <= round_sensitivity(ctx, xi1) * (1 + 1e-12)


def test_round_update_within_l2_sensitivity():
    rng = np.random.default_rng(7)
    N, E = 3, 4
    zeta = 0.9
    shards = make_shards(rng, N, n_per=6, d=3, spread=3.0)
    sched, _ = decay_schedule_for(shards, E, zeta=zeta)
    for t in range(4):
        eta_tilde = sched.rate(t * E)
        ctx = NoiseContext(p=3, eta_tilde=eta_tilde, E=E, T_l=4, T_g=4, b=N, N=N,
                           n=sum(s.n_l for s in shards), n_bar_sq=36.0)
        theta0 = rng.standard_normal(3)
        for shard in shards:
            nu = client_update(theta0, shard, t, E, sched, ClipSpec(zeta, "l2"))
            moved = float(np.linalg.norm(theta0 - nu))
            assert moved <= round_sensitivity(ctx, zeta) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def base_config(shards, E=1, T_g=40, b=None, mechanism=None, seed=0, zeta=50.0, norm="l2"):
    N = len(shards)
    b = N if b is None else b
    sched, pc = decay_schedule_for(shards, E, zeta=zeta)
    cfg = FederationConfig(
        n_clients=N,
        pool_size=b,
        local_iters=E,
        global_iters=T_g,
        schedule=sched,
        clip=ClipSpec(zeta, norm),
        mechanism=mechanism or MechanismSpec(),
        seed=seed,
    )
    return cfg, pc


def test_full_pool_single_step_matches_plain_gradient_descent():
    rng = np.random.default_rng(8)
    shards = make_shards(rng, 4, n_per=12, d=3)
    cfg, pc = base_config(shards, E=1, T_g=200)
    [res] = run_federation(cfg, PaddedShards.build(shards), constants=pc,
                           record_trajectory=True).runs
    sizes = [s.n_l for s in shards]
    n = sum(sizes)
    theta = np.zeros(3)
    for t in range(200):
        grads = [
            clip_gradient(mse_gradient(theta, s), cfg.clip.zeta, cfg.clip.norm)
            for s in shards
        ]
        g = sum((sizes[l] / n) * grads[l] for l in range(4))
        theta = theta - cfg.schedule.rate(t) * g
        assert np.max(np.abs(res.trajectory[t + 1] - theta)) <= 1e-12
    assert not res.diverged


def test_noise_free_run_converges():
    rng = np.random.default_rng(9)
    shards = make_shards(rng, 8, n_per=10, d=3, spread=0.3)
    cfg, pc = base_config(shards, E=2, T_g=100, b=4)
    [res] = run_federation(cfg, PaddedShards.build(shards), constants=pc).runs
    losses = [r.global_loss for r in res.records]
    # compare at round-robin cycle boundaries: alternating pools make the raw
    # per-round sequence oscillate at the 1e-5 level on non-IID data
    cycle = cfg.n_clients // cfg.pool_size
    aligned = losses[4::cycle]
    for a, b_ in zip(aligned, aligned[1:]):
        assert b_ <= a * (1 + 1e-9)
    assert res.records[-1].y_k <= 1e-3 * pc.y0


def test_noise_raises_final_loss():
    rng = np.random.default_rng(10)
    shards = make_shards(rng, 6, n_per=10, d=3)
    mech = MechanismSpec(kind="laplace", epsilon=0.5, xi1=20.0)
    cfg_free, pc = base_config(shards, E=2, T_g=30, b=3, zeta=20.0)
    cfg_noisy, _ = base_config(shards, E=2, T_g=30, b=3, mechanism=mech, zeta=20.0)
    data = PaddedShards.build(shards)
    [free] = run_federation(cfg_free, data, constants=pc).runs
    [noisy] = run_federation(cfg_noisy, data, constants=pc).runs
    assert free.records[-1].global_loss < noisy.records[-1].global_loss


def test_records_have_expected_indices_and_noise_norms():
    rng = np.random.default_rng(11)
    shards = make_shards(rng, 4, n_per=8, d=2)
    mech = MechanismSpec(kind="gaussian", epsilon=2.0, delta=1e-4, xi2=30.0)
    cfg, pc = base_config(shards, E=3, T_g=8, b=2, mechanism=mech, zeta=30.0)
    [res] = run_federation(cfg, PaddedShards.build(shards), constants=pc).runs
    assert [r.t for r in res.records] == list(range(8))
    assert [r.k for r in res.records] == [3 * (t + 1) for t in range(8)]
    assert all(r.noise_l2 > 0 for r in res.records)
    assert all(r.bound_y_k >= r.y_k > 0 for r in res.records)


def test_noise_free_records_zero_noise_and_defined_bound():
    rng = np.random.default_rng(12)
    shards = make_shards(rng, 4, n_per=8, d=2)
    cfg, pc = base_config(shards, E=1, T_g=12, b=2)
    [res] = run_federation(cfg, PaddedShards.build(shards), constants=pc).runs
    assert all(r.noise_l2 == 0.0 for r in res.records)
    assert all(math.isfinite(r.bound_y_k) for r in res.records)


def test_decay_schedule_needs_a_nonsingular_hessian():
    singular = ProblemConstants(
        mu=0.0, lam=1.0, g_bound=1.0, gamma_noniid=0.0, f_star=0.0,
        theta_star=np.zeros(2), y0=1.0, assumptions_ok=False,
    )
    with pytest.raises(ConfigError, match="assumptions violated"):
        Schedule.decay(singular, 1)


@pytest.mark.parametrize("other", ["E", "mu", "equal-hand-built"])
def test_bound_only_under_the_decay_schedule_it_was_derived_for(other):
    rng = np.random.default_rng(12)
    shards = make_shards(rng, 4, n_per=8, d=2)
    data = PaddedShards.build(shards)
    cfg, pc = base_config(shards, E=1, T_g=12, b=2)
    assert run_bound_params(cfg, pc) is not None
    if other == "E":
        # an E above 8*lambda/mu sets gamma = E, not the E = 1 offset 8*lambda/mu
        sched = Schedule.decay(pc, math.ceil(8 * pc.lam / pc.mu) + 1)
    elif other == "mu":
        sched = dataclasses.replace(cfg.schedule, mu=4 * pc.mu)
    else:
        # built by hand with the constants' mu and gamma: the schedule the bound assumes
        sched = Schedule(kind="decay", mu=pc.mu, gamma=schedule_offset(pc.lam, pc.mu, 1))
    bounded = other == "equal-hand-built"
    assert (sched == cfg.schedule) == bounded
    cfg = dataclasses.replace(cfg, schedule=sched)
    assert (run_bound_params(cfg, pc) is not None) == bounded
    [res] = run_federation(cfg, data, constants=pc).runs
    assert all(math.isfinite(r.y_k) and math.isfinite(r.bound_y_k) == bounded
               for r in res.records)


def test_bound_only_from_the_start_its_constants_were_measured_at():
    # noise-free with a clip that never binds, so only the start point can break the bound
    data = synth_regression(20, 20, 3, 0.5, 0.1, seed=0)
    pc = problem_constants(data, np.zeros(data.dim), 1e6)
    cfg = FederationConfig(n_clients=20, pool_size=20, local_iters=1, global_iters=50,
                           schedule=Schedule.decay(pc, 1), clip=ClipSpec(1e6, "l2"))
    [res] = run_federation(cfg, data, constants=pc).runs
    assert all(math.isfinite(r.bound_y_k) and r.y_k <= r.bound_y_k for r in res.records)
    far = dataclasses.replace(cfg, theta_0=pc.theta_star + 30.0)
    [res] = run_federation(far, data, constants=pc).runs
    assert all(math.isfinite(r.y_k) and math.isnan(r.bound_y_k) for r in res.records)
    assert run_bound_params(far, pc) is None


def test_noise_free_trajectory_ignores_seed():
    rng = np.random.default_rng(14)
    shards = make_shards(rng, 4, n_per=8, d=2)
    cfg_a, pc = base_config(shards, E=2, T_g=10, b=2, seed=0)
    cfg_b = dataclasses.replace(cfg_a, seed=123456)
    data = PaddedShards.build(shards)
    [res_a] = run_federation(cfg_a, data, constants=pc).runs
    [res_b] = run_federation(cfg_b, data, constants=pc).runs
    assert res_a.records == res_b.records


def test_divergence_returns_partial_trajectory():
    rng = np.random.default_rng(15)
    shards = make_shards(rng, 2, n_per=6, d=2)
    # a constant rate far above 2/lambda forces blow-up; huge clip keeps it raw
    cfg = FederationConfig(
        n_clients=2, pool_size=2, local_iters=2, global_iters=50,
        schedule=Schedule.constant(50.0), clip=ClipSpec(1e30, "l2"),
    )
    [res] = run_federation(cfg, PaddedShards.build(shards)).runs
    assert res.diverged
    assert len(res.records) < 50


def test_config_validation():
    sched = Schedule.constant(0.1)
    clip = ClipSpec(1.0, "l2")
    with pytest.raises(ConfigError):
        FederationConfig(6, 4, 1, 10, sched, clip)  # b does not divide N
    with pytest.raises(ConfigError):
        FederationConfig(4, 2, 1, 7, sched, clip)  # b*T_g not a multiple of N
    with pytest.raises(ConfigError):
        FederationConfig(4, 2, 0, 8, sched, clip)
    cfg = FederationConfig(4, 2, 1, 8, sched, clip)
    assert cfg.rounds_per_client == 4
    assert cfg.total_iters == 8


def test_pilot_gradient_bound_below_l1_threshold():
    rng = np.random.default_rng(16)
    shards = make_shards(rng, 4, n_per=8, d=3, spread=2.0)
    sched, _ = decay_schedule_for(shards, 2, zeta=0.5)
    cfg = FederationConfig(4, 2, 2, 8, sched, ClipSpec(0.5, "l1"))
    g = pilot_gradient_bound(cfg, PaddedShards.build(shards))
    assert 0 < g <= 0.5  # L2 norm of an L1-clipped vector is below the threshold

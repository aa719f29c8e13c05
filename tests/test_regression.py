import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim.regression import (
    ClientShard,
    ConfigError,
    PaddedShards,
    _local_optimum_losses,
    clip_gradient,
    mse_gradient,
    problem_constants,
)
from dpfedsim.reference import global_loss, global_optimum, local_optimum, mse_loss


def make_shard(rng, n=5, d=3, client_id=0):
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return ClientShard(client_id=client_id, features=X, targets=y)


# ---------------------------------------------------------------------------
# mse_loss
# ---------------------------------------------------------------------------


def test_loss_hand_summed_oracle():
    # independent oracle: plain python accumulation over the 3 samples
    X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
    y = np.array([0.5, 2.0, -1.0])
    theta = np.array([0.75, -0.3])
    expected = 0.0
    for i in range(3):
        pred = X[i, 0] * theta[0] + X[i, 1] * theta[1]
        expected += (pred - y[i]) ** 2
    expected /= 3
    shard = ClientShard(0, X, y)
    assert mse_loss(theta, shard) == pytest.approx(expected, rel=1e-14)


def test_loss_zero_at_interpolating_parameters():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 2))
    theta = np.array([1.5, -2.0])
    shard = ClientShard(0, X, X @ theta)
    assert mse_loss(theta, shard) == pytest.approx(0.0, abs=1e-28)


def test_loss_at_local_optimum_is_f_l_star():
    rng = np.random.default_rng(2)
    shard = make_shard(rng, n=7, d=3)
    theta_star, f_l_star = local_optimum(shard)
    assert mse_loss(theta_star, shard) == f_l_star


def test_loss_dimension_mismatch_raises():
    shard = make_shard(np.random.default_rng(0))
    with pytest.raises(ConfigError):
        mse_loss(np.zeros(shard.dim + 1), shard)


# ---------------------------------------------------------------------------
# mse_gradient
# ---------------------------------------------------------------------------


def central_difference(theta, shard, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (mse_loss(theta + step, shard) - mse_loss(theta - step, shard)) / (2 * h)
    return grad


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        shard = make_shard(rng, n=int(rng.integers(1, 8)), d=int(rng.integers(1, 5)))
        theta = rng.standard_normal(shard.dim)
        g = mse_gradient(theta, shard)
        fd = central_difference(theta, shard)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_gradient_zero_at_local_optimum():
    rng = np.random.default_rng(4)
    shard = make_shard(rng, n=9, d=3)
    theta_star, _ = local_optimum(shard)
    assert np.linalg.norm(mse_gradient(theta_star, shard)) <= 1e-10


def test_gradient_single_sample():
    shard = ClientShard(0, np.array([[1.0]]), np.array([0.0]))
    g = mse_gradient(np.array([1.0]), shard)
    assert g == pytest.approx([2.0])


# ---------------------------------------------------------------------------
# clip_gradient
# ---------------------------------------------------------------------------


def test_clip_l1_halves_at_double_threshold():
    g = np.array([100.0, -150.0, 50.0])  # ||g||_1 = 300
    out = clip_gradient(g, zeta=150.0, norm_kind="l1")
    assert np.allclose(out, g * 0.5)


def test_clip_below_threshold_returns_input_unchanged():
    g = np.array([3.0, 4.0])  # ||g||_1 = 7
    out = clip_gradient(g, zeta=150.0, norm_kind="l1")
    assert out is g or np.array_equal(out, g)


def test_clip_output_norm_bounded_and_direction_preserved():
    rng = np.random.default_rng(5)
    for norm_kind, norm in (("l1", lambda v: np.abs(v).sum()), ("l2", np.linalg.norm)):
        for _ in range(50):
            g = rng.standard_normal(6) * rng.uniform(0.1, 100)
            zeta = rng.uniform(0.5, 5.0)
            out = clip_gradient(g, zeta, norm_kind)
            assert norm(out) <= zeta
            cos = (out @ g) / (np.linalg.norm(out) * np.linalg.norm(g))
            assert cos == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(["l1", "l2"]),
)
def test_clip_idempotent_bitwise(values, zeta, norm_kind):
    g = np.array(values)
    once = clip_gradient(g, zeta, norm_kind)
    twice = clip_gradient(once, zeta, norm_kind)
    assert np.array_equal(once, twice)


def test_clip_rejects_nonpositive_threshold():
    with pytest.raises(ConfigError):
        clip_gradient(np.ones(2), 0.0)
    with pytest.raises(ConfigError):
        clip_gradient(np.ones(2), -1.0)


# ---------------------------------------------------------------------------
# local_optimum
# ---------------------------------------------------------------------------


def test_local_optimum_exactly_solvable():
    shard = ClientShard(0, np.array([[2.0]]), np.array([4.0]))
    theta, f_star = local_optimum(shard)
    assert theta == pytest.approx([2.0])
    assert f_star == pytest.approx(0.0, abs=1e-26)


def test_local_optimum_realizable_model_zero_loss():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 3))
    theta_true = np.array([1.0, -0.5, 2.0])
    shard = ClientShard(0, X, X @ theta_true)
    _, f_star = local_optimum(shard)
    assert f_star == pytest.approx(0.0, abs=1e-24)


def test_local_optimum_beats_random_perturbations():
    rng = np.random.default_rng(7)
    shard = make_shard(rng, n=5, d=3)
    theta, f_star = local_optimum(shard)
    for _ in range(100):
        delta = rng.standard_normal(3) * 0.1
        assert f_star <= mse_loss(theta + delta, shard) + 1e-15


def test_local_optimum_residual_gradient_small():
    rng = np.random.default_rng(8)
    for _ in range(20):
        shard = make_shard(rng, n=int(rng.integers(1, 10)), d=4)
        theta, _ = local_optimum(shard)
        bound = 1e-8 * (1 + np.linalg.norm(shard.targets))
        assert np.linalg.norm(mse_gradient(theta, shard)) <= bound


# ---------------------------------------------------------------------------
# problem_constants
# ---------------------------------------------------------------------------


def test_identical_shards_have_zero_gamma():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    shards = [ClientShard(i, X.copy(), y.copy()) for i in range(4)]
    pc = problem_constants(PaddedShards.build(shards), np.zeros(2), zeta=10.0)
    assert pc.gamma_noniid <= 1e-12


def test_two_quadratics_closed_form():
    # clients realize f_1 = theta^2 and f_2 = (theta - 2)^2 with equal weight;
    # the average theta^2 - 2 theta + 2 has minimum 1 at theta = 1, and both
    # local optima are exact, so gamma = f* - 0 = 1.
    s1 = ClientShard(0, np.array([[1.0]]), np.array([0.0]))
    s2 = ClientShard(1, np.array([[1.0]]), np.array([2.0]))
    pc = problem_constants(PaddedShards.build([s1, s2]), np.zeros(1), zeta=10.0)
    assert pc.f_star == pytest.approx(1.0, rel=1e-12)
    assert pc.theta_star == pytest.approx([1.0], rel=1e-12)
    assert pc.gamma_noniid == pytest.approx(1.0, rel=1e-12)
    # pooled Hessian is (2/2) * 2 = 2 in one dimension
    assert pc.mu == pytest.approx(2.0, rel=1e-12)
    assert pc.lam == pytest.approx(2.0, rel=1e-12)


def test_gamma_nonnegative_on_random_datasets():
    rng = np.random.default_rng(10)
    for _ in range(10):
        shards = [
            make_shard(rng, n=int(rng.integers(2, 8)), d=3, client_id=i)
            for i in range(int(rng.integers(2, 6)))
        ]
        pc = problem_constants(PaddedShards.build(shards), np.zeros(3), zeta=10.0)
        assert pc.gamma_noniid >= 0.0


def test_eigenvalue_extremes_match_dense_solver():
    rng = np.random.default_rng(11)
    shards = [make_shard(rng, n=20, d=4, client_id=i) for i in range(3)]
    pc = problem_constants(PaddedShards.build(shards), np.zeros(4), zeta=10.0)
    X = np.concatenate([s.features for s in shards])
    hessian = (2.0 / X.shape[0]) * X.T @ X
    ev = np.linalg.eigvalsh(hessian)
    assert pc.mu == pytest.approx(ev[0], rel=1e-10)
    assert pc.lam == pytest.approx(ev[-1], rel=1e-10)
    assert pc.mu < pc.lam


def test_scaled_identity_hessian_gives_mu_equal_lambda():
    shard = ClientShard(0, np.eye(3) * 2.0, np.ones(3))
    pc = problem_constants(PaddedShards.build([shard]), np.zeros(3), zeta=10.0)
    assert pc.mu == pytest.approx(pc.lam, rel=1e-14)


def test_rank_deficient_hessian_flags_assumptions():
    shard = ClientShard(0, np.array([[1.0, 2.0]]), np.array([1.0]))
    pc = problem_constants(PaddedShards.build([shard]), np.zeros(2), zeta=10.0)
    assert not pc.assumptions_ok
    assert pc.mu == 0.0


def test_g_bound_defaults_and_override():
    rng = np.random.default_rng(12)
    data = PaddedShards.build([make_shard(rng, client_id=0)])
    pc = problem_constants(data, np.zeros(3), zeta=7.0)
    assert pc.g_bound == 7.0
    pc_over = dataclasses.replace(pc, g_bound=1.25)
    assert pc_over.g_bound == 1.25


def test_y0_is_squared_start_distance():
    rng = np.random.default_rng(13)
    shards = [make_shard(rng, n=30, d=2, client_id=0)]
    theta_0 = np.array([1.0, -1.0])
    pc = problem_constants(PaddedShards.build(shards), theta_0, zeta=5.0)
    assert pc.y0 == pytest.approx(np.sum((theta_0 - pc.theta_star) ** 2), rel=1e-14)


def test_global_loss_is_weighted_shard_average():
    rng = np.random.default_rng(14)
    shards = [make_shard(rng, n=4 + i, d=3, client_id=i) for i in range(3)]
    theta = rng.standard_normal(3)
    n = sum(s.n_l for s in shards)
    expected = sum(s.n_l / n * mse_loss(theta, s) for s in shards)
    assert global_loss(theta, shards) == pytest.approx(expected, rel=1e-13)


def test_global_optimum_minimizes_weighted_loss():
    rng = np.random.default_rng(15)
    shards = [make_shard(rng, n=6, d=2, client_id=i) for i in range(3)]
    theta_star, f_star = global_optimum(shards)
    assert global_loss(theta_star, shards) == pytest.approx(f_star, rel=1e-12)
    for _ in range(50):
        delta = rng.standard_normal(2) * 0.2
        assert f_star <= global_loss(theta_star + delta, shards) + 1e-15


def test_hessian_whose_square_underflows_flags_assumptions():
    # mu = lambda ~ 7e-201 passes the ratio test, but the bound's 4/mu^2 divides by zero
    shard = ClientShard(0, np.eye(3) * 1e-100, np.ones(3))
    pc = problem_constants(PaddedShards.build([shard]), np.zeros(3), zeta=10.0)
    assert not pc.assumptions_ok


def test_refined_gram_solve_matches_lstsq_on_an_ill_conditioned_store():
    # singular values 1 .. 1e-5, so cond(H) = 1e10: the Gram solve alone is off
    # by ~1e-7 relative, and only its refinement step reaches lstsq's accuracy
    rng = np.random.default_rng(61)
    n, p = 400, 8
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    x = (u * np.logspace(0, -5, p)) @ v.T
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    data = PaddedShards.from_pooled(x, y, [100, 120, 80, 100])
    pc = problem_constants(data, np.zeros(p), zeta=10.0)
    theta_star, f_star = global_optimum(data.shards)
    assert pc.assumptions_ok
    assert np.linalg.norm(pc.theta_star - theta_star) <= 1e-9 * np.linalg.norm(theta_star)
    assert pc.f_star == pytest.approx(f_star, rel=1e-12)


def test_singular_hessian_keeps_the_min_norm_pooled_solution():
    rng = np.random.default_rng(62)
    x = rng.standard_normal((300, 3))
    x = np.column_stack([x, x[:, 0] + 1e-9 * rng.standard_normal(300)])
    data = PaddedShards.from_pooled(x, rng.standard_normal(300), [100, 120, 80])
    pc = problem_constants(data, np.zeros(4), zeta=10.0)
    theta_star, f_star = global_optimum(data.shards)
    assert not pc.assumptions_ok
    assert np.array_equal(pc.theta_star, theta_star) and pc.f_star == f_star


def test_well_posed_constants_solve_only_on_the_gram(monkeypatch):
    rng = np.random.default_rng(63)
    data = PaddedShards.build([make_shard(rng, n=30, d=3, client_id=i) for i in range(4)])
    rows = []
    lstsq = np.linalg.lstsq

    def counting(a, b, **kwargs):
        rows.append(a.shape[0])
        return lstsq(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    pc = problem_constants(data, np.zeros(3), zeta=10.0)
    assert pc.assumptions_ok
    assert rows == [3, 3]  # the Gram solve and its refinement, no n-row solve


# ---------------------------------------------------------------------------
# batched local optima
# ---------------------------------------------------------------------------


def _with_bias(x):
    return np.column_stack([x, np.ones(x.shape[0])])


def _optima_case(case, rng):
    """Shards with a bias column whose per-shard least-squares problems are awkward."""
    if case == "ragged":
        sizes, d = [3, 12, 7, 5, 9, 4], 3
    elif case == "single-row":
        sizes, d = [1, 6, 1, 8, 1], 3
    elif case == "wide":  # n_l < p on every shard, ragged
        sizes, d = [2, 5, 3, 1, 4], 7
    else:
        sizes, d = [6, 8, 10, 6], 3
    shards = []
    for cid, n_l in enumerate(sizes):
        x = rng.standard_normal((n_l, d))
        if case == "duplicate-rows":  # three distinct rows, so rank 3 < p = 4
            x = np.tile(x[:3], (n_l // 3 + 1, 1))[:n_l]
        if case == "wide":  # a repeated row with its own target leaves a residual
            x[-1] = x[0]
        if case == "constant-column":  # a multiple of the bias column
            x[:, 1] = 2.5
        if case == "mixed-conditioning":  # full rank with condition ~1e5, then rank-deficient
            if cid % 2:
                x[:, 1] = 2.5
            else:
                x[:, 0] *= 1e-5
        y = x @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n_l) + 1.0
        shards.append(ClientShard(cid, _with_bias(x), y))
    return shards


@pytest.mark.parametrize(
    "case", ["ragged", "single-row", "wide", "duplicate-rows", "constant-column",
             "mixed-conditioning"]
)
def test_batched_local_optima_match_lstsq(case):
    shards = _optima_case(case, np.random.default_rng(40))
    reference = np.array([local_optimum(s)[1] for s in shards])
    data = PaddedShards.build(shards)
    pc = problem_constants(data, np.zeros(data.dim), zeta=10.0)
    n = sum(s.n_l for s in shards)
    gamma_reference = max(0.0, pc.f_star - sum(s.n_l / n * f for s, f in zip(shards, reference)))
    assert pc.f_star > 1e-3
    assert abs(pc.gamma_noniid - gamma_reference) <= 1e-12 * pc.f_star
    assert np.abs(_local_optimum_losses(data) - reference).max() <= 1e-12 * pc.f_star


def test_store_stacks_shards_in_client_order():
    rng = np.random.default_rng(41)
    shards = [make_shard(rng, n=n_l, d=2, client_id=cid) for cid, n_l in [(1, 3), (0, 2)]]
    data = PaddedShards.build(shards)
    assert data.x.shape == (2, 3, 2) and data.n == 5
    assert np.array_equal(data.x[0, :2], shards[1].features)
    assert np.array_equal(data.x[1], shards[0].features)
    assert not data.x[0, 2].any() and data.y[0, 2] == 0.0
    assert np.array_equal(data.pooled_x, np.concatenate([shards[1].features, shards[0].features]))
    equal = PaddedShards.build([make_shard(rng, n=4, d=2, client_id=cid) for cid in range(3)])
    assert np.shares_memory(equal.x, equal.pooled_x)  # no padding, no second copy

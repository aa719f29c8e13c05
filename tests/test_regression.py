import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim.data import synth_regression
from dpfedsim.regression import (
    ClientShard,
    ConfigError,
    PaddedShards,
    _local_optimum_losses,
    _row_norms,
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


def _kernel_norms(rows: np.ndarray):
    """The norms of X'g for the coordinates g of a gradient in the span of the rows of X.

    In L2 the K-weighted norm that the dual local steps start from,
    sqrt(max(0, g'K g)) with K = X X'; in L1 the norm of X'g itself. An
    array of coordinates (..., n) gets the norm of each row, each as the
    row's own.
    """
    kernel = rows @ rows.T

    def norm(g, norm_kind):
        if norm_kind == "l2":
            return np.sqrt(np.maximum(g @ kernel @ g, 0.0))
        return np.abs(rows.T @ g).sum()

    def row_norms(g, norm_kind):
        if g.ndim == 1:
            return norm(g, norm_kind)
        flat = g.reshape(-1, g.shape[-1])
        return np.array([norm(row, norm_kind) for row in flat]).reshape(g.shape[:-1])

    return row_norms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(["l1", "l2"]),
    # None: the norms of g itself; a seed: those of X'g for a drawn X of
    # len(g) rows, one of them repeated, so K = X X' is singular
    st.none() | st.integers(0, 2**32 - 1),
)
def test_clip_idempotent_bitwise(values, zeta, norm_kind, kernel_seed):
    g = np.array(values)
    norms = {}
    if kernel_seed is not None:
        rows = np.random.default_rng(kernel_seed).standard_normal((len(g), 3))
        rows[-1] = rows[0]
        norms = {"row_norms": _kernel_norms(rows)}
    once = clip_gradient(g, zeta, norm_kind, **norms)
    twice = clip_gradient(once, zeta, norm_kind, **norms)
    assert np.array_equal(once, twice)


def test_clip_rejects_nonpositive_threshold():
    with pytest.raises(ConfigError):
        clip_gradient(np.ones(2), 0.0)
    with pytest.raises(ConfigError):
        clip_gradient(np.ones(2), -1.0)


def _counting(row_norms):
    """``row_norms``, counted: the list it returns gets the row shape of every block asked."""
    calls = []

    def counted(rows, norm_kind):
        calls.append(rows.shape[:-1])
        return row_norms(rows, norm_kind)

    return counted, calls


# the norms a clip is tested in: (norm kind, seed of the kernel rows X of a
# K-weighted norm, or None for the norms of the rows themselves)
CLIP_CASES = [("l1", None), ("l2", None), ("l1", 3), ("l2", 3)]


def _case_norms(norm_kind, kernel_seed, dim):
    if kernel_seed is None:
        return _row_norms
    return _kernel_norms(np.random.default_rng(kernel_seed).standard_normal((dim, 8)))


def _row_at(norm_of, rng, dim, target):
    """A row whose norm is exactly ``target``: a drawn direction, its scale walked by ulps."""
    for _ in range(20):
        direction = rng.standard_normal(dim)
        scale = target / norm_of(direction)
        for _ in range(16):
            got = norm_of(scale * direction)
            if got == target:
                return scale * direction
            scale = np.nextafter(scale, np.inf if got < target else -np.inf)
    raise AssertionError(f"no row of norm {target!r} found")


@pytest.mark.parametrize("norm_kind,kernel_seed", CLIP_CASES)
def test_clip_leaves_rows_just_below_the_threshold_bitwise_when_another_row_binds(
        norm_kind, kernel_seed):
    # rows at zeta (1 - k eps), k = 0..8, some within the margin 1 + 4 eps of
    # zeta, are divided by exactly 1.0 however far the first row is clipped
    dim, zeta = 5, 1.7
    row_norms = _case_norms(norm_kind, kernel_seed, dim)
    rng = np.random.default_rng(7)
    rows = [_row_at(lambda row: row_norms(row, norm_kind), rng, dim,
                    zeta * (1 - k * np.finfo(float).eps)) for k in range(9)]
    block = np.stack([3 * rows[0]] + rows)
    out = clip_gradient(block, zeta, norm_kind, row_norms)
    assert out[1:].tobytes() == block[1:].tobytes()
    assert out.tobytes() == np.stack(
        [clip_gradient(row, zeta, norm_kind, row_norms) for row in block]).tobytes()
    assert row_norms(out[0], norm_kind) <= zeta < row_norms(block[0], norm_kind)


def _single_ratio_clip(row, zeta, norm_kind):
    """The rule row / max(1, ||row||/zeta), applied again while the norm exceeds zeta."""
    norm = _row_norms(row, norm_kind)
    if norm <= zeta:
        return row
    row = row / max(norm / zeta, 1.0)
    while _row_norms(row, norm_kind) > zeta:
        row = row / (_row_norms(row, norm_kind) / zeta)
    return row


@pytest.mark.parametrize("norm_kind", ["l1", "l2"])
@pytest.mark.parametrize("zeta", [5e-324, 1e-300, 1e300])
def test_clip_at_extreme_thresholds_keeps_the_zeros_and_nans_of_the_single_ratio_rule(
        zeta, norm_kind):
    # zero, subnormal, at-threshold and over-threshold rows, rows past the
    # float range once squared or divided, and rows holding inf or NaN: each
    # comes back as the single-ratio rule returns it on its own, up to the
    # rounding of a clipped row, with its zeros and NaNs where that rule puts them
    finite = np.array([
        [0.0, 0.0, 0.0],
        [5e-324, -2e-310, 1e-308],
        [zeta, 0.0, 0.0],
        [3 * zeta, -4 * zeta, 12 * zeta],
        [1.5, -0.25, 2.0],
    ])
    block = np.concatenate([finite, [[np.inf, 1.0, -2.0], [np.nan, 1.0, -2.0]]])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = np.stack([_single_ratio_clip(row, zeta, norm_kind) for row in block])
        got = clip_gradient(block, zeta, norm_kind)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got == 0, want == 0)
    for row, out, ref in zip(block, got, want):
        if ref.tobytes() == row.tobytes():
            assert out.tobytes() == row.tobytes()
        else:
            np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0.0)
    assert (_row_norms(got[:len(finite)], norm_kind) <= zeta).all()
    # on finite rows the division makes no NaN
    with np.errstate(over="ignore", invalid="raise", under="ignore"):
        assert got[:len(finite)].tobytes() == clip_gradient(finite, zeta, norm_kind).tobytes()


@pytest.mark.parametrize("norm_kind,kernel_seed", CLIP_CASES)
@pytest.mark.parametrize("zeta", [1e-3, 1.0, 150.0, 1e5])
def test_clip_lands_every_binding_row_just_below_the_threshold_in_one_rescale(
        zeta, norm_kind, kernel_seed):
    dim = 5
    rng = np.random.default_rng(11)
    row_norms, calls = _counting(_case_norms(norm_kind, kernel_seed, dim))
    block = rng.standard_normal((200, dim))
    block *= zeta * rng.lognormal(0.0, 1.0, (200, 1)) / row_norms(block, norm_kind)[:, None]
    calls.clear()
    out = clip_gradient(block, zeta, norm_kind, row_norms)
    assert len(calls) == 2  # the rescale and the recheck that ends the loop
    before, after = row_norms(block, norm_kind), row_norms(out, norm_kind)
    binding = before > zeta
    assert 50 < binding.sum() < 150
    assert (after[binding] <= zeta).all() and (after[binding] >= zeta * (1 - 1e-13)).all()
    assert out[~binding].tobytes() == block[~binding].tobytes()


# the local-step blocks of the benchmark workloads: (synthetic store, clip
# norm, repeats R); each pool is the store's N = b clients, so a step clips an
# (R, b, p) block, or on the wide store the dual form's (b, L, n_l) block
BENCH_STEP_SHAPES = {
    "run-default": (dict(n_clients=10, n_per_client=20, n_features=5), "l1", 20),
    "run-many-clients": (dict(n_clients=100, n_per_client=16, n_features=5), "l2", 5),
    "run-wide": (dict(n_clients=20, n_per_client=50, n_features=199), "l2", 10),
}


@pytest.mark.parametrize("shape", BENCH_STEP_SHAPES)
def test_a_binding_clip_of_a_bench_step_takes_two_norm_passes(shape):
    # counts, not timings: the rescale and the recheck that ends the loop. A
    # rescale that leaves rows above zeta brings back a third pass
    store, norm_kind, repeats = BENCH_STEP_SHAPES[shape]
    data = synth_regression(heterogeneity=0.5, noise_std=0.1, seed=4, **store)
    theta = np.random.default_rng(5).standard_normal((repeats, data.dim))
    steps = data.local_steps(slice(0, data.n_clients), theta, norm_kind)
    assert (type(steps).__name__ == "_DualSteps") == (shape == "run-wide")
    row_norms, calls = _counting(steps.row_norms)
    zeta = float(np.median(steps.row_norms(steps.gradient(), norm_kind)))
    binding = 0
    for _ in range(5):
        block = steps.gradient()
        over = (steps.row_norms(block, norm_kind) > zeta).any()
        calls.clear()
        grad = clip_gradient(block, zeta, norm_kind, row_norms)
        assert len(calls) == (2 if over else 1)
        binding += over
        steps.step(0.01, grad)
    assert binding == 5


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
    pc = problem_constants(PaddedShards.build(shards), zeta=10.0)
    assert pc.gamma_noniid <= 1e-12


def test_two_quadratics_closed_form():
    # clients realize f_1 = theta^2 and f_2 = (theta - 2)^2 with equal weight;
    # the average theta^2 - 2 theta + 2 has minimum 1 at theta = 1, and both
    # local optima are exact, so gamma = f* - 0 = 1.
    s1 = ClientShard(0, np.array([[1.0]]), np.array([0.0]))
    s2 = ClientShard(1, np.array([[1.0]]), np.array([2.0]))
    pc = problem_constants(PaddedShards.build([s1, s2]), zeta=10.0)
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
        pc = problem_constants(PaddedShards.build(shards), zeta=10.0)
        assert pc.gamma_noniid >= 0.0


def test_eigenvalue_extremes_match_dense_solver():
    rng = np.random.default_rng(11)
    shards = [make_shard(rng, n=20, d=4, client_id=i) for i in range(3)]
    pc = problem_constants(PaddedShards.build(shards), zeta=10.0)
    X = np.concatenate([s.features for s in shards])
    hessian = (2.0 / X.shape[0]) * X.T @ X
    ev = np.linalg.eigvalsh(hessian)
    assert pc.mu == pytest.approx(ev[0], rel=1e-10)
    assert pc.lam == pytest.approx(ev[-1], rel=1e-10)
    assert pc.mu < pc.lam


def test_scaled_identity_hessian_gives_mu_equal_lambda():
    shard = ClientShard(0, np.eye(3) * 2.0, np.ones(3))
    pc = problem_constants(PaddedShards.build([shard]), zeta=10.0)
    assert pc.mu == pytest.approx(pc.lam, rel=1e-14)


def test_rank_deficient_hessian_flags_assumptions():
    shard = ClientShard(0, np.array([[1.0, 2.0]]), np.array([1.0]))
    pc = problem_constants(PaddedShards.build([shard]), zeta=10.0)
    assert not pc.assumptions_ok
    assert pc.mu == 0.0


def test_g_bound_defaults_and_override():
    rng = np.random.default_rng(12)
    data = PaddedShards.build([make_shard(rng, client_id=0)])
    pc = problem_constants(data, zeta=7.0)
    assert pc.g_bound == 7.0
    pc_over = dataclasses.replace(pc, g_bound=1.25)
    assert pc_over.g_bound == 1.25


@pytest.mark.parametrize("rows", [30, 1])  # a Gram solve, and lstsq on a singular Hessian
def test_y0_is_the_squared_distance_of_the_zero_start(rows):
    rng = np.random.default_rng(13)
    shards = [make_shard(rng, n=rows, d=2, client_id=0)]
    pc = problem_constants(PaddedShards.build(shards), zeta=5.0)
    assert pc.assumptions_ok == (rows == 30)
    assert pc.y0.hex() == float(pc.theta_star @ pc.theta_star).hex()
    diff = np.zeros(2) - pc.theta_star  # negates theta* exactly: the same bits
    assert pc.y0.hex() == float(diff @ diff).hex()


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
    pc = problem_constants(PaddedShards.build([shard]), zeta=10.0)
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
    pc = problem_constants(data, zeta=10.0)
    theta_star, f_star = global_optimum(data.shards)
    assert pc.assumptions_ok
    assert np.linalg.norm(pc.theta_star - theta_star) <= 1e-9 * np.linalg.norm(theta_star)
    assert pc.f_star == pytest.approx(f_star, rel=1e-12)


def test_singular_hessian_keeps_the_min_norm_pooled_solution():
    rng = np.random.default_rng(62)
    x = rng.standard_normal((300, 3))
    x = np.column_stack([x, x[:, 0] + 1e-9 * rng.standard_normal(300)])
    data = PaddedShards.from_pooled(x, rng.standard_normal(300), [100, 120, 80])
    pc = problem_constants(data, zeta=10.0)
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
    pc = problem_constants(data, zeta=10.0)
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
    pc = problem_constants(data, zeta=10.0)
    n = sum(s.n_l for s in shards)
    gamma_reference = max(0.0, pc.f_star - sum(s.n_l / n * f for s, f in zip(shards, reference)))
    assert pc.f_star > 1e-3
    assert abs(pc.gamma_noniid - gamma_reference) <= 1e-12 * pc.f_star
    assert np.abs(_local_optimum_losses(data) - reference).max() <= 1e-12 * pc.f_star


@pytest.mark.parametrize("clients", [1, 2, 4])
@pytest.mark.parametrize(
    "case", ["ragged", "single-row", "duplicate-rows", "constant-column", "mixed-conditioning"]
)
def test_local_optima_in_client_chunks_equal_one_chunk(monkeypatch, case, clients):
    # every case has max(n_l) >= p, the QR path; 5 or 6 clients leave a ragged last chunk
    data = PaddedShards.build(_optima_case(case, np.random.default_rng(40)))
    whole = _local_optimum_losses(data)
    chunks = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: chunks.append(len(a)) or qr(a, mode))
    monkeypatch.setattr("dpfedsim.regression.CHUNK_ELEMENTS",
                        clients * data.x.shape[1] * (data.dim + 1))
    chunked = _local_optimum_losses(data)
    n = data.n_clients
    assert chunks == [clients] * (n // clients) + ([n % clients] if n % clients else [])
    assert chunked.tobytes() == whole.tobytes()


def test_local_optima_hold_no_whole_copy_of_x_y(monkeypatch):
    # tracemalloc sees numpy's data allocations. [X y] of this store (N = 200,
    # n_l = 100, p = 5) is 0.96 MB; one QR of the whole stack peaks at 2.14x it
    # (the concatenated copy and qr's own). Chunks of 10 clients peak at 0.17x:
    # two 48 KB chunks, the (N, 6, 6) R factors and the p x p Gram matrices.
    data = synth_regression(200, 100, 4, 0.5, 0.1, seed=3)
    stack = data.x.shape[0] * data.x.shape[1] * (data.dim + 1) * 8
    monkeypatch.setattr("dpfedsim.regression.CHUNK_ELEMENTS",
                        10 * data.x.shape[1] * (data.dim + 1))
    want = _local_optimum_losses(data)  # first-use allocations of numpy
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = _local_optimum_losses(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 0.5 * stack


def _drawn_stack(rng):
    """A store of awkward shards: ragged or not, n_l below and above p, and odd blocks.

    Half the stacks have no odd block, so whole chunks of the gate clear; in
    the others a few shards get a duplicate, zero or near-duplicate column or
    are all zero, and a tenth of the stacks are scaled to 1e-150.
    """
    n_clients, p = int(rng.integers(1, 40)), int(rng.integers(1, 9))
    sizes = (rng.integers(1, 2 * p + 3, size=n_clients) if rng.random() < 0.5
             else np.full(n_clients, rng.integers(1, 2 * p + 3)))
    odd_rate = 0.0 if rng.random() < 0.5 else 0.2
    scale = 1e-150 if rng.random() < 0.1 else 1.0
    shards = []
    for cid, n_l in enumerate(sizes.tolist()):
        x = rng.standard_normal((n_l, p))
        odd = rng.integers(4) if rng.random() < odd_rate else None
        if odd == 0 and p > 1:  # a duplicate column
            x[:, 1] = x[:, 0]
        if odd == 1:  # a zero column
            x[:, -1] = 0.0
        if odd == 2 and p > 1:  # a near-duplicate column
            x[:, 1] = x[:, 0] * (1.0 + 1e-9 * rng.standard_normal(n_l))
        if odd == 3:  # an all-zero shard
            x[:] = 0.0
        y = x @ rng.standard_normal(p) + rng.standard_normal(n_l)
        shards.append(ClientShard(cid, scale * x, scale * y))
    return PaddedShards.build(shards)


def test_cholesky_gate_changes_no_byte_of_the_local_optima(monkeypatch):
    # with every factorisation refused, every block goes to the SVD, which alone
    # decides a cut; the gate may only skip that work for blocks it loses nothing on
    cholesky = np.linalg.cholesky
    factored = {"cleared": 0, "refused": 0}

    def counting(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            factored["refused"] += 1
            raise
        factored["cleared"] += 1
        return factor

    def refusing(a):
        raise np.linalg.LinAlgError("refused")

    svd = np.linalg.svd
    rng = np.random.default_rng(2301)
    for _ in range(240):
        data = _drawn_stack(rng)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(np.linalg, "svd", svd)
        gated = _local_optimum_losses(data)
        blocks = []
        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: blocks.append(len(a)) or svd(a, **kw))
        assert gated.tobytes() == _local_optimum_losses(data).tobytes()
        assert blocks[0] == data.n_clients  # a refused chunk sends its blocks to the SVD
    # both outcomes of the gate were exercised, many times over
    assert min(factored.values()) >= 50


def test_one_rank_deficient_shard_among_well_conditioned_ones_matches_lstsq():
    rng = np.random.default_rng(2302)
    shards = [ClientShard(cid, _with_bias(rng.standard_normal((9, 3))), rng.standard_normal(9))
              for cid in range(12)]
    rank_deficient = _with_bias(rng.standard_normal((9, 3)))
    rank_deficient[:, 2] = rank_deficient[:, 0] - rank_deficient[:, 1]
    shards[5] = ClientShard(5, rank_deficient, rng.standard_normal(9))
    data = PaddedShards.build(shards)
    reference = np.array([local_optimum(s)[1] for s in shards])
    pc = problem_constants(data, zeta=10.0)
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

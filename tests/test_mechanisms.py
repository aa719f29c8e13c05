import math

import numpy as np
import pytest

from dpfedsim.mechanisms import (
    MechanismSpec,
    NoiseContext,
    epsilon_regime_warning,
    gaussian_sigma,
    l1_sensitivity_warning,
    laplace_scale,
    noise_item_variance,
    noise_stream,
    round_sensitivity,
    sample_noise,
)
from dpfedsim.regression import ConfigError


def ctx(p=1, eta_tilde=1.0, E=1, T_g=1, b=1, N=1, n=1, n_bar_sq=1.0):
    return NoiseContext(
        p=p, eta_tilde=eta_tilde, E=E, T_l=b * T_g // N, T_g=T_g, b=b, N=N, n=n,
        n_bar_sq=n_bar_sq,
    )


def laplace_spec(epsilon=1.0, xi1=1.0):
    return MechanismSpec(kind="laplace", epsilon=epsilon, xi1=xi1)


def gaussian_spec(epsilon=1.0, delta=0.0001, c2=1.0, xi2=1.0):
    return MechanismSpec(kind="gaussian", epsilon=epsilon, delta=delta, c2=c2, xi2=xi2)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_none_kind_requires_infinite_epsilon():
    MechanismSpec(kind="none", epsilon=math.inf)
    with pytest.raises(ConfigError):
        MechanismSpec(kind="none", epsilon=1.0)
    with pytest.raises(ConfigError):
        MechanismSpec(kind="laplace", epsilon=math.inf, xi1=1.0)


def test_laplace_requires_positive_xi1():
    with pytest.raises(ConfigError):
        MechanismSpec(kind="laplace", epsilon=1.0)
    with pytest.raises(ConfigError):
        MechanismSpec(kind="laplace", epsilon=1.0, xi1=0.0)


def test_gaussian_requires_delta_c2_xi2():
    with pytest.raises(ConfigError):
        MechanismSpec(kind="gaussian", epsilon=1.0, xi2=1.0)  # no delta
    with pytest.raises(ConfigError):
        MechanismSpec(kind="gaussian", epsilon=1.0, delta=1.5, xi2=1.0)
    with pytest.raises(ConfigError):
        MechanismSpec(kind="gaussian", epsilon=1.0, delta=0.1, xi2=1.0, c2=0.0)
    with pytest.raises(ConfigError):
        MechanismSpec(kind="gaussian", epsilon=1.0, delta=0.1)


# ---------------------------------------------------------------------------
# sensitivities
# ---------------------------------------------------------------------------


def test_sensitivity_l1_product():
    assert round_sensitivity(ctx(eta_tilde=0.1, E=5), xi=2.0) == pytest.approx(1.0)


def test_sensitivity_l1_single_step():
    c = ctx(eta_tilde=0.37, E=1)
    assert round_sensitivity(c, xi=2.5) == pytest.approx(0.37 * 2.5)


def test_sensitivity_l2_product_and_linearity():
    assert round_sensitivity(ctx(eta_tilde=0.01, E=10), xi=3.0) == pytest.approx(0.3)
    assert round_sensitivity(ctx(eta_tilde=0.01, E=20), xi=3.0) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------


def test_laplace_scale_direct_substitution():
    c = ctx(eta_tilde=1.0, E=1, T_g=10)  # T_l = 10, Xi1 = 1
    assert laplace_scale(c, laplace_spec(epsilon=1.0)) == pytest.approx(10.0)


def test_laplace_scale_inverse_in_epsilon():
    c = ctx(eta_tilde=0.5, E=4, T_g=6)
    b1 = laplace_scale(c, laplace_spec(epsilon=1.0))
    b2 = laplace_scale(c, laplace_spec(epsilon=2.0))
    assert b2 == pytest.approx(b1 / 2)


def test_laplace_sampled_variance_matches_two_beta_squared():
    c = ctx(p=1, eta_tilde=1.0, E=1, T_g=3)
    spec = laplace_spec(epsilon=1.5)
    beta = laplace_scale(c, spec)
    rng = np.random.default_rng(42)
    draws = rng.laplace(0.0, beta, size=10**6)
    assert np.mean(draws**2) == pytest.approx(2 * beta**2, rel=0.01)


def test_gaussian_sigma_direct_substitution():
    c = ctx(T_g=1)
    spec = gaussian_spec(epsilon=1.0, delta=math.exp(-1.0))
    assert gaussian_sigma(c, spec) == pytest.approx(1.0)


def test_gaussian_sigma_square_root_in_rounds():
    spec = gaussian_spec(epsilon=2.0, delta=0.0001)
    s1 = gaussian_sigma(ctx(T_g=2), spec)
    s4 = gaussian_sigma(ctx(T_g=8), spec)
    assert s4 == pytest.approx(2 * s1)


def test_scale_errors():
    with pytest.raises(ConfigError):
        laplace_scale(ctx(), gaussian_spec())
    with pytest.raises(ConfigError):
        gaussian_sigma(ctx(), laplace_spec())
    with pytest.raises(ConfigError):
        MechanismSpec(kind="laplace", epsilon=-1.0, xi1=1.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_noise_none_is_exact_zero():
    assert np.array_equal(sample_noise(MechanismSpec(), ctx(p=5), noise_stream(0)),
                          np.zeros(5))
    block = sample_noise(MechanismSpec(), ctx(p=5), noise_stream(0), (3,))
    assert np.array_equal(block, np.zeros((3, 5)))


def test_sample_noise_repeatable_per_stream():
    c = ctx(p=4, T_g=2)
    for spec in (laplace_spec(), gaussian_spec()):
        a = sample_noise(spec, c, noise_stream(7), (5,))
        assert a.shape == (5, 4)
        assert np.array_equal(a, sample_noise(spec, c, noise_stream(7), (5,)))
        assert len({row.tobytes() for row in a}) == 5  # every client gets its own row
        # the stream's next draw (the next round) and another seed's stream differ
        rng = noise_stream(7)
        sample_noise(spec, c, rng, (5,))
        for other in (rng, noise_stream(8)):
            assert not np.any(a == sample_noise(spec, c, other, (5,)))
    with pytest.raises(ConfigError):
        noise_stream(-1)


@pytest.mark.parametrize("seed", [0, 31, 2**32 + 5])
def test_noise_stream_shares_no_word_with_the_data_or_validate_streams(seed):
    # the data builders draw from default_rng(seed), validate from
    # SeedSequence((seed, draws)) with draws >= 10^4
    words = noise_stream(seed).bit_generator.random_raw(256)
    for other in (np.random.default_rng(seed),
                  np.random.default_rng(np.random.SeedSequence((seed, 10**4)))):
        assert np.intersect1d(words, other.bit_generator.random_raw(256)).size == 0
    c = ctx(p=3)
    noise = sample_noise(gaussian_spec(), c, noise_stream(seed), (4,))
    data = sample_noise(gaussian_spec(), c, np.random.default_rng(seed), (4,))
    assert not np.any(noise == data)


def test_sample_noise_mean_within_standard_error():
    c = ctx(p=1, T_g=2)
    for spec in (laplace_spec(epsilon=2.0), gaussian_spec(epsilon=2.0)):
        # vectorized equivalent of 10^6 single-coordinate draws
        rng = noise_stream(1)
        if spec.kind == "laplace":
            beta = laplace_scale(c, spec)
            samples = rng.laplace(0.0, beta, size=10**6)
            std = beta * math.sqrt(2)
        else:
            s = gaussian_sigma(c, spec) * round_sensitivity(c, spec.xi2)
            samples = rng.normal(0.0, s, size=10**6)
            std = s
        se = std / 1000.0
        assert abs(np.mean(samples)) <= 4 * se


# ---------------------------------------------------------------------------
# noise item variance
# ---------------------------------------------------------------------------


def test_laplace_variance_direct_substitution():
    c = ctx(p=2)
    assert noise_item_variance(laplace_spec(), c) == pytest.approx(4.0)
    assert noise_item_variance(laplace_spec(), c, mode="paper") == pytest.approx(4.0)


def pool_aggregate_mc(spec, c, sizes, draws, seed):
    """Independent Monte-Carlo oracle: average ||w_t^b||^2 over round-robin pools."""
    n_pools = c.N // c.b
    per_pool = draws // n_pools
    rng = np.random.default_rng(seed)
    total = 0.0
    for t in range(n_pools):
        pool = [(t * c.b + j) % c.N for j in range(c.b)]
        weights = np.array([sizes[l] / c.n for l in pool]) * (c.N / c.b)
        if spec.kind == "laplace":
            w = rng.laplace(0.0, laplace_scale(c, spec), size=(per_pool, c.b, c.p))
        else:
            s = gaussian_sigma(c, spec) * round_sensitivity(c, spec.xi2)
            w = rng.normal(0.0, s, size=(per_pool, c.b, c.p))
        agg = np.einsum("dbp,b->dp", w, weights)
        total += np.sum(agg**2)
    return total / (per_pool * n_pools)


def test_laplace_variance_monte_carlo():
    c = ctx(p=2)
    est = pool_aggregate_mc(laplace_spec(), c, sizes=[1], draws=10**6, seed=3)
    assert est == pytest.approx(4.0, rel=0.01)


def test_gaussian_variance_exact_mode_matches_monte_carlo():
    sizes = [3, 5, 2, 4]
    n = sum(sizes)
    c = ctx(p=3, eta_tilde=0.2, E=2, T_g=4, b=2, N=4, n=n,
            n_bar_sq=sum(s**2 for s in sizes) / 4)
    spec = gaussian_spec(epsilon=0.8)
    est = pool_aggregate_mc(spec, c, sizes, draws=10**6, seed=4)
    assert est == pytest.approx(noise_item_variance(spec, c, mode="exact"), rel=0.01)
    assert noise_item_variance(spec, c, mode="paper") == pytest.approx(
        2 * noise_item_variance(spec, c, mode="exact"), rel=1e-12
    )


def test_gaussian_exact_equals_first_principles_cycle_average():
    # averaging the per-pool formula p*(sigma*Xi2)^2*(N^2/(b^2 n^2))*sum n_l^2
    # over the full round-robin cycle reproduces the n_bar^2 form
    sizes = [3, 5, 2, 4, 6, 1]
    n = sum(sizes)
    N, b = 6, 2
    c = ctx(p=4, eta_tilde=0.1, E=3, T_g=9, b=b, N=N, n=n,
            n_bar_sq=sum(s**2 for s in sizes) / N)
    spec = gaussian_spec(epsilon=0.5)
    s2 = (gaussian_sigma(c, spec) * round_sensitivity(c, spec.xi2)) ** 2
    per_pool = []
    for t in range(N // b):
        pool = [(t * b + j) % N for j in range(b)]
        per_pool.append(c.p * s2 * (N**2 / (b**2 * n**2)) * sum(sizes[l] ** 2 for l in pool))
    assert np.mean(per_pool) == pytest.approx(noise_item_variance(spec, c), rel=1e-12)


def test_variance_zero_for_none():
    assert noise_item_variance(MechanismSpec(), ctx(p=3)) == 0.0


def test_variance_monotonicity():
    base = dict(p=2, eta_tilde=0.1, E=2, T_g=4, b=2, N=4, n=8, n_bar_sq=4.0)
    for kind, make in (("laplace", laplace_spec), ("gaussian", gaussian_spec)):
        v_eps = [noise_item_variance(make(epsilon=e), ctx(**base)) for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(v_eps, v_eps[1:]))
        v_tg = [noise_item_variance(make(), ctx(**{**base, "T_g": tg})) for tg in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(v_tg, v_tg[1:]))
        v_e = [noise_item_variance(make(), ctx(**{**base, "E": e})) for e in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(v_e, v_e[1:]))
        v_p = [noise_item_variance(make(), ctx(**{**base, "p": p})) for p in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(v_p, v_p[1:]))


def test_variance_quadratic_in_sensitivity():
    # doubling xi doubles Xi and exactly quadruples the prediction
    c = ctx(p=2, eta_tilde=0.1, E=2, T_g=4, b=2, N=4, n=8, n_bar_sq=4.0)
    assert noise_item_variance(laplace_spec(xi1=2.0), c) == 4 * noise_item_variance(
        laplace_spec(xi1=1.0), c
    )
    assert noise_item_variance(gaussian_spec(xi2=2.0), c) == 4 * noise_item_variance(
        gaussian_spec(xi2=1.0), c
    )


# ---------------------------------------------------------------------------
# asymptotic exponent
# ---------------------------------------------------------------------------


def test_asymptotic_z_values():
    assert laplace_spec().z == 2.0
    assert gaussian_spec().z == 1.0
    assert MechanismSpec().z == 0.0


def test_epsilon_regime_warning_only_for_large_gaussian_budget():
    small = gaussian_spec(epsilon=0.5)
    large = gaussian_spec(epsilon=50.0)
    c = ctx(T_g=4, b=2, N=4, n=8, n_bar_sq=4.0)
    assert epsilon_regime_warning(small, c) is None
    assert "epsilon" in epsilon_regime_warning(large, c)
    assert epsilon_regime_warning(laplace_spec(epsilon=100.0), c) is None


def test_l1_sensitivity_warning_only_for_laplace_under_l2_clipping():
    # an l2-clipped gradient (1, 1, 1, 1) * zeta / 2 has L1 norm sqrt(4) * zeta
    warning = l1_sensitivity_warning(laplace_spec(xi1=3.0), 4, 3.0, "l2")
    assert "sqrt(p)*zeta=6" in warning and "2x" in warning
    assert l1_sensitivity_warning(laplace_spec(xi1=5.999), 4, 3.0, "l2") is not None
    assert l1_sensitivity_warning(laplace_spec(xi1=6.0), 4, 3.0, "l2") is None
    assert l1_sensitivity_warning(laplace_spec(xi1=3.0), 1, 3.0, "l2") is None
    assert l1_sensitivity_warning(laplace_spec(xi1=3.0), 4, 3.0, "l1") is None
    assert l1_sensitivity_warning(gaussian_spec(xi2=3.0), 4, 3.0, "l2") is None
    assert l1_sensitivity_warning(MechanismSpec(), 4, 3.0, "l2") is None


@pytest.mark.parametrize("T_g,b,N", [(1, 1, 1), (4, 2, 4), (30, 5, 10), (1000, 10, 10)])
@pytest.mark.parametrize("epsilon", [1e-3, 0.5, 3.0, 64.0])
@pytest.mark.parametrize("eta_tilde,E,xi1", [(1.0, 1, 1.0), (0.37, 5, 150.0), (2e-4, 80, 0.3)])
def test_laplace_scale_spends_epsilon_over_t_l_releases(T_g, b, N, epsilon, eta_tilde, E, xi1):
    # basic composition: T_l releases at scale beta each spend sensitivity / beta,
    # so beta = T_l * sensitivity / epsilon spends exactly epsilon in total
    c = ctx(T_g=T_g, b=b, N=N, eta_tilde=eta_tilde, E=E)
    spec = laplace_spec(epsilon=epsilon, xi1=xi1)
    ratio = laplace_scale(c, spec) / round_sensitivity(c, xi1)
    assert ratio == pytest.approx(c.T_l / epsilon, rel=4 * np.finfo(float).eps)
    assert c.T_l * round_sensitivity(c, xi1) / laplace_scale(c, spec) == pytest.approx(
        epsilon, rel=4 * np.finfo(float).eps)

import dataclasses
import math

import numpy as np
import pytest

from dpfedsim.bounds import (
    bound_curve,
    bound_params,
    c_mechanism,
    convergence_bound,
    nearest_divisor,
    omega0,
    optimal_local_iterations,
    rate_exponent,
)
from dpfedsim.mechanisms import MechanismSpec
from dpfedsim.regression import ConfigError, ProblemConstants


def constants(mu=1.0, lam=2.0, g=1.0, gamma_noniid=0.5, y0=4.0):
    return ProblemConstants(
        mu=mu, lam=lam, g_bound=g, gamma_noniid=gamma_noniid, f_star=0.0,
        theta_star=np.zeros(2), y0=y0,
    )


LAPLACE = MechanismSpec(kind="laplace", epsilon=1.0, xi1=1.0)
GAUSSIAN = MechanismSpec(kind="gaussian", epsilon=1.0, delta=math.exp(-1.0), xi2=1.0)


# ---------------------------------------------------------------------------
# omega0
# ---------------------------------------------------------------------------


def test_omega0_reduces_to_heterogeneity_term():
    assert omega0(2.0, 0.7, local_iters=1, g_bound=3.0, n_clients=5, pool_size=5) == (
        pytest.approx(6 * 2.0 * 0.7)
    )


def test_omega0_direct_substitution():
    assert omega0(1.0, 0.0, local_iters=2, g_bound=1.0, n_clients=2, pool_size=1) == 24.0


def test_omega0_monotone_in_local_iters():
    vals = [
        omega0(1.5, 0.3, local_iters=e, g_bound=2.0, n_clients=10, pool_size=2)
        for e in range(1, 8)
    ]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_omega0_single_client_guard():
    # b = N = 1: the sampling term vanishes instead of dividing by zero
    assert omega0(1.0, 0.0, 1, 1.0, n_clients=1, pool_size=1) == 0.0


# ---------------------------------------------------------------------------
# c_mechanism
# ---------------------------------------------------------------------------


def test_c_mechanism_laplace_direct_substitution():
    assert c_mechanism(LAPLACE, p=1, pool_size=1, n_clients=1) == 8.0


def test_c_mechanism_gaussian_direct_substitution():
    spec = MechanismSpec(kind="gaussian", epsilon=2.0, delta=math.exp(-1.0), xi2=1.0)
    assert c_mechanism(spec, p=1, pool_size=1, n_clients=2) == pytest.approx(1.0)


def test_c_mechanism_inverse_square_epsilon():
    a = c_mechanism(dataclasses.replace(LAPLACE, epsilon=1.0), 3, 2, 4)
    b = c_mechanism(dataclasses.replace(LAPLACE, epsilon=2.0), 3, 2, 4)
    assert a == pytest.approx(4 * b)


def test_c_mechanism_none_is_zero():
    assert c_mechanism(MechanismSpec(), 3, 2, 4) == 0.0


# ---------------------------------------------------------------------------
# convergence bound
# ---------------------------------------------------------------------------


def test_bound_at_zero_dominates_y0():
    pc = constants()
    bp = bound_params(pc, MechanismSpec(), local_iters=2, global_iters=10,
                      n_clients=4, pool_size=2)
    assert convergence_bound(0, bp) >= pc.y0


def test_noise_free_bound_strictly_decreasing():
    pc = constants()
    bp = bound_params(pc, MechanismSpec(), local_iters=1, global_iters=100,
                      n_clients=4, pool_size=4)
    vals = [convergence_bound(k, bp) for k in range(1, 101)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_laplace_bound_has_finite_interior_minimizer():
    pc = constants()
    grid = [8, 16, 32, 64, 128, 256, 512, 1024]
    spec = MechanismSpec(kind="laplace", epsilon=30.0, xi1=1.0)
    # E = 1: each total T runs T rounds under its own decay schedule
    vals = [
        convergence_bound(T, bound_params(pc, spec, local_iters=1, global_iters=T,
                                          n_clients=4, pool_size=2))
        for T in grid
    ]
    idx = min(range(len(grid)), key=lambda i: (vals[i], i))
    assert 0 < idx < len(grid) - 1
    assert vals[-1] > vals[idx]
    assert vals[0] > vals[idx]
    # single interior minimum on the grid: decreasing then increasing
    assert all(a > b for a, b in zip(vals[: idx + 1], vals[1 : idx + 1]))
    assert all(a < b for a, b in zip(vals[idx:], vals[idx + 1 :]))


def test_bound_requires_valid_assumptions():
    bad = ProblemConstants(
        mu=0.0, lam=1.0, g_bound=1.0, gamma_noniid=0.0, f_star=0.0,
        theta_star=np.zeros(2), y0=1.0, assumptions_ok=False,
    )
    with pytest.raises(ConfigError):
        bound_params(bad, MechanismSpec(), 1, 10, 4, 4)


def test_bound_params_fields():
    pc = constants(mu=1.0, lam=2.0)
    bp = bound_params(pc, LAPLACE, local_iters=4, global_iters=50,
                      n_clients=10, pool_size=5)
    assert bp.gamma == max(8 * 2.0 / 1.0, 4)
    assert bp.z == 2.0
    assert bp.omega1 == pytest.approx(bp.c_m * 16 * 50**2)
    assert bp.omega0 >= 6 * pc.lam * pc.gamma_noniid


def test_bound_curve_samples_all_rounds():
    pc = constants()
    bp = bound_params(pc, MechanismSpec(), local_iters=5, global_iters=7,
                      n_clients=4, pool_size=4)
    curve = bound_curve(bp)
    assert [k for k, _ in curve] == [5 * t for t in range(1, 8)]
    assert all(v > 0 for _, v in curve)


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


def test_optimal_local_iterations_exact_powers():
    assert optimal_local_iterations(1000, 2.0, divisor_adjust=False) == 100
    assert optimal_local_iterations(8, 2.0, divisor_adjust=False) == 4
    assert optimal_local_iterations(27, 2.0, divisor_adjust=False) == 9


def test_optimal_local_iterations_zero_exponent():
    for total in (1, 8, 120, 1000):
        assert optimal_local_iterations(total, 0.0) == 1


def test_divisor_adjustment_with_downward_ties():
    # T=120, z=1: raw sqrt(120)=10.95 -> 11; divisors 10 and 12 tie -> 10
    assert optimal_local_iterations(120, 1.0) == 10
    # T=120, z=2: raw 24.33 -> 24, already a divisor
    assert optimal_local_iterations(120, 2.0) == 24
    assert nearest_divisor(12, 5) == 4  # 4 and 6 tie at distance 1
    assert nearest_divisor(12, 7) == 6
    assert nearest_divisor(7, 3) == 1  # divisors 1 and 7: 1 is closer


def test_optimal_local_iterations_monotone_in_z():
    for total in (8, 27, 64, 120, 360, 1000):
        es = [optimal_local_iterations(total, z) for z in np.linspace(0, 2, 21)]
        assert all(a <= b for a, b in zip(es, es[1:]))


def test_optimal_local_iterations_bounds_and_validation():
    assert 1 <= optimal_local_iterations(17, 2.0) <= 17
    with pytest.raises(ConfigError):
        optimal_local_iterations(0, 1.0)
    with pytest.raises(ConfigError):
        optimal_local_iterations(10, 2.5)


def test_rate_exponent_values():
    assert rate_exponent(0.0) == -1.0
    assert rate_exponent(1.0) == 0.0
    assert rate_exponent(2.0) == pytest.approx(1 / 3)
    with pytest.raises(ConfigError):
        rate_exponent(-0.1)


def _brute_force_nearest_divisor(divisors, target):
    return min(divisors, key=lambda d: (abs(d - target), d))


def test_nearest_divisor_matches_brute_force():
    for total in range(1, 2001):
        divisors = [d for d in range(1, total + 1) if total % d == 0]
        targets = {0, 1, 2, total // 3, math.isqrt(total), total // 2 + 1, total - 1,
                   total, total + 5}
        for target in targets:
            assert nearest_divisor(total, target) == _brute_force_nearest_divisor(
                divisors, target), (total, target)


def test_nearest_divisor_large_prime_breaks_ties_downward():
    prime = 1_000_003  # divisors 1 and itself
    assert nearest_divisor(prime, 500_002) == 1  # equidistant from both
    assert nearest_divisor(prime, 500_003) == prime
    assert nearest_divisor(prime, 10**7) == prime
    assert nearest_divisor(10**7, 3163) == 3200  # 3200 is 37 away, 3125 is 38


@pytest.mark.parametrize("mechanism,g", [
    (MechanismSpec(kind="laplace", epsilon=1e-300, xi1=1.0), 1.0),  # eps^2 underflows
    (MechanismSpec(kind="laplace", epsilon=1.0, xi1=1e300), 1.0),  # xi1^2 overflows
    (MechanismSpec(kind="gaussian", epsilon=1.0, delta=0.01, xi2=1e300), 1.0),
    (MechanismSpec(), 1e300),  # G^2 overflows
])
def test_bound_params_out_of_float_range_is_config_error(mechanism, g):
    with pytest.raises(ConfigError, match="out of float range"):
        bound_params(constants(g=g), mechanism, 2, 4, 4, 2)

"""The pool- and repeat-batched local-step kernel against a plain per-client reference loop."""
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim import bounds, engine, mechanisms
from dpfedsim.cli import main as cli_main
from dpfedsim.data import sorted_partition
from dpfedsim.engine import (
    PARAM_LIMIT,
    ClipSpec,
    FederationConfig,
    RoundRecord,
    Schedule,
    pilot_gradient_bound,
    run_federation,
)
from dpfedsim.config import parse_config
from dpfedsim.harness import build_experiment, cmd_run, cmd_sweep, run_repeats
from dpfedsim.mechanisms import (
    MechanismSpec, NoiseContext, noise_stream, sample_noise,
)
from dpfedsim.regression import (
    CLIP_NORMS,
    LANES,
    ClientShard,
    ConfigError,
    PaddedShards,
    clip_gradient,
    mse_gradient,
    problem_constants,
)
from dpfedsim.reference import DivergenceError, aggregate, client_update, pooled_design

REL_TOL = 1e-12


def _diverged(theta):
    return not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > PARAM_LIMIT


def _start(config, dim):
    return np.zeros(dim) if config.theta_0 is None else np.asarray(config.theta_0, float)


def reference_run(config, shards, constants=None):
    """One repeat, client by client: client_update, row i of the round's noise
    block (the next draw of the run's one stream) for client start + i, and
    aggregate over ascending client ids.

    A bound is reported only for the decay schedule of ``constants`` and a
    start at the squared distance ``constants.y0`` from theta*."""
    shards = sorted(shards, key=lambda s: s.client_id)
    N, b, E = config.n_clients, config.pool_size, config.local_iters
    sizes = [s.n_l for s in shards]
    n = sum(sizes)
    n_bar_sq = sum(s * s for s in sizes) / N
    X, y = pooled_design(shards)
    dim = X.shape[1]
    theta = _start(config, dim)
    bound_params = None
    if (constants is not None and constants.assumptions_ok
            and config.schedule == Schedule.decay(constants, E)
            and float((theta - constants.theta_star) @ (theta - constants.theta_star))
            == constants.y0):
        bound_params = bounds.bound_params(
            constants, config.mechanism, local_iters=E,
            global_iters=config.global_iters, n_clients=N, pool_size=b,
        )
    records = []
    diverged = False
    rng = noise_stream(config.seed)
    for t in range(config.global_iters):
        pool = sorted((t * b + j) % N for j in range(b))
        eta_tilde = config.schedule.rate(t * E)
        ctx = NoiseContext(p=dim, eta_tilde=eta_tilde, E=E, T_l=config.rounds_per_client,
                           T_g=config.global_iters, b=b, N=N, n=n, n_bar_sq=n_bar_sq)
        block = sample_noise(config.mechanism, ctx, rng, (b,))
        try:
            uploads, noises = [], []
            for i, cid in enumerate(pool):
                nu = client_update(theta, shards[cid], t, E, config.schedule, config.clip)
                w = block[i]
                uploads.append((nu + w, sizes[cid]))
                noises.append((w, sizes[cid]))
            theta_new = aggregate(uploads, N, b, n)
            if _diverged(theta_new):
                raise DivergenceError
        except DivergenceError:
            diverged = True
            break
        theta = theta_new
        k = (t + 1) * E
        resid = X @ theta - y
        y_k = bound_y_k = math.nan
        if constants is not None:
            diff = theta - constants.theta_star
            y_k = float(diff @ diff)
            if bound_params is not None:
                bound_y_k = bounds.convergence_bound(k, bound_params)
        records.append(RoundRecord(
            t=t, k=k, eta_k=eta_tilde, global_loss=float(resid @ resid) / n, y_k=y_k,
            bound_y_k=bound_y_k, noise_l2=float(np.linalg.norm(aggregate(noises, N, b, n))),
        ))
    return records, theta, diverged


def reference_pilot(config, shards):
    """Max clipped-gradient L2 norm of a noise-free run, client by client.

    The pool's clients take each local step together, as the kernel does, and
    the pilot stops where the run diverges: after a local step (counting that
    step of every pool client) or an aggregate past PARAM_LIMIT. A step with a
    NaN norm is skipped whole."""
    shards = sorted(shards, key=lambda s: s.client_id)
    N, b, E = config.n_clients, config.pool_size, config.local_iters
    n = sum(s.n_l for s in shards)
    theta = _start(config, shards[0].dim)
    max_norm = 0.0
    for t in range(config.global_iters):
        pool = [shards[cid] for cid in sorted((t * b + j) % N for j in range(b))]
        local = [theta] * b
        for i in range(E):
            grads = [clip_gradient(mse_gradient(theta_l, shard), config.clip.zeta,
                                   config.clip.norm) for theta_l, shard in zip(local, pool)]
            norms = [float(np.linalg.norm(grad)) for grad in grads]
            if not any(math.isnan(norm) for norm in norms):
                max_norm = max(max_norm, *norms)
            rate = config.schedule.rate(t * E + i)
            local = [theta_l - rate * grad for theta_l, grad in zip(local, grads)]
            if any(_diverged(theta_l) for theta_l in local):
                return max_norm
        theta = aggregate([(theta_l, shard.n_l) for theta_l, shard in zip(local, pool)],
                          N, b, n)
        if _diverged(theta):
            return max_norm
    return max_norm


def assert_close(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    assert np.all(np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b)) + 1e-300)


def ragged_shards(n_clients=6, rows=53, features=3, seed=0, offset=0.5, sizes=None):
    """The store of a noisy linear task with a bias column, which absorbs the target offset.

    By default the sorted partition splits the rows as evenly as it can;
    ``sizes`` gives every client's row count instead, in client-id order.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, features))
    y = x @ rng.standard_normal(features) + offset + 0.1 * rng.standard_normal(rows)
    if sizes is None:
        return sorted_partition(np.column_stack([x, y]), -1, n_clients)
    return PaddedShards.from_pooled(np.column_stack([x, np.ones(rows)]), y, sizes)


# the kernel takes a step in Gram form when p <= max(n_l); otherwise in dual
# form under L2 clipping, and in residual form under L1 clipping and in the pilot
# otherwise; the default ragged_shards (p = 4 over 8-9 rows) runs the Gram form
SHAPES = {
    "square": dict(features=8),  # p = max(n_l) = 9, and some shards have 8 rows
    "short": dict(features=5, sizes=(3, 12, 4, 9, 12, 13)),  # some n_l < p = 6 < max(n_l)
    "wide": dict(features=12, rows=40),  # p = 13 > max(n_l) = 7: dual or residual form
}


def shaped(cases):
    """Each case on the default shards, keeping its id, then on every SHAPES shape.

    A case is a tuple of the test's other arguments; the shape comes first,
    None for the default shards.
    """
    ids = ["-".join(case) for case in cases]
    return ([pytest.param(None, *case, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(shape, *case, id=f"{shape}-{i}")
               for shape in SHAPES for case, i in zip(cases, ids)])


def shards_of(shape, **kwargs):
    return ragged_shards(**kwargs, **SHAPES.get(shape, {}))


def decay_config(data, norm, zeta, mechanism, E=3, b=3, T_g=8, seed=7):
    pc = problem_constants(data, np.zeros(data.dim), zeta)
    schedule = Schedule.decay(pc, E)
    cfg = FederationConfig(
        n_clients=data.n_clients, pool_size=b, local_iters=E, global_iters=T_g,
        schedule=schedule, clip=ClipSpec(zeta, norm), mechanism=mechanism, seed=seed,
    )
    return cfg, pc


MECHANISMS = {
    "laplace": MechanismSpec(kind="laplace", epsilon=2.0, xi1=0.5),
    "gaussian": MechanismSpec(kind="gaussian", epsilon=2.0, delta=1e-4, xi2=0.5),
    "none": MechanismSpec(),
}


@pytest.mark.parametrize("shape,norm,mechanism", shaped([
    ("l1", "laplace"), ("l2", "laplace"), ("l1", "gaussian"), ("l2", "gaussian"),
    ("l2", "none"),
]))
def test_kernel_matches_per_client_reference(shape, norm, mechanism):
    data = shards_of(shape)
    assert len({s.n_l for s in data.shards}) > 1  # padding is exercised
    zeta = 0.5
    cfg, pc = decay_config(data, norm, zeta, MECHANISMS[mechanism])
    order = 1 if norm == "l1" else 2
    assert any(np.linalg.norm(mse_gradient(np.zeros(s.dim), s), order) > zeta
               for s in data.shards)  # clipping is active
    [res] = run_federation(cfg, data, constants=pc).runs
    records, theta, diverged = reference_run(cfg, data.shards, constants=pc)
    assert not res.diverged and not diverged
    assert len(res.records) == len(records) == cfg.global_iters
    for got, want in zip(res.records, records):
        assert (got.t, got.k, got.eta_k) == (want.t, want.k, want.eta_k)
        assert_close([getattr(got, f.name) for f in dataclasses.fields(RoundRecord)],
                      [getattr(want, f.name) for f in dataclasses.fields(RoundRecord)])
    assert_close(res.theta, theta)


def test_kernel_matches_reference_without_constants_and_full_pool():
    data = ragged_shards(n_clients=4, rows=30, seed=1)
    cfg, _ = decay_config(data, "l2", 0.3, MECHANISMS["gaussian"], E=2, b=4, T_g=5)
    [res] = run_federation(cfg, data).runs
    records, theta, _ = reference_run(cfg, data.shards)
    assert all(math.isnan(r.y_k) and math.isnan(r.bound_y_k) for r in res.records)
    for got, want in zip(res.records, records):
        assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
    assert_close(res.theta, theta)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_records_built_from_the_columns_equal_the_reference_field_by_field(mechanism):
    data = ragged_shards(seed=3)
    cfg, pc = decay_config(data, "l2", 0.5, MECHANISMS[mechanism])
    batch = run_federation(dataclasses.replace(cfg, repeats=3), data, constants=pc)
    for r, run in enumerate(batch.runs):
        assert run.rounds == cfg.global_iters
        records, _, _ = reference_run(dataclasses.replace(cfg, seed=cfg.seed + r), data.shards,
                                      constants=pc)
        built = run.records
        assert run.records is built  # built once, on first access
        assert len(built) == len(records)
        for got, want in zip(built, records):
            assert [type(getattr(got, f.name)) for f in dataclasses.fields(RoundRecord)] == \
                [int, int, float, float, float, float, float]
            assert (got.t, got.k, got.eta_k, got.bound_y_k) == \
                (want.t, want.k, want.eta_k, want.bound_y_k)
            assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
        for name in ("global_loss", "y_k", "noise_l2"):
            assert run.series(name).tolist() == [getattr(rec, name) for rec in built]


def test_kernel_matches_reference_on_divergence():
    data = ragged_shards(n_clients=4, rows=26, seed=2)
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=2, global_iters=50,
        schedule=Schedule.constant(50.0), clip=ClipSpec(1e30, "l2"),
        mechanism=MECHANISMS["laplace"], seed=3,
    )
    [res] = run_federation(cfg, data).runs
    records, theta, diverged = reference_run(cfg, data.shards)
    assert res.diverged and diverged
    assert len(res.records) == len(records) < 50
    for got, want in zip(res.records, records):
        assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
    assert_close(res.theta, theta)


@pytest.mark.parametrize("shape,case", shaped([("l1",), ("diverging",), ("noisy-seed-5",)]))
def test_pilot_matches_per_client_reference(shape, case):
    data = shards_of(shape, seed=3)
    zeta = 0.5
    cfg, pc = decay_config(data, "l1", zeta, MechanismSpec(), T_g=10)
    if case == "diverging":
        # an unstable constant rate with clipping out of reach: the gradient
        # norm grows every step, so the maximum is the last step counted
        zeta = 1e30
        cfg = dataclasses.replace(cfg, schedule=Schedule.constant(1.5 * 2 / pc.lam),
                                  clip=ClipSpec(zeta, "l1"))
        assert run_federation(cfg, data).diverged
    elif case == "noisy-seed-5":
        cfg = dataclasses.replace(cfg, mechanism=MECHANISMS["laplace"], seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pilot_gradient_bound(cfg, data)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_pilot(cfg, data.shards)
    assert 0 < got <= zeta
    assert abs(got - want) <= REL_TOL * want
    if case == "noisy-seed-5":
        # the pilot is noise-free whatever the config's mechanism and seed
        free = pilot_gradient_bound(
            dataclasses.replace(cfg, mechanism=MechanismSpec(), seed=0), data)
        assert got.hex() == free.hex()


def test_pilot_refuses_a_config_not_clipped_in_l1():
    # under L2 clipping G is the threshold; the pilot measures it under L1 only
    for shape in [None, *SHAPES]:
        data = shards_of(shape, seed=3)
        cfg, _ = decay_config(data, "l2", 0.5, MechanismSpec(), T_g=10)
        with pytest.raises(ConfigError, match="l1 clipping only"):
            pilot_gradient_bound(cfg, data)


@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
def test_pooled_loss_is_as_accurate_as_the_residual_form(offset):
    # a large target offset puts the loss many orders below y'y/n, where the
    # naive Gram form theta'G theta - 2c'theta + y'y cancels catastrophically
    data = ragged_shards(n_clients=4, rows=200, seed=4, offset=offset)
    X, y = pooled_design(data.shards)
    n = len(y)
    theta_opt = np.linalg.lstsq(X, y, rcond=None)[0]
    theta_0 = theta_opt + 0.05 * np.random.default_rng(5).standard_normal(X.shape[1])
    cfg = FederationConfig(
        n_clients=4, pool_size=4, local_iters=1, global_iters=5,
        schedule=Schedule.constant(1e-3), clip=ClipSpec(1e30, "l2"), theta_0=theta_0,
    )
    [res] = run_federation(cfg, data, record_trajectory=True).runs
    rows = [([Fraction(v) for v in xi], Fraction(yi)) for xi, yi in zip(X.tolist(), y.tolist())]
    worst = {"engine": 0.0, "residual": 0.0, "naive": 0.0}
    for rec, theta in zip(res.records, res.trajectory[1:]):
        coef = [Fraction(v) for v in theta.tolist()]
        exact = sum((sum(a * c for a, c in zip(xi, coef)) - yi) ** 2 for xi, yi in rows) / n
        resid = X @ theta - y
        got = {
            "engine": rec.global_loss,
            "residual": float(resid @ resid) / n,
            "naive": float(theta @ (X.T @ X) @ theta - 2 * (X.T @ y) @ theta + y @ y) / n,
        }
        for form, value in got.items():
            worst[form] = max(worst[form], float(abs(Fraction(value) - exact) / exact))
    assert worst["engine"] <= 10 * max(worst["residual"], np.finfo(float).eps)
    assert worst["naive"] > 100 * worst["engine"]  # the offset does stress the loss


ROUNDS_TASK = """
[federation]
clients = 10
pool_size = 5
local_iters = 2
global_iters = 10
clip_threshold = 5
clip_norm = l1
seed = 3
repeats = {repeats}

[dp]
mechanism = laplace
epsilon = 2.0

[data]
n_per_client = 8
features = 3
"""


def test_fewer_repeats_reproduce_the_leading_runs_byte_for_byte(tmp_path):
    for repeats in (5, 20):
        path = tmp_path / f"r{repeats}.cfg"
        path.write_text(ROUNDS_TASK.format(repeats=repeats))
        cmd_run(path, tmp_path / f"out{repeats}", quiet=True)
    five = (tmp_path / "out5" / "rounds.csv").read_bytes()
    twenty = (tmp_path / "out20" / "rounds.csv").read_bytes()
    lines = five.count(b"\n")
    assert lines == 1 + 5 * 10
    assert twenty.split(b"\n")[:lines] == five.split(b"\n")[:lines]
    assert twenty.startswith(five)


def test_noise_free_run_builds_no_stream(tmp_path, monkeypatch):
    path = tmp_path / "task.cfg"
    path.write_text(ROUNDS_TASK.format(repeats=3).replace(
        "mechanism = laplace\nepsilon = 2.0", "mechanism = none\nepsilon = inf"))
    cmd_run(path, tmp_path / "free", quiet=True)

    def no_stream(*args, **kwargs):
        raise AssertionError("a noise-free run built a noise stream")

    for target in (mechanisms, engine):
        monkeypatch.setattr(target, "noise_stream", no_stream)
    monkeypatch.setattr(np.random, "PCG64", no_stream)
    cmd_run(path, tmp_path / "patched", quiet=True)
    rows = (tmp_path / "patched" / "rounds.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 10
    assert all(row.endswith(",0.0") for row in rows[1:])  # noise_l2
    assert ((tmp_path / "patched" / "rounds.csv").read_bytes()
            == (tmp_path / "free" / "rounds.csv").read_bytes())


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("shape", [(7, 4), (5, 200), (2, 3, 6)])
def test_row_wise_clip_equals_clipping_each_row(norm, shape):
    rng = np.random.default_rng(sum(shape))
    g = rng.standard_normal(shape) * rng.choice([0.1, 1.0, 30.0], size=shape[:-1] + (1,))
    g.reshape(-1, shape[-1])[0] = 0.0  # a zero row stays zero
    zeta = 2.0
    out = clip_gradient(g, zeta, norm)
    rows = g.reshape(-1, shape[-1])
    want = np.stack([clip_gradient(row, zeta, norm) for row in rows]).reshape(shape)
    assert np.array_equal(out, want)
    order = 1 if norm == "l1" else 2
    assert np.all(np.linalg.norm(out.reshape(-1, shape[-1]), order, axis=1) <= zeta)
    assert np.any(np.linalg.norm(rows, order, axis=1) > zeta)  # some rows were clipped


def test_row_wise_clip_returns_input_when_nothing_is_clipped():
    g = np.full((3, 4), 0.1)
    assert clip_gradient(g, 10.0, "l1") is g


def _single_runs(cfg, data, constants, repeats):
    return [run_federation(dataclasses.replace(cfg, seed=cfg.seed + r), data, constants).runs[0]
            for r in range(repeats)]


def _assert_same_run(got, want):
    """The same record fields as the CSV writes them (repr), final parameters and flag."""
    assert [list(map(repr, dataclasses.astuple(rec))) for rec in got.records] == \
        [list(map(repr, dataclasses.astuple(rec))) for rec in want.records]
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.diverged == want.diverged


@pytest.mark.parametrize("shape,mechanism,norm", shaped([
    (mechanism, norm) for mechanism in ("gaussian", "laplace", "none") for norm in ("l1", "l2")
]))
def test_batched_repeats_match_reference_runs(shape, mechanism, norm):
    data = shards_of(shape)
    cfg, pc = decay_config(data, norm, 0.5, MECHANISMS[mechanism])
    batch = run_federation(dataclasses.replace(cfg, repeats=4), data, constants=pc)
    assert len(batch.runs) == 4 and batch.diverged == 0
    assert len(batch.records) == 4 * cfg.global_iters
    for r, (run, single) in enumerate(zip(batch.runs, _single_runs(cfg, data, pc, 4))):
        _assert_same_run(run, single)
        records, theta, diverged = reference_run(
            dataclasses.replace(cfg, seed=cfg.seed + r), data.shards, constants=pc)
        assert not run.diverged and not diverged
        for got, want in zip(run.records, records):
            assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
        assert_close(run.theta, theta)
    if mechanism != "none":  # the repeats draw different noise
        assert batch.runs[0].records[-1].noise_l2 != batch.runs[1].records[-1].noise_l2


def rounds_task(repeats, features=3):
    """ROUNDS_TASK with p = features + 1 over 8 rows per client: the residual form once p > 8."""
    return ROUNDS_TASK.format(repeats=repeats).replace("features = 3", f"features = {features}")


def assert_repeat_rows_equal_single_seed_runs(tmp_path, seed, features=3):
    path = tmp_path / "task.cfg"
    path.write_text(rounds_task(4, features))
    cmd_run(path, tmp_path / "block", seed=seed, quiet=True)
    block = (tmp_path / "block" / "rounds.csv").read_text().splitlines()
    header, rows = block[0], [line.split(",") for line in block[1:]]
    assert header.split(",")[0] == "run_id"
    assert [row[1] for row in rows[::10]] == [str(seed + r) for r in range(4)]
    for r in range(4):
        cmd_run(path, tmp_path / f"one{r}", seed=seed + r, repeats=1, quiet=True)
        one = (tmp_path / f"one{r}" / "rounds.csv").read_text().splitlines()
        assert one[0] == header
        mine = [row for row in rows if row[0] == str(r)]
        assert len(mine) == len(one) - 1 == 10
        assert [row[1:] for row in mine] == [line.split(",")[1:] for line in one[1:]]
        assert all(line.split(",")[0] == "0" for line in one[1:])


def test_repeat_rows_equal_their_single_seed_run_byte_for_byte(tmp_path):
    # one shape in Gram form (p = 4) and one in residual form (p = 10)
    for features in (3, 9):
        (tmp_path / str(features)).mkdir()
        assert_repeat_rows_equal_single_seed_runs(tmp_path / str(features), seed=3,
                                                  features=features)


@pytest.mark.parametrize("features,gram_form", [(3, True), (7, True), (9, False)])
def test_gram_statistics_are_built_once_per_store_and_only_when_p_fits(
        tmp_path, monkeypatch, features, gram_form):
    built = []
    stats = PaddedShards.__dict__["local_stats"]
    build = stats.func
    monkeypatch.setattr(stats, "func", lambda data: built.append(data) or build(data))
    path = tmp_path / "task.cfg"
    path.write_text(rounds_task(4, features) + "\n[sweep]\naxis = epsilon\nvalues = 1, 2\n")
    exp = build_experiment(parse_config(path))  # runs the L1 pilot
    assert exp.config.clip.norm == "l1"
    data = exp.dataset
    assert (data.dim <= data.x.shape[1]) == gram_form
    assert built == ([data] if gram_form else [])
    run_repeats(exp)
    assert built == ([data] if gram_form else [])  # the repeats read the pilot's statistics
    if gram_form:
        hess, lin = data.local_stats
        assert hess.shape == (data.n_clients, data.dim, data.dim)
        assert lin.shape == (data.n_clients, data.dim)
        assert hess.size <= data.x.size
    else:
        assert "local_stats" not in data.__dict__
    # a sweep builds one store, whose statistics every grid point and its pilot share
    cmd_sweep(path, tmp_path / "sweep", quiet=True)
    assert len(built) == (2 if gram_form else 0)


def test_repeat_rows_crossing_seed_2_pow_32_equal_their_single_seed_runs(tmp_path):
    # a seed's entropy grows from one 32-bit word to two inside this block
    assert_repeat_rows_equal_single_seed_runs(tmp_path, seed=2**32 - 2)


# some repeats diverge and some finish: an unstable constant rate without
# clipping, where the noise sets the step at which a repeat passes PARAM_LIMIT
# (mid local steps), and clipped steps under huge noise, where the aggregate
# passes it
MIXED = {
    "unstable-rate": dict(E=4, T_g=8, rate=0.8, zeta=1e30, norm="l2",
                          mechanism=MechanismSpec(kind="laplace", epsilon=1e-2, xi1=1.0)),
    "huge-noise": dict(E=2, T_g=40, rate=0.1, zeta=1.0, norm="l1",
                       mechanism=MechanismSpec(kind="gaussian", epsilon=1.5e-11, delta=1e-4,
                                               xi2=1.0)),
}


@pytest.mark.parametrize("case", MIXED)
def test_mixed_divergence_matches_single_seed_runs(case):
    c = MIXED[case]
    data = ragged_shards(n_clients=6, rows=42, seed=6)
    pc = problem_constants(data, np.zeros(data.dim), c["zeta"])
    rate = c["rate"] * 2 / pc.lam if case == "unstable-rate" else c["rate"]
    cfg = FederationConfig(
        n_clients=6, pool_size=3, local_iters=c["E"], global_iters=c["T_g"],
        schedule=Schedule.constant(rate), clip=ClipSpec(c["zeta"], c["norm"]),
        mechanism=c["mechanism"], seed=4,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_federation(dataclasses.replace(cfg, repeats=12), data, constants=pc)
        singles = _single_runs(cfg, data, pc, 12)
    assert 0 < batch.diverged < 12
    lengths = {len(run.records) for run in batch.runs}
    assert cfg.global_iters in lengths and len(lengths) > 1
    for run, single in zip(batch.runs, singles):
        _assert_same_run(run, single)
    # a diverged repeat keeps the parameters of its last completed round
    stopped = next(run for run in batch.runs if run.diverged)
    assert np.all(np.abs(stopped.theta) <= PARAM_LIMIT)


def test_a_local_step_past_the_limit_diverges_though_the_aggregate_is_back_within():
    # targets y and -y on one design make the two clients' local iterates exact
    # negatives: at an unstable rate they pass PARAM_LIMIT mid-round while their
    # aggregate is only the noise, so only the per-step check sees the divergence
    x = np.column_stack([np.random.default_rng(9).standard_normal((8, 2)), np.ones(8)])
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1
    shards = [ClientShard(0, x, y), ClientShard(1, x, -y)]
    data = PaddedShards.build(shards)
    lam = np.linalg.eigvalsh(2.0 / 8 * x.T @ x)[-1]
    cfg = FederationConfig(
        n_clients=2, pool_size=2, local_iters=20, global_iters=3,
        schedule=Schedule.constant(3 * 2 / lam), clip=ClipSpec(1e30, "l2"),
        mechanism=MECHANISMS["laplace"], seed=5,
    )
    batch = run_federation(dataclasses.replace(cfg, repeats=3), data)
    for r, run in enumerate(batch.runs):
        records, theta, diverged = reference_run(dataclasses.replace(cfg, seed=5 + r), shards)
        assert run.diverged and diverged
        assert run.records == records == []
        assert np.array_equal(run.theta, theta)


def test_overflow_of_a_diverging_repeat_stays_inside_the_kernel():
    # a rate this large overflows at the first step; the repeats report
    # divergence, not a numpy warning
    data = ragged_shards(n_clients=4, rows=26, seed=2)
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=3, global_iters=4,
        schedule=Schedule.constant(1e308), clip=ClipSpec(1e300, "l2"),
        mechanism=MECHANISMS["laplace"], seed=3, repeats=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_federation(cfg, data)
    assert batch.diverged == 3 and batch.records == []
    assert all(np.array_equal(run.theta, np.zeros(data.dim)) for run in batch.runs)


def test_chunked_repeats_equal_one_block(monkeypatch):
    data = ragged_shards(seed=8)
    cfg, pc = decay_config(data, "l1", 0.5, MECHANISMS["gaussian"])
    cfg = dataclasses.replace(cfg, repeats=17)
    whole = run_federation(cfg, data, constants=pc)
    # a cap below one repeat's work array runs the repeats one lane block at a
    # time: chunks of 8, 8 and 1 repeats
    blocks = []
    run_block = engine._run_block
    monkeypatch.setattr("dpfedsim.engine._run_block",
                        lambda *args: blocks.append(len(args[3])) or run_block(*args))
    monkeypatch.setattr("dpfedsim.engine.CHUNK_ELEMENTS", 1)
    chunked = run_federation(cfg, data, constants=pc)
    assert blocks == [LANES, LANES, 1]
    assert len(chunked.runs) == 17
    for a, b in zip(whole.runs, chunked.runs):
        _assert_same_run(a, b)


# noise large enough that repeats pass PARAM_LIMIT at random rounds: of seeds
# 4..12, Laplace's seed 5 stops at t = 2 and Gaussian's seed 11 at t = 5, both
# inside a 3-round chunk, while others run all 10 rounds
CHUNKED = {
    "laplace": (MechanismSpec(kind="laplace", epsilon=3e-12, xi1=1.0), 5),
    "gaussian": (MechanismSpec(kind="gaussian", epsilon=5e-12, delta=1e-4, xi2=1.0), 11),
}


def _chunked_config(kind, repeats, monkeypatch, span=3):
    """A run of 10 rounds whose noise comes in chunks of ``span`` rounds, and its store."""
    mechanism, stops = CHUNKED[kind]
    data = ragged_shards(n_clients=6, rows=42, seed=6)
    cfg = FederationConfig(
        n_clients=6, pool_size=3, local_iters=2, global_iters=10,
        schedule=Schedule.constant(0.1), clip=ClipSpec(1.0, "l1"), mechanism=mechanism,
        seed=4 if repeats > 1 else stops, repeats=repeats,
    )
    monkeypatch.setattr(engine, "NOISE_CHUNK_ELEMENTS", span * repeats * 3 * data.dim)
    return cfg, data


@pytest.mark.parametrize("repeats", [1, 9])
@pytest.mark.parametrize("kind", CHUNKED)
def test_noise_drawn_in_chunks_is_one_sample_noise_draw_per_round(kind, repeats, monkeypatch):
    cfg, data = _chunked_config(kind, repeats, monkeypatch)
    spans, summed = [], []
    unit, aggregate = engine.unit_noise, engine.aggregate

    def counted(kind, rng, size):
        spans.append(size[0])
        return unit(kind, rng, size)

    def kept(block, *args):
        summed.append(block.copy())
        return aggregate(block, *args)

    monkeypatch.setattr(engine, "unit_noise", counted)
    monkeypatch.setattr(engine, "aggregate", kept)
    batch = run_federation(cfg, data)
    stops = [len(run.records) if run.diverged else cfg.global_iters for run in batch.runs]
    assert 0 < batch.diverged and all(t % 3 for t in stops if t < cfg.global_iters)
    if repeats > 1:
        assert batch.diverged < repeats
    # chunks of rounds 0-2, 3-5, 6-8 and 9, each drawn for every repeat, a
    # diverged one included: chunk 0 in line, and each later one once the
    # chunk before it is taken, until the block's last round
    want = []
    for start in (0, 3, 6, 9):
        if max(stops) >= start - 3:
            want += [min(3, cfg.global_iters - start)] * repeats
    assert spans == want

    # a round that completes aggregates its pool's parameters, then the
    # scaled noise of the repeats still active: each repeat's row is bitwise
    # the next sample_noise draw of its stream
    noises = summed[1::2]
    assert len(noises) == max(len(run.records) for run in batch.runs)
    for r, run in enumerate(batch.runs):
        stream = noise_stream(cfg.seed + r)
        for t in range(len(run.records)):
            active = [q for q, other in enumerate(batch.runs) if len(other.records) > t]
            ctx = engine.noise_context(cfg, data, t)
            want = sample_noise(cfg.mechanism, ctx, stream, (cfg.pool_size,))
            assert noises[t][active.index(r)].tobytes() == want.tobytes()

    monkeypatch.setattr(engine, "NOISE_CHUNK_ELEMENTS", 1)  # one round per chunk
    for got, want in zip(batch.runs, run_federation(cfg, data).runs):
        _assert_same_run(got, want)
    _assert_matches_reference(batch, cfg, data, None)


def test_threaded_chunks_under_fast_switching_equal_one_chunk_drawn_alone(monkeypatch):
    # a chunk per round, so a worker per round, for three runs at once on
    # threads of their own: more threads than cores, switching every microsecond
    cfg, data = _chunked_config("gaussian", 9, monkeypatch, span=1)
    batches = []
    runs = [threading.Thread(target=lambda: batches.append(run_federation(cfg, data)))
            for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs) and len(batches) == 3
    monkeypatch.setattr(engine, "NOISE_CHUNK_ELEMENTS", 10**9)  # one chunk, no worker
    alone = run_federation(cfg, data).runs
    for batch in batches:
        for got, want in zip(batch.runs, alone):
            _assert_same_run(got, want)


def _slow_worker(monkeypatch, fail=None, name="unit_noise"):
    """Make every call of ``engine.<name>`` off the main thread last 20 ms, then raise ``fail`` if given.

    The worker calls two: ``unit_noise`` for the noise chunks and
    ``pool_kernel`` for the dual form's K_l.
    """
    original = getattr(engine, name)

    def slow(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.02)
            if fail is not None:
                raise fail
        return original(*args)

    monkeypatch.setattr(engine, name, slow)


@pytest.mark.parametrize("case", ["finished", "all-diverged", "raised"])
def test_no_noise_worker_outlives_the_run(case, monkeypatch):
    # the worker is drawing the next chunk when the run ends: at t = 2 when the
    # one repeat diverges, or at t = 1 when a local step raises
    before = threading.active_count()
    cfg, data = _chunked_config("laplace", 1, monkeypatch)
    _slow_worker(monkeypatch)
    if case == "finished":
        cfg = dataclasses.replace(cfg, mechanism=MechanismSpec(kind="laplace", epsilon=1.0,
                                                               xi1=1.0))
        assert run_federation(cfg, data).diverged == 0
    elif case == "all-diverged":
        assert run_federation(cfg, data).diverged == 1
    else:
        steps = engine.client_update

        def fail_in_round_1(data, pool, theta, t, *args):
            if t == 1:
                raise RuntimeError("a step failed")
            return steps(data, pool, theta, t, *args)

        monkeypatch.setattr(engine, "client_update", fail_in_round_1)
        with pytest.raises(RuntimeError, match="a step failed"):
            run_federation(cfg, data)
    assert threading.active_count() == before


@pytest.mark.parametrize("error,line", [
    (MemoryError(), "error: out of memory: the config asks for more than this process "
                    "can allocate"),
    (ConfigError("a worker refused the chunk"), "error: a worker refused the chunk"),
])
def test_an_error_in_the_noise_worker_is_the_cli_error_line(
        error, line, tmp_path, capsys, monkeypatch):
    # the worker's first chunk is the run's second: rounds 3-5 of each repeat
    before = threading.active_count()
    path = tmp_path / "task.cfg"
    path.write_text(ROUNDS_TASK.format(repeats=2))
    monkeypatch.setattr(engine, "NOISE_CHUNK_ELEMENTS", 3 * 2 * 5 * 4)
    _slow_worker(monkeypatch, fail=error)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert threading.active_count() == before


def _dual_config(mechanism, repeats):
    """A dual-form run of 10 rounds on SHAPES' wide store (p = 13 > max(n_l) = 7, L2), and its store."""
    data = shards_of("wide")
    assert data.step_form("l2") == "dual"
    cfg = FederationConfig(
        n_clients=data.n_clients, pool_size=3, local_iters=2, global_iters=10,
        schedule=Schedule.constant(0.1), clip=ClipSpec(1.0, "l2"), mechanism=mechanism,
        seed=4, repeats=repeats,
    )
    return cfg, data


def test_kernels_built_ahead_under_fast_switching_equal_the_in_line_build(monkeypatch):
    # each round's K_l after round 0's is built on the worker between its
    # noise chunks, one per round, for three runs at once on threads of their
    # own: more threads than cores, switching every microsecond. Of seeds
    # 4..12, 5 and 12 stop at t = 8 and t = 6
    cfg, data = _dual_config(CHUNKED["gaussian"][0], 9)
    monkeypatch.setattr(engine, "NOISE_CHUNK_ELEMENTS", 1)
    batches = []
    runs = [threading.Thread(target=lambda: batches.append(run_federation(cfg, data)))
            for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs) and len(batches) == 3
    # the steps given no kernel: local_steps builds each one in line
    steps = engine.client_update
    monkeypatch.setattr(engine, "client_update", lambda *args: steps(*args[:6]))
    alone = run_federation(cfg, data).runs
    assert [len(run.records) for run in alone if run.diverged] == [8, 6]
    for batch in batches:
        for got, want in zip(batch.runs, alone):
            _assert_same_run(got, want)


def test_an_error_in_a_kernel_built_ahead_is_raised_by_the_round_that_waits_for_it(
        monkeypatch):
    # noise-free, so the worker's first task is round 1's K_l
    before = threading.active_count()
    cfg, data = _dual_config(MechanismSpec(), 3)
    _slow_worker(monkeypatch, fail=RuntimeError("a kernel failed"), name="pool_kernel")
    rounds = []
    steps = engine.client_update
    monkeypatch.setattr(engine, "client_update",
                        lambda *args: rounds.append(args[3]) or steps(*args))
    with pytest.raises(RuntimeError, match="a kernel failed"):
        run_federation(cfg, data)
    assert rounds == [0]
    assert threading.active_count() == before


def test_no_kernel_worker_outlives_a_dual_form_run_whose_repeats_all_diverge(monkeypatch):
    # seeds 4, 5 and 6 leave the limit in rounds 3, 2 and 2, while the worker
    # is building round 4's K_l
    before = threading.active_count()
    cfg, data = _dual_config(CHUNKED["laplace"][0], 3)
    _slow_worker(monkeypatch, name="pool_kernel")
    batch = run_federation(cfg, data)
    assert batch.diverged == 3
    assert [len(run.records) for run in batch.runs] == [3, 2, 2]
    assert threading.active_count() == before


@pytest.mark.parametrize("error,line", [
    (MemoryError(), "error: out of memory: the config asks for more than this process "
                    "can allocate"),
    (ConfigError("a worker refused the kernel"), "error: a worker refused the kernel"),
])
def test_an_error_in_a_kernel_built_ahead_is_the_cli_error_line(
        error, line, tmp_path, capsys, monkeypatch):
    # p = 12 > n_l = 8 under L2 clipping: the dual form, whose noise is one
    # chunk, so the worker's first task is round 1's K_l
    before = threading.active_count()
    path = tmp_path / "task.cfg"
    path.write_text(ROUNDS_TASK.format(repeats=2).replace("clip_norm = l1", "clip_norm = l2")
                    .replace("features = 3", "features = 11"))
    _slow_worker(monkeypatch, fail=error, name="pool_kernel")
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert threading.active_count() == before


# criterion 1 for the engine's own draws, on the two noisy benchmark shapes
# with equal shards (bench/workloads.py) at seed 1 and their benchmark repeat
# counts: 20 x 100 rounds of run-default, 10 x 50 of run-wide; and on one
# shape with unequal shards, a sorted partition of a 1037-row CSV (830
# training rows over 20 clients: 10 shards of 42 rows and 10 of 41) under
# Gaussian noise, 20 x 200 rounds at seed 1, 5 clients a pool. Each round's
# noise_l2^2 is divided by its own pool's prediction p u2 s_t^2 (N/b)^2
# sum_{l in pool} w_l^2, where s_t is noise_scale at round t's
# noise_context and u2 a unit draw's variance, 2 for Laplace and 1 for
# Gaussian, so the ratios have mean 1 whether or not the shards are equal.
# The gate is |z| <= 4 on the whole-run mean ratio against its own standard
# error. At these seeds run-default, run-wide and unequal-csv read z = -1.00,
# -1.43 and -0.55; the engine's scale off by +5% reads z = 5.96, 18.2 and
# 9.77, and off by -5% z = -9.1, -24.3 and -12.5
ENGINE_NOISE_TASK = """
[federation]
clients = {clients}
pool_size = {pool_size}
local_iters = {local_iters}
global_iters = {rounds}
clip_threshold = {zeta}
clip_norm = {norm}
repeats = {repeats}
seed = 1

[dp]
{dp}

[data]
{data}
seed = 1
"""
LAPLACE_3 = "mechanism = laplace\nepsilon = 3.0"
ENGINE_NOISE_SHAPES = {
    "run-default": dict(clients=100, pool_size=10, local_iters=5, rounds=100, zeta=150.0,
                        norm="l1", repeats=20, dp=LAPLACE_3,
                        data="n_per_client = 20\nfeatures = 5"),
    "run-wide": dict(clients=200, pool_size=20, local_iters=5, rounds=50, zeta=1.0, norm="l2",
                     repeats=10, dp=LAPLACE_3, data="n_per_client = 50\nfeatures = 199"),
    "unequal-csv": dict(clients=20, pool_size=5, local_iters=1, rounds=200, zeta=1.0,
                        norm="l2", repeats=20,
                        dp="mechanism = gaussian\nepsilon = 8.0\ndelta = 1e-4",
                        data="kind = csv\npath = {path}\ntarget_column = y"),
}
UNEQUAL_CSV_ROWS = 1037


def _unequal_csv(path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((UNEQUAL_CSV_ROWS, 5))
    y = x @ rng.standard_normal(5) + 0.5 + 0.1 * rng.standard_normal(UNEQUAL_CSV_ROWS)
    rows = [",".join(map(repr, row)) for row in np.column_stack([x, y]).tolist()]
    path.write_text("x1,x2,x3,x4,x5,y\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("shape", ENGINE_NOISE_SHAPES)
def test_the_engine_noise_has_the_predicted_mean_squared_norm(shape, tmp_path):
    path = tmp_path / "task.cfg"
    fields = dict(ENGINE_NOISE_SHAPES[shape])
    if shape == "unequal-csv":
        fields["data"] = fields["data"].format(path=_unequal_csv(tmp_path / "input.csv"))
    path.write_text(ENGINE_NOISE_TASK.format(**fields))
    experiment = build_experiment(parse_config(path))
    cfg, data = experiment.config, experiment.dataset
    N, b = cfg.n_clients, cfg.pool_size
    assert (len(set(data.sizes.tolist())) > 1) == (shape == "unequal-csv")
    unit_variance = 2.0 if cfg.mechanism.kind == "laplace" else 1.0
    predicted = np.array([
        data.dim * unit_variance
        * mechanisms.noise_scale(cfg.mechanism, engine.noise_context(cfg, data, t)) ** 2
        * (N / b) ** 2 * float(np.sum(data.weights[engine.pool_slice(t, N, b)] ** 2))
        for t in range(cfg.global_iters)
    ])
    runs = run_repeats(experiment)
    assert all(run.rounds == cfg.global_iters for run in runs)
    ratios = np.concatenate([run.series("noise_l2") ** 2 / predicted for run in runs])
    assert len(ratios) == cfg.repeats * cfg.global_iters
    z = (ratios.mean() - 1.0) / (ratios.std(ddof=1) / math.sqrt(len(ratios)))
    assert abs(z) <= 4.0, f"mean ratio {ratios.mean():.4f}, z = {z:.2f}"


# one store per lane-block form, wide enough that a GEMM's column count changes
# the last bits of a column: p = 24 <= max(n_l) = 30 (Gram form) and
# p = 40 > max(n_l) = 12 (residual form under L1; the dual form under L2)
LANE_STORES = {"gram": dict(features=23, rows=150), "residual": dict(features=39, rows=60)}


def _lane_gradient(data, pool, theta, move):
    """The L1 local steps' gradient at theta - move, a (R, b, p) block with a row per client."""
    steps = data.local_steps(pool, theta, "l1")
    assert type(steps).__name__ == "_RowSteps"
    steps.step(1.0, move)
    return steps.gradient()


@pytest.mark.parametrize("form", LANE_STORES)
def test_every_repeat_of_a_lane_block_is_its_one_repeat_gradient(form):
    data = ragged_shards(n_clients=5, seed=12, **LANE_STORES[form])
    assert (data.dim <= data.x.shape[1]) == (form == "gram")
    pool = slice(1, 4)
    rng = np.random.default_rng(13)
    # R = 1..17 leaves every tail of 1-7 columns past a whole lane block
    for repeats in range(1, 2 * LANES + 2):
        theta = rng.standard_normal((repeats, data.dim))
        move = rng.standard_normal((repeats, 3, data.dim))
        got = _lane_gradient(data, pool, theta, move)
        assert got.shape == move.shape and got.flags.c_contiguous
        for r in range(repeats):
            alone = _lane_gradient(data, pool, theta[r:r + 1], move[r:r + 1])
            assert got[r].tobytes() == alone[0].tobytes(), (repeats, r)


@pytest.mark.parametrize("form", LANE_STORES)
def test_lane_block_calls_return_new_arrays_and_keep_the_pad_lanes_zero(form):
    data = ragged_shards(n_clients=5, seed=12, **LANE_STORES[form])
    rng = np.random.default_rng(14)
    steps = data.local_steps(slice(0, 5), rng.standard_normal((3, data.dim)), "l1")
    lanes = steps._lanes
    assert lanes.shape == (5, data.dim, LANES) and lanes.flags.c_contiguous
    steps.step(1.0, rng.standard_normal((3, 5, data.dim)))
    first, second = steps.gradient(), steps.gradient()
    steps.step(0.05, first)
    third = steps.gradient()
    # the lane block is allocated once, with the steps
    assert steps._lanes is lanes
    assert not lanes[..., 3:].any()
    assert first.tobytes() == second.tobytes() != third.tobytes()
    assert not np.shares_memory(first, second)
    assert not any(np.shares_memory(grad, lanes) for grad in (first, second, third))


def _local_trace(data, pool, theta, norm):
    """The clipped gradients and the parameters of three local steps of ``data.local_steps``."""
    steps = data.local_steps(pool, theta, norm)
    trace = []
    for _ in range(3):
        grad = clip_gradient(steps.gradient(), 1.0, norm, steps.row_norms)
        trace.append(steps.primal(grad))
        steps.step(0.05, grad)
        trace.append(steps.params())
    return trace


@pytest.mark.parametrize("form", LANE_STORES)
def test_every_repeat_of_the_local_steps_is_its_one_repeat_run(form):
    # on the residual store, L2 steps take the dual form and L1 steps the residual form
    data = ragged_shards(n_clients=5, seed=12, **LANE_STORES[form])
    pool = slice(1, 4)
    rng = np.random.default_rng(13)
    for repeats in range(1, 2 * LANES + 2):
        theta = rng.standard_normal((repeats, data.dim))
        for norm in CLIP_NORMS:
            got = _local_trace(data, pool, theta, norm)
            assert all(a.shape == (repeats, 3, data.dim) for a in got)
            for r in range(repeats):
                alone = _local_trace(data, pool, theta[r:r + 1], norm)
                assert [a[r].tobytes() for a in got] == [a[0].tobytes() for a in alone], \
                    (repeats, r, norm)
    # the clip binds: the largest first clipped gradient sits at the threshold
    first = _local_trace(data, pool, rng.standard_normal((1, data.dim)), "l2")[0]
    assert np.isclose(np.linalg.norm(first, axis=-1).max(), 1.0)


def test_dual_steps_keep_the_pad_rows_zero_and_form_new_parameters():
    data = ragged_shards(n_clients=5, seed=12, **LANE_STORES["residual"])
    steps = data.local_steps(slice(0, 5), np.random.default_rng(14).standard_normal((3, data.dim)))
    assert type(steps).__name__ == "_DualSteps"
    for _ in range(3):
        steps.step(0.05, clip_gradient(steps.gradient(), 1.0, "l2", steps.row_norms))
    rows = steps.gradient()
    assert rows.shape == (5, LANES, data.x.shape[1]) and rows.flags.c_contiguous
    assert not rows[:, 3:].any() and not steps._coef[:, 3:].any()
    first, second = steps.params(), steps.params()
    assert first.shape == (3, 5, data.dim) and first.flags.c_contiguous
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)


def _assert_matches_reference(batch, cfg, data, constants):
    for r, run in enumerate(batch.runs):
        records, theta, diverged = reference_run(
            dataclasses.replace(cfg, seed=cfg.seed + r, repeats=1), data.shards, constants)
        assert run.diverged == diverged
        assert len(run.records) == len(records)
        for got, want in zip(run.records, records):
            assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
        assert_close(run.theta, theta)


def test_dual_form_on_singular_kernels_matches_the_reference():
    # every shard holds its 3 rows twice, with other targets: p = 8 > n_l = 6,
    # K_l = X_l X_l' is singular and the dual gradient keeps a part in its null
    # space. The near-orthogonal rows take a client close to its local optimum
    # within a round, where g'K g is rounding noise around 0: on this store it
    # falls below 0 in 71 of the 3872 rows clipped, and its square root must
    # not turn into NaN
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    distinct = np.concatenate([basis[:6], basis[2:8]]) + 0.1 * rng.standard_normal((12, 8))
    rows = np.concatenate([np.concatenate([part, part]) for part in np.split(distinct, 4)])
    data = PaddedShards.from_pooled(rows, rng.standard_normal(len(rows)), [6] * 4)
    assert data.dim > data.x.shape[1]
    pc = problem_constants(data, np.zeros(data.dim), 100.0)
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=60, global_iters=4,
        schedule=Schedule.constant(1.5), clip=ClipSpec(100.0, "l2"),
        mechanism=MECHANISMS["laplace"], seed=2, repeats=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_federation(cfg, data, constants=pc)
    assert batch.diverged == 0
    assert not any(math.isnan(value) for rec in batch.records for value in
                   (rec.global_loss, rec.y_k, rec.noise_l2))
    _assert_matches_reference(batch, cfg, data, pc)


def test_dual_form_checks_every_step_when_the_round_could_leave_the_limit():
    # zeta = 1e30 puts max|theta| + zeta * sum(rates) past PARAM_LIMIT, so the
    # parameters are formed and checked after every step. The decaying rate
    # starts at eta * lambda_max = 50 and passes 1 within the round: the
    # parameters leave the limit (near 5e13) and come back (near 2e9) before
    # its 40th step, and every repeat diverges in round 0 as in the reference
    data = ragged_shards(n_clients=4, rows=24, features=9, seed=5)
    assert data.dim > data.x.shape[1]  # p = 10 > n_l = 6
    pc = problem_constants(data, np.zeros(data.dim), 1e30)
    lam = max(np.linalg.eigvalsh(stat)[-1] for stat in data.local_stats[0])
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=40, global_iters=2,
        schedule=Schedule(kind="decay", mu=lam / 25, gamma=1.0), clip=ClipSpec(1e30, "l2"),
        mechanism=MECHANISMS["laplace"], seed=8, repeats=3,
    )
    batch = run_federation(cfg, data, constants=pc)
    assert batch.diverged == 3 and not batch.records
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_matches_reference(batch, cfg, data, pc)


def test_row_form_checks_every_step_when_the_round_could_leave_the_limit():
    # the twin of the dual-form test above on a Gram-form store: zeta = 1e30
    # puts max|theta| + zeta * sum(rates) past PARAM_LIMIT, so the parameters
    # are checked after every step. Client 0's parameters leave the limit
    # (near 6e13) and come back (near 2e9) before its 40th step, and every
    # repeat diverges in round 0 as in the reference
    data = ragged_shards(n_clients=4, rows=40, features=3, seed=5)
    assert data.dim <= data.x.shape[1]  # p = 4 <= n_l = 10
    pc = problem_constants(data, np.zeros(data.dim), 1e30)
    lam = max(np.linalg.eigvalsh(stat)[-1] for stat in data.local_stats[0])
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=40, global_iters=2,
        schedule=Schedule(kind="decay", mu=lam / 25, gamma=1.0), clip=ClipSpec(1e30, "l2"),
        mechanism=MECHANISMS["laplace"], seed=8, repeats=3,
    )
    batch = run_federation(cfg, data, constants=pc)
    assert batch.diverged == 3 and not batch.records
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_matches_reference(batch, cfg, data, pc)


def test_dual_form_clip_bounds_the_formed_gradient_near_the_null_space_of_its_kernel():
    # every shard holds its 3 rows twice, with opposite targets but for a part
    # 1e-8 as large: from theta = 0 the dual gradient lies in the null space of
    # the singular K_l = X_l X_l' up to that part, so g'K g is mostly rounding.
    # The binding zeta = 1e-10 must still bound the norm of every formed
    # clipped gradient, and the run must match the reference
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((4, 3, 8))
    targets = rng.standard_normal((4, 3))
    data = PaddedShards.from_pooled(
        np.concatenate([rows, rows], axis=1).reshape(-1, 8),
        (np.concatenate([targets, -targets], axis=1)
         + 1e-8 * rng.standard_normal((4, 6))).reshape(-1), [6] * 4)
    zeta = 1e-10
    steps = data.local_steps(slice(0, 4), np.zeros((3, data.dim)))
    assert type(steps).__name__ == "_DualSteps"
    worst = 0.0
    for _ in range(20):
        grad = clip_gradient(steps.gradient(), zeta, "l2", steps.row_norms)
        worst = max(worst, np.linalg.norm(steps.primal(grad), axis=-1).max())
        steps.step(0.5, grad)
    assert zeta * (1 - 1e-6) < worst <= zeta * (1 + 1e-9)
    pc = problem_constants(data, np.zeros(data.dim), zeta)
    cfg = FederationConfig(
        n_clients=4, pool_size=2, local_iters=5, global_iters=6,
        schedule=Schedule.constant(0.5), clip=ClipSpec(zeta, "l2"),
        mechanism=MECHANISMS["laplace"], seed=2, repeats=3,
    )
    _assert_matches_reference(run_federation(cfg, data, constants=pc), cfg, data, pc)


def test_l1_pilot_on_shards_shorter_than_p_matches_the_reference():
    # p = 40 over shards of 10 rows: the L1 norm needs every gradient formed,
    # so the pilot steps the parameters, not the dual gradients
    data = ragged_shards(n_clients=8, rows=80, features=39, seed=17)
    assert data.dim > data.x.shape[1]
    cfg, _ = decay_config(data, "l1", 0.5, MechanismSpec(), E=4, b=4, T_g=6)
    assert any(np.abs(mse_gradient(np.zeros(s.dim), s)).sum() > 0.5 for s in data.shards)
    got = pilot_gradient_bound(cfg, data)
    want = reference_pilot(cfg, data.shards)
    assert 0 < got <= 0.5
    assert abs(got - want) <= REL_TOL * want


def test_dual_form_keeps_the_reference_over_a_long_horizon():
    # 40 rounds of 5 steps, p = 40 over shards of 10 rows: the rounding of the
    # dual steps must not build up past the reference's tolerance
    data = ragged_shards(n_clients=20, rows=200, features=39, seed=24)
    assert data.dim > data.x.shape[1]
    cfg, pc = decay_config(data, "l2", 0.5, MECHANISMS["laplace"], E=5, b=4, T_g=40, seed=3)
    batch = run_federation(dataclasses.replace(cfg, repeats=3), data, constants=pc)
    assert batch.diverged == 0 and len(batch.records) == 3 * 40
    _assert_matches_reference(batch, dataclasses.replace(cfg, repeats=3), data, pc)


def test_repeats_equal_their_single_seed_runs_under_two_blas_threads():
    # the run-wide shape: p = 200 > n_l = 50, pools of 20, 10 repeats (two lane
    # blocks, the second with 6 pad lanes); a threaded GEMM may split the
    # columns among its threads otherwise than a one-thread GEMM
    script = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from dpfedsim.data import synth_regression
        from dpfedsim.engine import ClipSpec, FederationConfig, Schedule, run_federation
        from dpfedsim.mechanisms import MechanismSpec
        from dpfedsim.regression import problem_constants

        data = synth_regression(40, 50, 199, 0.5, 0.1, seed=22)
        pc = problem_constants(data, np.zeros(data.dim), 1.0)
        cfg = FederationConfig(
            n_clients=40, pool_size=20, local_iters=2, global_iters=4,
            schedule=Schedule.decay(pc, 2), clip=ClipSpec(1.0, "l2"),
            mechanism=MechanismSpec(kind="laplace", epsilon=3.0, xi1=1.0), seed=5,
        )

        def key(run):
            return [repr(rec) for rec in run.records], run.theta.tobytes(), run.diverged

        block = run_federation(dataclasses.replace(cfg, repeats=10), data, pc).runs
        alone = [run_federation(dataclasses.replace(cfg, seed=5 + r), data, pc).runs[0]
                 for r in range(10)]
        print(sum(key(a) == key(b) for a, b in zip(block, alone)), len(block[0].records))
    """)
    src = Path(engine.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10", "4"]


def test_repeats_must_be_positive():
    cfg, _ = decay_config(ragged_shards(), "l2", 0.5, MECHANISMS["none"])
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, repeats=0)


@pytest.mark.parametrize("mechanism", ["laplace", "none"])
def test_config_repeats_sets_the_run_count_and_each_run_is_its_seed_alone(mechanism):
    data = ragged_shards(seed=9)
    cfg, pc = decay_config(data, "l1", 0.5, MECHANISMS[mechanism])
    assert cfg.repeats == 1  # the default is one run
    [single] = run_federation(cfg, data, constants=pc).runs
    batch = run_federation(dataclasses.replace(cfg, repeats=3), data, constants=pc)
    assert len(batch.runs) == 3
    _assert_same_run(batch.runs[0], single)
    for r, run in enumerate(batch.runs):
        alone = run_federation(dataclasses.replace(cfg, seed=cfg.seed + r), data, constants=pc)
        assert len(alone.runs) == 1
        _assert_same_run(run, alone.runs[0])


@st.composite
def federations(draw):
    """A small federation: b | N and N | b*T_g, ragged shards, any clip, mechanism and rate.

    p counts the bias column. The start is zeros or a nonzero vector; the
    constants are measured at zeros, so a decay run from elsewhere has no
    bound. Shard sizes fall on both sides of p, so the kernel runs in Gram
    form (p <= max(n_l)) and in dual form (p > max(n_l)). A zeta of 0.1
    binds, one of 100 binds only once a run drifts far, and one of 1e30 never
    binds: at the unstable constant rate a noise-free run diverges, and its
    noise sends a noisy run past PARAM_LIMIT at once.
    """
    n_clients = draw(st.sampled_from([1, 2, 3, 4, 6]))
    pool_size = draw(st.sampled_from([b for b in range(1, n_clients + 1) if n_clients % b == 0]))
    p = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 7), min_size=n_clients, max_size=n_clients))
    return dict(
        n_clients=n_clients, pool_size=pool_size, p=p, sizes=sizes,
        theta_0=draw(st.none() | st.lists(st.sampled_from([-1.0, 0.5, 2.0]),
                                          min_size=p, max_size=p)),
        global_iters=n_clients // pool_size * draw(st.integers(1, 2)),
        local_iters=draw(st.integers(1, 4)),
        norm=draw(st.sampled_from(CLIP_NORMS)),
        zeta=draw(st.sampled_from([0.1, 100.0, 1e30])),
        mechanism=draw(st.sampled_from(sorted(MECHANISMS))),
        rate=draw(st.sampled_from(["decay", 0.5, 50.0])),
        repeats=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fed=federations())
def test_kernel_matches_per_client_reference_on_drawn_federations(fed):
    rng = np.random.default_rng(fed["seed"])
    n = sum(fed["sizes"])
    x = rng.standard_normal((n, fed["p"] - 1))
    y = x @ rng.standard_normal(fed["p"] - 1) + 0.5 + 0.1 * rng.standard_normal(n)
    data = PaddedShards.from_pooled(np.column_stack([x, np.ones(n)]), y, fed["sizes"])
    pc = problem_constants(data, np.zeros(data.dim), fed["zeta"])
    if fed["rate"] == "decay" and pc.assumptions_ok:
        schedule = Schedule.decay(pc, fed["local_iters"])
    else:
        schedule = Schedule.constant((0.5 if fed["rate"] == "decay" else fed["rate"]) / pc.lam)
    cfg = FederationConfig(
        n_clients=fed["n_clients"], pool_size=fed["pool_size"], local_iters=fed["local_iters"],
        global_iters=fed["global_iters"], schedule=schedule,
        clip=ClipSpec(fed["zeta"], fed["norm"]), mechanism=MECHANISMS[fed["mechanism"]],
        seed=fed["seed"], repeats=fed["repeats"],
        theta_0=None if fed["theta_0"] is None else np.array(fed["theta_0"]),
    )
    batch = run_federation(cfg, data, constants=pc)
    single = _single_runs(dataclasses.replace(cfg, repeats=1), data, pc, cfg.repeats)
    with np.errstate(over="ignore", invalid="ignore"):
        for r, run in enumerate(batch.runs):
            _assert_same_run(run, single[r])
            records, theta, diverged = reference_run(
                dataclasses.replace(cfg, seed=cfg.seed + r), data.shards, constants=pc)
            assert run.diverged == diverged
            assert len(run.records) == len(records)
            for got, want in zip(run.records, records):
                assert_close(dataclasses.astuple(got), dataclasses.astuple(want))
            assert_close(run.theta, theta)
    if fed["norm"] == "l1":  # the pilot measures G under L1 clipping only
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_pilot(cfg, data.shards)
        got = pilot_gradient_bound(cfg, data)
        assert abs(got - want) <= REL_TOL * want
    # the store builds the per-client Gram statistics exactly when the Gram form runs
    assert ("local_stats" in data.__dict__) == (data.dim <= data.x.shape[1])


def test_the_run_goes_through_the_kernel_entry_points(tmp_path, monkeypatch):
    path = tmp_path / "task.cfg"
    path.write_text(ROUNDS_TASK.format(repeats=3))  # L1 clipping: the pilot runs too
    cmd_run(path, tmp_path / "plain", quiet=True)
    calls = {"client_update": 0, "aggregate": 0}

    def counting(name):
        original = getattr(engine, name)

        def passthrough(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return passthrough

    for name in calls:
        monkeypatch.setattr(f"dpfedsim.engine.{name}", counting(name))
    cmd_run(path, tmp_path / "counted", quiet=True)
    rounds = 10
    # one local-step call per round in the pilot and in the run; one aggregate
    # per pilot round, and two per run round (parameters and noise)
    assert calls == {"client_update": 2 * rounds, "aggregate": 3 * rounds}
    assert ((tmp_path / "counted" / "rounds.csv").read_bytes()
            == (tmp_path / "plain" / "rounds.csv").read_bytes())

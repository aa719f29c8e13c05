"""The pool- and repeat-batched local-step kernel against a plain per-client reference loop."""
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim import bounds, engine, mechanisms
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
from dpfedsim.mechanisms import MechanismSpec, NoiseContext, noise_stream, sample_noise
from dpfedsim.regression import (
    CLIP_NORMS,
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


# the kernel takes a step in Gram form when p <= max(n_l) and in residual form
# otherwise; the default ragged_shards (p = 4 over 8-9 rows) runs the Gram form
SHAPES = {
    "square": dict(features=8),  # p = max(n_l) = 9, and some shards have 8 rows
    "short": dict(features=5, sizes=(3, 12, 4, 9, 12, 13)),  # some n_l < p = 6 < max(n_l)
    "wide": dict(features=12, rows=40),  # p = 13 > max(n_l) = 7: the residual form
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


@pytest.mark.parametrize("shape,case", shaped([("l1",), ("l2",), ("diverging",),
                                                ("noisy-seed-5",)]))
def test_pilot_matches_per_client_reference(shape, case):
    data = shards_of(shape, seed=3)
    zeta = 0.5
    cfg, pc = decay_config(data, "l2" if case == "l2" else "l1", zeta, MechanismSpec(),
                           T_g=10)
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
    cfg = dataclasses.replace(cfg, repeats=5)
    whole = run_federation(cfg, data, constants=pc)
    # a cap below one repeat's work array runs the repeats one chunk at a time
    monkeypatch.setattr("dpfedsim.engine.CHUNK_ELEMENTS", 1)
    chunked = run_federation(cfg, data, constants=pc)
    for a, b in zip(whole.runs, chunked.runs):
        _assert_same_run(a, b)


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
    form (p <= max(n_l)) and in residual form (p > max(n_l)). A zeta of 0.1
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

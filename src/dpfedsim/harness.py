"""Experiment drivers: single runs, sweeps, the planner and Monte-Carlo validation.

Each driver takes a parsed config, assembles the dataset, problem constants
and federation config, executes deterministically seeded repeats, and writes
fixed-schema CSV files whose bytes depend only on the config file contents.
"""
from __future__ import annotations

import copy
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import bounds
from .bounds import e_from_rule
from .config import RawConfig, parse_config
from .data import csv_sort_column, load_csv, sorted_partition, synth_regression
from .engine import (
    ClipSpec,
    FederationConfig,
    RunResult,
    Schedule,
    noise_context,
    pilot_gradient_bound,
    pool_slice,
    run_bound_params,
    run_federation,
)
from .mechanisms import (
    MechanismSpec,
    NoiseContext,
    epsilon_regime_warning,
    gaussian_sigma,
    l1_sensitivity_warning,
    laplace_scale,
    noise_item_variance,
    sample_noise,
)
from .regression import ConfigError, PaddedShards, ProblemConstants, problem_constants

__all__ = [
    "Experiment",
    "RunSummary",
    "PlanReport",
    "ValidationReport",
    "build_experiment",
    "run_repeats",
    "cmd_run",
    "cmd_sweep",
    "cmd_plan",
    "cmd_validate",
]

ROUNDS_COLUMNS = "run_id,seed,t,k,eta_k,global_loss,y_k,bound_y_k,noise_l2"
SWEEP_COLUMNS = "axis,value,mean_final_loss,std_final_loss,mean_final_y,diverged_runs"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: readers see the old file or the new one.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``; on any failure the temporary
    file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load(config_path, seed: int | None, repeats: int | None = None) -> RawConfig:
    """Parse a config file and apply the ``--seed``/``--repeats`` overrides."""
    raw = parse_config(config_path)
    if seed is not None:
        raw.federation["seed"] = seed
    if repeats is not None:
        raw.federation["repeats"] = repeats
    return raw


def _emit(out_dir, name: str, text: str, report: list[str], quiet: bool) -> None:
    """Write ``text`` to ``out_dir/name`` if a directory is given.

    ``name`` is relative and may name subdirectories, which are created. The
    ``report`` lines go to stdout unless ``quiet``.
    """
    if out_dir is not None:
        target = Path(out_dir) / name
        target.parent.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(target, text)
    if not quiet:
        print("\n".join(report))


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------


@dataclass
class Experiment:
    """A federation config with its dataset and problem constants."""

    config: FederationConfig
    dataset: PaddedShards
    constants: ProblemConstants


def _build_dataset(raw: RawConfig) -> PaddedShards:
    d = raw.data
    n_clients = raw.federation["clients"]
    if d["kind"] == "synth":
        return synth_regression(
            n_clients=n_clients,
            n_per_client=d["n_per_client"],
            n_features=d["features"],
            heterogeneity=d["heterogeneity"],
            noise_std=d["noise_std"],
            seed=d["seed"],
            add_bias=d["add_bias"],
        )
    features = (
        [c.strip() for c in d["feature_columns"].split(",") if c.strip()] or None
    )
    train, _ = load_csv(
        d["path"],
        target_column=d["target_column"],
        feature_columns=features,
        train_fraction=d["train_fraction"],
        seed=d["seed"],
    )
    # sorting key defaults to the target, which sits in the last record column
    sort_key = -1
    if d["sort_key"]:
        sort_key = csv_sort_column(d["path"], d["sort_key"], d["target_column"], features)
    return sorted_partition(train, sort_key, n_clients, add_bias=d["add_bias"])


def _mechanism_from(dp: dict) -> MechanismSpec:
    if dp["mechanism"] == "none" or math.isinf(dp["epsilon"]):
        return MechanismSpec()
    if dp["mechanism"] == "laplace":
        return MechanismSpec(kind="laplace", epsilon=dp["epsilon"], xi1=dp["xi1"])
    return MechanismSpec(
        kind="gaussian",
        epsilon=dp["epsilon"],
        delta=dp["delta"],
        c2=dp["c2"],
        xi2=dp["xi2"],
    )


def _build_data(raw: RawConfig) -> tuple[PaddedShards, ProblemConstants]:
    """The dataset and the problem constants before any pilot.

    Neither depends on a sweep axis, so a sweep builds them once.
    """
    dataset = _build_dataset(raw)
    constants = problem_constants(
        dataset, np.zeros(dataset.dim), raw.federation["clip_threshold"]
    )
    return dataset, constants


def _configure(raw: RawConfig, dataset: PaddedShards,
               constants: ProblemConstants) -> Experiment:
    """Schedule, federation config and, under L1 clipping, the pilot's gradient bound."""
    fed = raw.federation
    zeta, norm = fed["clip_threshold"], fed["clip_norm"]
    if raw.schedule["kind"] == "decay":
        schedule = Schedule.decay(constants, fed["local_iters"])
    else:
        schedule = Schedule.constant(raw.schedule["eta"])

    config = FederationConfig(
        n_clients=fed["clients"],
        pool_size=fed["pool_size"],
        local_iters=fed["local_iters"],
        global_iters=fed["global_iters"],
        schedule=schedule,
        clip=ClipSpec(zeta, norm),
        mechanism=_mechanism_from(raw.dp),
        theta_0=np.zeros(dataset.dim),
        seed=fed["seed"],
        repeats=fed["repeats"],
    )

    if norm == "l1" and math.isfinite(zeta):
        measured = pilot_gradient_bound(config, dataset)
        constants = dataclasses.replace(constants, g_bound=measured)

    return Experiment(config=config, dataset=dataset, constants=constants)


def build_experiment(raw: RawConfig) -> Experiment:
    """Assemble dataset, problem constants, schedule and federation config.

    The dataset is built once, as its ``PaddedShards`` store; the constants,
    the pilot and every run read that store. Under L1 clipping the gradient bound
    is tightened from the clip threshold to the maximum clipped-gradient L2
    norm measured on a noise-free pilot run of the same shape. A decay
    schedule requires a non-singular pooled Hessian; the constant schedule
    runs regardless, with bound reporting disabled.
    """
    return _configure(raw, *_build_data(raw))


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------


@dataclass
class RoundStats:
    t: int
    loss_mean: float
    loss_std: float
    y_mean: float
    y_std: float
    bound: float


@dataclass
class RunSummary:
    """The final round's statistics over the completed repeats (None if all diverged)."""

    config_echo: dict[str, Any]
    repeats: int
    final: RoundStats | None
    divergence_count: int

    def lines(self) -> list[str]:
        out = ["run summary"]
        for key, value in self.config_echo.items():
            out.append(f"  {key}: {value}")
        out.append(f"  repeats: {self.repeats}  diverged: {self.divergence_count}")
        if self.final is None:
            out.append("  no completed rounds (all repeats diverged)")
        else:
            f = self.final
            out.append(
                f"  final round t={f.t}: loss {_fmt(f.loss_mean)} +- {_fmt(f.loss_std)}"
                f"  y {_fmt(f.y_mean)} +- {_fmt(f.y_std)}  bound {_fmt(f.bound)}"
            )
        return out


def run_repeats(exp: Experiment) -> list[RunResult]:
    """Execute the configured repeats, seeds seed+0 .. seed+repeats-1, as one block.

    Repeat r is bitwise the single run with seed seed+r.
    """
    return run_federation(exp.config, exp.dataset, exp.constants).runs


def _summarize(results: list[RunResult], echo: dict) -> RunSummary:
    final = None
    completed = [r for r in results if not r.diverged]
    if completed:
        # every completed run ends at round T_g - 1, whose bound all runs share
        first = completed[0]
        losses = np.array([r.series("global_loss")[-1] for r in completed])
        ys = np.array([r.series("y_k")[-1] for r in completed])
        final = RoundStats(
            t=first.rounds - 1,
            loss_mean=float(losses.mean()),
            loss_std=float(losses.std()),
            y_mean=float(ys.mean()),
            y_std=float(ys.std()),
            bound=first.metrics.bound_y_k[first.rounds - 1],
        )
    return RunSummary(
        config_echo=echo,
        repeats=len(results),
        final=final,
        divergence_count=sum(r.diverged for r in results),
    )


def _echo(exp: Experiment) -> dict[str, Any]:
    cfg = exp.config
    mech = cfg.mechanism
    return {
        "clients": cfg.n_clients,
        "pool_size": cfg.pool_size,
        "local_iters": cfg.local_iters,
        "global_iters": cfg.global_iters,
        "total_iters": cfg.total_iters,
        "clip": f"{cfg.clip.zeta:g} ({cfg.clip.norm})",
        "schedule": cfg.schedule.kind,
        "mechanism": mech.kind if mech.kind != "none" else "none (epsilon=inf)",
        "epsilon": mech.epsilon,
        "seed": cfg.seed,
    }


def _rounds_csv(results: list[RunResult], base_seed: int) -> str:
    """rounds.csv from the runs' metric columns: ints as they are, floats by repr.

    Round t's ``t,k,eta_k,`` and its ``bound_y_k`` are the same in every run,
    so each is formatted once, from the block of the run with the most
    completed rounds, which holds them for every round a run completed.
    """
    m = max(results, key=lambda r: r.rounds).metrics
    heads = [f"{t},{(t + 1) * m.local_iters},{eta_k!r}," for t, eta_k in enumerate(m.eta_k)]
    tails = [f",{bound!r}," for bound in m.bound_y_k]
    lines = [ROUNDS_COLUMNS]
    for run_id, result in enumerate(results):
        ids = f"{run_id},{base_seed + run_id},"
        lines += [
            f"{ids}{head}{loss!r},{y_k!r}{tail}{noise_l2!r}"
            for head, loss, y_k, tail, noise_l2 in zip(
                heads, result.series("global_loss").tolist(), result.series("y_k").tolist(),
                tails, result.series("noise_l2").tolist())
        ]
    return "\n".join(lines) + "\n"


def cmd_run(
    config_path,
    out_dir,
    seed: int | None = None,
    repeats: int | None = None,
    quiet: bool = False,
) -> RunSummary:
    """Run the configured experiment and write the per-round CSV."""
    raw = _load(config_path, seed, repeats)
    exp = build_experiment(raw)
    results = run_repeats(exp)
    summary = _summarize(results, _echo(exp))
    _emit(out_dir, raw.output["rounds_csv"], _rounds_csv(results, exp.config.seed),
          summary.lines(), quiet)
    return summary


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    axis: str
    value: Any
    mean_final_loss: float
    std_final_loss: float
    mean_final_y: float
    diverged_runs: int


def _point_raw(base: RawConfig, axis: str, value) -> RawConfig:
    raw = copy.deepcopy(base)
    fed = raw.federation
    total = fed["local_iters"] * fed["global_iters"]
    if axis == "T":
        e = fed["local_iters"]
        if e < 1 or value % e != 0:
            raise ConfigError(f"T={value}: local_iters {e} must divide T")
        fed["global_iters"] = value // e
    elif axis == "epsilon":
        if raw.dp["mechanism"] == "none" and not math.isinf(value):
            raise ConfigError("an epsilon sweep needs a laplace or gaussian base mechanism")
        raw.dp["epsilon"] = value
    else:
        e = value if axis == "E" else e_from_rule(value, total)
        if total % e != 0:
            raise ConfigError(f"E={e} does not divide the total T={total}")
        fed["local_iters"] = e
        fed["global_iters"] = total // e
    return raw


def cmd_sweep(
    config_path,
    out_dir,
    seed: int | None = None,
    repeats: int | None = None,
    quiet: bool = False,
) -> list[SweepRow]:
    """Evaluate every grid point of the sweep and write the summary CSV.

    All grid points are validated (including divisibility rules) before any
    point is run. Diverged repeats are excluded from the means and counted in
    the ``diverged_runs`` column.
    """
    base = _load(config_path, seed, repeats)
    axis = base.sweep["axis"]
    if not axis:
        raise ConfigError(f"{config_path}: [sweep] axis and values are required")

    # fail fast: every grid point must give a valid shape; no axis changes the data
    points = [(v, _point_raw(base, axis, v)) for v in base.sweep["values"]]
    data = _build_data(base)
    experiments = [(v, _configure(raw, *data)) for v, raw in points]

    rows: list[SweepRow] = []
    for value, exp in experiments:
        summary = _summarize(run_repeats(exp), {})
        f = summary.final
        stats = (math.nan,) * 3 if f is None else (f.loss_mean, f.loss_std, f.y_mean)
        rows.append(SweepRow(axis, value, *stats, summary.divergence_count))

    lines = [SWEEP_COLUMNS] + [",".join(map(_fmt, dataclasses.astuple(r))) for r in rows]
    report = [f"sweep over {axis}: {len(rows)} points"]
    for row in rows:
        report.append(
            f"  {axis}={row.value}: final loss {_fmt(row.mean_final_loss)}"
            f" +- {_fmt(row.std_final_loss)} (diverged {row.diverged_runs})"
        )
    finite = [r for r in rows if math.isfinite(r.mean_final_loss)]
    if finite:
        best = min(finite, key=lambda r: r.mean_final_loss)
        report.append(f"  argmin at {axis}={best.value}")
    _emit(out_dir, base.output["sweep_csv"], "\n".join(lines) + "\n", report, quiet)
    return rows


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


@dataclass
class PlanReport:
    mechanism: str
    epsilon: float
    z: float
    rate_exp: float
    classification: str
    total_iters: int
    e_star_raw: int
    e_star: int
    scale_label: str | None
    scale_value: float | None
    variance_exact: float
    variance_paper: float
    c_m: float | None
    omega0: float | None
    omega1: float | None
    gamma: float | None
    bound_samples: list[tuple[int, float]] | None
    warning: str | None

    def lines(self) -> list[str]:
        out = [f"mechanism: {self.mechanism}  epsilon: {_fmt(self.epsilon)}"]
        if self.mechanism == "none":
            out.append("noise-free benchmark: z treated as 0")
        out.append(
            f"z: {_fmt(self.z)}  rate exponent: {_fmt(self.rate_exp)}  ({self.classification})"
        )
        out.append(
            f"T: {self.total_iters}  E*: raw {self.e_star_raw} -> divisor {self.e_star}"
        )
        if self.scale_label is not None:
            out.append(f"{self.scale_label} (round 0): {_fmt(self.scale_value)}")
        out.append(
            "predicted noise item variance (round 0): "
            f"exact {_fmt(self.variance_exact)}  paper {_fmt(self.variance_paper)}"
        )
        if self.c_m is None:
            out.append("bound constants unavailable (constant schedule or violated assumptions)")
        else:
            out.append(
                f"C_M: {_fmt(self.c_m)}  omega0: {_fmt(self.omega0)}"
                f"  omega1: {_fmt(self.omega1)}  gamma: {_fmt(self.gamma)}"
            )
            out.append("bound curve:")
            for k, v in self.bound_samples:
                out.append(f"  k={k}  bound={_fmt(v)}")
        if self.warning:
            out.append(f"warning: {self.warning}")
        return out


def _round0_context(exp: Experiment) -> NoiseContext:
    return noise_context(exp.config, exp.dataset, 0)


def _classification(rate_exp: float) -> str:
    if rate_exp < 0:
        return "error vanishes as T grows"
    if rate_exp == 0:
        return "error converges to O(1)"
    return f"diverges like T^{rate_exp:.3g}; a finite optimal T exists"


def cmd_plan(config_path, out_dir=None, seed: int | None = None,
             quiet: bool = False) -> PlanReport:
    """Report calibration values, the tuned E, and bound samples for a config."""
    exp = build_experiment(_load(config_path, seed))
    cfg = exp.config
    mech = cfg.mechanism
    ctx = _round0_context(exp)

    z = mech.z
    rate_exp = bounds.rate_exponent(z)
    total = cfg.total_iters
    e_star_raw = bounds.optimal_local_iterations(total, z, divisor_adjust=False)
    e_star = bounds.optimal_local_iterations(total, z)

    scale_label = scale_value = None
    if mech.kind == "laplace":
        scale_label, scale_value = "laplace scale", laplace_scale(ctx, mech)
    elif mech.kind == "gaussian":
        scale_label, scale_value = "gaussian sigma", gaussian_sigma(ctx, mech)

    bound_block = (None, None, None, None, None)
    bp = run_bound_params(cfg, exp.constants)
    if bp is not None:
        bound_block = (bp.c_m, bp.omega0, bp.omega1, bp.gamma, bounds.bound_curve(bp))

    report = PlanReport(
        mechanism=mech.kind,
        epsilon=mech.epsilon,
        z=z,
        rate_exp=rate_exp,
        classification=_classification(rate_exp),
        total_iters=total,
        e_star_raw=e_star_raw,
        e_star=e_star,
        scale_label=scale_label,
        scale_value=scale_value,
        variance_exact=noise_item_variance(mech, ctx, mode="exact"),
        variance_paper=noise_item_variance(mech, ctx, mode="paper"),
        c_m=bound_block[0],
        omega0=bound_block[1],
        omega1=bound_block[2],
        gamma=bound_block[3],
        bound_samples=bound_block[4],
        # at most one applies: the first is gaussian-only, the second laplace-only
        warning=epsilon_regime_warning(mech, ctx)
        or l1_sensitivity_warning(mech, ctx.p, cfg.clip.zeta, cfg.clip.norm),
    )
    lines = report.lines()
    _emit(out_dir, "plan.txt", "\n".join(lines) + "\n", lines, quiet)
    return report


# ---------------------------------------------------------------------------
# Monte-Carlo validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    mechanism: str
    draws: int
    tolerance: float
    empirical: float
    predicted_exact: float
    predicted_paper: float
    rel_err_exact: float
    rel_err_paper: float
    passed: bool
    warning: str | None

    def lines(self) -> list[str]:
        out = [
            f"mechanism: {self.mechanism}  draws: {self.draws}"
            f"  tolerance: {self.tolerance:.0%}",
            f"empirical E||w||^2: {_fmt(self.empirical)}",
            f"predicted (exact): {_fmt(self.predicted_exact)}"
            f"  rel err {_fmt(self.rel_err_exact)}",
            f"predicted (paper): {_fmt(self.predicted_paper)}"
            f"  rel err {_fmt(self.rel_err_paper)}",
            "PASS" if self.passed else "FAIL",
        ]
        if self.warning:
            out.append(f"warning: {self.warning}")
        return out


# the noise values of one slice of a pool's draws: 2 MB, whatever the worker count
VALIDATE_SLICE_ELEMENTS = 2**18


def _cpu_count() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate_noise_aggregates(exp: Experiment, draws: int) -> float:
    """Mean ||w_t^b||^2 over independent pool aggregations, cycling the pools.

    Pool t takes draws // n_pools aggregations from its own stream, the
    PCG64 generator of the ``SeedSequence((seed, draws))`` child with spawn
    key (t,). It draws them in slices of VALIDATE_SLICE_ELEMENTS // (b p)
    rows (at least one) and sums each slice's squared aggregates; the pool
    totals are added in pool order. So the mean depends only on the seed,
    the draw count and the config, not on how many threads draw it. The
    pools run on min(n_pools, CPUs) threads (numpy's fills release the
    GIL), and a thread's working set is one slice and its (rows, p)
    aggregate: 2.2 MB at b = 10, p = 20, so 4.4 MB on 2 CPUs. A pool's
    exception is raised again here, once the pools not yet started are
    cancelled and every thread has stopped.
    """
    cfg = exp.config
    ctx = _round0_context(exp)
    mech = cfg.mechanism
    n_pools = cfg.n_clients // cfg.pool_size
    per_pool = draws // n_pools
    if per_pool < 1:
        raise ConfigError("draws must be at least the number of round-robin pools")
    rows = max(1, min(per_pool, VALIDATE_SLICE_ELEMENTS // (cfg.pool_size * ctx.p)))

    def pool_total(t: int) -> float:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, draws), spawn_key=(t,)))
        weights = (cfg.n_clients / cfg.pool_size) * exp.dataset.weights[
            pool_slice(t, cfg.n_clients, cfg.pool_size)
        ]
        agg = np.empty((rows, ctx.p))
        total = 0.0
        for lo in range(0, per_pool, rows):
            m = min(rows, per_pool - lo)
            # the slice is freed when einsum returns, before the next draw
            np.einsum("dbp,b->dp", sample_noise(mech, ctx, rng, (m, cfg.pool_size)), weights,
                      out=agg[:m])
            total += float(np.sum(np.square(agg[:m], out=agg[:m])))
        return total

    # not sum(): from Python 3.12 it adds floats with compensation
    total = 0.0
    with ThreadPoolExecutor(max_workers=min(n_pools, _cpu_count())) as workers:
        for pool in workers.map(pool_total, range(n_pools)):
            total += pool
    return total / (per_pool * n_pools)


def cmd_validate(
    config_path, draws: int = 10**6, out_dir=None, seed: int | None = None,
    quiet: bool = False,
) -> ValidationReport:
    """Compare the closed-form noise-item variance against simulation.

    The pass gate is 1% relative error at >= 10^6 draws and 5% below that
    (statistical error scales with 1/sqrt(draws)). The gaussian comparison is
    judged against the exact mode.
    """
    if draws < 10**4:
        raise ConfigError("validation needs at least 10^4 draws")
    exp = build_experiment(_load(config_path, seed))
    mech = exp.config.mechanism
    tolerance = 0.01 if draws >= 10**6 else 0.05

    if mech.kind == "none":
        report = ValidationReport(
            mechanism="none", draws=draws, tolerance=tolerance, empirical=0.0,
            predicted_exact=0.0, predicted_paper=0.0, rel_err_exact=0.0,
            rel_err_paper=0.0, passed=True, warning=None,
        )
    else:
        ctx = _round0_context(exp)
        exact = noise_item_variance(mech, ctx, mode="exact")
        paper = noise_item_variance(mech, ctx, mode="paper")
        if not exact > 0:
            raise ConfigError(
                "the predicted noise variance underflows to 0, so no relative error exists"
            )
        if not math.isfinite(exact) or not math.isfinite(paper):
            raise ConfigError(
                "the predicted noise variance overflows to inf, so no relative error exists"
            )
        empirical = _simulate_noise_aggregates(exp, draws)
        rel_exact = abs(empirical - exact) / exact
        rel_paper = abs(empirical - paper) / paper
        report = ValidationReport(
            mechanism=mech.kind,
            draws=draws,
            tolerance=tolerance,
            empirical=empirical,
            predicted_exact=exact,
            predicted_paper=paper,
            rel_err_exact=rel_exact,
            rel_err_paper=rel_paper,
            passed=rel_exact <= tolerance,
            warning=epsilon_regime_warning(mech, ctx),
        )

    lines = report.lines()
    _emit(out_dir, "validate.txt", "\n".join(lines) + "\n", lines, quiet)
    return report

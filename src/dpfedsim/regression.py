"""Linear-regression losses, gradients, clipping and closed-form problem constants.

Every function here is pure: inputs are never mutated and repeated calls with
the same arguments are bitwise reproducible. All reductions over samples and
clients run in ascending index order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CLIP_NORMS",
    "ConfigError",
    "ClientShard",
    "ProblemConstants",
    "mse_loss",
    "mse_gradient",
    "clip_gradient",
    "local_optimum",
    "global_optimum",
    "pooled_design",
    "problem_constants",
]


class ConfigError(ValueError):
    """Invalid configuration or arguments that violate an operation's contract."""


# the norms a gradient can be clipped in
CLIP_NORMS = ("l1", "l2")


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class ClientShard:
    """One client's private regression data.

    ``features`` is the design matrix actually used for fitting; if a bias
    column is wanted it must already be appended (dataset builders do this at
    ingestion).
    """

    client_id: int
    features: np.ndarray  # shape (n_l, d)
    targets: np.ndarray  # shape (n_l,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        targs = np.asarray(self.targets, dtype=float)
        if feats.ndim != 2:
            raise ConfigError("features must be a 2-D array")
        if targs.ndim != 1 or feats.shape[0] != targs.shape[0]:
            raise ConfigError("feature row count must equal target count")
        if feats.shape[0] < 1:
            raise ConfigError("a shard needs at least one sample")
        _check_finite(feats, "features")
        _check_finite(targs, "targets")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n_l(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ProblemConstants:
    """Curvature, gradient-bound and heterogeneity constants of a federated task.

    ``mu``/``lam`` are the extreme eigenvalues of the pooled Hessian
    (2/n) X^T X, ``gamma_noniid`` the gap between the global optimal loss and
    the size-weighted average of local optimal losses, ``g_bound`` the active
    bound on per-client gradient L2 norms, and ``y0`` the squared distance of
    the start point from the global optimum. ``assumptions_ok`` is False when
    the pooled Hessian is (numerically) singular, which disables bound
    reporting downstream.
    """

    mu: float
    lam: float
    g_bound: float
    gamma_noniid: float
    f_star: float
    theta_star: np.ndarray
    y0: float
    assumptions_ok: bool = field(default=True)

    def __post_init__(self):
        if self.assumptions_ok and not (0.0 < self.mu <= self.lam * (1 + 1e-12)):
            raise ConfigError("constants require 0 < mu <= lambda")
        if self.g_bound < 0 or self.gamma_noniid < 0 or self.y0 < 0:
            raise ConfigError("g_bound, gamma_noniid and y0 must be non-negative")


def _as_theta(theta: np.ndarray, shard: ClientShard) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != shard.dim:
        raise ConfigError(
            f"theta has dimension {theta.shape}, shard expects ({shard.dim},)"
        )
    return theta


def mse_loss(theta: np.ndarray, shard: ClientShard) -> float:
    """Mean squared error (1/n_l) * sum_i (x_i . theta - y_i)^2."""
    theta = _as_theta(theta, shard)
    resid = shard.features @ theta - shard.targets
    return float(resid @ resid) / shard.n_l


def mse_gradient(theta: np.ndarray, shard: ClientShard) -> np.ndarray:
    """Exact gradient of :func:`mse_loss`: (2/n_l) * X^T (X theta - y)."""
    theta = _as_theta(theta, shard)
    resid = shard.features @ theta - shard.targets
    return (2.0 / shard.n_l) * (shard.features.T @ resid)


def _norm(g: np.ndarray, norm_kind: str) -> float:
    if norm_kind == "l1":
        return float(np.sum(np.abs(g)))
    if norm_kind == "l2":
        return float(np.sqrt(g @ g))
    raise ConfigError(f"unknown norm kind {norm_kind!r} (expected one of {CLIP_NORMS})")


def _row_norms(g: np.ndarray, norm_kind: str) -> np.ndarray:
    if norm_kind == "l1":
        return np.abs(g).sum(axis=-1)
    if norm_kind == "l2":
        # one dot product per row: the same reduction as ``g @ g`` on a vector
        return np.sqrt(np.matmul(g[..., None, :], g[..., :, None])[..., 0, 0])
    raise ConfigError(f"unknown norm kind {norm_kind!r} (expected one of {CLIP_NORMS})")


def clip_gradient(g: np.ndarray, zeta: float, norm_kind: str = "l2") -> np.ndarray:
    """Rescale ``g`` to g / max(1, ||g||/zeta) so its norm never exceeds ``zeta``.

    Direction is preserved. The map is idempotent bitwise: vectors at or below
    the threshold are returned unchanged, and rescaled vectors are renormalized
    until the recomputed norm is <= zeta in floating point (a single rescale
    can land a few ulps above it). An array of shape (..., p) is clipped row by
    row along its last axis, each row bitwise as if clipped on its own; it is
    returned unchanged when no row exceeds the threshold.
    """
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")
    g = np.asarray(g, dtype=float)
    if g.ndim > 1:
        return _clip_rows(g, zeta, norm_kind)
    norm = _norm(g, norm_kind)
    if norm <= zeta:
        return g
    clipped = g / (norm / zeta)
    while _norm(clipped, norm_kind) > zeta:
        clipped = clipped / (_norm(clipped, norm_kind) / zeta)
    return clipped


def _clip_rows(g: np.ndarray, zeta: float, norm_kind: str) -> np.ndarray:
    # mirrors the vector path row by row: a row at or below the threshold has
    # norm/zeta <= 1 and is divided by exactly 1.0, which leaves it unchanged
    norms = _row_norms(g, norm_kind)
    if (norms <= zeta).all():
        return g
    clipped = g / np.maximum(norms / zeta, 1.0)[..., None]
    norms = _row_norms(clipped, norm_kind)
    while (norms > zeta).any():
        clipped = clipped / np.maximum(norms / zeta, 1.0)[..., None]
        norms = _row_norms(clipped, norm_kind)
    return clipped


def local_optimum(shard: ClientShard) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares parameters of a shard and their loss f_l*.

    Rank-deficient systems resolve to the pseudo-inverse solution, so the
    result is deterministic even for tiny shards with n_l < d.
    """
    theta, *_ = np.linalg.lstsq(shard.features, shard.targets, rcond=None)
    return theta, mse_loss(theta, shard)


def pooled_design(shards: list[ClientShard]) -> tuple[np.ndarray, np.ndarray]:
    """Stack all shards (ascending client id) into one design matrix and target vector."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    X = np.concatenate([s.features for s in ordered], axis=0)
    y = np.concatenate([s.targets for s in ordered], axis=0)
    return X, y


def global_optimum(shards: list[ClientShard]) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of the pooled problem and its loss f*.

    The pooled objective (1/n) ||X theta - y||^2 equals the size-weighted
    average of the per-shard losses, so its minimizer is the global optimum of
    the federated task.
    """
    X, y = pooled_design(shards)
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ theta - y
    return theta, float(resid @ resid) / X.shape[0]


def global_loss(theta: np.ndarray, shards: list[ClientShard]) -> float:
    """Size-weighted global loss sum_l (n_l/n) f_l(theta) = (1/n) ||X theta - y||^2."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    n = sum(s.n_l for s in ordered)
    total = 0.0
    for shard in ordered:
        resid = shard.features @ np.asarray(theta, dtype=float) - shard.targets
        total += float(resid @ resid)
    return total / n


def problem_constants(
    shards: list[ClientShard],
    theta_0: np.ndarray,
    zeta: float,
    norm_kind: str = "l2",
    g_bound: float | None = None,
) -> ProblemConstants:
    """Compute curvature, heterogeneity and distance constants for a dataset.

    mu and lambda are the extreme eigenvalues of the pooled Hessian
    (2/n) X^T X. gamma_noniid = f* - sum_l (n_l/n) f_l* (clamped at 0 against
    rounding). The gradient bound defaults to the clip threshold ``zeta``
    (exact under L2 clipping, conservative under L1 since ||.||2 <= ||.||1);
    pass ``g_bound`` to override it, e.g. with a measured pilot-run maximum.

    A singular pooled Hessian (mu <= 0 numerically) is reported via
    ``assumptions_ok=False`` with mu forced to 0; simulation may proceed but
    bound computation is disabled.
    """
    if not shards:
        raise ConfigError("dataset must contain at least one shard")
    if norm_kind not in CLIP_NORMS:
        raise ConfigError(f"unknown norm kind {norm_kind!r}")
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")

    X, y = pooled_design(shards)
    n = X.shape[0]
    theta_0 = np.asarray(theta_0, dtype=float)
    if theta_0.shape != (X.shape[1],):
        raise ConfigError("theta_0 dimension does not match the dataset")

    hessian = (2.0 / n) * (X.T @ X)
    eigvals = np.linalg.eigvalsh(hessian)
    mu, lam = float(eigvals[0]), float(eigvals[-1])
    # the bound divides by mu^2, which must not underflow to zero either
    assumptions_ok = lam > 0 and mu > lam * 1e-12 and mu**2 > 0

    theta_star, f_star = global_optimum(shards)

    weighted_local = 0.0
    for shard in sorted(shards, key=lambda s: s.client_id):
        _, f_l_star = local_optimum(shard)
        weighted_local += (shard.n_l / n) * f_l_star
    gamma_noniid = max(0.0, f_star - weighted_local)

    if g_bound is None:
        g_bound = zeta

    diff = theta_0 - theta_star
    return ProblemConstants(
        mu=mu if assumptions_ok else 0.0,
        lam=lam,
        g_bound=float(g_bound),
        gamma_noniid=gamma_noniid,
        f_star=f_star,
        theta_star=theta_star,
        y0=float(diff @ diff),
        assumptions_ok=assumptions_ok,
    )

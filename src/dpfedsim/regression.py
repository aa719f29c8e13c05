"""Linear-regression losses, gradients, clipping and closed-form problem constants.

Every function here is pure: inputs are never mutated and repeated calls with
the same arguments are bitwise reproducible. All reductions over samples and
clients run in ascending index order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "CLIP_NORMS",
    "ConfigError",
    "ClientShard",
    "PaddedShards",
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
    if not np.isfinite(arr).all():
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


def _least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ theta - y
    return theta, float(resid @ resid) / X.shape[0]


def global_optimum(shards: list[ClientShard]) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of the pooled problem and its loss f*.

    The pooled objective (1/n) ||X theta - y||^2 equals the size-weighted
    average of the per-shard losses, so its minimizer is the global optimum of
    the federated task.
    """
    return _least_squares(*pooled_design(shards))


def global_loss(theta: np.ndarray, shards: list[ClientShard]) -> float:
    """Size-weighted global loss sum_l (n_l/n) f_l(theta) = (1/n) ||X theta - y||^2."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    n = sum(s.n_l for s in ordered)
    total = 0.0
    for shard in ordered:
        resid = shard.features @ np.asarray(theta, dtype=float) - shard.targets
        total += float(resid @ resid)
    return total / n


@dataclass(frozen=True, eq=False)
class PaddedShards:
    """A dataset's shards stacked once, in client-id order, for bulk computation.

    ``pooled_x``/``pooled_y`` are the shards concatenated: the pooled design.
    ``x``/``y`` hold client l's data in ``x[l]``/``y[l]``, zero-padded to the
    largest shard; zero rows add nothing to a residual, a gradient, a loss or
    a least-squares solution, so a pool is the slice of its id block. When
    every shard has the same size, ``x``/``y`` are views of the pooled arrays;
    otherwise they take N * max(n_l) * p more floats. The Gram matrix and the
    loss form are computed on first use and kept.
    """

    x: np.ndarray  # (N, n_max, p)
    y: np.ndarray  # (N, n_max)
    pooled_x: np.ndarray  # (n, p)
    pooled_y: np.ndarray  # (n,)
    sizes: np.ndarray  # (N,) shard sizes as floats
    weights: np.ndarray  # (N,) aggregation weights n_l / n
    n: int

    @classmethod
    def build(cls, shards: list[ClientShard]) -> "PaddedShards":
        """Stack shards whose client ids are exactly 0..N-1, in any order."""
        if not shards:
            raise ConfigError("dataset must contain at least one shard")
        shards = sorted(shards, key=lambda s: s.client_id)
        if [s.client_id for s in shards] != list(range(len(shards))):
            raise ConfigError("shard client ids must be exactly 0..N-1")
        if len({s.dim for s in shards}) != 1:
            raise ConfigError("all shards must share one feature dimension")
        counts = np.array([s.n_l for s in shards])
        pooled_x, pooled_y = pooled_design(shards)
        shape = (len(shards), int(counts.max()))
        if (counts == shape[1]).all():
            x, y = pooled_x.reshape(*shape, -1), pooled_y.reshape(shape)
        else:
            rows = np.arange(shape[1]) < counts[:, None]
            x, y = np.zeros(shape + pooled_x.shape[1:]), np.zeros(shape)
            x[rows], y[rows] = pooled_x, pooled_y
        n = pooled_y.shape[0]
        sizes = counts.astype(float)
        return cls(x=x, y=y, pooled_x=pooled_x, pooled_y=pooled_y, sizes=sizes,
                   weights=sizes / n, n=n)

    @classmethod
    def of(cls, shards) -> "PaddedShards":
        """``shards`` itself if it is a store already, else the store built from the list."""
        return shards if isinstance(shards, cls) else cls.build(shards)

    @property
    def n_clients(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X of the pooled design."""
        return self.pooled_x.T @ self.pooled_x

    @cached_property
    def _loss_form(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        # built on the first loss call, so runs that never ask (the pilot) skip it
        x, y = self.x.reshape(-1, self.dim), self.y.ravel()
        # without padding the stacked rows are the pooled design, whose Gram may exist
        gram = self.gram if x.shape[0] == self.n else x.T @ x
        theta_ref = np.linalg.lstsq(gram, x.T @ y, rcond=None)[0]
        resid = x @ theta_ref - y
        return gram, theta_ref, float(resid @ resid), x.T @ resid

    def loss(self, theta: np.ndarray) -> float:
        """Pooled loss (1/n) ||X theta - y||^2 over every client's samples.

        Expanded around the near-optimal theta_ref with d = theta - theta_ref:
        ||X theta - y||^2 = L_ref + 2 d'g + d'G d, where G = X'X and L_ref and
        g = X'(X theta_ref - y) are computed from the residual. L_ref and d'G d
        are non-negative and g is close to zero, so the sum does not cancel the
        way theta'G theta - 2 c'theta + y'y does when the loss is far below
        y'y / n.
        """
        gram, theta_ref, loss_ref, grad_ref = self._loss_form
        d = theta - theta_ref
        return (loss_ref + 2.0 * float(d @ grad_ref) + float(d @ gram @ d)) / self.n


def _local_optimum_losses(data: PaddedShards) -> np.ndarray:
    """Every shard's f_l* = min ||X_l theta - y_l||^2 / n_l as ``local_optimum`` finds it.

    One batched factorisation over the padded stack. A QR first factors the
    long side of each (n_max, p) block away: of [X y] when n_max >= p, which
    keeps X's singular values and turns y into coordinates in an orthonormal
    basis, or of X' otherwise, since X = R'Q' has the singular values and left
    vectors of R'. Singular values at or below ``lstsq``'s rcond=None cut-off,
    eps * max(n_l, p) * s_max, count as zero. Shards with no value cut have a
    closed-form residual; only the others need singular vectors.
    """
    x, y = data.x, data.y
    p = data.dim
    if x.shape[1] >= p:
        r = np.linalg.qr(np.concatenate([x, y[:, :, None]], axis=2), mode="r")
        mat, rhs = r[:, :, :p], r[:, :, p]
    else:
        mat, rhs = np.linalg.qr(x.transpose(0, 2, 1), mode="r").transpose(0, 2, 1), y
    s = np.linalg.svd(mat, compute_uv=False)
    tol = np.finfo(float).eps * np.maximum(data.sizes, p) * s[:, 0]
    kept = s > tol[:, None]
    # a full-rank block reaches every coordinate of rhs but, when it has
    # p + 1 rows, the last one, which holds y's distance from X's columns
    resid_sq = rhs[:, p] ** 2 if mat.shape[1] > p else np.zeros(data.n_clients)
    cut = np.flatnonzero(~kept.all(axis=1))
    if cut.size:
        u, _, _ = np.linalg.svd(mat[cut], full_matrices=False)
        coef = np.matmul(rhs[cut, None, :], u)[:, 0, :] * kept[cut]
        resid = rhs[cut] - np.matmul(u, coef[:, :, None])[:, :, 0]
        resid_sq[cut] = np.einsum("ij,ij->i", resid, resid)
    return resid_sq / data.sizes


def problem_constants(
    shards: list[ClientShard] | PaddedShards,
    theta_0: np.ndarray,
    zeta: float,
    norm_kind: str = "l2",
    g_bound: float | None = None,
) -> ProblemConstants:
    """Compute curvature, heterogeneity and distance constants for a dataset.

    ``shards`` is the shard list or its ``PaddedShards`` store; the pooled
    design, its Gram matrix and the per-shard optima are read from the store.
    mu and lambda are the extreme eigenvalues of the pooled Hessian
    (2/n) X^T X. gamma_noniid = f* - sum_l (n_l/n) f_l* (clamped at 0 against
    rounding). The gradient bound defaults to the clip threshold ``zeta``
    (exact under L2 clipping, conservative under L1 since ||.||2 <= ||.||1);
    pass ``g_bound`` to override it, e.g. with a measured pilot-run maximum.

    A singular pooled Hessian (mu <= 0 numerically) is reported via
    ``assumptions_ok=False`` with mu forced to 0; simulation may proceed but
    bound computation is disabled.
    """
    if norm_kind not in CLIP_NORMS:
        raise ConfigError(f"unknown norm kind {norm_kind!r}")
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")

    data = PaddedShards.of(shards)
    n = data.n
    theta_0 = np.asarray(theta_0, dtype=float)
    if theta_0.shape != (data.dim,):
        raise ConfigError("theta_0 dimension does not match the dataset")

    hessian = (2.0 / n) * data.gram
    eigvals = np.linalg.eigvalsh(hessian)
    mu, lam = float(eigvals[0]), float(eigvals[-1])
    # the bound divides by mu^2, which must not underflow to zero either
    assumptions_ok = lam > 0 and mu > lam * 1e-12 and mu**2 > 0

    theta_star, f_star = _least_squares(data.pooled_x, data.pooled_y)
    weighted_local = float(data.weights @ _local_optimum_losses(data))
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

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
    "mse_gradient",
    "clip_gradient",
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
    ingestion). A shard is checked when ``PaddedShards.build`` stacks it; the
    shards of a store are row views of its pooled design.
    """

    client_id: int
    features: np.ndarray  # shape (n_l, d)
    targets: np.ndarray  # shape (n_l,)

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


def mse_gradient(theta: np.ndarray, shard: ClientShard) -> np.ndarray:
    """Exact gradient of the MSE (1/n_l) ||X theta - y||^2: (2/n_l) * X^T (X theta - y)."""
    theta = _as_theta(theta, shard)
    resid = shard.features @ theta - shard.targets
    return (2.0 / shard.n_l) * (shard.features.T @ resid)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for every row i along the last axis, each bitwise as ``a_i @ b_i``.

    One dot product per row: a matrix-vector product of the stacked rows
    would sum in another order.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _row_norms(g: np.ndarray, norm_kind: str) -> np.ndarray:
    if norm_kind == "l1":
        return np.abs(g).sum(axis=-1)
    if norm_kind == "l2":
        return np.sqrt(_row_dots(g, g))
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
    # a row at or below the threshold has norm/zeta <= 1 and is divided by
    # exactly 1.0, which leaves it unchanged
    norms = _row_norms(g, norm_kind)
    if (norms <= zeta).all():
        return g
    clipped = g / np.maximum(norms / zeta, 1.0)[..., None]
    norms = _row_norms(clipped, norm_kind)
    while (norms > zeta).any():
        clipped = clipped / np.maximum(norms / zeta, 1.0)[..., None]
        norms = _row_norms(clipped, norm_kind)
    return clipped


def _least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ theta - y
    return theta, float(resid @ resid) / X.shape[0]


@dataclass(frozen=True, eq=False)
class PaddedShards:
    """A federated dataset: N clients' shards, stacked once in client-id order.

    ``pooled_x``/``pooled_y`` are the shards concatenated: the pooled design.
    ``x``/``y`` hold client l's data in ``x[l]``/``y[l]``, zero-padded to the
    largest shard; zero rows add nothing to a residual, a gradient, a loss or
    a least-squares solution, so a pool is the slice of its id block. When
    every shard has the same size, ``x``/``y`` are views of the pooled arrays;
    otherwise they take N * max(n_l) * p more floats. That is all a store
    costs beyond its pooled design: the dataset builders write their rows
    into the one pooled design they allocate and return its store
    (``from_pooled``), and the per-shard optima of ``problem_constants`` read
    ``x`` without copying it when max(n_l) < p. ``build`` stacks a list of
    shards into a new store.
    n-bar-squared, the Gram matrix, the loss form, the ``shards`` views and
    the per-client ``local_stats`` (H_l, h_l) of the Gram-form gradient are
    computed on first use and kept. The loss form is the one pooled
    least-squares solve: ``lstsq`` on the p x p Gram matrix, refined once with
    the pooled residual; ``problem_constants`` reads theta* and f* from it and
    ``losses`` expands around it. The local steps use ``local_stats`` only
    when p <= max(n_l) (``pool_gradient``), so a store with shards shorter
    than p never builds them, and a built one holds N * p^2 floats for H, no
    more than ``x``.
    """

    x: np.ndarray  # (N, n_max, p)
    y: np.ndarray  # (N, n_max)
    pooled_x: np.ndarray  # (n, p)
    pooled_y: np.ndarray  # (n,)
    sizes: np.ndarray  # (N,) shard sizes as floats
    weights: np.ndarray  # (N,) aggregation weights n_l / n
    n: int

    @classmethod
    def from_pooled(cls, features, targets, sizes) -> "PaddedShards":
        """The store of the shards that split a pooled design into consecutive row blocks.

        Client l holds the ``sizes[l]`` rows of ``features``/``targets`` that
        follow those of clients 0..l-1. The store keeps the pooled arrays
        given, without copying them. This is where a dataset is checked: at
        least one shard, at least one row in each, sizes summing to the row
        count, 2-D features and 1-D targets with one row count, and every
        value finite.
        """
        pooled_x = np.asarray(features, dtype=float)
        pooled_y = np.asarray(targets, dtype=float)
        counts = np.asarray(sizes, dtype=int)
        if not counts.size:
            raise ConfigError("dataset must contain at least one shard")
        if pooled_x.ndim != 2:
            raise ConfigError("features must be a 2-D array")
        if pooled_y.ndim != 1 or pooled_x.shape[0] != pooled_y.shape[0]:
            raise ConfigError("feature row count must equal target count")
        n = pooled_y.shape[0]
        if counts.sum() != n:
            raise ConfigError(f"shard sizes sum to {counts.sum()}, not to the {n} rows")
        if counts.min() < 1:
            raise ConfigError(
                f"every shard needs at least one row: {counts.size} shards, {n} rows"
            )
        _check_finite(pooled_x, "features")
        _check_finite(pooled_y, "targets")
        shape = (counts.size, int(counts.max()))
        if (counts == shape[1]).all():
            x, y = pooled_x.reshape(*shape, -1), pooled_y.reshape(shape)
        else:
            rows = np.arange(shape[1]) < counts[:, None]
            x, y = np.zeros(shape + pooled_x.shape[1:]), np.zeros(shape)
            x[rows], y[rows] = pooled_x, pooled_y
        sizes = counts.astype(float)
        return cls(x=x, y=y, pooled_x=pooled_x, pooled_y=pooled_y, sizes=sizes,
                   weights=sizes / n, n=n)

    @classmethod
    def build(cls, shards: list[ClientShard]) -> "PaddedShards":
        """Stack shards whose client ids are exactly 0..N-1, in any order, into a new store.

        The shards' rows are copied into a new pooled design, which
        ``from_pooled`` checks.
        """
        shards = sorted(shards, key=lambda s: s.client_id)
        if [s.client_id for s in shards] != list(range(len(shards))):
            raise ConfigError("shard client ids must be exactly 0..N-1")
        if len({s.features.shape[1:] for s in shards}) > 1:
            raise ConfigError("all shards must share one feature dimension")
        if not shards:  # no design to concatenate; the constructor rejects it
            return cls.from_pooled(np.empty((0, 0)), np.empty(0), [])
        return cls.from_pooled(np.concatenate([s.features for s in shards]),
                               np.concatenate([s.targets for s in shards]),
                               [s.n_l for s in shards])

    @property
    def n_clients(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    @cached_property
    def shards(self) -> list[ClientShard]:
        """Every client's ``ClientShard``, in id order: row views of the pooled design.

        The per-shard oracles of ``dpfedsim.reference`` read these.
        """
        stops = np.cumsum(self.sizes).astype(int).tolist()
        return [ClientShard(cid, self.pooled_x[start:stop], self.pooled_y[start:stop])
                for cid, (start, stop) in enumerate(zip([0] + stops[:-1], stops))]

    @cached_property
    def n_bar_sq(self) -> float:
        """The mean squared shard size (1/N) * sum n_l^2, an exact integer sum."""
        return float(self.sizes @ self.sizes) / self.n_clients

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X of the pooled design."""
        return self.pooled_x.T @ self.pooled_x

    @cached_property
    def local_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Every client's H_l = (2/n_l) X_l'X_l and h_l = (2/n_l) X_l'y_l: (N, p, p) and (N, p).

        The MSE gradient of client l at theta is H_l theta - h_l; the zero
        rows of the padded stack add exact zeros to both sums.
        """
        scale = (2.0 / self.sizes)[:, None]
        x_t = self.x.transpose(0, 2, 1)
        hess = np.matmul(x_t, self.x)
        hess *= scale[:, :, None]
        return hess, scale * np.matmul(x_t, self.y[..., None])[..., 0]

    def pool_gradient(self, pool: slice):
        """The MSE gradient map of the clients in ``pool``: (R, b, p) parameters to gradients.

        Row i of a repeat's block holds the parameters of client
        ``pool.start + i``; a (R, 1, p) block broadcasts over the pool. When
        p <= max(n_l) each call is one batched p x p matvec with the cached
        ``local_stats``, the pool's slice of a stack no larger than the
        padded ``x``. Otherwise the per-client statistics would outgrow the
        shards and cost more per step than the residual form
        (2/n_l) X_l'(X_l theta - y_l), which reads ``x`` directly and never
        builds them.
        """
        if self.dim <= self.x.shape[1]:
            hess, lin = (stat[pool] for stat in self.local_stats)
            return lambda block: np.matmul(hess, block[..., None])[..., 0] - lin
        x, y = self.x[pool], self.y[pool]
        x_t = x.transpose(0, 2, 1)
        scale = (2.0 / self.sizes[pool])[:, None]

        def residual_form(block: np.ndarray) -> np.ndarray:
            resid = np.matmul(x, block[..., None])[..., 0] - y
            return scale * np.matmul(x_t, resid[..., None])[..., 0]

        return residual_form

    @cached_property
    def _loss_form(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        # the one pooled least-squares solve, on the Gram matrix, refined once
        # with the pooled residual; problem_constants builds it for theta* and f*
        x, y, gram = self.pooled_x, self.pooled_y, self.gram
        theta_ref = np.linalg.lstsq(gram, x.T @ y, rcond=None)[0]
        theta_ref = theta_ref - np.linalg.lstsq(gram, x.T @ (x @ theta_ref - y), rcond=None)[0]
        resid = x @ theta_ref - y
        return gram, theta_ref, float(resid @ resid), x.T @ resid

    def losses(self, thetas: np.ndarray) -> np.ndarray:
        """Pooled loss (1/n) ||X theta - y||^2 over every client's samples, per row of ``thetas``.

        Expanded around the near-optimal theta_ref with d = theta - theta_ref:
        ||X theta - y||^2 = L_ref + 2 d'g + d'G d, where G = X'X and L_ref and
        g = X'(X theta_ref - y) are computed from the residual. L_ref and d'G d
        are non-negative and g is close to zero, so the sum does not cancel the
        way theta'G theta - 2 c'theta + y'y does when the loss is far below
        y'y / n. Each row's loss is bitwise what a (p,) theta alone gives.
        """
        gram, theta_ref, loss_ref, grad_ref = self._loss_form
        d = thetas - theta_ref
        d_gram = np.matmul(d[..., None, :], gram)[..., 0, :]
        return (loss_ref + 2.0 * _row_dots(d, grad_ref) + _row_dots(d_gram, d)) / self.n


def _local_optimum_losses(data: PaddedShards) -> np.ndarray:
    """Every shard's f_l* = min ||X_l theta - y_l||^2 / n_l, as ``reference.local_optimum``.

    Batched over the padded stack, each (n_max, p) block X read through a
    matrix with X's singular values and left singular vectors. When
    n_max >= p that is R of a QR of [X y], which factors the long side away
    and turns y into coordinates in an orthonormal basis. Otherwise the block
    is already short and is read as it is: no copy of the stack is made.
    Singular values at or below ``lstsq``'s rcond=None cut-off,
    eps * max(n_l, p) * s_max, count as zero. Shards with no value cut have a
    closed-form residual; only the others need singular vectors. The
    eigenvalues of the short side's Gram matrix, R'R or X X', cheaper than
    singular values, clear the well-conditioned blocks, so singular values
    are computed for the rest.
    """
    x, y = data.x, data.y
    p = data.dim
    if x.shape[1] >= p:
        r = np.linalg.qr(np.concatenate([x, y[:, :, None]], axis=2), mode="r")
        mat, rhs = r[:, :, :p], r[:, :, p]
        gram = np.matmul(mat.transpose(0, 2, 1), mat)
    else:
        mat, rhs = x, y
        gram = np.matmul(x, x.transpose(0, 2, 1))
    # a full-rank block reaches every coordinate of rhs but, when it has
    # p + 1 rows, the last one, which holds y's distance from X's columns
    resid_sq = rhs[:, p] ** 2 if mat.shape[1] > p else np.zeros(data.n_clients)
    # Gram eigenvalues spanning less than 1e8 put every singular value above
    # 1e-4 of the largest, far over the cut-off: only the other blocks may lose one
    eig = np.linalg.eigvalsh(gram)
    unsure = np.flatnonzero(~(eig[:, 0] > 1e-8 * eig[:, -1]))
    if not unsure.size:
        return resid_sq / data.sizes
    s = np.linalg.svd(mat[unsure], compute_uv=False)
    tol = np.finfo(float).eps * np.maximum(data.sizes[unsure], p) * s[:, 0]
    kept = s > tol[:, None]
    lossy = ~kept.all(axis=1)
    cut = unsure[lossy]
    if cut.size:
        u, _, _ = np.linalg.svd(mat[cut], full_matrices=False)
        coef = np.matmul(rhs[cut, None, :], u)[:, 0, :] * kept[lossy]
        resid = rhs[cut] - np.matmul(u, coef[:, :, None])[:, :, 0]
        resid_sq[cut] = np.einsum("ij,ij->i", resid, resid)
    return resid_sq / data.sizes


def problem_constants(data: PaddedShards, theta_0: np.ndarray, zeta: float) -> ProblemConstants:
    """Compute curvature, heterogeneity and distance constants for a dataset.

    The pooled design, its Gram matrix and the per-shard optima are read from
    the ``PaddedShards`` store ``data``. mu and lambda are the extreme
    eigenvalues of the pooled Hessian (2/n) X^T X. theta* and f* come from the
    store's pooled solve on the Gram matrix, whose refinement step keeps theta*
    within the forward error of ``lstsq`` on the pooled design; only a singular
    Hessian runs that ``lstsq`` on the n x p design, for its minimum-norm
    solution. gamma_noniid = f* - sum_l (n_l/n) f_l* (clamped at 0 against
    rounding). The gradient bound is the clip threshold ``zeta``: exact under
    L2 clipping, conservative under L1 since ||.||2 <= ||.||1. A tighter bound,
    such as a measured pilot-run maximum, goes in with ``dataclasses.replace``.

    The pooled Hessian counts as singular when lambda <= 0, when
    mu <= 1e-12 * lambda, or when mu^2 underflows to 0 (the bound divides by
    it). That is reported via ``assumptions_ok=False`` with mu forced to 0:
    simulation may proceed but bound computation is disabled, and the same
    rule is what sends theta* and f* to ``lstsq`` on the n x p design. A p x p
    work array that cannot be allocated is a ``ConfigError``.
    """
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")

    n = data.n
    theta_0 = np.asarray(theta_0, dtype=float)
    if theta_0.shape != (data.dim,):
        raise ConfigError("theta_0 dimension does not match the dataset")

    try:
        eigvals = np.linalg.eigvalsh((2.0 / n) * data.gram)
        mu, lam = float(eigvals[0]), float(eigvals[-1])
        # the bound divides by mu^2, which must not underflow to zero either
        assumptions_ok = lam > 0 and mu > lam * 1e-12 and mu**2 > 0
        if assumptions_ok:
            _, theta_star, loss_star, _ = data._loss_form
            f_star = loss_star / n
    except MemoryError as exc:
        raise ConfigError(f"the pooled p x p Gram matrix of p = {data.dim}, p² = "
                          f"{data.dim**2} floats, cannot be allocated: {exc}") from None
    if not assumptions_ok:
        theta_star, f_star = _least_squares(data.pooled_x, data.pooled_y)
    weighted_local = float(data.weights @ _local_optimum_losses(data))
    gamma_noniid = max(0.0, f_star - weighted_local)

    diff = theta_0 - theta_star
    return ProblemConstants(
        mu=mu if assumptions_ok else 0.0,
        lam=lam,
        g_bound=float(zeta),
        gamma_noniid=gamma_noniid,
        f_star=f_star,
        theta_star=theta_star,
        y0=float(diff @ diff),
        assumptions_ok=assumptions_ok,
    )

"""Linear-regression losses, gradients, clipping and closed-form problem constants.

Every function here is pure: inputs are never mutated and repeated calls with
the same arguments are bitwise reproducible. All reductions over samples and
clients run in ascending index order. The local-step states that
``PaddedShards.local_steps`` returns change only arrays of their own.
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
    "pool_kernel",
    "problem_constants",
]


class ConfigError(ValueError):
    """Invalid configuration or arguments that violate an operation's contract."""


# the norms a gradient can be clipped in
CLIP_NORMS = ("l1", "l2")

# the element count that bounds a work array built over many clients or
# repeats: the engine's chunks of repeats, counting padded lanes (``engine``),
# and the client chunks of the per-shard QR (``_local_optimum_losses``).
# Chunking changes no byte.
CHUNK_ELEMENTS = 4_000_000

# the element count that bounds the chunk of Gram matrices whose conditioning
# ``_local_optimum_losses`` tests with one Cholesky factorisation: each chunk's
# Gram matrices and their factor are new arrays, so a chunk stays small next to
# the stack. The chunks change no byte.
GATE_ELEMENTS = 2**11


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
    the start theta = 0 from the global optimum. ``assumptions_ok`` is False
    when the pooled Hessian is (numerically) singular, which disables bound
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


# the factor by which ``clip_gradient`` rounds a ratio norm/zeta > 1 up, so a
# rescaled row's recomputed norm lands at zeta/_CLIP_MARGIN rather than a few
# ulps above zeta, which costs another norm pass. At 2 eps a row of the
# benchmark's step shapes can still land above zeta; at 4 eps none does
_CLIP_MARGIN = 1.0 + 4 * np.finfo(float).eps


def clip_gradient(g: np.ndarray, zeta: float, norm_kind: str = "l2",
                  row_norms=_row_norms) -> np.ndarray:
    """Rescale ``g`` to g / max(1, ||g||/zeta) so its norm never exceeds ``zeta``.

    Direction is preserved. A row whose norm exceeds the threshold is divided
    by its ratio ||g||/zeta rounded up by the margin 1 + 4 eps, so its clipped
    norm is zeta/(1 + 4 eps) up to rounding; a row at or below the threshold
    is divided by exactly 1.0, which returns it bitwise unchanged, so the map
    is idempotent bitwise. The renormalisation loop that follows divides
    again each row whose recomputed norm is still above zeta: a guard that
    rarely iterates, so that every returned row's recomputed norm is <= zeta
    in floating point. A row with a NaN norm is divided by NaN, which makes
    it all NaN, and is not divided again. An array of shape (..., p) is
    clipped row by row along its last axis, each row bitwise as if clipped
    on its own; it is returned unchanged when no row exceeds the threshold.
    ``row_norms(rows, norm_kind)`` gives the norm of each row that the loop
    bounds by zeta; a row may hold the coordinates of a gradient rather than
    the gradient itself, as in the dual form of a local step
    (``_DualSteps``), whose norms are those of the gradients the rows stand
    for.
    """
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")
    g = np.asarray(g, dtype=float)
    norms = row_norms(g, norm_kind)
    within = norms <= zeta
    if within.all():
        return g
    # the ratio rounded up is norm/(zeta/_CLIP_MARGIN): zeta/_CLIP_MARGIN is
    # finite and nonzero for every zeta > 0, where _CLIP_MARGIN/zeta could
    # overflow and turn a zero norm's 0 * inf into NaN
    target = zeta / _CLIP_MARGIN
    clipped = g / np.where(within, 1.0, norms / target)[..., None]
    norms = row_norms(clipped, norm_kind)
    while (over := norms > zeta).any():
        clipped = clipped / np.where(over, norms / target, 1.0)[..., None]
        norms = row_norms(clipped, norm_kind)
    return clipped


def _least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ theta - y
    return theta, float(resid @ resid) / X.shape[0]


# the repeats of a local step are GEMM columns padded to a multiple of this
# (why: ``PaddedShards.local_steps``)
LANES = 8


class _RowSteps:
    """A pool's local steps on its (R, b, p) parameter block, one matrix product per client.

    Repeat r is column r of one C-contiguous (b, p, L) lane block with
    L = LANES * ceil(R / LANES), allocated here; its pad lanes stay zero. A
    gradient writes the parameters into lanes [:R]; ``product`` maps the lane
    block to a new (b, p, L) block, one matrix product per client, and
    ``finish``, one elementwise ufunc with ``order="C"``, maps the (R, b, p)
    view of its lanes [:R] to the new C-contiguous gradients: the copy back to
    rows costs no extra pass.
    """

    row_norms = staticmethod(_row_norms)

    def __init__(self, product, finish, theta: np.ndarray, clients: int):
        repeats, dim = theta.shape
        self._product, self._finish = product, finish
        self._lanes = np.zeros((clients, dim, -(-repeats // LANES) * LANES))
        self._view = self._lanes[..., :repeats].transpose(2, 0, 1)
        # a repeat's theta broadcasts over the pool until the first step gives each client a row
        self._block = theta[:, None, :]

    def gradient(self) -> np.ndarray:
        self._view[...] = self._block
        return self._finish(self._product(self._lanes)[..., :len(self._view)].transpose(2, 0, 1))

    def step(self, rate: float, grad: np.ndarray) -> None:
        self._block = self._block - rate * grad

    def params(self) -> np.ndarray:
        return self._block


def pool_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every client's K_l = X_l X_l' for a pool's (b, n_max, p) slice of ``PaddedShards.x``, and slack.

    The slack is (p + 2 n_max + 1) eps tr(K_l), as a (b, 1) column: the
    bound on the rounding of g'K_l g per unit ||g||^2 that ``_DualSteps``
    tests its norms against. The product depends on the pool alone, so the
    engine builds the next round's kernel while the current round steps.
    """
    kernel = np.matmul(x, x.transpose(0, 2, 1))
    trace = kernel.reshape(len(x), -1)[:, ::x.shape[1] + 1].sum(axis=1)
    return kernel, ((x.shape[2] + 2 * x.shape[1] + 1) * np.finfo(float).eps * trace)[:, None]


class _DualSteps:
    """A pool's L2-clipped local steps in the span of each client's rows, for p > max(n_l).

    Client l's parameters are theta_s + X_l' a_l, where theta_s is its
    repeat's server row, so its gradient is X_l' g_l with the dual gradient
    g_l = (2/n_l)(X_l theta - y_l) of n_max entries, and a step a_l -= eta c_l,
    with c_l the clipped g_l, moves g_l by -eta (2/n_l) K_l c_l, where
    K_l = X_l X_l' comes from ``pool_kernel``: passed in when built ahead,
    else built here. So a step costs (n_max, n_max) products per client where
    the residual form costs two (n_max, p) ones, and the parameters cost one
    (n_max, p) product, formed only when ``params`` asks. The repeats are the
    rows of C-contiguous (b, L, n_max) blocks, zero in the pad rows, which the
    clip loop reads as they are, and every product is one GEMM per client
    over them (why: ``local_steps``).

    ``row_norms`` gives the clip loop the L2 norms of the gradients X_l' g_l
    from K_l: g'K g is ||X'g||^2 up to a rounding of at most
    (p + 2 n_max + 1) eps tr(K) ||g||^2. A row whose bound is not below
    1e-10 g'K g, as when g lies near the null space of a singular K_l or
    g'K g rounds below 0, takes the norm of its formed gradient instead. So a
    clipped gradient's norm is at most zeta (1 + 1e-10), not at most zeta.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, scale: np.ndarray, theta: np.ndarray,
                 kernel: tuple[np.ndarray, np.ndarray] | None = None):
        self._repeats, dim = theta.shape
        self._x = x
        self._kernel, self._slack = pool_kernel(x) if kernel is None else kernel
        self._scale = scale[:, None, None]
        self._server = np.zeros((-(-self._repeats // LANES) * LANES, dim))
        self._server[:self._repeats] = theta
        dual = np.matmul(self._server, x.transpose(0, 2, 1))
        dual[:, :self._repeats] -= y[:, None, :]
        dual *= self._scale
        self._dual = dual
        self._coef = np.zeros_like(dual)
        self._moves = None

    def gradient(self) -> np.ndarray:
        return self._dual

    def _moved(self, rows: np.ndarray) -> np.ndarray:
        """c K_l for a (b, L, n_max) block c, kept for the last block asked."""
        if self._moves is None or self._moves[0] is not rows:
            self._moves = (rows, np.matmul(rows, self._kernel))
        return self._moves[1]

    def row_norms(self, rows: np.ndarray, norm_kind: str) -> np.ndarray:
        # L2 whatever norm_kind says: ``local_steps`` builds no other dual steps
        # in order over n_max, per row
        quad = np.einsum("bln,bln->bl", rows, self._moved(rows))
        # a quad below 0 is unsure too
        unsure = 1e-10 * quad < self._slack * np.einsum("bln,bln->bl", rows, rows)
        if unsure.any():
            formed = np.matmul(rows, self._x)
            quad = np.where(unsure, _row_dots(formed, formed), quad)
        return np.sqrt(quad)

    def step(self, rate: float, grad: np.ndarray) -> None:
        self._coef -= rate * grad
        self._dual = self._dual - (rate * self._scale) * self._moved(grad)

    def params(self) -> np.ndarray:
        theta = np.matmul(self._coef, self._x)
        theta += self._server
        return np.ascontiguousarray(theta[:, :self._repeats].transpose(1, 0, 2))


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
    ``losses`` expands around it. The local steps (``local_steps``) use
    ``local_stats`` only when p <= max(n_l), so a built one holds N * p^2
    floats for H, no more than ``x``. A store with shards shorter than p
    never builds them: its steps read ``x``, and its L2 steps use each
    pool's n_max x n_max matrices X_l X_l' (``pool_kernel``), which the
    engine builds one round ahead and keeps no longer than two rounds.
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

    def step_form(self, norm_kind: str) -> str:
        """The form of ``local_steps`` under clip norm ``norm_kind``: "gram", "dual" or "residual"."""
        if self.dim <= self.x.shape[1]:
            return "gram"
        return "dual" if norm_kind == "l2" else "residual"

    def local_steps(self, pool: slice, theta: np.ndarray, norm_kind: str = "l2",
                    kernel: tuple[np.ndarray, np.ndarray] | None = None):
        """The local-step state of the clients in ``pool``, each starting from its repeat's row of ``theta``.

        ``theta`` is the (R, p) block of the repeats' server parameters. The
        state gives the clip loop a block of gradient rows (``gradient``) and
        the norms of the gradients they stand for (``row_norms``), takes a
        clipped block as a step (``step``), and gives the (R, b, p)
        parameters (``params``), row i of a repeat for client
        ``pool.start + i``. In Gram and residual form a gradient row is the
        gradient itself; in dual form it is its coordinates in X_l's rows.

        This is where the form of the steps is chosen, by ``step_form``. When
        p <= max(n_l) it is the Gram form H_l theta - h_l, with the cached
        ``local_stats``, the pool's slice of a stack no larger than the padded
        ``x``. Otherwise the statistics would outgrow the shards and cost more
        per step than reading them, so the steps read the pool's slice of
        ``x`` and build nothing that is kept: under L2 clipping in the span of
        each client's rows (``_DualSteps``), and under L1 clipping, whose norm
        needs every gradient formed, in the residual form
        (2/n_l) X_l'(X_l theta - y_l).
        The dual form takes the pool's ``pool_kernel(x[pool])`` as ``kernel``
        when it was built ahead, and builds it in line when none is given; the
        other forms ignore ``kernel``.

        Each matrix-vector product of a form is taken for all repeats at once,
        as one matrix product per client whose columns are the repeats. R is
        padded with zero columns to a multiple of LANES = 8, because OpenBLAS
        gives a GEMM column the same bits only across column counts that are
        multiples of 8: so repeat r gets the bits it gets alone, for any R, and
        a one-repeat call pays for 8 columns (at p = 200, n_l = 50 and b = 20
        about 130 us, against 55 us for one matvec per client). On a BLAS
        without that column property the lane tests of the kernel fail. With
        L lanes a round's steps cost O(L b p^2 E) in Gram form,
        O(L b (n_max^2 E + n_max p)) in dual form plus O(b n_max^2 p) for the
        pool's K_l, and O(L b n_max p E) in residual form.
        """
        form = self.step_form(norm_kind)
        if form == "gram":
            hess, lin = (stat[pool] for stat in self.local_stats)
            return _RowSteps(lambda lanes: np.matmul(hess, lanes),
                             lambda rows: np.subtract(rows, lin, order="C"), theta, len(hess))
        x, y, scale = self.x[pool], self.y[pool], 2.0 / self.sizes[pool]
        if form == "dual":
            return _DualSteps(x, y, scale, theta, kernel)
        x_t = x.transpose(0, 2, 1)

        def residual_form(lanes: np.ndarray) -> np.ndarray:
            resid = np.matmul(x, lanes)
            resid -= y[..., None]
            return np.matmul(x_t, resid)

        return _RowSteps(residual_form, lambda rows: np.multiply(rows, scale[:, None], order="C"),
                         theta, len(x))

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


def _unsure_blocks(mat: np.ndarray) -> np.ndarray:
    """Indices of the (k, p) blocks of ``mat`` that the Cholesky gate does not clear.

    The gate factors G - 1e-8 tr(G) I for a chunk of at most GATE_ELEMENTS
    floats of the blocks' short-side Gram matrices G. A factor puts all of a
    G's eigenvalues above 1e-8 tr(G), at least 1e-8 of its largest, so every
    singular value of the block above 1e-4 of the largest, far over any rcond
    cut-off: the chunk is cleared. A chunk without a factor is unsure whole.
    """
    tall = mat.shape[1] >= mat.shape[2]
    side = min(mat.shape[1:])
    step = max(1, GATE_ELEMENTS // side**2)
    unsure = np.zeros(len(mat), dtype=bool)
    for lo in range(0, len(mat), step):
        chunk = mat[lo:lo + step]
        gram = (np.matmul(chunk.transpose(0, 2, 1), chunk) if tall
                else np.matmul(chunk, chunk.transpose(0, 2, 1)))
        diag = gram.reshape(len(gram), -1)[:, ::side + 1]
        diag -= 1e-8 * diag.sum(axis=1, keepdims=True)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            unsure[lo:lo + step] = True
    return np.flatnonzero(unsure)


def _local_optimum_losses(data: PaddedShards) -> np.ndarray:
    """Every shard's f_l* = min ||X_l theta - y_l||^2 / n_l, as ``reference.local_optimum``.

    Batched over the padded stack, each (n_max, p) block X read through a
    matrix with X's singular values and left singular vectors. When
    n_max >= p that is R of a QR of [X y], which factors the long side away
    and turns y into coordinates in an orthonormal basis; the QR runs on
    chunks of clients whose [X y] holds at most CHUNK_ELEMENTS, so its two
    copies of [X y] never exceed two chunks. Otherwise the block
    is already short and is read as it is: no copy of the stack is made.
    Singular values at or below ``lstsq``'s rcond=None cut-off,
    eps * max(n_l, p) * s_max, count as zero. Shards with no value cut have a
    closed-form residual; only the others need singular vectors. Singular
    values are computed only for the blocks of the client chunks that one
    Cholesky factorisation of their short side's Gram matrices, R'R or X X',
    does not clear (``_unsure_blocks``), far cheaper than their eigenvalues:
    a chunk with one rank-deficient block pays an SVD for each of its blocks.
    The SVD alone decides a cut, so the gate moves no byte.
    """
    x, y = data.x, data.y
    p = data.dim
    if x.shape[1] >= p:
        # [X y] and the copy qr makes of it, in chunks of clients; a QR of a
        # stack is one QR per block, so the chunks change no byte
        step = max(1, CHUNK_ELEMENTS // (x.shape[1] * (p + 1)))
        r = np.concatenate([
            np.linalg.qr(np.concatenate([x[lo:lo + step], y[lo:lo + step, :, None]], axis=2),
                         mode="r")
            for lo in range(0, data.n_clients, step)
        ])
        mat, rhs = r[:, :, :p], r[:, :, p]
    else:
        mat, rhs = x, y
    # a full-rank block reaches every coordinate of rhs but, when it has
    # p + 1 rows, the last one, which holds y's distance from X's columns
    resid_sq = rhs[:, p] ** 2 if mat.shape[1] > p else np.zeros(data.n_clients)
    unsure = _unsure_blocks(mat)
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


def problem_constants(data: PaddedShards, zeta: float) -> ProblemConstants:
    """Compute curvature, heterogeneity and distance constants for a dataset.

    The pooled design, its Gram matrix and the per-shard optima are read from
    the ``PaddedShards`` store ``data``. mu and lambda are the extreme
    eigenvalues of the pooled Hessian (2/n) X^T X. theta* and f* come from the
    store's pooled solve on the Gram matrix, whose refinement step keeps theta*
    within the forward error of ``lstsq`` on the pooled design; only a singular
    Hessian runs that ``lstsq`` on the n x p design, for its minimum-norm
    solution. gamma_noniid = f* - sum_l (n_l/n) f_l* (clamped at 0 against
    rounding). y0 = theta* . theta* is the squared distance of every run's
    start theta = 0 from theta*. The gradient bound is the clip threshold
    ``zeta``: exact under L2 clipping, conservative under L1 since
    ||.||2 <= ||.||1. A tighter bound, such as a measured pilot-run maximum,
    goes in with ``dataclasses.replace``.

    The pooled Hessian counts as singular when lambda <= 0, when
    mu <= 1e-12 * lambda, or when mu^2 underflows to 0 (the bound divides by
    it). That is reported via ``assumptions_ok=False`` with mu forced to 0:
    simulation may proceed but bound computation is disabled, and the same
    rule is what sends theta* and f* to ``lstsq`` on the n x p design. A p x p
    work array that cannot be allocated, and a pooled Hessian with entries
    past the float range (features near 1e154 and above), are a ``ConfigError``.
    """
    if not zeta > 0:
        raise ConfigError("clip threshold zeta must be > 0")

    n = data.n
    try:
        with np.errstate(over="ignore"):
            hessian = (2.0 / n) * data.gram
        if not np.isfinite(hessian).all():
            raise ConfigError(
                f"the pooled Hessian (2/n) X'X overflows float64: the features reach "
                f"|x| = {np.abs(data.pooled_x).max():.3g}, too large to square; rescale them")
        eigvals = np.linalg.eigvalsh(hessian)
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

    return ProblemConstants(
        mu=mu if assumptions_ok else 0.0,
        lam=lam,
        g_bound=float(zeta),
        gamma_noniid=gamma_noniid,
        f_star=f_star,
        theta_star=theta_star,
        y0=float(theta_star @ theta_star),
        assumptions_ok=assumptions_ok,
    )

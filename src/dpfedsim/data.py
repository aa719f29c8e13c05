"""Synthetic non-IID regression generators, CSV ingestion and shard assignment.

Record convention: a record array is a 2-D float array whose last column is
the regression target and whose remaining columns are raw features. Shard
builders append a constant-1 bias column to the features by default, so the
fitted parameter vector has one entry per feature plus an intercept.
"""
from __future__ import annotations

import csv
import operator
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .regression import ClientShard, ConfigError

__all__ = [
    "FederatedDataset",
    "synth_regression",
    "sorted_partition",
    "load_csv",
    "csv_column_indices",
]


@dataclass(frozen=True)
class FederatedDataset:
    """A fixed assignment of samples to clients 0..N-1."""

    shards: list[ClientShard]

    def __post_init__(self):
        ids = [s.client_id for s in self.shards]
        if sorted(ids) != list(range(len(self.shards))):
            raise ConfigError("shard client ids must be exactly 0..N-1, each once")
        dims = {s.dim for s in self.shards}
        if len(dims) != 1:
            raise ConfigError("all shards must share one feature dimension")
        object.__setattr__(
            self, "shards", sorted(self.shards, key=lambda s: s.client_id)
        )

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def n(self) -> int:
        return sum(s.n_l for s in self.shards)

    @property
    def n_bar_sq(self) -> float:
        return sum(s.n_l**2 for s in self.shards) / self.n_clients

    @property
    def dim(self) -> int:
        """Width of the design matrix (bias column included when present)."""
        return self.shards[0].dim


def _with_bias(features: np.ndarray, add_bias: bool) -> np.ndarray:
    if not add_bias:
        return features
    return np.column_stack([features, np.ones(features.shape[0])])


def synth_regression(
    n_clients: int,
    n_per_client: int,
    n_features: int,
    heterogeneity: float,
    noise_std: float,
    seed: int,
    add_bias: bool = True,
) -> FederatedDataset:
    """Generate N equally sized shards with a tunable degree of non-IID.

    A global true parameter is drawn once; each client regresses against its
    own parameter ``theta_true + heterogeneity * offset_l`` on standard-normal
    features, plus observation noise. ``heterogeneity=0`` makes every shard an
    IID draw from one model, so the non-IID degree vanishes up to sampling
    noise (exactly, when ``noise_std=0``). Deterministic per seed.
    """
    if n_clients < 1 or n_per_client < 1 or n_features < 1:
        raise ConfigError("n_clients, n_per_client and n_features must be >= 1")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ConfigError("heterogeneity must lie in [0, 1]")
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    rng = np.random.default_rng(seed)
    dim = n_features + 1 if add_bias else n_features
    theta_true = rng.standard_normal(dim)
    shards = []
    for cid in range(n_clients):
        theta_l = theta_true + heterogeneity * rng.standard_normal(dim)
        raw = rng.standard_normal((n_per_client, n_features))
        design = _with_bias(raw, add_bias)
        targets = design @ theta_l + noise_std * rng.standard_normal(n_per_client)
        shards.append(ClientShard(cid, design, targets))
    return FederatedDataset(shards)


def sorted_partition(
    records: np.ndarray,
    sort_key_index: int,
    n_clients: int,
    add_bias: bool = True,
) -> FederatedDataset:
    """Sort records by one column ascending and split them into N contiguous shards.

    Groups are as even as possible: the first (count mod N) shards get one
    extra record. Sorting is stable, so ties keep their input order and the
    assignment is deterministic.
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[1] < 2:
        raise ConfigError("records must be 2-D with at least one feature and a target")
    if records.shape[0] < n_clients:
        raise ConfigError(
            f"need at least {n_clients} records to form {n_clients} shards, "
            f"got {records.shape[0]}"
        )
    ordered = records[np.argsort(records[:, sort_key_index], kind="stable")]
    # every shard is a row slice of one design and one target array
    design, targets = _with_bias(ordered[:, :-1], add_bias), ordered[:, -1].copy()
    base, extra = divmod(records.shape[0], n_clients)
    shards = []
    start = 0
    for cid in range(n_clients):
        stop = start + base + (1 if cid < extra else 0)
        shards.append(ClientShard(cid, design[start:stop], targets[start:stop]))
        start = stop
    return FederatedDataset(shards)


def _column_index(header: list[str], column, what: str) -> int:
    """Resolve a column given by header name or by 0-based index.

    A header name wins; otherwise a non-negative integer, or a string of
    decimal digits, is a column index.
    """
    if isinstance(column, str):
        if column in header:
            return header.index(column)
        if not (column.isascii() and column.isdigit()):
            raise ConfigError(f"{what} {column!r} not found in CSV header {header}")
        column = int(column)
    if not 0 <= column < len(header):
        raise ConfigError(f"{what} index {column} out of range for CSV header {header}")
    return column


def _read_header(reader, path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty CSV, a header row is required") from None
    return [h.strip() for h in header]


@contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over the UTF-8 file at ``path``.

    Undecodable bytes and malformed or oversized fields end in a
    ``ConfigError`` naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from None


def csv_column_indices(path, columns) -> list[int]:
    """0-based header indices of CSV columns given by name or index, as ``load_csv`` resolves them."""
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
    return [_column_index(header, c, "column") for c in columns]


def _cell_picker(indices: list[int]):
    """A function giving the cells of a CSV row at ``indices`` as a tuple."""
    pick = operator.itemgetter(*indices)
    return pick if len(indices) > 1 else lambda row: (pick(row),)


def _nonfinite_line(path, pick) -> int:
    """1-based line where the first kept row with a nan or inf cell starts.

    Called once the first read has found such a row, so not finding it means
    the file changed in between.
    """
    with _csv_reader(path) as reader:
        next(reader)
        start = reader.line_num + 1
        for row in reader:
            try:
                values = tuple(map(float, pick(row)))
            except (ValueError, IndexError):
                values = ()  # a skipped row
            if not np.isfinite(values).all():
                return start
            start = reader.line_num + 1
    raise ConfigError(f"{path}: the CSV changed while it was read")


def load_csv(
    path,
    target_column,
    feature_columns=None,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Read a numeric CSV with header into (train, holdout) record arrays.

    Columns are named by header string or index; ``feature_columns=None``
    takes every column except the target. Rows with missing or non-numeric
    cells in the selected columns are skipped with a counted warning; a
    ``nan`` or ``inf`` cell in a kept row is a ``ConfigError`` naming its
    line. The kept rows are shuffled with the given seed and split at
    ``train_fraction``; records carry features first and the target last.

    The rows stream through the reader once: their selected cells go through
    ``float`` into one array of doubles, restarting only after a bad row, so
    no Python object per row or per value outlives its conversion.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction must lie in (0, 1]")
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
        target_idx = _column_index(header, target_column, "target column")
        if feature_columns is None:
            feature_idx = [i for i in range(len(header)) if i != target_idx]
        else:
            feature_idx = [
                _column_index(header, c, "feature column") for c in feature_columns
            ]
        if target_idx in feature_idx:
            raise ConfigError("the target column cannot also be a feature")

        pick = _cell_picker(feature_idx + [target_idx])
        width = len(feature_idx) + 1
        values = array("d")
        skipped = 0
        while True:
            try:
                # stops after a row with a missing or non-numeric cell
                values.extend(map(float, chain.from_iterable(map(pick, reader))))
                break
            except UnicodeDecodeError:
                raise  # the reader's own error, handled by _csv_reader
            except (ValueError, IndexError):
                skipped += 1
                # drop the bad row's cells converted before the failing one
                del values[len(values) - len(values) % width :]
    records = np.frombuffer(values).reshape(-1, width)
    if not np.isfinite(records).all():
        raise ConfigError(
            f"{path}: line {_nonfinite_line(path, pick)}: nan or inf cell in a selected column"
        )
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} rows with missing or non-numeric cells")
    if not records.shape[0]:
        raise ConfigError(f"{path}: no numeric rows after filtering")

    perm = np.random.default_rng(seed).permutation(records.shape[0])
    records = records[perm]
    n_train = int(round(train_fraction * records.shape[0]))
    return records[:n_train], records[n_train:]

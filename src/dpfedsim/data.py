"""Synthetic non-IID regression generators, CSV ingestion and shard assignment.

Record convention: a record array is a 2-D float array whose last column is
the regression target and whose remaining columns are raw features. Shard
builders put a constant-1 bias column after the features by default, so the
fitted parameter vector has one entry per feature plus an intercept. Each
builder writes its rows into one pooled design, the store's only copy.
"""
from __future__ import annotations

import csv
import operator
import warnings
from array import array
from contextlib import contextmanager
from itertools import chain, compress

import numpy as np
# numpy loads numpy.random on first use; importing it here loads it with the
# package, not inside the first data build
from numpy.random import default_rng

from .regression import ConfigError, PaddedShards

__all__ = [
    "synth_regression",
    "sorted_partition",
    "load_csv",
    "csv_sort_column",
]


def synth_regression(
    n_clients: int,
    n_per_client: int,
    n_features: int,
    heterogeneity: float,
    noise_std: float,
    seed: int,
    add_bias: bool = True,
) -> PaddedShards:
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
    dim = n_features + 1 if add_bias else n_features
    n = n_clients * n_per_client
    try:
        design, targets = np.empty((n, dim)), np.empty(n)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"the synthetic design of N·n_l·p = {n_clients}·{n_per_client}·{dim}"
                          f" = {n * dim} floats cannot be allocated: {exc}") from None
    if add_bias:
        design[:, -1] = 1.0
    rng = default_rng(seed)
    theta_true = rng.standard_normal(dim)
    for start in range(0, n, n_per_client):
        rows = slice(start, start + n_per_client)
        theta_l = theta_true + heterogeneity * rng.standard_normal(dim)
        design[rows, :n_features] = rng.standard_normal((n_per_client, n_features))
        targets[rows] = design[rows] @ theta_l + noise_std * rng.standard_normal(n_per_client)
    return PaddedShards.from_pooled(design, targets, [n_per_client] * n_clients)


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")``, from the default sort and a sort of the ties.

    The default sort is several times faster than the stable one but puts
    equal keys in any order. So the positions of every group of equal keys,
    and of the NaNs, which sort last but equal nothing, are sorted again by
    key and then by input index.
    """
    order = np.argsort(key)
    ranked = key[order]
    tied = np.isnan(ranked)
    equal = ranked[1:] == ranked[:-1]
    tied[1:] |= equal
    tied[:-1] |= equal
    group = order[tied]
    order[tied] = group[np.lexsort((group, key[group]))]
    return order


def sorted_partition(
    records: np.ndarray,
    sort_key_index: int,
    n_clients: int,
    add_bias: bool = True,
) -> PaddedShards:
    """Sort records by one column ascending and split them into N contiguous shards.

    Groups are as even as possible: the first (count mod N) shards get one
    extra record. The order is ``np.argsort(kind="stable")``'s, so ties keep
    their input order and the assignment is deterministic; it is taken from
    the faster default sort with only the tied keys sorted again
    (``_stable_order``). With a bias the full rows are gathered once, with
    ``np.take``, several times faster than fancy indexing.
    """
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[1] < 2:
        raise ConfigError("records must be 2-D with at least one feature and a target")
    order = _stable_order(records[:, sort_key_index])
    targets = records[order, -1]
    # one gather of the sorted rows: with a bias, their target column becomes the bias column
    if add_bias:
        features = np.take(records, order, axis=0)
        features[:, -1] = 1.0
    else:
        features = records[order, :-1]
    base, extra = divmod(records.shape[0], n_clients)
    return PaddedShards.from_pooled(features, targets,
                                    [base + 1] * extra + [base] * (n_clients - extra))


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


def csv_sort_column(path, sort_key, target_column, feature_columns=None) -> int:
    """Position of the ``sort_key`` column in the records ``load_csv`` reads with these columns."""
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
    columns = _selected_columns(header, target_column, feature_columns)
    index = _column_index(header, sort_key, "sort_key")
    if index not in columns:
        raise ConfigError(f"sort_key {sort_key!r} is neither the target column nor one of "
                          f"the feature columns {[header[i] for i in columns[:-1]]}")
    return columns.index(index)


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


def _selected_columns(header: list[str], target_column, feature_columns) -> list[int]:
    """Header indices of the selected columns: the features, then the target."""
    target_idx = _column_index(header, target_column, "target column")
    if feature_columns is None:
        feature_idx = [i for i in range(len(header)) if i != target_idx]
    else:
        feature_idx = [_column_index(header, c, "feature column") for c in feature_columns]
    if target_idx in feature_idx:
        raise ConfigError("the target column cannot also be a feature")
    return feature_idx + [target_idx]


def _read_rows(path, target_column, feature_columns) -> tuple[np.ndarray, int, list[int]]:
    """Records, skipped-row count and selected columns of any CSV, through ``csv.reader``.

    The rows stream through the reader once: their selected cells go through
    ``float`` into one array of doubles, restarting only after a bad row, so
    no Python object per row or per value outlives its conversion.
    """
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
        columns = _selected_columns(header, target_column, feature_columns)
        pick = _cell_picker(columns)
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
                del values[len(values) - len(values) % len(columns) :]
    return np.frombuffer(values).reshape(-1, len(columns)), skipped, columns


# A plain CSV has no quote, carriage return or NUL byte: ``csv.reader`` then
# reads each line as one row whose cells are the line split at its commas.
_PLAIN_BLOCK_BYTES = 1 << 17
# byte -> 0 in a number numpy's parser reads, 1 comma, 2 line break, 3 anything else
_BYTE_KINDS = bytes(
    0 if b in b"0123456789.eE+-" else 1 if b == ord(",") else 2 if b == ord("\n") else 3
    for b in range(256)
)


def _plain_text(data: bytes) -> str | None:
    """``data`` decoded, if it is UTF-8 without quotes, carriage returns or NUL bytes."""
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _plain_block(data: bytes, width: int, columns: list[int]):
    """Records and skipped-row count of whole lines of a plain CSV, or None if not plain.

    A line of exactly ``width`` non-empty cells of digits, signs, points and
    exponents goes to ``np.loadtxt`` with the others of the block; its parser
    is ``float``'s, so the values are the same bits. Every other line is read
    on its own as ``csv.reader`` and ``float`` read it. When none of those
    other lines is kept, the records are loadtxt's cells, with no scatter
    into a new array; only a pick of columns other than the first ones in
    order copies them. When one is kept, each kept line's row is placed at
    its rank among the kept lines.
    """
    text = _plain_text(data)
    if text is None:
        return None
    lines = text.split("\n")[:-1]
    kinds = np.frombuffer(data.translate(_BYTE_KINDS), dtype=np.uint8)
    # a boolean array's nonzero is numpy's fast path
    marks = np.flatnonzero(kinds != 0)
    mark_kinds = kinds[marks]
    is_sep = mark_kinds < 3
    seps = marks[is_sep]
    # the k-th line break is separator breaks[k]
    breaks = np.flatnonzero(mark_kinds[is_sep] == 2)
    ends = seps[breaks]
    if np.diff(ends, prepend=-1).max() > csv.field_size_limit():
        return None  # csv.reader refuses a field that long
    plain = np.diff(breaks, prepend=-1) == width
    # a byte no number has, or two adjacent separators (an empty cell or line)
    odd = np.concatenate([marks[~is_sep], seps[1:][np.diff(seps) == 1]])
    if kinds[0] in (1, 2):
        odd = np.append(odd, 0)
    plain[np.searchsorted(ends, odd)] = False

    k = len(columns)
    cells = np.empty((0, k))
    if plain.any():
        try:
            cells = np.loadtxt(list(compress(lines, plain)), delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:
            return None  # a cell such as "1e": csv.reader's path skips its row
        # the first columns in order are a view, any other pick a copy
        cells = cells[:, :k] if columns == list(range(k)) else cells[:, columns]
    pick = _cell_picker(columns)
    salvaged, at = [], []
    for i in np.flatnonzero(~plain).tolist():
        try:
            salvaged.append(tuple(map(float, pick(lines[i].split(",") if lines[i] else []))))
        except (ValueError, IndexError):
            continue
        at.append(i)
    if not salvaged:
        return cells, len(lines) - len(cells)
    # each kept line's row is its rank among the kept lines
    kept = plain.copy()
    kept[at] = True
    rank = np.cumsum(kept) - 1
    records = np.empty((len(cells) + len(salvaged), k))
    records[rank[plain]] = cells
    records[rank[at]] = salvaged
    return records, len(lines) - len(records)


def _read_plain(path, target_column, feature_columns):
    """``_read_rows``' result for a plain CSV, read in blocks of whole lines; None otherwise.

    Anything else (quotes, carriage returns, bytes that are not UTF-8, an
    overlong field, no line break after the header) is left to ``_read_rows``,
    which also raises its errors.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n") or len(head) > csv.field_size_limit():
            return None
        text = _plain_text(head)
        if text is None:
            return None
        header = _read_header(csv.reader([text[:-1]]), path)
        columns = _selected_columns(header, target_column, feature_columns)
        blocks, skipped, rest = [], 0, b""
        while True:
            chunk = fh.read(_PLAIN_BLOCK_BYTES)
            data = rest + chunk
            if chunk:
                cut = data.rfind(b"\n") + 1
                data, rest = data[:cut], data[cut:]
            elif data:
                data += b"\n"  # the last row ends at the end of the file
            if data:
                block = _plain_block(data, len(header), columns)
                if block is None:
                    return None
                blocks.append(block[0])
                skipped += block[1]
            if not chunk:
                break
    records = np.concatenate(blocks) if blocks else np.empty((0, len(columns)))
    return records, skipped, columns


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

    A plain file (no quotes or carriage returns) is parsed in bulk, block by
    block; any other goes through ``csv.reader``. Both give the same bytes.
    The shuffle is one full-row gather with ``np.take``, several times faster
    than fancy indexing.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction must lie in (0, 1]")
    records, skipped, columns = (_read_plain(path, target_column, feature_columns)
                                 or _read_rows(path, target_column, feature_columns))
    if not np.isfinite(records).all():
        line = _nonfinite_line(path, _cell_picker(columns))
        raise ConfigError(f"{path}: line {line}: nan or inf cell in a selected column")
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} rows with missing or non-numeric cells")
    if not records.shape[0]:
        raise ConfigError(f"{path}: no numeric rows after filtering")

    perm = default_rng(seed).permutation(records.shape[0])
    records = np.take(records, perm, axis=0)
    n_train = int(round(train_fraction * records.shape[0]))
    return records[:n_train], records[n_train:]

import csv
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfedsim import data as data_module
from dpfedsim.data import (
    csv_sort_column,
    load_csv,
    sorted_partition,
    synth_regression,
)
from dpfedsim.regression import ClientShard, ConfigError, PaddedShards, problem_constants


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_iid_noise_free_is_exactly_realizable():
    ds = synth_regression(n_clients=5, n_per_client=10, n_features=3,
                          heterogeneity=0.0, noise_std=0.0, seed=0)
    pc = problem_constants(ds, zeta=10.0)
    assert pc.f_star <= 1e-20
    assert pc.gamma_noniid <= 1e-20


def test_synth_heterogeneity_increases_gamma():
    kwargs = dict(n_clients=6, n_per_client=15, n_features=3, noise_std=0.1, seed=7)
    ds0 = synth_regression(heterogeneity=0.0, **kwargs)
    ds1 = synth_regression(heterogeneity=1.0, **kwargs)
    g0 = problem_constants(ds0, 10.0).gamma_noniid
    g1 = problem_constants(ds1, 10.0).gamma_noniid
    assert g1 > g0


def test_synth_deterministic_per_seed():
    a = synth_regression(4, 6, 2, 0.5, 0.1, seed=42)
    b = synth_regression(4, 6, 2, 0.5, 0.1, seed=42)
    c = synth_regression(4, 6, 2, 0.5, 0.1, seed=43)
    for sa, sb in zip(a.shards, b.shards):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.targets, sb.targets)
    assert not np.array_equal(a.shards[0].targets, c.shards[0].targets)


def test_synth_bias_column_and_shapes():
    ds = synth_regression(3, 5, 2, 0.5, 0.1, seed=1)
    assert ds.dim == 3  # 2 features + bias
    assert all(np.all(s.features[:, -1] == 1.0) for s in ds.shards)
    raw = synth_regression(3, 5, 2, 0.5, 0.1, seed=1, add_bias=False)
    assert raw.dim == 2
    assert ds.n == 15
    assert PaddedShards.build(ds.shards).n_bar_sq == 25.0


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_regression(0, 5, 2, 0.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_regression(3, 5, 2, 1.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_regression(3, 5, 2, 0.5, -0.1, seed=0)


def _synth_reference(n_clients, n_per_client, n_features, heterogeneity, noise_std, seed,
                     add_bias):
    """The generator built client by client: one design per client, concatenated."""
    rng = np.random.default_rng(seed)
    dim = n_features + 1 if add_bias else n_features
    theta_true = rng.standard_normal(dim)
    designs, targets = [], []
    for _ in range(n_clients):
        theta_l = theta_true + heterogeneity * rng.standard_normal(dim)
        design = rng.standard_normal((n_per_client, n_features))
        if add_bias:
            design = np.column_stack([design, np.ones(n_per_client)])
        designs.append(design)
        targets.append(design @ theta_l + noise_std * rng.standard_normal(n_per_client))
    return np.concatenate(designs), np.concatenate(targets)


@pytest.mark.parametrize("add_bias,heterogeneity,noise_std",
                         list(itertools.product([True, False], [0.0, 1.0], [0.0, 0.3])))
def test_synth_matches_the_per_client_reference_bitwise(add_bias, heterogeneity, noise_std):
    args = (5, 9, 7, heterogeneity, noise_std, 12)
    ds = synth_regression(*args, add_bias=add_bias)
    features, targets = _synth_reference(*args, add_bias=add_bias)
    assert ds.pooled_x.shape == features.shape and ds.pooled_x.tobytes() == features.tobytes()
    assert ds.pooled_y.shape == targets.shape and ds.pooled_y.tobytes() == targets.tobytes()
    assert np.shares_memory(ds.x, ds.pooled_x)  # one copy of the design


@pytest.mark.parametrize("failure", [MemoryError("Unable to allocate 7.28 TiB"),
                                     ValueError("array is too big")])
def test_synth_design_that_cannot_be_allocated_is_a_config_error(monkeypatch, failure):
    def refuse(*args, **kwargs):
        raise failure

    monkeypatch.setattr(data_module.np, "empty", refuse)
    with pytest.raises(ConfigError, match=re.escape("N·n_l·p = 3·5·3 = 45 floats")):
        synth_regression(3, 5, 2, 0.5, 0.1, seed=0)


def test_store_costs_one_design_from_builder_to_constants():
    # tracemalloc sees numpy's data allocations. A builder that stacks per-client
    # copies of the design peaks at 2.26x the design, and a QR of the transposed
    # stack takes the constants to 2.72x; one design written in place, and
    # optima read from it, stay at 1.16x and 1.53x on this n_l < p shape
    # (N=40, n_l=10, p=60), where the p x p terms of the constants are not negligible.
    # The bounds sit between the two.
    synth_regression(2, 3, 2, 0.5, 0.1, seed=0)  # first-use allocations of numpy
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = synth_regression(40, 10, 59, 0.5, 0.1, seed=0)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        problem_constants(ds, 1.0)
        constants_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    design = ds.pooled_x.nbytes
    assert build_peak <= 1.3 * design
    assert constants_peak <= 1.8 * design


def test_constants_of_a_ragged_store_with_long_shards_hold_two_copies_of_x_y():
    # tracemalloc sees numpy's data allocations. On this ragged store with
    # n_l >= p (N=250, n_l of 16 or 17, p=7), the QR path of the per-shard
    # optima, the store costs 2.38x the design and problem_constants peaks at
    # 5.80x it, the store included: the QR's working set over its [X y] copies
    # of 1.21x each. One more whole copy of [X y] would take it to 7.0x; the
    # bound sits between the two.
    warm = sorted_partition(np.random.default_rng(0).standard_normal((30, 4)), -1, 3)
    problem_constants(warm, 1.0)  # first-use allocations of numpy
    records = np.random.default_rng(8).standard_normal((4001, 7))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = sorted_partition(records, -1, 250)
        tracemalloc.reset_peak()
        problem_constants(ds, 1.0)
        constants_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ds.x.shape == (250, 17, 7) and ds.sizes.min() == 16  # ragged, n_l >= p
    assert constants_peak <= 6.6 * ds.pooled_x.nbytes


# ---------------------------------------------------------------------------
# sorted partition
# ---------------------------------------------------------------------------


def test_sorted_partition_sort_then_chunk():
    # keys 3,1,2,6,5,4 over 3 clients -> target groups {1,2},{3,4},{5,6}
    records = np.array(
        [[10.0, 3.0], [20.0, 1.0], [30.0, 2.0], [40.0, 6.0], [50.0, 5.0], [60.0, 4.0]]
    )
    ds = sorted_partition(records, sort_key_index=1, n_clients=3, add_bias=False)
    groups = [sorted(s.targets.tolist()) for s in ds.shards]
    assert groups == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("add_bias", [True, False])
def test_sorted_partition_matches_the_column_stack_reference_bitwise(add_bias):
    records = np.random.default_rng(5).standard_normal((13, 4))
    records[3, 1] = records[7, 1]  # a tie, kept in input order
    ds = sorted_partition(records, 1, n_clients=4, add_bias=add_bias)
    ordered = records[np.argsort(records[:, 1], kind="stable")]
    features = ordered[:, :-1]
    if add_bias:
        features = np.column_stack([features, np.ones(13)])
    assert ds.pooled_x.shape == features.shape and ds.pooled_x.tobytes() == features.tobytes()
    assert ds.pooled_y.tobytes() == ordered[:, -1].tobytes()
    # the layout picks numpy's matmul path, and with it the bytes of every product
    assert ds.pooled_x.flags.c_contiguous


def _tied_keys(kind, rng, n):
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    if kind == "all-equal":
        return np.full(n, 2.5)
    return np.round(rng.standard_normal(n), int(kind[0]))  # rounding also leaves -0.0


@pytest.mark.parametrize("key_column", [0, -1])
@pytest.mark.parametrize("keys", ["0-decimals", "1-decimal", "2-decimals", "signed-zeros",
                                  "all-equal"])
def test_sorted_partition_order_is_the_stable_sort(keys, key_column):
    rng = np.random.default_rng(2303)
    records = rng.standard_normal((600, 4))
    records[:, key_column] = _tied_keys(keys, rng, 600)
    ds = sorted_partition(records, key_column, n_clients=7)
    ordered = records[np.argsort(records[:, key_column], kind="stable")]
    features = np.column_stack([ordered[:, :-1], np.ones(600)])
    assert ds.pooled_x.tobytes() == features.tobytes()
    assert ds.pooled_y.tobytes() == ordered[:, -1].tobytes()


@pytest.mark.parametrize("keys", ["1-decimal", "signed-zeros", "all-equal"])
def test_stable_order_puts_nan_keys_last_in_input_order(keys):
    # NaN equals nothing, not even NaN, so its group is not found by comparing neighbours
    rng = np.random.default_rng(2304)
    key = _tied_keys(keys, rng, 300)
    key[rng.choice(300, size=40, replace=False)] = math.nan
    order = data_module._stable_order(key)
    assert order.tobytes() == np.argsort(key, kind="stable").tobytes()


@pytest.mark.parametrize("key_column,bad", [(0, "features"), (-1, "targets")])
def test_sorted_partition_with_nan_sort_keys_names_the_nonfinite_array(key_column, bad):
    rng = np.random.default_rng(2305)
    records = rng.standard_normal((60, 3))
    records[:, key_column] = _tied_keys("0-decimals", rng, 60)
    records[[4, 5, 31, 59], key_column] = math.nan
    with pytest.raises(ConfigError, match=f"{bad} contains non-finite entries"):
        sorted_partition(records, key_column, n_clients=6)


def test_sorted_partition_single_client_keeps_everything():
    rng = np.random.default_rng(0)
    records = rng.standard_normal((9, 3))
    ds = sorted_partition(records, 2, n_clients=1)
    assert ds.n_clients == 1
    assert ds.shards[0].n_l == 9


def test_sorted_partition_even_sizes_front_loaded():
    rng = np.random.default_rng(1)
    records = rng.standard_normal((11, 2))
    ds = sorted_partition(records, 1, n_clients=4)
    sizes = [s.n_l for s in ds.shards]
    assert sizes == [3, 3, 3, 2]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 11


def test_sorted_partition_requires_enough_records():
    with pytest.raises(ConfigError):
        sorted_partition(np.zeros((2, 2)), 0, n_clients=3)
    for n_clients in (0, -1):
        with pytest.raises(ConfigError, match="n_clients must be >= 1"):
            sorted_partition(np.zeros((2, 2)), 0, n_clients=n_clients)


def test_sorted_partition_more_heterogeneous_than_random():
    # sorting by the target concentrates similar samples per client, which can
    # only raise the non-IID degree relative to random assignment
    rng = np.random.default_rng(2)
    X = rng.standard_normal((120, 2))
    y = X @ np.array([2.0, -1.0]) + 0.2 * rng.standard_normal(120)
    records = np.column_stack([X, y])
    sorted_ds = sorted_partition(records, sort_key_index=2, n_clients=6)
    g_sorted = problem_constants(sorted_ds, 10.0).gamma_noniid
    from dpfedsim.regression import ClientShard

    for shuffle_seed in range(20):
        perm = np.random.default_rng(shuffle_seed).permutation(120)
        # random assignment: chunk a shuffled copy without any sorting
        shuffled = records[perm]
        chunks = np.array_split(shuffled, 6)
        shards = [
            ClientShard(i, np.column_stack([c[:, :-1], np.ones(len(c))]), c[:, -1])
            for i, c in enumerate(chunks)
        ]
        g_random = problem_constants(PaddedShards.build(shards), 10.0).gamma_noniid
        assert g_sorted >= g_random


@pytest.mark.parametrize("row,bad", [(1, "targets"), (2, "features")])
def test_sorted_partition_names_the_nonfinite_array(row, bad):
    # the design is checked once; a non-finite record still fails as its shard's check does
    records = np.arange(12.0).reshape(6, 2)
    records[row, 1 if bad == "targets" else 0] = math.nan
    with pytest.raises(ConfigError, match=f"{bad} contains non-finite entries"):
        sorted_partition(records, 0, n_clients=3)


def test_sorted_partition_shards_are_views_of_one_design():
    ds = sorted_partition(np.arange(14.0).reshape(7, 2), 1, n_clients=3)
    for shard in ds.shards:
        assert shard.features.dtype == float and shard.features.ndim == 2
        assert shard.targets.shape == (shard.n_l,)
        assert shard.features.base is ds.shards[0].features.base
    assert [s.n_l for s in ds.shards] == [3, 2, 2]


def test_padded_store_shares_the_partition_design():
    # the constructor keeps the pooled design it is given; restacking the shards copies it
    x, y = np.arange(14.0).reshape(7, 2), np.arange(7.0)
    store = PaddedShards.from_pooled(x, y, [3, 2, 2])
    assert store.pooled_x is x and store.pooled_y is y
    ds = sorted_partition(np.arange(21.0).reshape(7, 3), 2, n_clients=3)
    for shard in ds.shards:
        assert np.shares_memory(ds.pooled_x, shard.features)
        assert np.shares_memory(ds.pooled_y, shard.targets)
    copied = PaddedShards.build(ds.shards)
    assert not np.shares_memory(copied.pooled_x, ds.pooled_x)


def test_dataset_invariants_validated():
    ds = synth_regression(3, 4, 2, 0.2, 0.1, seed=0)
    with pytest.raises(ConfigError, match="client ids"):
        PaddedShards.build([ds.shards[0], ds.shards[0]])
    narrow = ClientShard(1, ds.shards[1].features[:, :2], ds.shards[1].targets)
    with pytest.raises(ConfigError, match="one feature dimension"):
        PaddedShards.build([ds.shards[0], narrow, ds.shards[2]])


@pytest.mark.parametrize("ds", [
    synth_regression(4, 5, 3, 0.5, 0.1, seed=2),
    sorted_partition(np.random.default_rng(3).standard_normal((11, 3)), 1, n_clients=4),
    sorted_partition(np.random.default_rng(4).standard_normal((9, 3)), 2, n_clients=3,
                     add_bias=False),
], ids=["synth", "ragged-partition", "partition-without-bias"])
def test_builders_return_the_store_their_shards_build(ds):
    rebuilt = PaddedShards.build(ds.shards)
    for name in ("x", "y", "pooled_x", "pooled_y", "sizes", "weights"):
        ours, theirs = getattr(ds, name), getattr(rebuilt, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
    assert (ds.n, ds.n_bar_sq) == (rebuilt.n, rebuilt.n_bar_sq)
    assert [s.client_id for s in ds.shards] == list(range(ds.n_clients))
    for shard in ds.shards:
        assert np.shares_memory(shard.features, ds.pooled_x)
        assert np.shares_memory(shard.targets, ds.pooled_y)


@pytest.mark.parametrize("features,targets,sizes,message", [
    (np.ones((5, 2)), np.ones(4), [2, 2], "feature row count must equal target count"),
    (np.ones(4), np.ones(4), [2, 2], "features must be a 2-D array"),
    (np.ones((4, 2)), np.ones(4), [], "at least one shard"),
    (np.ones((4, 2)), np.ones(4), [4, 0], "every shard needs at least one row"),
    (np.ones((4, 2)), np.ones(4), [2, 1], "shard sizes sum to 3, not to the 4 rows"),
    (np.ones((4, 2)), np.ones(4), [2, 3], "shard sizes sum to 5, not to the 4 rows"),
    (np.array([[1.0, 2.0], [math.inf, 1.0]]), np.ones(2), [1, 1],
     "features contains non-finite entries"),
    (np.ones((2, 2)), np.array([1.0, math.nan]), [1, 1], "targets contains non-finite entries"),
], ids=["row-counts", "features-1d", "no-shards", "empty-shard", "sizes-short",
        "sizes-long", "nonfinite-feature", "nonfinite-target"])
def test_store_constructor_rejects_each_broken_rule(features, targets, sizes, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        PaddedShards.from_pooled(features, targets, sizes)


# ---------------------------------------------------------------------------
# csv ingestion
# ---------------------------------------------------------------------------


CSV_BODY = """age,income,rate
25,50000,3.5
30,60000,4.1
bad,70000,4.4
35,,5.0
40,80000,5.2
45,90000,5.9
50,100000,6.3
55,110000,6.6
60,120000,7.0
65,130000,7.7
70,140000,8.1
"""


def write_csv(tmp_path, body=CSV_BODY):
    path = tmp_path / "records.csv"
    path.write_text(body)
    return path


def test_load_csv_counts_skipped_rows(tmp_path):
    path = write_csv(tmp_path)
    with pytest.warns(UserWarning, match="skipped 2 rows"):
        train, holdout = load_csv(path, target_column="rate", train_fraction=0.8, seed=0)
    assert train.shape[0] + holdout.shape[0] == 9
    assert train.shape[1] == 3  # age, income, rate


def test_load_csv_split_sizes(tmp_path):
    rows = "\n".join(f"{i},{2 * i},{3 * i}" for i in range(1, 1001))
    path = write_csv(tmp_path, "a,b,target\n" + rows + "\n")
    train, holdout = load_csv(path, "target", train_fraction=0.8, seed=0)
    assert train.shape[0] == 800
    assert holdout.shape[0] == 200


def test_load_csv_full_train_empty_holdout(tmp_path):
    path = write_csv(tmp_path)
    with pytest.warns(UserWarning):
        train, holdout = load_csv(path, "rate", train_fraction=1.0, seed=0)
    assert holdout.shape[0] == 0
    assert train.shape[0] == 9


def test_load_csv_reproducible_split(tmp_path):
    path = write_csv(tmp_path)
    with pytest.warns(UserWarning):
        a_train, a_hold = load_csv(path, "rate", seed=3)
    with pytest.warns(UserWarning):
        b_train, b_hold = load_csv(path, "rate", seed=3)
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_hold, b_hold)


def test_load_csv_feature_selection_and_target_last(tmp_path):
    path = write_csv(tmp_path)
    with pytest.warns(UserWarning):
        train, _ = load_csv(path, "rate", feature_columns=["income"], train_fraction=1.0,
                            seed=0)
    assert train.shape[1] == 2
    # income is 10^4 scale, rate single digits: target must sit in the last column
    assert np.all(train[:, 0] >= 50000)
    assert np.all(train[:, 1] < 10)


def test_load_csv_errors(tmp_path):
    path = write_csv(tmp_path, "a,b\nx,y\n")
    with pytest.raises(ConfigError, match="no numeric rows"):
        with pytest.warns(UserWarning):
            load_csv(path, "b")
    with pytest.raises(ConfigError, match="not found"):
        load_csv(write_csv(tmp_path), "missing")
    with pytest.raises(OSError):
        load_csv(tmp_path / "absent.csv", "rate")


def test_load_csv_target_by_index_string(tmp_path):
    path = write_csv(tmp_path)
    with pytest.warns(UserWarning):
        by_name, _ = load_csv(path, "rate", train_fraction=1.0, seed=0)
    with pytest.warns(UserWarning):
        by_index, _ = load_csv(path, "2", train_fraction=1.0, seed=0)
    assert np.array_equal(by_name, by_index)


def test_load_csv_header_name_wins_over_index(tmp_path):
    path = write_csv(tmp_path, "a,0,b\n1,2,3\n4,5,6\n")
    train, _ = load_csv(path, "0", train_fraction=1.0, seed=0)
    assert sorted(train[:, -1]) == [2.0, 5.0]  # the column named "0", not column 0


def test_load_csv_target_index_out_of_range(tmp_path):
    path = write_csv(tmp_path)
    with pytest.raises(ConfigError, match="index 3 out of range"):
        load_csv(path, "3")
    with pytest.raises(ConfigError, match="not found"):
        load_csv(path, "-1")


@pytest.mark.parametrize("body,in_header", [
    (b"a,\xffb\n1,2\n", True),
    (b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n", False),  # past the first decoded chunk
    (b"a," + b"b" * 140_000 + b"\n1,2\n", True),  # over the csv module's field limit
    (b"a,b\n1," + b"9" * 140_000 + b"\n", False),
    (b"a,b\n1," + b"0" * 140_000 + b"1\n", False),  # a finite number, still over the limit
], ids=["header-not-utf8", "row-not-utf8", "header-field-too-long", "row-field-too-long",
        "row-finite-field-too-long"])
def test_unreadable_csv_is_a_config_error(tmp_path, body, in_header):
    path = tmp_path / "records.csv"
    path.write_bytes(body)
    message = re.escape(f"{path}: unreadable CSV")
    with pytest.raises(ConfigError, match=message):
        load_csv(path, "a")
    if in_header:
        with pytest.raises(ConfigError, match=message):
            csv_sort_column(path, "a", "b")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", " NaN "])
def test_nonfinite_cell_is_a_config_error_naming_its_line(tmp_path, cell):
    # line 3 holds a quoted two-line field, so the bad row starts on line 6
    body = f'a,b,y\n1,2,3\n"4\n",5,6\nx,8,9\n7,{cell},9\n1,1,1\n'
    path = write_csv(tmp_path, body)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 6: nan or inf")):
        load_csv(path, "y")
    # a row that also has a non-numeric cell is skipped, not an error
    path = write_csv(tmp_path, f"a,b,y\n1,2,3\nx,{cell},9\n")
    with pytest.warns(UserWarning, match="skipped 1 rows"):
        train, _ = load_csv(path, "y", train_fraction=1.0)
    assert train.tolist() == [[1.0, 2.0, 3.0]]
    # a non-finite cell outside the selected columns is never read
    path = write_csv(tmp_path, f"a,b,y\n1,{cell},3\n")
    assert load_csv(path, "y", feature_columns=["a"], train_fraction=1.0)[0].tolist() == [[1.0, 3.0]]


def _reference_load_csv(path, seed):
    """Row by row, as ``load_csv`` read a CSV before it streamed: the test's oracle.

    Returns (train, holdout, skipped) or the error message ``load_csv`` must raise.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        target = header.index("y")
        wanted = [i for i in range(len(header)) if i != target] + [target]
        rows, skipped = [], 0
        start = reader.line_num + 1
        for raw in reader:
            try:
                row = [float(raw[i]) for i in wanted]
            except (ValueError, IndexError):
                skipped += 1
            else:
                if not all(map(math.isfinite, row)):
                    return f"{path}: line {start}: nan or inf cell in a selected column"
                rows.append(row)
            start = reader.line_num + 1
    if not rows:
        return f"{path}: no numeric rows after filtering"
    records = np.asarray(rows, dtype=float)
    records = records[np.random.default_rng(seed).permutation(records.shape[0])]
    n_train = int(round(0.8 * records.shape[0]))
    return records[:n_train], records[n_train:], skipped


# cells float() reads, cells it rejects, and non-finite ones; a quoted cell may
# hold a comma or a line break
GOOD_CELLS = ["1", "-2.5", " 3 ", "4e1", "1_0", "+.5", '"6"', '" 7\n"', "0"]
BAD_CELLS = ["", "n/a", "x", "1__0", '"1,2"', "1 2"]
NONFINITE_CELLS = ["nan", "inf", "-Infinity"]
csv_rows = st.lists(
    st.one_of(
        # a full row, mostly good; short, long and blank rows
        st.lists(st.sampled_from(GOOD_CELLS * 6 + BAD_CELLS), min_size=3, max_size=3),
        st.lists(st.sampled_from(GOOD_CELLS), min_size=0, max_size=5),
        st.lists(st.sampled_from(GOOD_CELLS * 10 + NONFINITE_CELLS), min_size=3, max_size=3),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=csv_rows, seed=st.integers(0, 3))
@example(rows=[["x", "1", "2"], ["1", "2", "3"], ["1", "2", ""]], seed=0)  # bad first and last
@example(rows=[["1", "2", "3"], [], ["n/a", "1", "1"], ["1", "2"], ["4", "5", "6"]], seed=1)
def test_load_csv_matches_the_row_by_row_reference(tmp_path_factory, rows, seed):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("a,b,y\n" + "\n".join(",".join(row) for row in rows) + "\n")
    expected = _reference_load_csv(path, seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                load_csv(path, "y", seed=seed)
            assert str(err.value) == expected
            return
        train, holdout = load_csv(path, "y", seed=seed)
    assert train.tobytes() == expected[0].tobytes() and train.shape == expected[0].shape
    assert holdout.tobytes() == expected[1].tobytes() and holdout.shape == expected[1].shape
    skipped = expected[2]
    messages = [str(w.message) for w in caught]
    assert messages == ([f"{path}: skipped {skipped} rows with missing or non-numeric cells"]
                        if skipped else [])


# cells of a file without quotes or carriage returns, which load_csv parses in
# bulk: cells numpy's parser and float() both read, cells only float() reads,
# cells float() rejects (some of them made of number bytes only) and non-finite ones
PLAIN_GOOD_CELLS = ["1", "-2.5", "4e1", "+.5", "0", "5.", "-0", "1e-400",
                    "12345678901234567890.123456789", "2.2250738585072014e-308"]
PLAIN_ODD_CELLS = [" 3 ", "1_0", "\t7"]
PLAIN_BAD_CELLS = ["", "n/a", "x", "1 2", "1e", ".", "-", "e5", "1.2.3", "+-1"]
plain_rows = st.lists(
    st.one_of(
        st.lists(st.sampled_from(PLAIN_GOOD_CELLS * 8 + PLAIN_ODD_CELLS + PLAIN_BAD_CELLS[:3]),
                 min_size=3, max_size=3),
        st.lists(st.sampled_from(PLAIN_GOOD_CELLS), min_size=0, max_size=5),
        st.lists(st.sampled_from(PLAIN_GOOD_CELLS * 10 + PLAIN_BAD_CELLS + NONFINITE_CELLS
                                 + ["1e400"]), min_size=3, max_size=3),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=plain_rows, seed=st.integers(0, 3), block=st.sampled_from([1, 8, 64, 1 << 20]),
       final_newline=st.booleans())
@example(rows=[["1", "2", "3"], [], ["n/a", "1", "1"], ["1", "2"], ["4", "5", "6"]], seed=1,
         block=8, final_newline=False)
@example(rows=[[], ["1", "2", "3"], ["", "2", "3"], ["1", "2", "3", "4"]], seed=0, block=1,
         final_newline=True)
def test_plain_csv_matches_the_row_by_row_reference(tmp_path_factory, rows, seed, block,
                                                    final_newline):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    text = "a,b,y\n" + "\n".join(",".join(row) for row in rows)
    path.write_text(text + "\n" if final_newline else text)
    expected = _reference_load_csv(path, seed)
    # a small block makes rows straddle the blocks the file is read in
    with mock.patch.object(data_module, "_PLAIN_BLOCK_BYTES", block), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                load_csv(path, "y", seed=seed)
            assert str(err.value) == expected
            return
        train, holdout = load_csv(path, "y", seed=seed)
    assert train.tobytes() == expected[0].tobytes() and train.shape == expected[0].shape
    assert holdout.tobytes() == expected[1].tobytes() and holdout.shape == expected[1].shape
    skipped = expected[2]
    messages = [str(w.message) for w in caught]
    assert messages == ([f"{path}: skipped {skipped} rows with missing or non-numeric cells"]
                        if skipped else [])


@pytest.mark.parametrize("body", [
    "y\n1\n\n2\n",  # one column: a blank line is a skipped row, not a value
    "y\n\n1\n\n",  # ... also as the first line of a block
    "a,b,y\n1,2,3\n\n\n4,5,6",
    "a,b,y\n,1,2\n1,2,\n1,,2\n,,\n1,2,3\n",
    "a,b,y\n 1,2,3\n1,2,3 \n1,\t2,3\n1_0,2,3\n",
    "a,b,y\n1,2\n1,2,3,4\n1,2,3,x\n1,2,3,\n",
    "a,b,y\n1,2,3\n1,2,3\u00e9\n\u00e9,2,3\n1,2,3\n",
    "\ufeffa,b,y\n1,2,3\n",
    "a,b,y\n",
    "a,b,y\n1,2,3\r4,5,6\r",
    'a,b,y\n1,2,3\n4,"5",6\n',
])
def test_plain_reader_matches_csv_reader(tmp_path, body):
    path = write_csv(tmp_path, body)
    expected = data_module._read_rows(path, "y", None)
    with mock.patch.object(data_module, "_PLAIN_BLOCK_BYTES", 4):
        got = data_module._read_plain(path, "y", None) or data_module._read_rows(path, "y", None)
    assert got[0].tobytes() == expected[0].tobytes() and got[0].shape == expected[0].shape
    assert got[1:] == expected[1:]


@pytest.mark.parametrize("body,plain", [
    ("a,b,y\n1,2,3\n,n/a,1\n 4 ,5,6\n", True),
    ("a,b,y\n1,2,3", True),
    ('a,b,y\n"1",2,3\n', False),
    ("a,b,y\r\n1,2,3\r\n", False),
    ("a,b,y\n1e,2,3\n", False),  # numpy refuses a cell made of number bytes
    ("a,b,y", False),
])
def test_only_plain_files_take_the_bulk_parser(tmp_path, body, plain):
    path = write_csv(tmp_path, body)
    assert (data_module._read_plain(path, "y", None) is not None) == plain


# salvaged lines (a cell float() reads but numpy's parser does not) before,
# between and after plain ones, a skipped line, and a non-number in column c
MIXED_BODY = ("a,b,c,y\n 3 ,1,2,3\n1,2,3,4\n1_0,5,6,7\n4,5,6,7\n,1,2,3\n8,9,x,11\n"
              "8,9,10,11\n1, 3 ,2,1_0\n")
# no plain line at all: in one block, a block of only salvaged and skipped lines
NONPLAIN_BODY = "a,b,c,y\n 3 ,1,2,3\n1_0,5,6,7\n,1,2,3\n1, 3 ,2,1_0\n"


@pytest.mark.parametrize("block", [4, 1 << 20])
@pytest.mark.parametrize("body", [MIXED_BODY, NONPLAIN_BODY], ids=["mixed", "no-plain-line"])
@pytest.mark.parametrize("target,features", [
    ("a", None),
    ("y", ["c", "a", "b"]),
    ("y", ["b"]),
    ("c", ["a", "b"]),
    ("y", None),
], ids=["target-first", "reordered-features", "feature-subset", "first-columns", "in-order"])
def test_plain_reader_matches_csv_reader_on_a_column_selection(tmp_path, body, block, target,
                                                              features):
    path = write_csv(tmp_path, body)
    expected = data_module._read_rows(path, target, features)
    with mock.patch.object(data_module, "_PLAIN_BLOCK_BYTES", block):
        got = data_module._read_plain(path, target, features)
    assert got is not None
    assert got[0].tobytes() == expected[0].tobytes() and got[0].shape == expected[0].shape
    assert got[1:] == expected[1:]

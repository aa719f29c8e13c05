import re

import numpy as np
import pytest

from dpfedsim.data import (
    FederatedDataset,
    csv_column_indices,
    load_csv,
    sorted_partition,
    synth_regression,
)
from dpfedsim.regression import ConfigError, problem_constants


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_iid_noise_free_is_exactly_realizable():
    ds = synth_regression(n_clients=5, n_per_client=10, n_features=3,
                          heterogeneity=0.0, noise_std=0.0, seed=0)
    pc = problem_constants(ds.shards, np.zeros(ds.dim), zeta=10.0)
    assert pc.f_star <= 1e-20
    assert pc.gamma_noniid <= 1e-20


def test_synth_heterogeneity_increases_gamma():
    kwargs = dict(n_clients=6, n_per_client=15, n_features=3, noise_std=0.1, seed=7)
    ds0 = synth_regression(heterogeneity=0.0, **kwargs)
    ds1 = synth_regression(heterogeneity=1.0, **kwargs)
    g0 = problem_constants(ds0.shards, np.zeros(ds0.dim), 10.0).gamma_noniid
    g1 = problem_constants(ds1.shards, np.zeros(ds1.dim), 10.0).gamma_noniid
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
    assert ds.n_bar_sq == 25.0


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_regression(0, 5, 2, 0.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_regression(3, 5, 2, 1.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_regression(3, 5, 2, 0.5, -0.1, seed=0)


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
    g_sorted = problem_constants(sorted_ds.shards, np.zeros(3), 10.0).gamma_noniid
    from dpfedsim.data import _with_bias
    from dpfedsim.regression import ClientShard

    for shuffle_seed in range(20):
        perm = np.random.default_rng(shuffle_seed).permutation(120)
        # random assignment: chunk a shuffled copy without any sorting
        shuffled = records[perm]
        chunks = np.array_split(shuffled, 6)
        shards = [
            ClientShard(i, _with_bias(c[:, :-1], True), c[:, -1])
            for i, c in enumerate(chunks)
        ]
        g_random = problem_constants(shards, np.zeros(3), 10.0).gamma_noniid
        assert g_sorted >= g_random


def test_dataset_invariants_validated():
    ds = synth_regression(3, 4, 2, 0.2, 0.1, seed=0)
    with pytest.raises(ConfigError):
        FederatedDataset([ds.shards[0], ds.shards[0]])


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
], ids=["header-not-utf8", "row-not-utf8", "header-field-too-long", "row-field-too-long"])
def test_unreadable_csv_is_a_config_error(tmp_path, body, in_header):
    path = tmp_path / "records.csv"
    path.write_bytes(body)
    message = re.escape(f"{path}: unreadable CSV")
    with pytest.raises(ConfigError, match=message):
        load_csv(path, "a")
    if in_header:
        with pytest.raises(ConfigError, match=message):
            csv_column_indices(path, ["a"])

import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

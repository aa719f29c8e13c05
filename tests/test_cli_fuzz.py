"""Property gate: no config, CSV or flag reaches the user as a traceback.

Hypothesis writes a small config file and, for CSV data, a small CSV, picks a
subcommand with ``--seed``/``--repeats``/``--draws``, and runs it through
``cli.main``. Every outcome must be an exit code in {0, 1, 2, 3}, and an exit
code 1 or 3 must come with its ``error:`` or ``i/o error:`` line, and nothing
may be written outside ``--out``. Shapes and integers are bounded, so no
example allocates much memory or runs for long.
"""
import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfedsim.cli import main
from dpfedsim.config import DEFAULTS, SWEEP_AXES
from dpfedsim.engine import SCHEDULE_KINDS
from dpfedsim.mechanisms import KINDS
from dpfedsim.regression import CLIP_NORMS

# a valid tiny L1/Laplace run (and E sweep) that the drawn edits start from
BASE = {
    "federation": {
        "clients": "4",
        "pool_size": "2",
        "local_iters": "2",
        "global_iters": "4",
        "clip_threshold": "5",
        "repeats": "2",
    },
    "dp": {"mechanism": "laplace", "epsilon": "3"},
    "data": {"n_per_client": "6", "features": "2"},
    "sweep": {"axis": "E", "values": "1, 2"},
}

# small values, mostly valid, plus the edge cases: zero, negatives, inf, nan and
# floats whose squares overflow or underflow
INTS = ["-1", "0", "1", "1", "2", "2", "3", "4", "6", "8", "12"]
FLOATS = ["0", "-1", "1e-300", "0.01", "0.5", "1", "3", "150", "1e300", "inf", "-inf", "nan"]
COLUMNS = ["y", "a", "b", "0", "2", "9", "a,b", ""]
WORDS = {
    ("federation", "clip_norm"): [*CLIP_NORMS, "l3"],
    ("schedule", "kind"): [*SCHEDULE_KINDS, "cosine"],
    ("dp", "mechanism"): [*KINDS, "exponential"],
    ("data", "kind"): ["synth", "csv", "parquet"],
    ("data", "add_bias"): ["true", "off", "maybe"],
    ("data", "target_column"): COLUMNS,
    ("data", "feature_columns"): COLUMNS,
    ("data", "sort_key"): COLUMNS,
    # output names in a subdirectory, leaving --out through "..", and absolute
    # (TMP stands for the example's temporary directory)
    ("output", "rounds_csv"): ["r.csv", "a%%b.csv", "sub/r.csv", "sub/../r.csv",
                               "../r.csv", "TMP/r.csv"],
    ("output", "sweep_csv"): ["s.csv", "a%%b.csv", "sub/s.csv", "../s.csv", "TMP/s.csv"],
    ("sweep", "axis"): [*SWEEP_AXES, "delta", ""],
}
GRID = ["0", "1", "2", "4", "-3", "1.5", "inf", "T^{1/2}", "T", "x"]
# numeric cells, and rows with a missing, non-numeric or non-finite cell
CSV_CELLS = ["1", "-2.5", "3e2", "0.5", "7", "-4", "0", "2", "1e-3", "-9"]
ODD_CELLS = ["", "x", "nan", "inf", '"4"']
# junk appended to a config: bad lines, a duplicate section, % and bad bytes
TAILS = [b"[bogus]\n", b"key\n", b"[federation]\nclients = 4\n",
         b"[output]\nrounds_csv = a%b\n", b"[output]\nrounds_csv = %(x)s\n",
         b"[output]\nrounds_csv = a%%b\n", b"# \xff\n", b"\x00\n"]

KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys
        if (section, key) != ("data", "path")]


def _value(section, key):
    kind = DEFAULTS[section][key][1]
    if (section, key) == ("sweep", "values"):
        return st.lists(st.sampled_from(GRID), max_size=3).map(", ".join)
    return st.sampled_from(
        INTS if kind is int else FLOATS if kind is float else WORDS[section, key]
    )


edits = st.lists(
    st.sampled_from(KEYS).flatmap(lambda sk: st.tuples(st.just(sk), _value(*sk))),
    max_size=4,
)
csv_table = st.tuples(
    st.lists(st.lists(st.sampled_from(CSV_CELLS), min_size=3, max_size=3),
             min_size=6, max_size=30),
    st.lists(st.tuples(st.sampled_from(ODD_CELLS), st.integers(0, 2)), max_size=2),
).map(lambda t: _csv_text(*t))
flags = st.fixed_dictionaries({
    "command": st.sampled_from(["run", "sweep", "plan", "validate"]),
    "seed": st.one_of(st.none(), st.integers(-2, 50)),
    "repeats": st.sampled_from([None, None, 1, 2, 3, 0, -1]),
    "draws": st.sampled_from([10_000, 10_000, 20_000, 9_999]),
    "quiet": st.booleans(),
})


def _csv_text(rows, odd_cells):
    # each odd cell replaces one cell of the row of the same index
    for i, (cell, column) in enumerate(odd_cells):
        rows[i % len(rows)][column] = cell
    return ("a,b,y\n" + "\n".join(",".join(row) for row in rows) + "\n").encode()


def _config_bytes(edit_list, csv_path):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    if csv_path is not None:
        sections["data"].update(kind="csv", path=str(csv_path), target_column="y")
    for (section, key), value in edit_list:
        sections.setdefault(section, {})[key] = value
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return ("\n".join(lines) + "\n").encode()


def _check_cli(flags, csv_bytes, config_bytes):
    """Run one command on the given inputs and check its exit code and error line."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = None if csv_bytes is None else tmp / "data.csv"
        if csv_path is not None:
            csv_path.write_bytes(csv_bytes)
        config_path = tmp / "exp.cfg"
        config_path.write_bytes(config_bytes(csv_path).replace(b"TMP/", bytes(tmp) + b"/"))
        argv = [flags["command"], "--config", str(config_path), "--out", str(tmp / "out")]
        if flags["seed"] is not None:
            argv += ["--seed", str(flags["seed"])]
        if flags["repeats"] is not None and flags["command"] in ("run", "sweep"):
            argv += ["--repeats", str(flags["repeats"])]
        if flags["command"] == "validate":
            argv += ["--draws", str(flags["draws"])]
        if flags["quiet"]:
            argv.append("--quiet")

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert {p.name for p in tmp.iterdir()} <= {"data.csv", "exp.cfg", "out"}

    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    if code == 3:
        assert err.getvalue().startswith("i/o error: ")


def _escaping(command, key, name):
    """The BASE config, which runs, under ``command`` with one output name leaving --out."""
    run_flags = {"command": command, "seed": None, "repeats": None, "draws": 10_000,
                 "quiet": True}
    return example(flags=run_flags, edit_list=[(("output", key), name)], csv_bytes=None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flags=flags, edit_list=edits, csv_bytes=st.one_of(st.none(), csv_table))
# a drawn example rarely both escapes --out and runs; these reach the write
@_escaping("run", "rounds_csv", "../r.csv")
@_escaping("run", "rounds_csv", "TMP/r.csv")
@_escaping("sweep", "sweep_csv", "../s.csv")
def test_cli_never_shows_a_traceback(flags, edit_list, csv_bytes):
    _check_cli(flags, csv_bytes, lambda csv_path: _config_bytes(edit_list, csv_path))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    flags=flags,
    junk=st.one_of(
        st.sampled_from(TAILS).map(lambda tail: ("tail", tail)),
        st.tuples(st.just("edit"), st.tuples(
            st.sampled_from(KEYS), st.text(alphabet="ab1.%,;#[]=-\n\xe9", max_size=6))),
        st.binary(max_size=40).map(lambda raw: ("config", raw)),
        st.binary(max_size=40).map(lambda raw: ("csv", raw)),
        st.sampled_from([b"a,b,y\n1,2,\xff\n", b"a,b,y\n1,2," + b"3" * 140_000 + b"\n"])
        .map(lambda raw: ("csv", raw)),
    ),
)
def test_cli_reports_unreadable_inputs(flags, junk):
    where, value = junk

    def config_bytes(csv_path):
        if where == "config":
            return value
        edit_list = [value] if where == "edit" else []
        return _config_bytes(edit_list, csv_path) + (value if where == "tail" else b"")

    _check_cli(flags, value if where == "csv" else None, config_bytes)

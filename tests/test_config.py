import math
import re
from pathlib import Path

import pytest

from dpfedsim.config import DEFAULTS, parse_config, parse_sweep_values
from dpfedsim.regression import ConfigError


def write(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return path


def test_empty_file_yields_documented_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "# nothing\n"))
    assert cfg.federation["clients"] == 100
    assert cfg.federation["pool_size"] == 10
    assert cfg.federation["local_iters"] == 5
    assert cfg.federation["global_iters"] == 100
    assert cfg.federation["clip_threshold"] == 150.0
    assert cfg.federation["clip_norm"] == "l1"
    assert cfg.federation["repeats"] == 20
    assert cfg.schedule["kind"] == "decay"
    assert cfg.dp["mechanism"] == "none"
    assert math.isinf(cfg.dp["epsilon"])
    assert cfg.data["kind"] == "synth"
    assert cfg.output["rounds_csv"] == "rounds.csv"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(write(tmp_path, "[nonsense]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, "[federation]\nclientz = 3\n"))


def test_type_errors_are_reported_with_location(tmp_path):
    with pytest.raises(ConfigError, match=r"\[federation\] clients"):
        parse_config(write(tmp_path, "[federation]\nclients = ten\n"))


def test_epsilon_inf_parses(tmp_path):
    cfg = parse_config(write(tmp_path, "[dp]\nmechanism = none\nepsilon = inf\n"))
    assert math.isinf(cfg.dp["epsilon"])


def test_sensitivities_default_to_clip_threshold(tmp_path):
    cfg = parse_config(
        write(tmp_path, "[federation]\nclip_threshold = 7.5\n[dp]\nmechanism = laplace\nepsilon = 1\n")
    )
    assert cfg.dp["xi1"] == 7.5
    assert cfg.dp["xi2"] == 7.5
    cfg2 = parse_config(
        write(tmp_path, "[federation]\nclip_threshold = 7.5\n[dp]\nmechanism = laplace\nepsilon = 1\nxi1 = 15\n")
    )
    assert cfg2.dp["xi1"] == 15.0  # strict neighbour sensitivity = 2*zeta


def test_csv_kind_requires_path_and_target(tmp_path):
    with pytest.raises(ConfigError, match="requires a path"):
        parse_config(write(tmp_path, "[data]\nkind = csv\n"))


def test_inline_comments_supported(tmp_path):
    cfg = parse_config(write(tmp_path, "[federation]\nclients = 8  # small\n"))
    assert cfg.federation["clients"] == 8


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "missing.cfg")


def test_sweep_value_parsing():
    assert parse_sweep_values("T", "10, 20,30") == [10, 20, 30]
    assert parse_sweep_values("E", "1,2") == [1, 2]
    eps = parse_sweep_values("epsilon", "0.5, 1, inf")
    assert eps[:2] == [0.5, 1.0] and math.isinf(eps[2])
    rules = parse_sweep_values("E_rule", "1, T^{1/3}, T^{1/2}, T^{2/3}, T")
    assert rules == ["1", "T^{1/3}", "T^{1/2}", "T^{2/3}", "T"]
    with pytest.raises(ConfigError):
        parse_sweep_values("E_rule", "T^{3/4}")
    with pytest.raises(ConfigError):
        parse_sweep_values("T", "ten")
    with pytest.raises(ConfigError):
        parse_sweep_values("T", " ")


def test_sweep_axis_validated(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        parse_config(write(tmp_path, "[sweep]\naxis = bogus\nvalues = 1\n"))
    with pytest.raises(ConfigError, match="values"):
        parse_config(write(tmp_path, "[sweep]\naxis = T\n"))


def test_sweep_values_are_typed_and_checked_at_parse(tmp_path):
    cfg = parse_config(write(tmp_path, "[sweep]\naxis = E\nvalues = 1, 2,4\n"))
    assert cfg.sweep["values"] == [1, 2, 4]
    for axis, values in (("T", "0"), ("E", "0"), ("E", "2, -3"), ("T", "1.5"),
                         ("epsilon", "abc"), ("E_rule", "T^{3/4}")):
        path = write(tmp_path, f"[sweep]\naxis = {axis}\nvalues = {values}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: sweep axis {axis} takes")):
            parse_config(path)


def test_workers_still_parses_and_must_be_positive(tmp_path):
    parse_config(write(tmp_path, "[federation]\nworkers = 8\n"))
    path = write(tmp_path, "[federation]\nworkers = 0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: workers must be >= 1")):
        parse_config(path)


def test_negative_data_seed_is_a_config_error(tmp_path):
    path = write(tmp_path, "[data]\nseed = -1\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [data] seed must be >= 0")):
        parse_config(path)


def test_percent_in_a_value_is_a_config_error(tmp_path):
    path = write(tmp_path, "[output]\nrounds_csv = a%b.csv\n")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        parse_config(path)
    cfg = parse_config(write(tmp_path, "[output]\nrounds_csv = a%%b.csv\n"))
    assert cfg.output["rounds_csv"] == "a%b.csv"


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[federation]\nclients = 8  # caf\xe9\n")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        parse_config(path)


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split("```")[1]
    documented, section = set(), None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            documented.add((section, line.split("=", 1)[0].strip()))
    assert documented == {(s, k) for s, keys in DEFAULTS.items() for k in keys}

"""Sectioned key-value experiment configs with fail-fast validation.

Sections are [federation], [schedule], [dp], [data], [output] and, for sweep
files, [sweep]. Every key has a default, so an empty file describes a valid
noise-free run on the default synthetic task. Unknown sections or keys are
errors: a typo should never silently fall back to a default.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from typing import Any

from .bounds import E_RULES
from .engine import SCHEDULE_KINDS
from .mechanisms import KINDS
from .regression import CLIP_NORMS, ConfigError

__all__ = ["RawConfig", "parse_config", "parse_sweep_values", "DEFAULTS", "SWEEP_AXES"]

# every key, its default and its parser; "derived" defaults are resolved later
DEFAULTS: dict[str, dict[str, tuple[Any, type]]] = {
    "federation": {
        "clients": (100, int),
        "pool_size": (10, int),
        "local_iters": (5, int),
        "global_iters": (100, int),
        "clip_threshold": (150.0, float),
        "clip_norm": ("l1", str),  # regression.CLIP_NORMS
        "seed": (0, int),
        "repeats": (20, int),
        "workers": (1, int),
    },
    "schedule": {
        "kind": ("decay", str),  # engine.SCHEDULE_KINDS
        "eta": (0.01, float),  # constant schedule only
    },
    "dp": {
        "mechanism": ("none", str),  # mechanisms.KINDS
        "epsilon": (math.inf, float),
        "delta": (0.0001, float),
        "c2": (1.0, float),
        "xi1": (None, float),  # defaults to clip_threshold
        "xi2": (None, float),  # defaults to clip_threshold
    },
    "data": {
        "kind": ("synth", str),  # synth | csv
        "n_per_client": (20, int),
        "features": (5, int),
        "heterogeneity": (0.5, float),
        "noise_std": (0.1, float),
        "seed": (0, int),
        "add_bias": (True, bool),
        "path": ("", str),  # csv only
        "target_column": ("", str),
        "feature_columns": ("", str),  # comma separated, empty = all others
        "train_fraction": (0.8, float),
        "sort_key": ("", str),  # csv only, empty = the target column
    },
    "output": {
        "rounds_csv": ("rounds.csv", str),
        "sweep_csv": ("sweep.csv", str),
    },
    "sweep": {
        "axis": ("", str),  # SWEEP_AXES
        "values": ("", str),  # comma separated, typed by the axis
    },
}


def _grid_count(token: str) -> int:
    value = int(token)
    if value < 1:
        raise ValueError(token)
    return value


def _grid_rule(token: str) -> str:
    if token not in E_RULES:
        raise ValueError(token)
    return token


# every sweep axis, the parser of one grid value and what it accepts
SWEEP_AXES = {
    "T": (_grid_count, "positive integer values"),
    "E": (_grid_count, "positive integer values"),
    "epsilon": (float, "float values (inf allowed)"),
    "E_rule": (_grid_rule, f"values among {sorted(E_RULES)}"),
}


@dataclass
class RawConfig:
    """Parsed, defaulted and type-checked key-value content of a config file."""

    federation: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    dp: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return getattr(self, name)


def _convert(section: str, key: str, raw: str):
    kind = DEFAULTS[section][key][1]
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        # float() also reads inf and infinity, in any case
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


def parse_config(path) -> RawConfig:
    """Read a config file, applying defaults and rejecting unknown keys.

    The file is UTF-8; ``%%`` stands for a literal ``%``. A sweep's values
    come back as the typed grid points of its axis.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise OSError(f"config file not found: {path}")

    for section in sections:
        if section not in DEFAULTS:
            raise ConfigError(
                f"{path}: unknown section [{section}], expected one of "
                f"{sorted(DEFAULTS)}"
            )

    cfg = RawConfig()
    for section, keys in DEFAULTS.items():
        target = cfg.section(section)
        for key, (default, _) in keys.items():
            target[key] = default
        for key, raw in sections.get(section, []):
            if key not in keys:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}], expected one of "
                    f"{sorted(keys)}"
                )
            target[key] = _convert(section, key, raw)

    _cross_validate(cfg, path)
    return cfg


def _one_of(names) -> str:
    names = list(names)
    return " or ".join([", ".join(names[:-1]), names[-1]])


def _cross_validate(cfg: RawConfig, path) -> None:
    fed = cfg.federation
    for what, value, kinds in (
        ("clip_norm", fed["clip_norm"], CLIP_NORMS),
        ("schedule kind", cfg.schedule["kind"], SCHEDULE_KINDS),
        ("mechanism", cfg.dp["mechanism"], KINDS),
        ("data kind", cfg.data["kind"], ("synth", "csv")),
    ):
        if value not in kinds:
            raise ConfigError(f"{path}: {what} must be {_one_of(kinds)}")
    if fed["workers"] < 1:
        # workers has no effect since the pool runs as one block; it still parses
        raise ConfigError(f"{path}: workers must be >= 1")
    if cfg.data["seed"] < 0:
        raise ConfigError(f"{path}: [data] seed must be >= 0")
    if cfg.data["kind"] == "csv":
        if not cfg.data["path"]:
            raise ConfigError(f"{path}: data kind csv requires a path")
        if not cfg.data["target_column"]:
            raise ConfigError(f"{path}: data kind csv requires a target_column")
    for key, name in cfg.output.items():
        # a name is a file under --out: relative, and not leaving it through ".."
        parts = os.path.normpath(name).split(os.sep)
        if os.path.isabs(name) or parts[0] in (".", ".."):
            raise ConfigError(
                f"{path}: [output] {key} must name a file inside --out, got {name!r}"
            )
    # sensitivities default to the clip threshold
    if cfg.dp["xi1"] is None:
        cfg.dp["xi1"] = fed["clip_threshold"]
    if cfg.dp["xi2"] is None:
        cfg.dp["xi2"] = fed["clip_threshold"]
    if cfg.sweep["axis"]:
        try:
            cfg.sweep["values"] = parse_sweep_values(cfg.sweep["axis"], cfg.sweep["values"])
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def parse_sweep_values(axis: str, values: str) -> list:
    """Turn the sweep values string into typed grid points."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be {_one_of(SWEEP_AXES)}")
    tokens = [v.strip() for v in values.split(",") if v.strip()]
    if not tokens:
        raise ConfigError("sweep needs a non-empty values list")
    convert, accepted = SWEEP_AXES[axis]
    try:
        return [convert(v) for v in tokens]
    except ValueError:
        raise ConfigError(f"sweep axis {axis} takes {accepted}, got {tokens}") from None

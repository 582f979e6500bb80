"""Experiment configuration files.

Flat INI-style configs with [problem], [optimizer], [run] and an
optional [sweep] section, the only home of a sweep's axis and values: a
config states every condition it runs. A subcommand refuses what only
another one reads (``runner._refuse_unread``): [sweep] outside sweep,
run.etas and run.est_window_factor outside estimation-scaling. Every key is typed against a
per-section schema and unknown keys are errors, not warnings: a silently
misspelled key would corrupt a sweep. So is a key only
``optimizer.auto`` reads, without it or under a mode that does not read
it, and one the mode computes, beside it (``runner.resolve_run``
checks); except the required ``run.t``, which the first-order modes
replace with their T. The problem names, and the [problem] keys each
name requires, come from ``problems.PROBLEMS``, and the auto keys (each
a number) from ``optimizer.AUTO_MODES``. Every number must be finite:
nan and inf are refused where they are read.

A known key that the chosen algorithm or kind does not run is dropped,
not refused: ``source`` on ``rmsprop``, ``r``, ``t_thresh`` and ``s``
outside ``large_step``, ``w`` without burn-in, or ``beta_spec`` under
``kind = identity``. That lets one config serve a sweep over
``optimizer.kind`` or ``optimizer.algorithm``. ``runner.resolve_run``
returns the ``optimizer.Run`` that runs, each dropped key unset.
"""

from __future__ import annotations

import configparser
import copy
import functools
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .optimizer import ALGORITHMS, AUTO_MODES, ETA_DECAYS
from .precond import SOURCES, VARIANTS
from .problems import PROBLEMS

# The optimizer keys that only the optimizer.auto calculators read.
AUTO_KEYS = tuple(dict.fromkeys(key for mode in AUTO_MODES.values() for key in mode.requires + mode.reads))


def _parse_float(s):
    try:
        value = float(s)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {s!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _parse_int(s):
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {s!r}") from exc


def _parse_bool(s):
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_str(s):
    return s.strip()


def _parse_list(s, parse_item=_parse_str, what="values"):
    items = [v.strip() for v in s.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list of {what}")
    return [parse_item(v) for v in items]


_parse_float_list = functools.partial(_parse_list, parse_item=_parse_float, what="numbers")
_parse_int_list = functools.partial(_parse_list, parse_item=_parse_int, what="integers")


def parse_beta_spec(s):
    """'0.99' -> ('fixed', 0.99); 'schedule' / 'schedule:C' -> ('schedule', C)."""
    s = s.strip()
    if s.startswith("schedule"):
        _, _, rest = s.partition(":")
        c = _parse_float(rest) if rest else 1.0
        if c <= 0.0:
            raise ConfigError("beta schedule constant must be positive")
        return ("schedule", c)
    v = _parse_float(s)
    if not 0.0 <= v < 1.0:
        raise ConfigError(f"fixed beta must be in [0, 1), got {v}")
    return ("fixed", v)


_SCHEMAS = {
    "problem": {
        "name": _parse_str,
        "c": _parse_float,
        "zeta": _parse_float,
        "dim": _parse_int,
        "h_diag": _parse_float_list,
        "noise_diag": _parse_float_list,
        "x0": _parse_float_list,
        "n": _parse_int,
        "d": _parse_int,
        "data_seed": _parse_int,
        "label_noise": _parse_float,
        "batch": _parse_int,
        "path": _parse_str,
    },
    "optimizer": {
        "algorithm": _parse_str,
        "kind": _parse_str,
        "source": _parse_str,
        "eta": _parse_float,
        "eta_decay": _parse_str,
        "beta_spec": parse_beta_spec,
        "epsilon": _parse_float,
        "exponent": _parse_float,
        "r": _parse_float,
        "t_thresh": _parse_int,
        "w": _parse_int,
        "s": _parse_int,
        "bias_corrected": _parse_bool,
        "auto": _parse_str,
        **dict.fromkeys(AUTO_KEYS, _parse_float),  # every calculator input is a number
    },
    "run": {
        "seeds": _parse_int_list,
        "t": _parse_int,
        "log_every": _parse_int,
        "track_est_error": _parse_bool,
        "lambda_min_every": _parse_int,
        "escape_level": _parse_float,
        "f_threshold": _parse_float,
        "etas": _parse_float_list,
        "est_window_factor": _parse_float,
        "burn_in_c": _parse_float,
    },
    "sweep": {
        "axis": _parse_str,
        "values": _parse_list,  # each value kept as written: it names its condition
    },
}

_REQUIRED = {"problem": ("name",), "optimizer": ("algorithm",), "run": ("seeds", "t")}
# Keys no condition of a sweep reads: the seeds come from the base config,
# these run keys only estimation-scaling reads, and [sweep] only the sweep itself.
_UNSWEPT = ("run.seeds", "run.etas", "run.est_window_factor")


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment configuration."""

    problem: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def clone(self) -> "ExperimentConfig":
        return copy.deepcopy(self)

    def set_axis_value(self, axis: str, raw_value: str) -> None:
        """Set a sweep axis to one of its values; the result is validated like a loaded config."""
        section, key, parser = resolve_axis(axis)
        try:
            getattr(self, section)[key] = parser(raw_value)
        except ConfigError as exc:
            raise ConfigError(f"{axis}: {exc}") from exc
        validate_config(self)


def resolve_axis(axis: str):
    """Validate a sweep axis 'section.key' and return its parser."""
    section, _, key = axis.partition(".")
    if section not in _SCHEMAS or not key:
        raise ConfigError(f"sweep axis must be 'section.key', got {axis!r}")
    schema = _SCHEMAS[section]
    if key not in schema:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if section == "sweep" or axis in _UNSWEPT:
        raise ConfigError(f"{axis}: no condition of a sweep reads it, so it cannot be a sweep axis")
    return section, key, schema[key]


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: file not found or unreadable")

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SCHEMAS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        schema = _SCHEMAS[section]
        out = getattr(cfg, section)
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            try:
                out[key] = schema[key](raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}: {section}.{key}: {exc}") from exc
    for section, keys in _REQUIRED.items():
        for key in keys:
            if key not in getattr(cfg, section):
                raise ConfigError(f"{path}: missing required key {section}.{key}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    name = cfg.problem.get("name")
    if name not in PROBLEMS:
        raise ConfigError(f"problem.name: unknown problem {name!r} (expected one of {tuple(PROBLEMS)})")
    for key in PROBLEMS[name].requires:
        if key not in cfg.problem:
            raise ConfigError(f"problem.{key}: required for {name}")
    algo = cfg.optimizer.get("algorithm")
    if algo not in ALGORITHMS:
        raise ConfigError(f"optimizer.algorithm: unknown algorithm {algo!r}")
    kind = cfg.optimizer.get("kind", "full_matrix")
    if kind not in VARIANTS:
        raise ConfigError(f"optimizer.kind: unknown kind {kind!r}")
    source = cfg.optimizer.get("source", "estimated")
    if source not in SOURCES:
        raise ConfigError(f"optimizer.source: unknown source {source!r}")
    decay = cfg.optimizer.get("eta_decay", "none")
    if decay not in ETA_DECAYS:
        raise ConfigError(f"optimizer.eta_decay: unknown schedule {decay!r}")
    auto = cfg.optimizer.get("auto")
    if auto is not None and auto not in AUTO_MODES:
        raise ConfigError(f"optimizer.auto: unknown mode {auto!r}")
    if auto is None:
        for key in AUTO_KEYS:
            if key in cfg.optimizer:
                raise ConfigError(f"optimizer.{key}: read only by optimizer.auto, which is not set")
    if not cfg.run.get("seeds"):
        raise ConfigError("run.seeds: must be non-empty")
    for key, least in (("t", 1), ("log_every", 1), ("lambda_min_every", 0)):
        if cfg.run.get(key, least) < least:
            raise ConfigError(f"run.{key}: must be >= {least}")
    for key in ("est_window_factor", "burn_in_c"):
        if key in cfg.run and not cfg.run[key] > 0.0:
            raise ConfigError(f"run.{key}: must be positive, got {cfg.run[key]}")

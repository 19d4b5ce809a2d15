"""Flat key=value experiment configs.

A config file holds one key=value pair per line; blank lines and lines
starting with '#' are ignored.  Command-line overrides (--key value) are
applied on top.  Unknown keys are rejected so typos fail loudly.

The settings types (SolverConfig, Penalty, GroupingConfig, NoiseSpec)
own their defaults and their checks.  Each has one table here mapping a
config key to its field and parser; a key left unset keeps the type's
default, and the type's __post_init__ is the only check of its choices
and bounds.
"""

from __future__ import annotations

import dataclasses
import math

from .measurement import NoiseSpec
from .patches import GroupingConfig
from .penalties import Penalty
from .solver import SolverConfig


class ConfigError(Exception):
    pass


# Keys no settings type holds, with their defaults (None = no default,
# must be given when the subcommand needs it).
RUN_DEFAULTS = {
    "input": None,
    "output": None,
    "trace": None,
    "ground_truth": None,
    "seed": "0",
    "jobs": "1",
    # measurement
    "op": "dense",
    "subrate": "0.3",
    # denoise
    "tau": None,
    "sweeps": "1",
    # sweep grids (comma separated; "none" allowed in sweep_snrs)
    "sweep_subrates": None,
    "sweep_snrs": None,
    "sweep_kinds": None,
    "sweep_weightings": None,
}


def need(cfg, key):
    value = cfg.get(key)
    if value is None:
        raise ConfigError(f"missing required config key {key!r}")
    return value


def as_int(cfg, key):
    raw = need(cfg, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} wants an integer, got {raw!r}") from exc


def as_float(cfg, key):
    raw = need(cfg, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} wants a number, got {raw!r}") from exc
    if math.isnan(value):
        raise ConfigError(f"key {key!r} must not be NaN")
    return value


def as_float_or_auto(cfg, key):
    return None if need(cfg, key) == "auto" else as_float(cfg, key)


def as_float_list(cfg, key, allow_none_token=False):
    raw = need(cfg, key)
    out = []
    for part in raw.split(","):
        part = part.strip()
        if allow_none_token and part == "none":
            out.append(None)
            continue
        try:
            out.append(float(part))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: bad list entry {part!r}") from exc
    if not out:
        raise ConfigError(f"key {key!r}: empty list")
    return out


def as_str_list(cfg, key, choices):
    raw = need(cfg, key)
    out = []
    for part in raw.split(","):
        part = part.strip()
        if part not in choices:
            raise ConfigError(
                f"key {key!r}: entry {part!r} not one of {', '.join(choices)}"
            )
        out.append(part)
    return out


# config key -> (field, parser), one table per settings type
PENALTY_KEYS = {
    "kind": ("kind", need),
    "lambda": ("lam", as_float),
    "shape": ("shape", as_float),
}
GROUPING_KEYS = {
    "patch": ("patch_side", as_int),
    "stride": ("stride", as_int),
    "window": ("window_side", as_int),
    "group_size": ("group_size", as_int),
}
SOLVER_KEYS = {
    "solver_lambda": ("lam", as_float),
    "mu": ("mu", as_float),
    "weighting": ("weighting", need),
    "fidelity": ("fidelity", need),
    "sigma_m": ("sigma_m", as_float_or_auto),
    "outer_iters": ("outer_iters", as_int),
    "gd_steps": ("gd_steps", as_int),
    "epsilon": ("epsilon", as_float),
    "init_weights": ("init_weights", need),
}
NOISE_KEYS = {
    "noise": ("model", need),
    "noise_sigma": ("sigma", as_float),
    "noise_xi": ("xi", as_float),
    "noise_kappa": ("kappa", as_float),
    "target_snr_db": ("target_snr_db", as_float),
}

KEYS = frozenset(RUN_DEFAULTS).union(PENALTY_KEYS, GROUPING_KEYS, SOLVER_KEYS, NOISE_KEYS)


def parse_kv_file(path):
    """Read a flat key=value file into a string dict."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def merge_config(file_pairs, override_pairs):
    """Run defaults, then file values, then CLI overrides; keys must be known.

    Settings keys left unset are absent, so they keep the type's default.
    """
    cfg = dict(RUN_DEFAULTS)
    for source in (file_pairs, override_pairs):
        for key, value in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


def _build(default, table, cfg, **fields):
    """Replace the fields of `default` that cfg sets; the type checks them."""
    for key, (name, parse) in table.items():
        if cfg.get(key) is not None:
            fields[name] = parse(cfg, key)
    try:
        return dataclasses.replace(default, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_noise_spec(cfg):
    return _build(NoiseSpec(), NOISE_KEYS, cfg)


def first_fitting_kind(cfg, kinds):
    """The first of `kinds` whose penalty fits cfg's lambda and shape.

    A sweep builds its solver settings with this kind, so a swept kind
    that does not fit fails only its own cells.  If none fits, the first
    kind's error is raised.
    """
    errors = []
    for kind in kinds:
        try:
            _build(Penalty(), PENALTY_KEYS, {**cfg, "kind": kind})
            return kind
        except ConfigError as exc:
            errors.append(exc)
    raise errors[0]


def build_solver_config(cfg):
    penalty = _build(Penalty(), PENALTY_KEYS, cfg)
    grouping = _build(GroupingConfig(), GROUPING_KEYS, cfg)
    return _build(SolverConfig(), SOLVER_KEYS, cfg, penalty=penalty, grouping=grouping)

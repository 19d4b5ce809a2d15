"""Flat key=value experiment configs.

A config file holds one key=value pair per line; blank lines and lines
starting with '#' are ignored.  Command-line overrides (--key value) are
applied on top.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math

from .lowrank import INIT_WEIGHTS, WEIGHTINGS
from .measurement import NOISE_MODELS, NoiseSpec
from .patches import GroupingConfig
from .penalties import EPS_WEIGHT, KINDS, Penalty
from .solver import FIDELITIES, INITS, SolverConfig


class ConfigError(Exception):
    pass


# Every recognized key with its default (None = no default, must be given
# when the subcommand needs it).
DEFAULTS = {
    "input": None,
    "output": None,
    "trace": None,
    "ground_truth": None,
    "seed": "0",
    "jobs": "1",
    # measurement
    "op": "dense",
    "subrate": "0.3",
    "noise": "none",
    "noise_sigma": "1.0",
    "noise_xi": "0.1",
    "noise_kappa": "100.0",
    "target_snr_db": None,
    # penalty
    "kind": "log",
    "lambda": "1.0",
    "shape": "10.0",
    # grouping
    "patch": "6",
    "stride": "4",
    "window": "20",
    "group_size": "60",
    # solver
    "solver_lambda": "7.5e6",
    "mu": "0.05",
    "weighting": "combined",
    "fidelity": "l2",
    "sigma_m": "auto",
    "outer_iters": "80",
    "gd_steps": "20",
    "epsilon": repr(EPS_WEIGHT),
    "init": "adjoint",
    "init_weights": "observation",
    # denoise
    "tau": None,
    "sweeps": "1",
    # sweep grids (comma separated; "none" allowed in sweep_snrs)
    "sweep_subrates": None,
    "sweep_snrs": None,
    "sweep_kinds": None,
    "sweep_weightings": None,
}


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
    """Defaults, then file values, then CLI overrides; keys must be known."""
    cfg = dict(DEFAULTS)
    for source in (file_pairs, override_pairs):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


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


def as_choice(cfg, key, choices):
    raw = need(cfg, key)
    if raw not in choices:
        raise ConfigError(
            f"key {key!r} must be one of {', '.join(choices)}; got {raw!r}"
        )
    return raw


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


def build_noise_spec(cfg):
    model = as_choice(cfg, "noise", NOISE_MODELS)
    target = None
    if cfg.get("target_snr_db") is not None:
        target = as_float(cfg, "target_snr_db")
    try:
        return NoiseSpec(
            model=model,
            sigma=as_float(cfg, "noise_sigma"),
            xi=as_float(cfg, "noise_xi"),
            kappa=as_float(cfg, "noise_kappa"),
            target_snr_db=target,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_penalty(cfg):
    try:
        return Penalty(
            kind=as_choice(cfg, "kind", KINDS),
            lam=as_float(cfg, "lambda"),
            shape=as_float(cfg, "shape"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grouping(cfg):
    try:
        return GroupingConfig(
            patch_side=as_int(cfg, "patch"),
            stride=as_int(cfg, "stride"),
            window_side=as_int(cfg, "window"),
            group_size=as_int(cfg, "group_size"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_solver_config(cfg, init_image=None):
    sigma_raw = need(cfg, "sigma_m")
    sigma_m = None if sigma_raw == "auto" else as_float(cfg, "sigma_m")
    try:
        return SolverConfig(
            lam=as_float(cfg, "solver_lambda"),
            mu=as_float(cfg, "mu"),
            penalty=build_penalty(cfg),
            weighting=as_choice(cfg, "weighting", WEIGHTINGS),
            grouping=build_grouping(cfg),
            fidelity=as_choice(cfg, "fidelity", FIDELITIES),
            sigma_m=sigma_m,
            outer_iters=as_int(cfg, "outer_iters"),
            gd_steps=as_int(cfg, "gd_steps"),
            epsilon=as_float(cfg, "epsilon"),
            init=as_choice(cfg, "init", INITS),
            init_image=init_image,
            init_weights=as_choice(cfg, "init_weights", INIT_WEIGHTS),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

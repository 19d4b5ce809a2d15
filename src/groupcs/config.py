"""Flat key=value experiment configs.

A config file holds one key=value pair per line; blank lines and lines
starting with '#' are ignored.  Command-line overrides (--key value) are
applied on top.  Unknown keys are rejected so typos fail loudly.

The settings types (RunConfig here, SolverConfig, Penalty,
GroupingConfig, NoiseSpec) own their defaults and their checks.  Each
has one table here mapping a config key to its field and parser; a key
left unset keeps the type's default, and the type's __post_init__ is the
only check of its choices and bounds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .lowrank import WEIGHTINGS
from .measurement import NoiseSpec, check_operator_kind, check_subrate
from .patches import GroupingConfig
from .penalties import KINDS, Penalty
from .solver import SolverConfig


class ConfigError(ValueError):
    """A config or command line that cannot be read."""


@dataclass(frozen=True)
class RunConfig:
    """The settings no library type holds: the paths, the seed, the sweep's
    worker count, the operator, denoise's tau and sweeps, and the sweep
    grid.  A path or tau of None was not given; a sweep list of None is
    not swept, and a None entry of sweep_snrs is a cell with no target.
    """

    input: str | None = None
    output: str | None = None
    trace: str | None = None
    ground_truth: str | None = None
    seed: int = 0
    jobs: int = 1
    op: str = "dense"
    subrate: float = 0.3
    tau: float | None = None
    sweeps: int = 1
    sweep_subrates: tuple | None = None
    sweep_snrs: tuple | None = None
    sweep_kinds: tuple | None = None
    sweep_weightings: tuple | None = None

    def __post_init__(self):
        check_operator_kind(self.op)
        for subrate in (self.subrate, *(self.sweep_subrates or ())):
            check_subrate(subrate)
        for name, low in (("seed", 0), ("jobs", 1), ("sweeps", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.tau is not None and not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        for name, choices in (("sweep_kinds", KINDS), ("sweep_weightings", WEIGHTINGS)):
            for entry in getattr(self, name) or ():
                if entry not in choices:
                    raise ValueError(f"{name} entries must be one of "
                                     f"{', '.join(choices)}; got {entry!r}")

    def required(self, name):
        """The value of `name`, which this subcommand cannot run without."""
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"missing required config key {name!r}")
        return value


# Parsers take the key, for their messages, and its raw string value.
def as_str(key, raw):
    return raw


def as_int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} wants an integer, got {raw!r}") from exc


def as_float(key, raw):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} wants a number, got {raw!r}") from exc
    if math.isnan(value):
        raise ConfigError(f"key {key!r} must not be NaN")
    return value


def as_float_or(token):
    """A number, or None for the word `token`."""
    return lambda key, raw: None if raw == token else as_float(key, raw)


def as_list(parse):
    """Comma-separated entries, each read by `parse`."""
    return lambda key, raw: tuple(parse(key, part.strip()) for part in raw.split(","))


# config key -> (field, parser), one table per settings type
RUN_KEYS = {
    "input": ("input", as_str),
    "output": ("output", as_str),
    "trace": ("trace", as_str),
    "ground_truth": ("ground_truth", as_str),
    "seed": ("seed", as_int),
    "jobs": ("jobs", as_int),
    "op": ("op", as_str),
    "subrate": ("subrate", as_float),
    "tau": ("tau", as_float),
    "sweeps": ("sweeps", as_int),
    "sweep_subrates": ("sweep_subrates", as_list(as_float)),
    "sweep_snrs": ("sweep_snrs", as_list(as_float_or("none"))),
    "sweep_kinds": ("sweep_kinds", as_list(as_str)),
    "sweep_weightings": ("sweep_weightings", as_list(as_str)),
}
PENALTY_KEYS = {
    "kind": ("kind", as_str),
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
    "weighting": ("weighting", as_str),
    "fidelity": ("fidelity", as_str),
    "sigma_m": ("sigma_m", as_float_or("auto")),
    "outer_iters": ("outer_iters", as_int),
    "gd_steps": ("gd_steps", as_int),
    "init_weights": ("init_weights", as_str),
}
NOISE_KEYS = {
    "noise": ("model", as_str),
    "noise_sigma": ("sigma", as_float),
    "noise_xi": ("xi", as_float),
    "noise_kappa": ("kappa", as_float),
    "target_snr_db": ("target_snr_db", as_float),
}

KEYS = frozenset(RUN_KEYS).union(PENALTY_KEYS, GROUPING_KEYS, SOLVER_KEYS, NOISE_KEYS)


def parse_kv_file(path):
    """Read a flat key=value file into a string dict."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    """File values, then CLI overrides, as one string dict; keys must be known.

    Keys left unset are absent, so they keep their type's default.
    """
    cfg = {}
    for source in (file_pairs, override_pairs):
        for key, value in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


def _build(default, table, cfg, **fields):
    """Replace the fields of `default` that cfg sets; the type checks them."""
    for key, (name, parse) in table.items():
        if key in cfg:
            fields[name] = parse(key, cfg[key])
    return dataclasses.replace(default, **fields)


def build_noise_spec(cfg):
    return _build(NoiseSpec(), NOISE_KEYS, cfg)


def build_solver_config(cfg):
    penalty = _build(Penalty(), PENALTY_KEYS, cfg)
    grouping = _build(GroupingConfig(), GROUPING_KEYS, cfg)
    return _build(SolverConfig(), SOLVER_KEYS, cfg, penalty=penalty, grouping=grouping)


def build_settings(cfg):
    """(RunConfig, SolverConfig, NoiseSpec) from cfg, every key given checked."""
    return _build(RunConfig(), RUN_KEYS, cfg), build_solver_config(cfg), build_noise_spec(cfg)

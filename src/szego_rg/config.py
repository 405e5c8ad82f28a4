"""Plain-text configuration: key = value lines under [section] headers.

SCHEMA holds one typed Key per configuration key: its default, its parser and
its documentation.  Unknown sections or keys are rejected with the offending
name; parse(emit(cfg)) == cfg.  RunConfig.value applies one rule to every key:
a key may be empty exactly when its default is empty, and its documentation
then says what empty means ("empty = ..."): the value of the experiment's
default plan, or for simulate of FlowSpec, InitialDataSpec and the n_max = 32
torus.  Those hold every such default; SCHEMA restates none.  Any other
empty value, and any value that does not parse (numbers must be finite), is
a ConfigError naming the key.

Every [flow], [initial_data], [grid] and [experiment] key is named after the
field of FlowSpec, InitialDataSpec, FrequencyGrid or ExperimentPlan that it
fills, so the builders pass the set keys of a section on as keyword
arguments, and a set key overrides exactly its own field: the [grid] keys
fill the run's FrequencyGrid, the plan's grid or simulate's n_max = 32 torus.
A key set off its default that the run never reads is rejected: [flow] off
simulate, [run] experiment and every [experiment] key in simulate,
[experiment] keys outside the experiment's EXPERIMENT_KEYS, [initial_data]
keys outside the data kind's DATA_KEYS (the audit reads none).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace as dc_replace
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .dynamics import SLOW_DT, Flow, FlowSpec
from .experiments import (
    COMMAND,
    DATA_KEYS,
    EXPERIMENT_KEYS,
    DataKind,
    Experiment,
    ExperimentPlan,
    InitialDataSpec,
    default_plan,
)
from .spectral import Domain, FrequencyGrid


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or broken invariant."""


def _finite(conv: Callable[[str], Any]) -> Callable[[str], Any]:
    """Parser of conv values that rejects nan and inf."""
    def parse(raw: str):
        x = conv(raw)
        if not np.isfinite(x):
            raise ValueError("finite number expected")
        return x
    return parse


_float = _finite(float)
_complex = _finite(complex)


def _nonnegative_int(raw: str) -> int:
    """Parser of a non-negative integer."""
    if int(raw) < 0:
        raise ValueError("non-negative integer expected")
    return int(raw)


def _list(conv: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of conv values."""
    return lambda raw: tuple(conv(x) for x in raw.split(",") if x.strip())


@dataclass(frozen=True)
class Key:
    """One configuration key: default string, parser and documentation.  An
    empty default (the key may then be left empty) stands for the value of
    the dataclass field the key fills."""

    default: str
    parse: Callable[[str], Any]
    doc: str


def _empty(parse: Callable[[str], Any], doc: str, empty: str = "experiment default") -> Key:
    """A key that may be left empty, meaning the dataclass field's value."""
    return Key("", parse, f"{doc}; empty = {empty}")


SCHEMA: dict[str, dict[str, Key]] = {
    "run": {
        "experiment": Key(
            "scaling_first_order_torus", Experiment,
            "experiment name for the scaling/growth/audit commands",
        ),
        "seed": Key(str(InitialDataSpec.seed), _nonnegative_int, "seed of seeded data and the audit"),
        "output_dir": Key("out", str, "run directory (flag --out overrides)"),
    },
    "grid": {
        "n_max": _empty(int, "modes k = -n_max..n_max"),
        "domain": _empty(Domain, "torus | bigbox"),
        "length": _empty(_float, "box length L; ignored on the torus (2*pi)"),
    },
    "flow": {
        "flow": Key("full_nlw", Flow, "full_nlw | first_order_rg | second_order_averaged"),
        "eps": Key("0.1", _float, "coupling amplitude, in (0, 1]"),
        "dt": Key("0.05", _float, "time step"),
        "t_end": Key("1000.0", _float, "integration horizon"),
        "s": _empty(_float, "diagnostic Sobolev index", "FlowSpec default"),
        "snapshot_stride": _empty(_float, "fast-time between snapshots", "0.05/eps^2"),
    },
    "initial_data": {
        "kind": _empty(DataKind, "hardy_polynomial | rational_nongeneric | seeded_random_hardy"),
        "modes": _empty(_list(int), "mode list for hardy_polynomial"),
        "amplitudes": _empty(_list(_complex), "complex amplitudes for hardy_polynomial"),
        "decay": _empty(_float, "spectral decay exponent for seeded_random_hardy"),
        "normalization": _empty(_float, "target L2 norm"),
        "scale": _empty(_float, "multiplier applied after normalization"),
    },
    "experiment": {
        "eps_list": _empty(_list(_float), "decreasing sweep values"),
        "s": _empty(_float, "Sobolev index of the measured error"),
        "alpha": _empty(_float, "horizon log-power parameter in [0, 1/2]"),
        "delta": _empty(_float, "horizon log argument parameter"),
        "dt": _empty(_float, "time step, in (0, 0.5]"),
        "snapshots_per_run": _empty(int, "snapshots per trajectory"),
        "growth_t_min": _empty(_float, "lower end of the growth fit window"),
        "growth_t_max": _empty(_float, "upper end of the growth fit window; sobolev_growth's horizon"),
        "growth_points": _empty(_nonnegative_int, "points on the logarithmic t grid"),
        "audit_fields": _empty(int, "random fields per kernel-audit check"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration: the read-only mapping from (section, key)
    to the value string, with an entry for every schema key."""

    values: Mapping[tuple[str, str], str]

    def with_value(self, section: str, key: str, value: str) -> "RunConfig":
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        return RunConfig(MappingProxyType({**self.values, (section, key): value}))

    def value(self, section: str, key: str) -> Any:
        """Typed value of one key; None for an empty key whose default is empty."""
        spec = SCHEMA[section][key]
        raw = self.values[section, key].strip()
        if not raw:
            if not spec.default:
                return None
            raise ConfigError(f"key '{key}' in section [{section}] must not be empty")
        try:
            return spec.parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value '{raw}' for key '{key}' in section [{section}]: {exc}"
            ) from None

    def section(self, section: str) -> dict[str, Any]:
        """Typed values of the set keys of one section; an empty key keeps its field's value."""
        return {k: v for k in SCHEMA[section] if (v := self.value(section, k)) is not None}


def default_config() -> RunConfig:
    defaults = {(s, k): key.default for s, keys in SCHEMA.items() for k, key in keys.items()}
    return RunConfig(MappingProxyType(defaults))


def parse_config(text: str) -> RunConfig:
    """Parse and validate; unknown sections or keys raise ConfigError.  No
    header is empty, so [DEFAULT] is an ordinary, and unknown, section."""
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, strict=True, default_section=""
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable configuration: {exc}") from None
    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            cfg = cfg.with_value(section, key, value.strip())
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config(text)


def emit_config(cfg: RunConfig) -> str:
    """Canonical serialization; parse(emit(cfg)) == cfg."""
    lines = []
    for section, keys in SCHEMA.items():
        lines += [f"[{section}]", *(f"{key} = {cfg.values[section, key]}" for key in keys), ""]
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# builders


def _unread(cfg: RunConfig, section: str, reads: tuple[str, ...], reader: str) -> None:
    """Reject the first key of section, in SCHEMA order, set off its default and not in reads."""
    default = default_config()
    for key in SCHEMA[section]:
        if key not in reads and cfg.value(section, key) != default.value(section, key):
            raise ConfigError(f"key '{key}' in section [{section}] is not read by {reader}")


def flow_spec_from_config(cfg: RunConfig) -> tuple[FlowSpec, InitialDataSpec]:
    _unread(cfg, "run", ("seed", "output_dir"), "simulate")
    _unread(cfg, "experiment", (), "simulate")
    kind = cfg.value("initial_data", "kind") or InitialDataSpec.kind
    _unread(cfg, "initial_data", DATA_KEYS[kind], f"{kind.value} data")
    grid = {"n_max": 32, "domain": Domain.TORUS, **cfg.section("grid")}
    try:
        # the effective flows step in slow time, like the sweeps' first-order arms
        spec = FlowSpec(grid=FrequencyGrid(**grid), slow=SLOW_DT, **cfg.section("flow"))
        data = InitialDataSpec(seed=cfg.value("run", "seed"), **cfg.section("initial_data"))
        data.build(spec.grid, spec.s)  # the data's own check, before the run starts
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, data


def plan_from_config(cfg: RunConfig) -> ExperimentPlan:
    """Experiment plan: the experiment's default plan, with the [run] seed and
    every set [initial_data], [experiment] and [grid] value overriding exactly
    the field it names; [flow] must keep its defaults."""
    plan = default_plan(cfg.value("run", "experiment"))
    _unread(cfg, "flow", (), COMMAND[plan.experiment])
    _unread(cfg, "experiment", EXPERIMENT_KEYS[plan.experiment], plan.experiment.value)
    kind = cfg.value("initial_data", "kind") or plan.initial_data.kind
    if plan.experiment is Experiment.KERNEL_AUDIT:
        _unread(cfg, "initial_data", (), plan.experiment.value)
    else:
        _unread(cfg, "initial_data", DATA_KEYS[kind], f"{kind.value} data")
    try:
        data = dc_replace(
            plan.initial_data, seed=cfg.value("run", "seed"), **cfg.section("initial_data")
        )
        grid = dc_replace(plan.grid, **cfg.section("grid"))
        plan = dc_replace(plan, grid=grid, initial_data=data, **cfg.section("experiment"))
        data.build(plan.grid, plan.s)  # the data's own check, before the run starts
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return plan

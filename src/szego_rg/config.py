"""Plain-text configuration: key = value lines under [section] headers.

SCHEMA holds one typed Key per configuration key: its default, its parser and
its documentation.  Unknown sections or keys are rejected with the offending
name; parse(emit(cfg)) == cfg.  RunConfig.value applies one rule to every key:
an empty value is None only for an optional key, whose documentation says what
empty means ("empty = ..."); any other empty value, and any value that does
not parse (numbers must be finite), is a ConfigError naming the key.

Every [flow], [initial_data], [grid] and [experiment] key is named after the
field of FlowSpec, InitialDataSpec or ExperimentPlan that it fills, so the
builders pass whole sections on as keyword arguments.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable

import numpy as np

from .dynamics import Flow, FlowSpec
from .experiments import (
    DataKind,
    Experiment,
    ExperimentPlan,
    InitialDataSpec,
    default_plan,
)
from .spectral import TWO_PI, Domain, make_grid


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or broken invariant."""


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError("boolean expected")


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
    """One configuration key: default string, parser, documentation, and
    whether an empty value is allowed (it then reads as None)."""

    default: str
    parse: Callable[[str], Any]
    doc: str
    optional: bool = False


EMPTY = "empty = experiment default"

SCHEMA: dict[str, dict[str, Key]] = {
    "run": {
        "experiment": Key(
            "scaling_first_order_torus", Experiment,
            "experiment name for the scaling/growth/audit commands",
        ),
        "seed": Key("20240", _nonnegative_int, "seed of seeded random data and the audit"),
        "output_dir": Key("out", str, "run directory (flag --out overrides)"),
        "emit_svg": Key("false", _bool, "also write SVG plots (flag --svg overrides)"),
    },
    "grid": {
        "n_max": Key("", int, f"modes k = -n_max..n_max; {EMPTY}", True),
        "domain": Key("", Domain, f"torus | bigbox; {EMPTY}", True),
        "length": Key("", _float, f"box length L; ignored on the torus (2*pi); {EMPTY}", True),
    },
    "flow": {
        "flow": Key("full_nlw", Flow, "full_nlw | first_order_rg | second_order_averaged"),
        "eps": Key("0.1", _float, "coupling amplitude, in (0, 1]"),
        "dt": Key("0.05", _float, "time step"),
        "t_end": Key("1000.0", _float, "integration horizon"),
        "s": Key("1.0", _float, "diagnostic Sobolev index"),
        "snapshot_stride": Key("", _float, "fast-time between snapshots; empty = 0.05/eps^2", True),
        "slow_time_cap": Key("100.0", _float, "bound on eps^2 * t_end"),
    },
    "initial_data": {
        "kind": Key(
            "hardy_polynomial", DataKind,
            "hardy_polynomial | rational_nongeneric | seeded_random_hardy",
        ),
        "modes": Key("1,2,3", _list(int), "mode list for hardy_polynomial"),
        "amplitudes": Key("2.0,1.0,0.5", _list(_complex), "complex amplitudes for hardy_polynomial"),
        "decay": Key("1.5", _float, "spectral decay exponent for seeded_random_hardy"),
        "normalization": Key("1.0", _float, "target L2 norm; empty = keep raw amplitudes", True),
        "scale": Key("1.0", _float, "multiplier applied after normalization"),
    },
    "experiment": {
        "eps_list": Key("", _list(_float), f"decreasing sweep values; {EMPTY}", True),
        "s": Key("1.0", _float, "Sobolev index of the measured error"),
        "alpha": Key("", _float, f"horizon log-power parameter in [0, 1/2]; {EMPTY}", True),
        "delta": Key("0.1", _float, "horizon log argument parameter"),
        "dt": Key("", _float, f"time step, in (0, 0.5]; {EMPTY}", True),
        "snapshots_per_run": Key("150", int, "snapshots per trajectory"),
        "slope_threshold": Key("", _float, f"pass threshold for the fitted slope; {EMPTY}", True),
        "residual_max": Key("", _float, f"pass threshold for the fit residual; {EMPTY}", True),
        "t_end": Key("", _float, f"horizon for conservation/growth runs; {EMPTY}", True),
        "growth_t_min": Key("", _float, f"lower end of the growth fit window; {EMPTY}", True),
        "growth_t_max": Key("", _float, f"upper end of the growth fit window; {EMPTY}", True),
        "growth_points": Key("25", int, "points on the logarithmic t grid"),
        "audit_fields": Key("20", int, "random fields per kernel-audit check"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration: every schema key has a value string."""

    values: tuple[tuple[str, str, str], ...]  # (section, key, value)

    def get(self, section: str, key: str) -> str:
        for s, k, v in self.values:
            if s == section and k == key:
                return v
        raise KeyError(f"[{section}] {key}")

    def with_value(self, section: str, key: str, value: str) -> "RunConfig":
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        vals = tuple(
            (s, k, value if (s, k) == (section, key) else v) for s, k, v in self.values
        )
        return RunConfig(vals)

    def value(self, section: str, key: str) -> Any:
        """Typed value of one key; None for an empty optional key."""
        spec = SCHEMA[section][key]
        raw = self.get(section, key).strip()
        if not raw:
            if spec.optional:
                return None
            raise ConfigError(f"key '{key}' in section [{section}] must not be empty")
        try:
            return spec.parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value '{raw}' for key '{key}' in section [{section}]: {exc}"
            ) from None

    def section(self, section: str) -> dict[str, Any]:
        """Typed values of every key of one section."""
        return {key: self.value(section, key) for key in SCHEMA[section]}


def default_config() -> RunConfig:
    return RunConfig(
        tuple((s, k, key.default) for s, keys in SCHEMA.items() for k, key in keys.items())
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate; unknown sections or keys raise ConfigError."""
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, strict=True
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
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cfg = cfg.with_value(section, key, value.strip())
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def emit_config(cfg: RunConfig) -> str:
    """Canonical serialization; parse(emit(cfg)) == cfg."""
    out = io.StringIO()
    for section in SCHEMA:
        out.write(f"[{section}]\n")
        for key in SCHEMA[section]:
            out.write(f"{key} = {cfg.get(section, key)}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# builders


def _set(values: dict[str, Any]) -> dict[str, Any]:
    """The entries of a section that are not empty."""
    return {k: v for k, v in values.items() if v is not None}


def _grid(cfg: RunConfig, domain: Domain) -> dict[str, Any]:
    """The non-empty [grid] values, with length 2*pi when the run's domain
    (the section's, else domain) is the torus."""
    grid = _set(cfg.section("grid"))
    if grid.get("domain", domain) is Domain.TORUS:
        grid["length"] = TWO_PI
    return grid


def initial_data_from_config(cfg: RunConfig) -> InitialDataSpec:
    return InitialDataSpec(seed=cfg.value("run", "seed"), **cfg.section("initial_data"))


def flow_spec_from_config(cfg: RunConfig) -> tuple[FlowSpec, InitialDataSpec]:
    grid = {"n_max": 32, "domain": Domain.TORUS, "length": None, **_grid(cfg, Domain.TORUS)}
    try:
        spec = FlowSpec(grid=make_grid(**grid), **cfg.section("flow"))
        data = initial_data_from_config(cfg)
        data.build(spec.grid)  # reject data off the grid or overflowing, eagerly
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, data


def plan_from_config(cfg: RunConfig) -> ExperimentPlan:
    """Experiment plan: the experiment's tuned defaults, overridden by every
    non-empty [experiment] and [grid] value, and by the whole [initial_data]
    section once any of its values differs from the schema default."""
    plan = default_plan(cfg.value("run", "experiment"))
    grid = _grid(cfg, plan.domain)
    try:
        data_keys = SCHEMA["initial_data"].items()
        if any(cfg.get("initial_data", k) != key.default for k, key in data_keys):
            data = initial_data_from_config(cfg)
        else:
            data = dc_replace(plan.initial_data, seed=cfg.value("run", "seed"))
        plan = dc_replace(plan, initial_data=data, **_set(cfg.section("experiment")), **grid)
        plan.initial_data.build(plan.grid())  # validate grid and data eagerly
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return plan

"""Plain-text configuration: key = value lines under [section] headers.

Unknown sections or keys are rejected with the offending name; every key has
a documented default; parse(emit(cfg)) == cfg.  Empty values mean "use the
experiment's tuned default" for the keys where that applies.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dynamics import Flow, FlowSpec
from .experiments import (
    DataKind,
    Experiment,
    ExperimentPlan,
    HorizonMode,
    InitialDataSpec,
    default_plan,
)
from .spectral import Domain, make_grid


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or broken invariant."""


# section -> key -> (default string, documentation)
SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "run": {
        "experiment": (
            "scaling_first_order_torus",
            "experiment name for the scaling/growth/audit commands",
        ),
        "seed": ("20240", "seed for seeded random initial data"),
        "output_dir": ("out", "run directory (flag --out overrides)"),
        "emit_svg": ("false", "also write SVG plots (flag --svg overrides)"),
    },
    "grid": {
        "n_max": ("", "modes k = -n_max..n_max; empty = experiment default"),
        "domain": ("", "torus | bigbox; empty = experiment default"),
        "length": ("", "box length L; ignored on the torus (2*pi)"),
    },
    "flow": {
        "flow": ("full_nlw", "full_nlw | first_order_rg | second_order_averaged"),
        "eps": ("0.1", "coupling amplitude, in (0, 1]"),
        "dt": ("0.05", "time step"),
        "t_end": ("1000.0", "integration horizon"),
        "s": ("1.0", "diagnostic Sobolev index"),
        "snapshot_stride": ("", "fast-time between snapshots; empty = 0.05/eps^2"),
        "slow_time_cap": ("100.0", "bound on eps^2 * t_end"),
        "nonlinear": ("true", "false integrates the free flow only (test hook)"),
    },
    "initial_data": {
        "kind": (
            "hardy_polynomial",
            "hardy_polynomial | rational_nongeneric | seeded_random_hardy",
        ),
        "modes": ("1,2,3", "mode list for hardy_polynomial"),
        "amplitudes": ("2.0,1.0,0.5", "complex amplitudes for hardy_polynomial"),
        "decay": ("1.5", "spectral decay exponent for seeded_random_hardy"),
        "normalization": ("1.0", "target L2 norm; empty keeps raw amplitudes"),
        "scale": ("1.0", "multiplier applied after normalization"),
    },
    "experiment": {
        "eps_list": ("", "decreasing sweep values; empty = experiment default"),
        "s": ("1.0", "Sobolev index of the measured error"),
        "alpha": ("", "horizon log-power parameter in [0, 1/2]; empty = default"),
        "delta": ("0.1", "horizon log argument parameter"),
        "horizon_mode": ("log_corrected", "log_corrected | fixed_slow_time"),
        "slow_time_cap": ("2.0", "slow-time horizon for fixed_slow_time mode"),
        "dt": ("", "time step; empty = experiment default"),
        "snapshots_per_run": ("150", "snapshots per trajectory"),
        "slope_threshold": ("", "pass threshold override for the fitted slope"),
        "residual_max": ("", "pass threshold override for the fit residual"),
        "hypothesis_factor": ("3.0", "flag rows where sup|W| exceeds this factor"),
        "t_end": ("", "horizon for conservation/growth runs; empty = default"),
        "growth_t_min": ("", "lower end of the growth fit window"),
        "growth_t_max": ("", "upper end of the growth fit window"),
        "growth_points": ("25", "points on the logarithmic t grid"),
        "audit_fields": ("20", "random fields per kernel-audit check"),
        "negative_control": ("false", "corrupt one closed form; audit must fail"),
    },
}

_EXPERIMENT_NAMES = {e.value: e for e in Experiment}
_FLOW_NAMES = {f.value: f for f in Flow}
_DOMAIN_NAMES = {d.value: d for d in Domain}
_KIND_NAMES = {k.value: k for k in DataKind}
_HORIZON_NAMES = {h.value: h for h in HorizonMode}


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

    # typed accessors -------------------------------------------------------

    def _parse(self, section, key, conv, what):
        raw = self.get(section, key)
        try:
            return conv(raw)
        except (ValueError, KeyError):
            raise ConfigError(
                f"bad value '{raw}' for key '{key}' in section [{section}] ({what})"
            ) from None

    def get_int(self, section, key, default=None):
        raw = self.get(section, key).strip()
        if raw == "":
            return default
        return self._parse(section, key, int, "integer expected")

    def get_float(self, section, key, default=None):
        raw = self.get(section, key).strip()
        if raw == "":
            return default
        return self._parse(section, key, float, "number expected")

    def get_bool(self, section, key):
        raw = self.get(section, key).strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad value '{raw}' for key '{key}' in section [{section}] (boolean expected)")

    def get_enum(self, section, key, names, default=None):
        raw = self.get(section, key).strip()
        if raw == "":
            return default
        return self._parse(section, key, lambda r: names[r], f"one of {sorted(names)}")

    def get_floats(self, section, key, default=None):
        raw = self.get(section, key).strip()
        if raw == "":
            return default
        return self._parse(
            section, key, lambda r: tuple(float(x) for x in r.split(",") if x.strip()),
            "comma-separated numbers",
        )


def default_config() -> RunConfig:
    vals = []
    for section, keys in SCHEMA.items():
        for key, (default, _doc) in keys.items():
            vals.append((section, key, default))
    return RunConfig(tuple(vals))


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


def _seed(cfg: RunConfig) -> int:
    """[run] seed; an empty value would leave seeded data unreproducible."""
    if not cfg.get("run", "seed").strip():
        raise ConfigError("key 'seed' in section [run] must not be empty")
    return cfg.get_int("run", "seed")


def _parse_amplitudes(cfg: RunConfig) -> tuple[complex, ...]:
    raw = cfg.get("initial_data", "amplitudes")
    try:
        return tuple(complex(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(
            f"bad value '{raw}' for key 'amplitudes' in section [initial_data]"
        ) from None


def initial_data_from_config(cfg: RunConfig) -> InitialDataSpec:
    kind = cfg.get_enum("initial_data", "kind", _KIND_NAMES)
    modes_raw = cfg.get("initial_data", "modes")
    try:
        modes = tuple(int(x) for x in modes_raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(
            f"bad value '{modes_raw}' for key 'modes' in section [initial_data]"
        ) from None
    return InitialDataSpec(
        kind=kind,
        modes=modes,
        amplitudes=_parse_amplitudes(cfg),
        seed=_seed(cfg),
        decay=cfg.get_float("initial_data", "decay"),
        normalization=cfg.get_float("initial_data", "normalization", default=None),
        scale=cfg.get_float("initial_data", "scale"),
    )


def flow_spec_from_config(cfg: RunConfig) -> tuple[FlowSpec, InitialDataSpec]:
    n_max = cfg.get_int("grid", "n_max", default=32)
    domain = cfg.get_enum("grid", "domain", _DOMAIN_NAMES, default=Domain.TORUS)
    length = cfg.get_float("grid", "length", default=None)
    try:
        grid = make_grid(n_max, domain, length)
        spec = FlowSpec(
            flow=cfg.get_enum("flow", "flow", _FLOW_NAMES),
            grid=grid,
            eps=cfg.get_float("flow", "eps"),
            dt=cfg.get_float("flow", "dt"),
            t_end=cfg.get_float("flow", "t_end"),
            s=cfg.get_float("flow", "s"),
            snapshot_stride=cfg.get_float("flow", "snapshot_stride", default=None),
            slow_time_cap=cfg.get_float("flow", "slow_time_cap"),
            nonlinear=cfg.get_bool("flow", "nonlinear"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, initial_data_from_config(cfg)


_DATA_KEYS_DEFAULT = ("kind", "modes", "amplitudes", "decay", "normalization", "scale")


def plan_from_config(cfg: RunConfig) -> ExperimentPlan:
    """Experiment plan: tuned per-experiment defaults, overridden by any
    explicitly-set (non-empty / non-default) config values."""
    experiment = cfg.get_enum("run", "experiment", _EXPERIMENT_NAMES)
    plan = default_plan(experiment)

    base = default_config()
    data_overridden = any(
        cfg.get("initial_data", k) != base.get("initial_data", k)
        for k in _DATA_KEYS_DEFAULT
    )
    if data_overridden:
        plan = dc_replace(plan, initial_data=initial_data_from_config(cfg))
    else:
        plan = dc_replace(
            plan, initial_data=dc_replace(plan.initial_data, seed=_seed(cfg))
        )

    overrides = {}
    if (v := cfg.get_floats("experiment", "eps_list")) is not None:
        overrides["eps_list"] = v
    overrides["s"] = cfg.get_float("experiment", "s")
    if (v := cfg.get_float("experiment", "alpha")) is not None:
        overrides["alpha"] = v
    overrides["delta"] = cfg.get_float("experiment", "delta")
    overrides["horizon_mode"] = cfg.get_enum("experiment", "horizon_mode", _HORIZON_NAMES)
    overrides["slow_time_cap"] = cfg.get_float("experiment", "slow_time_cap")
    if (v := cfg.get_float("experiment", "dt")) is not None:
        overrides["dt"] = v
    overrides["snapshots_per_run"] = cfg.get_int("experiment", "snapshots_per_run")
    overrides["slope_threshold"] = cfg.get_float("experiment", "slope_threshold", default=None)
    overrides["residual_max"] = cfg.get_float("experiment", "residual_max", default=None)
    overrides["hypothesis_factor"] = cfg.get_float("experiment", "hypothesis_factor")
    if (v := cfg.get_float("experiment", "t_end")) is not None:
        overrides["t_end"] = v
    if (v := cfg.get_float("experiment", "growth_t_min")) is not None:
        overrides["growth_t_min"] = v
    if (v := cfg.get_float("experiment", "growth_t_max")) is not None:
        overrides["growth_t_max"] = v
    overrides["growth_points"] = cfg.get_int("experiment", "growth_points")
    overrides["audit_fields"] = cfg.get_int("experiment", "audit_fields")
    overrides["audit_seed"] = _seed(cfg)
    overrides["negative_control"] = cfg.get_bool("experiment", "negative_control")
    if (v := cfg.get_int("grid", "n_max")) is not None:
        overrides["n_max"] = v
    if (v := cfg.get_enum("grid", "domain", _DOMAIN_NAMES)) is not None:
        overrides["domain"] = v
    if (v := cfg.get_float("grid", "length")) is not None:
        overrides["length"] = v
    if overrides.get("domain") is Domain.TORUS:
        overrides["length"] = 2.0 * np.pi

    try:
        plan = dc_replace(plan, **overrides)
        plan.grid()  # validate grid parameters eagerly
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return plan

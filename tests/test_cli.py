"""Configuration round trip, CLI commands, CSV formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from routes import PERFBENCH, PINNED, wl
from szego_rg import cli, resonance
from szego_rg.cli import main
from szego_rg.config import (
    SCHEMA,
    ConfigError,
    default_config,
    emit_config,
    parse_config,
    plan_from_config,
)
from szego_rg.dynamics import FlowSpec
from szego_rg.experiments import (
    DATA_KEYS,
    EXPERIMENT_KEYS,
    Experiment,
    ExperimentPlan,
    InitialDataSpec,
    default_plan,
    run_scaling_first_order,
    run_scaling_second_order,
    run_y_vs_u,
)
from szego_rg.spectral import FrequencyGrid


class TestConfig:
    def test_round_trip_default(self):
        cfg = default_config()
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_modified(self):
        cfg = (
            default_config()
            .with_value("run", "experiment", "y_vs_u")
            .with_value("experiment", "eps_list", "0.2,0.1,0.05")
            .with_value("grid", "n_max", "16")
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="epsilonn"):
            parse_config("[flow]\nepsilonn = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config("[nonsense]\nx = 1\n")

    def test_bad_value_names_key(self):
        cfg = default_config().with_value("flow", "eps", "banana")
        with pytest.raises(ConfigError, match="eps"):
            cfg.value("flow", "eps")

    @pytest.mark.parametrize(
        "section, cls",
        [
            ("flow", FlowSpec),
            ("initial_data", InitialDataSpec),
            ("grid", FrequencyGrid),
            ("experiment", ExperimentPlan),
        ],
    )
    def test_keys_name_dataclass_fields(self, section, cls):
        # the builders pass whole sections on as keyword arguments
        assert set(SCHEMA[section]) <= {f.name for f in dataclasses.fields(cls)}

    def test_every_key_is_read(self):
        # each [experiment] key is read by some experiment, each [initial_data] key by some kind
        assert set(SCHEMA["experiment"]) == set().union(*EXPERIMENT_KEYS.values())
        assert set(SCHEMA["initial_data"]) == set().union(*DATA_KEYS.values())

    def test_optional_keys_document_empty(self):
        for keys in SCHEMA.values():
            for name, key in keys.items():
                assert (key.default == "") == ("empty =" in key.doc), name

    def test_plan_defaults_preserved(self):
        cfg = default_config().with_value("run", "experiment", "sobolev_growth")
        plan = plan_from_config(cfg)
        assert plan.experiment is Experiment.SOBOLEV_GROWTH
        assert plan.grid.n_max == 32768  # tuned experiment default survives

    def test_plan_overrides(self):
        cfg = (
            default_config()
            .with_value("run", "experiment", "scaling_first_order_torus")
            .with_value("grid", "n_max", "16")
            .with_value("experiment", "eps_list", "0.3,0.2,0.1")
        )
        plan = plan_from_config(cfg)
        assert plan.grid.n_max == 16
        assert plan.eps_list == (0.3, 0.2, 0.1)

    @pytest.mark.parametrize("experiment, section, key, expected", [
        ("fosc_growth", "experiment", "growth_points", 25),
        ("scaling_first_order_torus", "experiment", "snapshots_per_run", 150),
        ("kernel_audit", "experiment", "audit_fields", 20),
        ("scaling_first_order_torus", "experiment", "s", 1.0),
        ("sobolev_growth", "initial_data", "scale", 2.0),
    ], ids=[
        "empty_growth_points", "empty_snapshots_per_run", "empty_audit_fields",
        "empty_experiment_s", "empty_scale",
    ])
    def test_empty_key_keeps_plan_value(self, experiment, section, key, expected):
        text = f"[run]\nexperiment = {experiment}\n\n[{section}]\n{key} =\n"
        plan = plan_from_config(parse_config(text))
        assert getattr(plan.initial_data if section == "initial_data" else plan, key) == expected

    @pytest.mark.parametrize("experiment, text, changed", [
        (Experiment.SOBOLEV_GROWTH, "scale = 3.0", {"scale": 3.0}),
        (Experiment.SCALING1_BOX, "kind = rational_nongeneric", {}),
    ], ids=["sobolev_scale", "box_kind"])
    def test_set_key_overrides_only_its_field(self, experiment, text, changed):
        # the rational profile keeps normalization None, whatever else is set
        cfg = parse_config(f"[run]\nexperiment = {experiment.value}\n\n[initial_data]\n{text}\n")
        data = plan_from_config(cfg).initial_data
        assert data == dataclasses.replace(default_plan(experiment).initial_data, **changed)
        assert data.normalization is None

    @pytest.mark.parametrize("experiment", [e.value for e in Experiment])
    def test_echo_states_the_plan_that_ran(self, experiment):
        # every value the echo states is the plan's, and the echo reads back as the plan
        cfg = default_config().with_value("run", "experiment", experiment)
        plan = plan_from_config(cfg)
        echo = parse_config(emit_config(cfg))
        assert plan_from_config(echo) == plan
        for section, owner in (("grid", plan.grid), ("experiment", plan),
                               ("initial_data", plan.initial_data)):
            for key, value in echo.section(section).items():
                assert value is None or getattr(owner, key) == value, (section, key)

    @pytest.mark.parametrize("command, text", [
        ("simulate", "[grid]\nn_max = 4\nlength = 100\n\n[flow]\nt_end = 1.0\n"),
        (
            "scaling",
            "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 4\nlength = 100\n\n"
            "[experiment]\nsnapshots_per_run = 10\n",
        ),
    ], ids=["simulate", "y_vs_u"])
    def test_length_ignored_on_default_torus(self, command, text, tmp_path):
        # the torus is the resolved domain of both runs, so [grid] length is ignored
        out = str(tmp_path / "run")
        assert main([command, "--config", write(tmp_path, "t.cfg", text), "--out", out]) == 0


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# the failing quantity an initial-data error names (its message lists every data key)
L2_ZERO, L2_INF = "its L2 norm to normalize is 0", "its L2 norm to normalize is inf"
H_HALF_INF, SUP_INF = "its H^1/2 norm is inf", "its sup bound (sum |c(k)|)^4 is inf"
H_S_INF = "its H^s bound 4 Q sum_k (1 + freq_k^2)^s at s = 170 is inf"

# (command, configuration, key the error must name, or the key and the failing quantity)
BAD_INPUTS = {
    "empty_flow_eps": ("simulate", "[flow]\neps =\n", "eps"),
    "empty_flow_flow": ("simulate", "[flow]\nflow =\n", "flow"),
    "empty_experiment": ("scaling", "[run]\nexperiment =\n", "experiment"),
    "modes_without_amplitudes": ("simulate", "[initial_data]\nmodes = 1,2\n", "modes"),
    "y_vs_u_on_box": (
        "scaling", "[run]\nexperiment = y_vs_u\n\n[grid]\ndomain = bigbox\n", "domain",
    ),
    "first_order_torus_on_box": (
        "scaling",
        "[run]\nexperiment = scaling_first_order_torus\n\n[grid]\ndomain = bigbox\n"
        "length = 201.1\n",
        "domain",
    ),
    "dt_too_large": ("scaling", "[experiment]\ndt = 0.9\n", "dt"),
    "empty_seed": (
        "scaling",
        "[run]\nexperiment = y_vs_u\nseed =\n\n[initial_data]\nkind = seeded_random_hardy\n",
        "seed",
    ),
    "short_sweep": (
        "scaling", "[run]\nexperiment = y_vs_u\n\n[experiment]\neps_list = 0.2,0.1\n",
        "eps_list",
    ),
    "growth_of_scaling_experiment": ("growth", "[run]\nexperiment = y_vs_u\n", "experiment"),
    "scaling_of_growth_experiment": ("scaling", "[run]\nexperiment = fosc_growth\n", "experiment"),
    "norm_index_below_half": ("scaling", "[experiment]\ns = 0.2\n", "norm index s"),
    "zero_snapshots_per_run": (
        "scaling", "[experiment]\nsnapshots_per_run = 0\n", "snapshots_per_run",
    ),
    "two_growth_points": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[experiment]\ngrowth_points = 2\n",
        "growth_points",
    ),
    "mode_outside_grid_simulate": (
        "simulate", "[initial_data]\nmodes = 1,2,40\namplitudes = 1,1,1\n", "modes",
    ),
    "mode_outside_grid_scaling": (
        "scaling", "[initial_data]\nmodes = 1,2,40\namplitudes = 1,1,1\n", "modes",
    ),
    "fosc_growth_window_past_saturation": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[experiment]\ngrowth_t_min = 900\ngrowth_t_max = 1000\n",
        "growth_t_min",
    ),
    "sobolev_growth_window_too_short": (
        "growth",
        "[run]\nexperiment = sobolev_growth\n\n[experiment]\ngrowth_t_min = 39\ngrowth_t_max = 40\n",
        "growth_t_min",
    ),
    "experiment_t_end_removed": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 4\n\n[experiment]\nt_end = 5\n",
        "t_end",
    ),
    "growth_window_reversed": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[experiment]\ngrowth_t_min = 100\ngrowth_t_max = 10\n",
        "growth_t_min",
    ),
    "growth_window_from_zero": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[experiment]\ngrowth_t_min = 0\n",
        "growth_t_min",
    ),
    "audit_above_quintic_cap": ("audit", "[grid]\nn_max = 13\n", "n_max"),
    "audit_on_box": ("audit", "[grid]\ndomain = bigbox\nlength = 100\n", "domain"),
    "audit_fields_zero": (
        "audit", "[grid]\nn_max = 4\n\n[experiment]\naudit_fields = 0\n", "audit_fields",
    ),
    "audit_fields_negative": (
        "audit", "[grid]\nn_max = 4\n\n[experiment]\naudit_fields = -3\n", "audit_fields",
    ),
    "nan_delta": ("scaling", "[grid]\nn_max = 8\n\n[experiment]\ndelta = nan\n", "delta"),
    "delta_underflows": ("scaling", "[experiment]\ndelta = 1000\n", "delta"),
    "horizon_rounds_to_zero": (
        "scaling", "[grid]\nn_max = 8\n\n[experiment]\ndelta = 1e-300\n", "horizon",
    ),
    "nan_norm_index": (
        "scaling", "[run]\nexperiment = y_vs_u\n\n[experiment]\ns = nan\n", "'s'",
    ),
    "nan_snapshot_stride": ("simulate", "[flow]\nsnapshot_stride = nan\n", "snapshot_stride"),
    "infinite_decay": (
        "simulate", "[initial_data]\nkind = seeded_random_hardy\ndecay = -inf\n", "decay",
    ),
    "nan_amplitude": (
        "simulate", "[initial_data]\nmodes = 1,2,3\namplitudes = nan,1,1\n", "amplitudes",
    ),
    "zero_amplitudes_simulate": (
        "simulate", "[initial_data]\nmodes = 0,1\namplitudes = 0,0\n", ("amplitudes", L2_ZERO),
    ),
    "zero_amplitudes_scaling": (
        "scaling", "[initial_data]\nmodes = 0,1\namplitudes = 0,0\n", ("amplitudes", L2_ZERO),
    ),
    "duplicate_modes": ("simulate", "[initial_data]\nmodes = 1,1\namplitudes = 1,2\n", "modes"),
    "infinite_length": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[grid]\nlength = inf\n", "length",
    ),
    "snapshot_stride_zero": (
        "simulate", "[flow]\nt_end = 10\nsnapshot_stride = 0\n", "snapshot_stride",
    ),
    "snapshot_stride_negative": (
        "simulate", "[flow]\nt_end = 10\nsnapshot_stride = -1\n", "snapshot_stride",
    ),
    "negative_seed_simulate": (
        "simulate", "[run]\nseed = -1\n\n[initial_data]\nkind = seeded_random_hardy\n", "seed",
    ),
    "negative_seed_audit": ("audit", "[run]\nseed = -1\n\n[grid]\nn_max = 4\n", "seed"),
    "overflowing_decay_simulate": (
        "simulate",
        "[flow]\nt_end = 10\n\n[initial_data]\nkind = seeded_random_hardy\ndecay = -400\n",
        ("decay", L2_INF),
    ),
    "overflowing_norm": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\namplitudes = 1e200,1,1\n",
        ("normalization", L2_INF),
    ),
    "overflowing_decay_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[initial_data]\nkind = seeded_random_hardy\ndecay = -400\n",
        ("decay", L2_INF),
    ),
    "zero_normalization": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\nnormalization = 0\n", "normalization",
    ),
    "negative_normalization": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n[initial_data]\nnormalization = -1\n",
        "normalization",
    ),
    "overflowing_scale_simulate": (
        "simulate",
        "[flow]\nt_end = 1\n\n[initial_data]\nnormalization = 1e200\nscale = 1e200\n",
        ("scale", H_HALF_INF),
    ),
    "overflowing_scale_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[initial_data]\nnormalization = 1e10\nscale = 1e300\n",
        ("scale", H_HALF_INF),
    ),
    # coefficients that stay finite but whose H^1/2 norm overflows
    "overflowing_h_half_scale_simulate": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\nscale = 1e300\n", ("scale", H_HALF_INF),
    ),
    "overflowing_h_half_normalization": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\nnormalization = 1e300\n",
        ("normalization", H_HALF_INF),
    ),
    "overflowing_h_half_scale_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n[initial_data]\nscale = 1e300\n",
        ("scale", H_HALF_INF),
    ),
    "eps_zeroes_default_stride": (
        "simulate", "[grid]\nn_max = 8\n\n[flow]\nt_end = 1\neps = 1e-200\n", "eps = 1e-200",
    ),
    "eps_overflows_default_stride": (
        "simulate", "[grid]\nn_max = 8\n\n[flow]\nt_end = 1\neps = 1e-160\n", "eps = 1e-160",
    ),
    "sweep_horizon_past_2_53_steps": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[experiment]\neps_list = 0.5,0.4,1e-100\n",
        "eps_list entry 1e-100",
    ),
    "sweep_horizon_overflows": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[experiment]\neps_list = 0.5,0.4,1e-200\n",
        "eps_list entry 1e-200",
    ),
    "t_end_past_2_53_steps": ("simulate", "[flow]\nt_end = 1e300\n", "t_end/dt"),
    "flow_dt_in_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[experiment]\neps_list = 0.4,0.3,0.2\n\n[flow]\ndt = 0.01\n",
        "key 'dt' in section [flow] is not read by scaling",
    ),
    "flow_s_in_growth": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[flow]\ns = 2\n",
        "key 's' in section [flow] is not read by growth",
    ),
    "experiment_keys_in_simulate": (
        "simulate", "[flow]\nt_end = 1\n\n[experiment]\ndt = 0.01\ns = 3\n",
        "key 's' in section [experiment] is not read by simulate",
    ),
    "growth_keys_in_y_vs_u": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[experiment]\neps_list = 0.4,0.3,0.2\ngrowth_points = 5\naudit_fields = 3\n",
        "key 'growth_points' in section [experiment] is not read by y_vs_u",
    ),
    "sweep_and_data_keys_in_audit": (
        "audit",
        "[experiment]\neps_list = 0.3,0.2,0.1\ngrowth_t_min = 3\n\n"
        "[initial_data]\nkind = seeded_random_hardy\nscale = 5\n",
        "key 'eps_list' in section [experiment] is not read by kernel_audit",
    ),
    "data_keys_in_audit": (
        "audit", "[grid]\nn_max = 4\n\n[initial_data]\nkind = seeded_random_hardy\nscale = 5\n",
        "key 'kind' in section [initial_data] is not read by kernel_audit",
    ),
    "sweep_keys_in_fosc_growth": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[grid]\ndomain = torus\nn_max = 64\n\n"
        "[experiment]\ndt = 0.01\nsnapshots_per_run = 7\nalpha = 0.3\n",
        "key 'alpha' in section [experiment] is not read by fosc_growth",
    ),
    "polynomial_keys_with_rational_data": (
        "simulate",
        "[flow]\nt_end = 1\n\n"
        "[initial_data]\nkind = rational_nongeneric\ndecay = 3\nmodes = 1\namplitudes = 1\n",
        "key 'modes' in section [initial_data] is not read by rational_nongeneric data",
    ),
    "growth_window_past_2_53_steps": (
        "growth", "[run]\nexperiment = sobolev_growth\n\n[experiment]\ngrowth_t_max = 1e300\n",
        "growth_t_max",
    ),
    "sobolev_growth_dt_past_2_53_steps": (
        "growth", "[run]\nexperiment = sobolev_growth\n\n[experiment]\ndt = 1e-300\n",
        "growth_t_max/dt",
    ),
    "negative_growth_points": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[grid]\ndomain = torus\nn_max = 16\n\n"
        "[experiment]\ngrowth_points = -1\n",
        "growth_points",
    ),
    "experiment_in_simulate": (
        "simulate", "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 4\n\n[flow]\nt_end = 1\n",
        "key 'experiment' in section [run] is not read by simulate",
    ),
    "unparseable": ("simulate", "eps = 0.1\n", "unparseable"),
    # the verdict thresholds are the default plans', not keys
    "slope_threshold_key": ("scaling", "[experiment]\nslope_threshold = 2.0\n", "slope_threshold"),
    # a finite H^1/2 norm, but a quartic mean (the E column) that overflows
    "overflowing_quartic_simulate": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\nscale = 1e120\n", ("scale", SUP_INF),
    ),
    "overflowing_quartic_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n[initial_data]\nscale = 1e120\n",
        ("scale", SUP_INF),
    ),
    # amplitudes whose squares underflow: an L2 norm of 0 cannot be normalized
    "underflowing_norm": (
        "simulate", "[flow]\nt_end = 1\n\n[initial_data]\namplitudes = 1e-200,1e-200,1e-200\n",
        ("normalization", L2_ZERO),
    ),
    # norm indices whose H^s weight (1 + freq^2)^s overflows at the top mode
    "overflowing_weight_scaling": (
        "scaling", "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n[experiment]\ns = 400\n",
        "s = 400",
    ),
    "overflowing_weight_growth": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[experiment]\ns = 400\n", "s = 400",
    ),
    "overflowing_weight_simulate": ("simulate", "[flow]\nt_end = 1\ns = 400\n", "s = 400"),
    # weights finite at the top mode, but their sum over the grid, the data's
    # H^s bound, overflows: each state's H^s norm could be inf
    "overflowing_h_s_bound_scaling": (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 8\n\n"
        "[experiment]\neps_list = 0.4,0.3,0.2\ns = 170\n\n"
        "[initial_data]\nmodes = 8\namplitudes = 1\nscale = 1.5\n",
        ("s = 170", H_S_INF),
    ),
    "overflowing_h_s_bound_simulate": (
        "simulate",
        "[grid]\nn_max = 8\n\n[flow]\nflow = first_order_rg\nt_end = 1\ns = 170\n\n"
        "[initial_data]\nmodes = 8\namplitudes = 1\nscale = 1.5\n",
        ("s = 170", H_S_INF),
    ),
    "second_order_on_box": (
        "simulate",
        "[grid]\ndomain = bigbox\nlength = 100\nn_max = 8\n\n"
        "[flow]\nflow = second_order_averaged\nt_end = 1\n",
        ("flow = second_order_averaged", "domain"),
    ),
    "nonpositive_delta": ("scaling", "[experiment]\ndelta = -1\n", "delta"),
    "simulate_box_without_length": ("simulate", "[grid]\ndomain = bigbox\n", "length"),
    "nonpositive_box_length": ("simulate", "[grid]\ndomain = bigbox\nlength = -1\n", "length"),
    "zero_box_length_growth": (
        "growth", "[run]\nexperiment = fosc_growth\n\n[grid]\nlength = 0\n", "length",
    ),
    "zero_t_end": ("simulate", "[flow]\nt_end = 0\n", "t_end"),
    "repeated_eps": ("scaling", "[experiment]\neps_list = 0.2,0.2,0.1\n", "eps_list"),
    # grids of 291 TiB of coefficients, which the allocator refuses at once
    "unallocatable_grid_simulate": (
        "simulate", "[grid]\nn_max = 10000000000000\n\n[flow]\nt_end = 1\n", "n_max",
    ),
    "unallocatable_grid_scaling": (
        "scaling", "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 10000000000000\n", "n_max",
    ),
    # a t grid of 8 PB, which the allocator refuses at once
    "unallocatable_growth_points": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[experiment]\ngrowth_points = 1000000000000000\n",
        "growth_points",
    ),
}


@pytest.mark.parametrize("command, text", [
    (
        "scaling",
        "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 4\n\n"
        "[experiment]\neps_list = 0.4,0.3,0.2\nsnapshots_per_run = 5\n",
    ),
    ("growth", "[run]\nexperiment = fosc_growth\n\n[grid]\nn_max = 64\nlength = 100\n"),
    ("audit", "[grid]\nn_max = 4\n\n[experiment]\naudit_fields = 1\n"),
], ids=["scaling", "growth", "audit"])
def test_plan_built_through_module_name(command, text, tmp_path, monkeypatch):
    # the benchmark marks the end of setup by rebinding cli.plan_from_config,
    # so every command must look the name up when it runs
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return plan_from_config(cfg)

    monkeypatch.setattr(cli, "plan_from_config", counting)
    out = str(tmp_path / "run")
    assert main([command, "--config", write(tmp_path, "t.cfg", text), "--out", out]) == 0
    assert len(calls) == 1


# loads the benchmark's tracer by path, installs it, runs each argv list
# through cli.main and prints the exit codes and the metric values
TRACED_RUNS = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()

from szego_rg import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "metrics": {k: v for k, (v, _) in tracer.metrics().items()}}))
"""


def test_benchmark_tracer_fits_the_package(tmp_path):
    # the tracer hooks package names (write_csv's path argument, the ansatz
    # constructors, RunMetadata.write): a traced run must count through them
    pytest.importorskip("scipy")  # Tracer.install imports scipy.fft
    argvs = []
    for name in ("kernel_audit", "scaling2_torus"):
        workload = wl.WORKLOADS[name]
        cfg = write(tmp_path, f"{name}.cfg", workload.config_text(wl.REFERENCE_SEED, tiny=True))
        argvs.append(workload.cli_argv(cfg, str(tmp_path / name)))
    src = str(PERFBENCH.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(PERFBENCH / "tracer.py"), json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["metrics"]["reporting.csv_bytes"] > 0
    assert result["metrics"]["dynamics.ansatz_calls"] > 0


class TestBadInput:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_named_config_error(self, case, tmp_path, capsys):
        command, text, key = BAD_INPUTS[case]
        out = tmp_path / "run"
        assert main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert all(part in err for part in ((key,) if isinstance(key, str) else key))
        assert "Traceback" not in err
        assert not (out / "config_resolved.cfg").exists()

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file", "config_is_dir"])
    def test_os_error_is_config_error(self, case, tmp_path, capsys):
        cfg = write(tmp_path, "sim.cfg", "[grid]\nn_max = 4\n\n[flow]\nt_end = 1.0\n")
        afile = write(tmp_path, "afile", "")
        out = str(tmp_path / "run")
        if case == "out_is_file":
            out = path = afile
        elif case == "out_under_file":
            out = path = os.path.join(afile, "sub")
        else:
            cfg = path = str(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and path in err
        assert "Traceback" not in err
        assert not any(name == "config_resolved.cfg" for _, _, names in os.walk(tmp_path)
                       for name in names)

    def test_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        # the backstop: a MemoryError from anywhere in the run exits 1, named
        def exhausted(plan):
            raise MemoryError("Unable to allocate 8 EiB")

        monkeypatch.setattr(cli, "run_kernel_audit", exhausted)
        cfg = write(tmp_path, "audit.cfg", "[grid]\nn_max = 4\n")
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("memory error:") and "8 EiB" in err
        assert "Traceback" not in err


SIM_CFG = """
[grid]
n_max = 16

[flow]
flow = full_nlw
eps = 0.1
dt = 0.1
t_end = 10.0
"""


class TestSimulate:
    def test_csv_format_and_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.cfg", SIM_CFG)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "simulate.csv")).read().splitlines()
        assert lines[0] == "t,H_half,H_s,E,Q,M"
        assert all(len(l.split(",")) == 6 for l in lines[1:])
        assert os.path.exists(os.path.join(out, "config_resolved.cfg"))
        assert os.path.exists(os.path.join(out, "run_info.txt"))

    def test_bad_key_exits_one(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[flow]\nepsilonn = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 1

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_blow_up_exits_two_with_partial_csv(self, tmp_path):
        cfg = write(
            tmp_path,
            "blow.cfg",
            "[grid]\nn_max = 12\n\n[flow]\nflow = full_nlw\neps = 0.9\ndt = 0.4\n"
            "t_end = 100.0\nsnapshot_stride = 0.4\n\n"
            "[initial_data]\nmodes = 1,2\namplitudes = 1.0,1.0\nnormalization = 113.0\n",
        )
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        lines = open(os.path.join(out, "simulate.csv")).read().splitlines()
        assert len(lines) >= 2  # header plus retained partial rows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_row_raises_no_numpy_warning(self, tmp_path, capsys):
        # the guard snapshot overflows: its row records inf and nan quietly
        cfg = write(
            tmp_path,
            "blow.cfg",
            "[grid]\nn_max = 8\n\n[flow]\nflow = full_nlw\neps = 1\ndt = 0.5\nt_end = 50\n\n"
            "[initial_data]\nscale = 200\n",
        )
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "numeric guard tripped" in capsys.readouterr().out
        lines = open(os.path.join(out, "simulate.csv")).read().splitlines()
        assert lines[-1] == "0.5,inf,inf,nan,inf,nan"

    def test_long_slow_horizon_runs(self, tmp_path):
        # slow horizon t_end eps^2 = 150: simulate caps no horizon, like the experiments
        cfg = write(
            tmp_path, "long.cfg",
            "[grid]\nn_max = 4\n\n[flow]\nflow = first_order_rg\neps = 1\nt_end = 150\n"
            "dt = 0.5\n",
        )
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        last = open(os.path.join(out, "simulate.csv")).read().splitlines()[-1]
        assert float(last.split(",")[0]) == 150.0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIM_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg, "--out", out1])
        main(["simulate", "--config", cfg, "--out", out2])
        b1 = open(os.path.join(out1, "simulate.csv"), "rb").read()
        b2 = open(os.path.join(out2, "simulate.csv"), "rb").read()
        assert b1 == b2


SCALING_CFG = """
[run]
experiment = scaling_first_order_torus

[grid]
n_max = 16

[experiment]
eps_list = 0.2,0.14,0.1
dt = 0.1
snapshots_per_run = 40
"""


class TestScaling:
    def test_csv_and_summary(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", SCALING_CFG)
        out = str(tmp_path / "run")
        assert main(["scaling", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "scaling.csv")).read().splitlines()
        assert lines[0] == "eps,horizon,sup_error,sup_W_norm,flagged"
        assert lines[-1].startswith("slope=")
        assert "passed=true" in lines[-1]

    def test_second_order_writes_both_floored_caveats(self, tmp_path):
        # zero data: both sweeps fit floored errors alone, and run_info says so for each
        cfg = write(
            tmp_path, "z.cfg",
            "[run]\nexperiment = scaling_second_order_torus\n\n[grid]\nn_max = 4\n\n"
            "[initial_data]\nscale = 0\n",
        )
        out = str(tmp_path / "run")
        assert main(["scaling", "--config", cfg, "--out", out]) == 0
        caveats = [l for l in open(os.path.join(out, "run_info.txt")).read().splitlines()
                   if l.startswith("caveat = ")]
        assert len(caveats) == 2 and "first-order contrast" in caveats[1]

    def test_thread_variable_ignored(self, tmp_path, monkeypatch):
        # sweep rows run serially and no thread-count variable is read, so a
        # stray non-integer value must not break the run
        monkeypatch.setenv("SZEGO_RG_THREADS", "abc")
        cfg = write(tmp_path, "s.cfg", SCALING_CFG)
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("experiment, runner", [
        ("scaling_first_order_torus", run_scaling_first_order),
        ("scaling_second_order_torus", run_scaling_second_order),
        ("y_vs_u", run_y_vs_u),
    ])
    def test_blown_up_sweep_fails_every_row(self, experiment, runner, tmp_path):
        text = (
            f"[run]\nexperiment = {experiment}\n\n[grid]\nn_max = 8\n\n"
            "[initial_data]\nnormalization = 60.0\n\n[experiment]\neps_list = 0.5,0.4,0.3\n"
        )
        cfg = write(tmp_path, "blow.cfg", text)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = runner(plan_from_config(parse_config(text)))
            code = main(["scaling", "--config", cfg, "--out", str(out)])
        reports = reports if isinstance(reports, tuple) else (reports,)
        for report in reports:
            assert len(report.rows) == 3
            for r in report.rows:
                assert r.failed and np.isnan(r.sup_error) and np.isnan(r.sup_w_norm)
        assert code == 2
        names = ["scaling.csv"]
        if experiment == "scaling_second_order_torus":
            names.append("scaling_first_order_contrast.csv")
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert len(lines) == 5 and all(",nan,nan,true" in l for l in lines[1:4])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_seed_flag_changes_seeded_data(self, tmp_path):
        base = (
            "[run]\nexperiment = scaling_first_order_torus\n\n"
            "[grid]\nn_max = 16\n\n"
            "[initial_data]\nkind = seeded_random_hardy\nnormalization = 1.0\n\n"
            "[experiment]\neps_list = 0.2,0.14,0.1\ndt = 0.1\n"
            "snapshots_per_run = 20\n"
        )
        cfg = write(tmp_path, "s.cfg", base)
        outs = []
        for seed in ("11", "12"):
            out = str(tmp_path / f"run{seed}")
            assert main(["scaling", "--config", cfg, "--out", out, "--seed", seed]) == 0
            outs.append(open(os.path.join(out, "scaling.csv")).read())
        assert outs[0] != outs[1]


class TestAudit:
    def test_audit_pass_exit_zero(self, tmp_path):
        cfg = write(
            tmp_path, "a.cfg", "[grid]\nn_max = 6\n\n[experiment]\naudit_fields = 3\n"
        )
        out = str(tmp_path / "run")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "audit.csv")).read().splitlines()
        assert lines[0] == "check,max_error,passed"
        assert all(l.endswith("true") for l in lines[1:])

    def test_negative_control_exit_three(self, tmp_path, capsys, monkeypatch):
        # a closed form off by 1e-6 must fail the audit, first on its own row
        closed = resonance.f_res_closed_torus
        monkeypatch.setattr(resonance, "f_res_closed_torus", lambda c: closed(c) + 1e-6)
        cfg = write(
            tmp_path, "a.cfg", "[grid]\nn_max = 6\n\n[experiment]\naudit_fields = 2\n"
        )
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        failed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
        assert failed[0].startswith("FAIL f_res_closed_torus_vs_bruteforce:")

    def test_echo_names_the_audit(self, tmp_path):
        # the echo is the configuration that ran, whatever experiment the file names
        cfg = write(
            tmp_path, "a.cfg",
            "[run]\nexperiment = y_vs_u\n\n[grid]\nn_max = 4\n\n[experiment]\naudit_fields = 2\n",
        )
        out = tmp_path / "r"
        assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
        echo = parse_config((out / "config_resolved.cfg").read_text())
        assert echo.get("run", "experiment") == "kernel_audit"

    def test_runs_at_quintic_cap(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "a.cfg", "[grid]\nn_max = 12\n\n[experiment]\naudit_fields = 1\n"
        )
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert "warning" not in capsys.readouterr().out


class TestGrowth:
    def test_fosc_growth_csv(self, cli_run):
        # the default plan's run, which gate 8 and the digest table also read
        code, out = cli_run(*PINNED["fosc_growth"])
        assert code == 0
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "t,norm,window_flag"
        assert lines[-1].startswith("exponent=")

    def test_sobolev_window_emptied_by_boundary_guard_exits_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "g.cfg",
            "[run]\nexperiment = sobolev_growth\n\n[grid]\nn_max = 256\n\n"
            "[initial_data]\nkind = rational_nongeneric\nnormalization =\nscale = 20.0\n",
        )
        out = tmp_path / "run"
        assert main(["growth", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "boundary-band guard" in captured.out
        assert "Traceback" not in captured.err
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "t,norm,window_flag" and len(lines) >= 3
        assert all(l.endswith(",false") for l in lines[1:-1])
        assert lines[-1] == "exponent=nan window_lo=nan window_hi=nan qualitative=true"
        assert "warning = boundary-mode mass exceeds 1%" in (out / "run_info.txt").read_text()

    def test_sobolev_blow_up_exits_two_and_leaves_the_guard_row_unfitted(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "g.cfg",
            "[run]\nexperiment = sobolev_growth\n\n[grid]\nn_max = 512\n\n"
            "[experiment]\ndt = 0.45\ngrowth_t_min = 0.5\n\n[initial_data]\nscale = 5.4\n",
        )
        out = tmp_path / "run"
        assert main(["growth", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr().out
        assert "blow-up guard stopped the trajectory at t = 3.59551" in captured
        assert "numeric guard tripped: the H^1/2 blow-up guard stopped the trajectory" in captured
        lines = (out / "growth.csv").read_text().splitlines()
        t_last, norm_last, flag_last = lines[-2].split(",")
        assert float(norm_last) > 1e3 and flag_last == "false"
        footer = dict(kv.split("=") for kv in lines[-1].split())
        assert float(footer["window_hi"]) < float(t_last)

"""Command-line surface: simulate | scaling | audit | growth.

Exit codes: 0 success, 1 configuration error (also a configuration file or
output directory the system cannot read or create), 2 numeric guard tripped
(blow-up, or a growth window emptied by the boundary-band guard; CSV
retained), 3 audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    default_config,
    emit_config,
    flow_spec_from_config,
    load_config,
    plan_from_config,
)
from .experiments import (
    COMMAND,
    Experiment,
    run_fosc_growth,
    run_kernel_audit,
    run_scaling_first_order,
    run_scaling_second_order,
    run_sobolev_growth,
    run_y_vs_u,
    simulate,
)
from .reporting import RunMetadata, fmt_float, svg_loglog, write_csv
from .spectral import conserved_series, sobolev_norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_AUDIT = 3


def _prepare(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.out:
        cfg = cfg.with_value("run", "output_dir", args.out)
    if args.seed is not None:
        cfg = cfg.with_value("run", "seed", str(args.seed))
    return cfg


def _start(command: str, cfg: RunConfig) -> RunMetadata:
    """Create the run directory and echo the configuration into it; called
    once the command has accepted its configuration, so a rejected run leaves
    no echo behind."""
    out_dir = cfg.value("run", "output_dir")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))
    return RunMetadata(command, out_dir)


def cmd_simulate(args) -> int:
    cfg = _prepare(args)
    spec, data = flow_spec_from_config(cfg)
    meta = _start("simulate", cfg)
    out_dir = meta.out_dir
    traj = simulate(spec, data)
    h_half = [sobolev_norm(f, 0.5) for f in traj.states]
    h_s = [sobolev_norm(f, spec.s) for f in traj.states]
    rows = list(zip(traj.times, h_half, h_s, *conserved_series(traj.states)))
    write_csv(os.path.join(out_dir, "simulate.csv"), ["t", "H_half", "H_s", "E", "Q", "M"], rows)
    meta.write([f"blown_up = {traj.blown_up}", f"snapshots = {len(traj.times)}"])
    if traj.blown_up:
        print("numeric guard tripped: H^1/2 norm exceeded 1e3 x initial; partial CSV retained")
        return EXIT_GUARD
    return EXIT_OK


def _write_scaling(report, out_dir, name, emit_svg):
    rows = [
        (r.eps, r.horizon, r.sup_error, r.sup_w_norm, r.flagged) for r in report.rows
    ]
    footer = [
        f"slope={fmt_float(report.fitted_slope)} residual={fmt_float(report.fit_residual)} "
        f"passed={'true' if report.passed else 'false'}"
    ]
    write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        ["eps", "horizon", "sup_error", "sup_W_norm", "flagged"],
        rows,
        footer,
    )
    ok_rows = [r for r in report.rows if not r.failed]
    if emit_svg and len(ok_rows) >= 2:
        svg_loglog(
            os.path.join(out_dir, f"{name}.svg"),
            [r.eps for r in ok_rows],
            [r.sup_error for r in ok_rows],
            report.fitted_slope,
            title=name,
        )


def _require(plan, command: str) -> None:
    """Reject a plan whose experiment the command does not run."""
    if COMMAND[plan.experiment] != command:
        raise ConfigError(
            f"key 'experiment' in section [run]: '{plan.experiment.value}' is not a "
            f"{command} experiment"
        )


def cmd_scaling(args) -> int:
    cfg = _prepare(args)
    plan = plan_from_config(cfg)
    experiment = plan.experiment
    _require(plan, "scaling")
    meta = _start("scaling", cfg)
    out_dir = meta.out_dir
    caveats = []
    if experiment is Experiment.SCALING2_TORUS:
        report, contrast = run_scaling_second_order(plan)
        _write_scaling(contrast, out_dir, "scaling_first_order_contrast", args.svg)
        caveats = [f"first-order contrast: {c}" for c in contrast.caveats]
    elif experiment is Experiment.Y_VS_U:
        report = run_y_vs_u(plan)
    else:
        report = run_scaling_first_order(plan)
    _write_scaling(report, out_dir, "scaling", args.svg)
    meta.write([f"caveat = {c}" for c in [*report.caveats, *caveats]])
    print(
        f"scaling {experiment.value}: slope={report.fitted_slope:.4f} "
        f"residual={report.fit_residual:.4f} passed={report.passed}"
    )
    if any(r.failed for r in report.rows):
        return EXIT_GUARD
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _prepare(args).with_value("run", "experiment", Experiment.KERNEL_AUDIT.value)
    plan = plan_from_config(cfg)
    meta = _start("audit", cfg)
    out_dir = meta.out_dir
    report = run_kernel_audit(plan)
    rows = [(r.check, r.max_error, r.passed) for r in report.rows]
    write_csv(os.path.join(out_dir, "audit.csv"), ["check", "max_error", "passed"], rows)
    meta.write([f"passed = {report.passed}"])
    for r in report.rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check}: max_error={r.max_error:.3e}")
    return EXIT_OK if report.passed else EXIT_AUDIT


def cmd_growth(args) -> int:
    cfg = _prepare(args)
    plan = plan_from_config(cfg)
    _require(plan, "growth")
    meta = _start("growth", cfg)
    out_dir = meta.out_dir
    if plan.experiment is Experiment.FOSC_GROWTH:
        report = run_fosc_growth(plan)
    else:
        report = run_sobolev_growth(plan)
    rows = list(zip(report.times, report.norms, report.in_window))
    footer = [
        f"exponent={fmt_float(report.exponent)} window_lo={fmt_float(report.window[0])} "
        f"window_hi={fmt_float(report.window[1])} "
        f"qualitative={'true' if report.qualitative else 'false'}"
    ]
    write_csv(os.path.join(out_dir, "growth.csv"), ["t", "norm", "window_flag"], rows, footer)
    fitted = not np.isnan(report.exponent)
    if fitted and args.svg:
        svg_loglog(
            os.path.join(out_dir, "growth.svg"),
            report.times[report.in_window],
            np.maximum(report.norms[report.in_window], 1e-300),
            report.exponent,
            title=plan.experiment.value,
            xlabel="t",
            ylabel="norm",
        )
    meta.write([f"warning = {w}" for w in report.warnings])
    tag = " (QUALITATIVE)" if report.qualitative else ""
    print(
        f"growth {plan.experiment.value}{tag}: exponent={report.exponent:.4f} "
        f"window=[{report.window[0]:.4g}, {report.window[1]:.4g}]"
    )
    for w in report.warnings:
        print(f"warning: {w}")
    guards = []
    if report.blown_up:
        guards.append("the H^1/2 blow-up guard stopped the trajectory")
    if not fitted:
        guards.append("the boundary-band guard left < 3 fit rows")
    if guards:
        print(f"numeric guard tripped: {'; '.join(guards)}; CSV retained")
        return EXIT_GUARD
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szego-rg",
        description=(
            "Pseudo-spectral toolkit for the cubic half-wave equation and its "
            "resonant effective dynamics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("simulate", cmd_simulate, "integrate one flow and write norm/invariant series"),
        ("scaling", cmd_scaling, "run an error-scaling sweep and fit the log-log slope"),
        ("audit", cmd_audit, "run the kernel oracle audit"),
        ("growth", cmd_growth, "run an oscillatory-primitive or Sobolev growth study"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="configuration file (key = value sections)")
        p.add_argument("--out", help="output directory (overrides [run] output_dir)")
        p.add_argument("--seed", type=int, help="seed override for seeded initial data")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

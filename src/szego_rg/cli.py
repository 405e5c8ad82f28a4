"""Command-line surface: simulate | scaling | audit | growth.

One function, run, takes every command from configuration to files: it
builds simulate's FlowSpec or the experiment plan (through plan_from_config,
looked up at each call), rejects an experiment that another command runs,
echoes the configuration, calls the command's run-and-write function and
writes run_info.txt.  A rejected run writes nothing.

Exit codes: 0 success, 1 configuration error (also a command-line usage
error, a configuration file that is not UTF-8 text, a configuration file or
output directory the system cannot read or create, or memory the run cannot
allocate), 2 numeric guard tripped (blow-up, or a growth window emptied by
the boundary-band guard; CSV retained), 3 audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    ConfigError,
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
from .reporting import RunMetadata, write_csv
from .spectral import energy, mass, momentum, negative_mode_mass, sobolev_norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_AUDIT = 3


def _simulate(job, out_dir: str) -> tuple[int, list[str]]:
    spec, data = job
    rows, negative = [], []
    for snap in simulate(spec, data):
        f = snap.state
        # the guard snapshot may be non-finite: its row records inf/nan quietly
        with np.errstate(over="ignore", invalid="ignore"):
            rows.append((
                snap.time, sobolev_norm(f, 0.5), sobolev_norm(f, spec.s),
                energy(f), mass(f), momentum(f),
            ))
            negative.append(negative_mode_mass(f))  # the Hardy defect
    write_csv(os.path.join(out_dir, "simulate.csv"), ["t", "H_half", "H_s", "E", "Q", "M"], rows)
    if snap.blown_up:
        print("numeric guard tripped: H^1/2 norm exceeded 1e3 x initial; partial CSV retained")
    info = [f"blown_up = {snap.blown_up}", f"snapshots = {len(rows)}",
            f"negative_mode_mass_max = {max(negative)!r}"]
    return (EXIT_GUARD if snap.blown_up else EXIT_OK), info


def _write_scaling(report, out_dir, name):
    rows = [(r.eps, r.horizon, r.sup_error, r.sup_w_norm, r.flagged) for r in report.rows]
    summary = {"slope": report.fitted_slope, "residual": report.fit_residual,
               "passed": report.passed}
    header = ["eps", "horizon", "sup_error", "sup_W_norm", "flagged"]
    write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows, summary)


def _scaling(plan, out_dir: str) -> tuple[int, list[str]]:
    caveats = []
    if plan.experiment is Experiment.SCALING2_TORUS:
        report, contrast = run_scaling_second_order(plan)
        _write_scaling(contrast, out_dir, "scaling_first_order_contrast")
        caveats = [f"first-order contrast: {c}" for c in contrast.caveats]
    elif plan.experiment is Experiment.Y_VS_U:
        report = run_y_vs_u(plan)
    else:
        report = run_scaling_first_order(plan)
    _write_scaling(report, out_dir, "scaling")
    print(
        f"scaling {plan.experiment.value}: slope={report.fitted_slope:.4f} "
        f"residual={report.fit_residual:.4f} passed={report.passed}"
    )
    code = EXIT_GUARD if any(r.failed for r in report.rows) else EXIT_OK
    return code, [f"caveat = {c}" for c in [*report.caveats, *caveats]]


def _audit(plan, out_dir: str) -> tuple[int, list[str]]:
    rows = run_kernel_audit(plan)
    write_csv(os.path.join(out_dir, "audit.csv"), ["check", "max_error", "passed"], rows)
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check}: max_error={r.max_error:.3e}")
    passed = all(r.passed for r in rows)
    return (EXIT_OK if passed else EXIT_AUDIT), [f"passed = {passed}"]


def _growth(plan, out_dir: str) -> tuple[int, list[str]]:
    if plan.experiment is Experiment.FOSC_GROWTH:
        report = run_fosc_growth(plan)
    else:
        report = run_sobolev_growth(plan)
    rows = list(zip(report.times, report.norms, report.in_window))
    summary = {"exponent": report.exponent, "window_lo": report.window[0],
               "window_hi": report.window[1], "qualitative": report.qualitative}
    write_csv(os.path.join(out_dir, "growth.csv"), ["t", "norm", "window_flag"], rows, summary)
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
    if np.isnan(report.exponent):
        guards.append("the boundary-band guard left < 3 fit rows")
    if guards:
        print(f"numeric guard tripped: {'; '.join(guards)}; CSV retained")
    info = [f"warning = {w}" for w in report.warnings]
    if report.rk4_steps is not None:  # the Sobolev study's stream; F_osc growth steps nothing
        info.insert(0, f"rk4_steps = {report.rk4_steps}")
    return (EXIT_GUARD if guards else EXIT_OK), info


# each command: its help line and its run-and-write function
COMMANDS = {
    "simulate": ("integrate one flow and write norm/invariant series", _simulate),
    "scaling": ("run an error-scaling sweep and fit the log-log slope", _scaling),
    "audit": ("run the kernel oracle audit", _audit),
    "growth": ("run an oscillatory-primitive or Sobolev growth study", _growth),
}


def run(args) -> int:
    """Configuration to files for one command; returns the exit code."""
    command = args.command
    cfg = load_config(args.config) if args.config else default_config()
    if args.out:
        cfg = cfg.with_value("run", "output_dir", args.out)
    if args.seed is not None:
        cfg = cfg.with_value("run", "seed", str(args.seed))
    if command == "audit":
        cfg = cfg.with_value("run", "experiment", Experiment.KERNEL_AUDIT.value)
    if command == "simulate":
        job = flow_spec_from_config(cfg)
    else:
        job = plan_from_config(cfg)
        if COMMAND[job.experiment] != command:
            raise ConfigError(
                f"key 'experiment' in section [run]: '{job.experiment.value}' is not a "
                f"{command} experiment"
            )
    meta = RunMetadata(command, cfg.value("run", "output_dir"))
    os.makedirs(meta.out_dir, exist_ok=True)
    with open(os.path.join(meta.out_dir, "config_resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))
    code, info = COMMANDS[command][1](job, meta.out_dir)
    meta.write(info)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szego-rg",
        description=(
            "Pseudo-spectral toolkit for the cubic half-wave equation and its "
            "resonant effective dynamics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="configuration file (key = value sections)")
        p.add_argument("--out", help="output directory (overrides [run] output_dir)")
        p.add_argument("--seed", type=int, help="[run] seed override: seeded data and the audit")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its help (code 0) or a usage error (code 2, the
        # guard's code here): a usage error is a configuration error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return run(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"memory error: the run cannot allocate its arrays ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

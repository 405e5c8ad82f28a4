"""One ``szego-rg`` command in a fresh process, timed from inside.

Usage: child.py MODE REPORT_JSON -- CLI_ARGS...

MODE is ``setup`` (stop as soon as the plan is built), ``run`` (the whole
command, untraced) or ``trace`` (the whole command under perfbench.tracer).
The report records CLOCK_MONOTONIC marks, which the parent compares with
the moment it started this process, the command's exit code (1 if it
raised), CPU time, peak RSS, library versions and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


class SetupDone(BaseException):
    """Raised once the plan is built in setup mode; not an error."""


def main() -> int:
    mode, report_path, sep, *cli_argv = sys.argv[1:]
    if mode not in ("setup", "run", "trace") or sep != "--":
        print("usage: child.py setup|run|trace REPORT_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2

    from szego_rg import cli

    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    build_plan = cli.plan_from_config

    def plan_from_config(cfg):
        plan = build_plan(cfg)
        marks.setdefault("plan", time.monotonic())
        marks.setdefault("plan_cpu", time.process_time())
        if mode == "setup":
            raise SetupDone
        return plan

    cli.plan_from_config = plan_from_config
    try:
        rc = cli.main(cli_argv)
    except SetupDone:
        rc = 0
    except SystemExit as exc:  # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the exit code python gives an uncaught exception
        traceback.print_exc()
        rc = 1
    end, end_cpu = time.monotonic(), time.process_time()

    import numpy
    import scipy
    import scipy.fft

    report = {
        "rc": rc,
        "plan": marks.get("plan"),
        "end": end,
        "cpu_s": end_cpu - marks.get("plan_cpu", end_cpu),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "scipy_fft_workers": scipy.fft.get_workers(),
        },
    }
    if tracer is not None:
        report["metrics"] = tracer.metrics()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

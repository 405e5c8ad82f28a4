"""The default-plan CLI routes that tier-1 runs: the benchmark's workloads
(``perfbench/workloads.py``, loaded by path) and the pinned runs that no
workload makes.  Tests run a route through the session fixture ``cli_run``
(``conftest.py``), so a gate and the digest check of one route read one run.
``csv_digests.json`` holds the sha256 of every CSV of every route, per numpy
version, machine and SIMD dispatch targets (``ENV_KEY``), and ``csv_reference/``
one copy of every such CSV, which checks the numbers where the table names
no digest; ``digests.py`` checks or records both.
"""

import hashlib
import importlib.util
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS_PATH = Path(__file__).with_name("csv_digests.json")
CSV_REFERENCE = Path(__file__).with_name("csv_reference")
# numpy picks its loops at run time among the SIMD targets the CPU has, and
# some of them round transcendental functions differently
SIMD = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
ENV_KEY = f"numpy {np.__version__} {platform.machine()} {' '.join(SIMD)}"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


def workload_route(name, seed=wl.REFERENCE_SEED):
    """(command, configuration) of a workload's run; the default seed is the
    reference's."""
    workload = wl.WORKLOADS[name]
    return workload.command, workload.config_text(seed, tiny=False)


# gate 3's two runs (test_acceptance.test_03_conservation), through simulate
GATE3 = (
    "eps = 0.1\ndt = 0.05\nt_end = 1000\nsnapshot_stride = 6.666666666666667\n\n"
    "[initial_data]\nnormalization = 0.4\n"
)

# the runs of the digest table that are no workload: name -> (command, configuration)
PINNED = {
    "simulate_first_order_rg_t200": ("simulate", "[flow]\nflow = first_order_rg\nt_end = 200\n"),
    "simulate_full_nlw_t200": ("simulate", "[flow]\nflow = full_nlw\nt_end = 200\n"),
    "simulate_second_order_averaged_t200": (
        "simulate", "[flow]\nflow = second_order_averaged\nt_end = 200\n",
    ),
    "scaling_first_order_torus": ("scaling", "[run]\nexperiment = scaling_first_order_torus\n"),
    "scaling_first_order_box": ("scaling", "[run]\nexperiment = scaling_first_order_box\n"),
    "scaling_second_order_torus": ("scaling", "[run]\nexperiment = scaling_second_order_torus\n"),
    "y_vs_u": ("scaling", "[run]\nexperiment = y_vs_u\n"),
    "fosc_growth": ("growth", "[run]\nexperiment = fosc_growth\n"),
    "fosc_growth_torus": (
        "growth",
        "[run]\nexperiment = fosc_growth\n\n[grid]\ndomain = torus\nn_max = 32\n\n"
        "[initial_data]\nkind = hardy_polynomial\nnormalization = 1.0\n\n"
        "[experiment]\ngrowth_t_max = 1000\n",
    ),
    "simulate_full_nlw_gate3": ("simulate", "[flow]\nflow = full_nlw\n" + GATE3),
    "simulate_first_order_rg_gate3": ("simulate", "[flow]\nflow = first_order_rg\n" + GATE3),
    **{
        f"{name}_seed2": workload_route(name, seed=2)
        for name in ("y_vs_u_torus", "scaling2_torus", "kernel_audit")
    },
}


def csv_digests(out) -> dict[str, str]:
    """The sha256 of every CSV in the run directory out, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path(out).glob("*.csv")}


def _cell(text: str):
    """A CSV cell: a finite number as a float, anything else as its text."""
    try:
        x = float(text)
    except ValueError:
        return text
    return x if math.isfinite(x) else text


def csv_cells(path) -> list[list]:
    """The cells of a CSV, line by line: its rows split at commas and its
    footer (key=value pairs) at spaces and equals signs."""
    lines = Path(path).read_text().splitlines()
    return [[_cell(c) for c in re.split(r"[,= ]", line)] for line in lines]

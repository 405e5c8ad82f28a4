"""The default-plan CLI routes that tier-1 runs: the benchmark's workloads
(``perfbench/workloads.py``, loaded by path) and the pinned runs that no
workload makes.  Tests run a route through the session fixture ``cli_run``
(``conftest.py``), so a gate and the CSV check of one route read one run.
``csv_reference/`` holds a copy of every CSV of every route, and its
``env_key.txt`` the ``ENV_KEY`` (numpy version, machine and SIMD dispatch
targets) the copies were recorded under.  ``compare_csvs`` checks a run
against its copies, for ``test_reference.py`` and ``digests.py``, which also
records them.
"""

import importlib.util
import math
import platform
import re
import sys
import warnings
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CSV_REFERENCE = Path(__file__).with_name("csv_reference")
KEY_NAME = "env_key.txt"
# numpy picks its loops at run time among the SIMD targets the CPU has, and
# some of them round transcendental functions differently; where numpy finds
# no target above its baseline, it reports no "found" list at all
SIMD = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
ENV_KEY = " ".join(["numpy", np.__version__, platform.machine(), *SIMD])


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

# the pinned runs that are no workload: name -> (command, configuration)
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


def _cell(text: str):
    """A CSV cell: a finite number as a float, anything else as its text."""
    try:
        x = float(text)
    except ValueError:
        return text
    return x if math.isfinite(x) else text


def csv_cells(text: str) -> list[list]:
    """The cells of a CSV's text, line by line: its rows split at commas and
    its footer (key=value pairs) at spaces and equals signs."""
    return [[_cell(c) for c in re.split(r"[,= ]", line)] for line in text.splitlines()]


def _cell_fault(got: str, ref: str) -> str | None:
    """Why the cells of the CSV text got miss those of ref under
    ``matches_reference``'s rule, or None where every cell matches."""
    got, ref = csv_cells(got), csv_cells(ref)
    if [len(row) for row in got] != [len(row) for row in ref]:
        return "shape differs from the copy"
    moved = [
        (line, a, b) for line, (row, ref_row) in enumerate(zip(got, ref), 1)
        for a, b in zip(row, ref_row)
        if type(a) is not type(b) or not wl.matches_reference(a, b)
    ]
    return f"cells (line, got, copy) out of bound: {moved[:5]}" if moved else None


def recorded_key() -> str:
    """The ENV_KEY the copies in csv_reference/ were recorded under."""
    return (CSV_REFERENCE / KEY_NAME).read_text().strip()


def compare_csvs(name, out, env_key=ENV_KEY) -> dict[str, str | None]:
    """Each CSV file that differs between the run directory out and route
    name's copies, mapped to its fault, or to None where it passes.  A file
    that one side lacks never passes.  Under the recorded key a file passes
    only byte for byte; under another key, after a warning, where every cell
    matches its copy's under ``matches_reference``'s rule."""
    got = {p.name: p.read_bytes() for p in Path(out).glob("*.csv")}
    ref = {p.name: p.read_bytes() for p in (CSV_REFERENCE / name).glob("*.csv")}
    recorded = recorded_key()
    if env_key != recorded:
        warnings.warn(
            f"{name}: the copies in csv_reference/ are recorded under {recorded!r}, not "
            f"{env_key!r}; byte identity went unchecked, every cell is checked against them"
        )
    faults = {}
    for file in sorted(got.keys() | ref.keys()):
        if file not in got or file not in ref:
            faults[file] = "missing from the run" if file in ref else "not in csv_reference/"
        elif got[file] != ref[file]:
            faults[file] = (
                "bytes differ from the copy" if env_key == recorded
                else _cell_fault(got[file].decode(), ref[file].decode())
            )
    return faults

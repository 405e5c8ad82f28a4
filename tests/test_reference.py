"""The benchmark's reference values, checked on every test run.

Each workload of ``perfbench/workloads.py`` runs its seed-1 plan through
``cli.main``.  The verdict numbers read back from its CSVs must match
``perfbench/reference.json`` under the benchmark's own rule,
``matches_reference``, so the benchmark and the tests share one bound.  A
failure is a numerical change above that bound, to be fixed or reported;
the reference is never re-recorded to make it pass.

The same runs pin byte identity: the sha256 of every CSV a run writes must
equal ``csv_digests.json``, recorded once per numpy version and machine,
because the bits come from numpy's FFT.  In an environment the table does
not name, the test warns that the bytes went unchecked.  A change that
moves bits on purpose records a new table and says which entries moved.
The table also pins runs that no workload makes (``PINNED``): ``simulate``
on both first-order flows and the default plans of the three scaling
sweeps, Y-vs-U and the box F_osc growth study.
"""

import hashlib
import importlib.util
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from szego_rg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
DIGESTS = json.loads(Path(__file__).with_name("csv_digests.json").read_text())
ENV_KEY = f"numpy {np.__version__} {platform.machine()}"


def _drift(got, ref) -> tuple[float, float]:
    """(largest relative change, largest share of the bound used) over the
    numbers of ref."""
    if isinstance(ref, dict):
        parts = [_drift(got[k], ref[k]) for k in ref if k in got]
    elif isinstance(ref, list):
        parts = [_drift(a, b) for a, b in zip(got, ref)]
    elif isinstance(ref, (bool, str)):
        return 0.0, 0.0
    else:
        diff = abs(got - ref)
        return diff / abs(ref) if ref else diff, diff / (wl.REF_RTOL * abs(ref) + wl.REF_ATOL)
    return max((p[0] for p in parts), default=0.0), max((p[1] for p in parts), default=0.0)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_values(name, tmp_path):
    workload = wl.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text(wl.REFERENCE_SEED, tiny=False))
    out = tmp_path / "out"
    assert main(workload.cli_argv(str(config), str(out))) == 0
    got, ref = wl.summary(workload, str(out)), REFERENCE[name]
    relative, share = _drift(got, ref)
    print(f"{name}: largest relative drift {relative:.3g}, {share:.3g} of the bound")
    assert wl.matches_reference(got, ref), f"{name}: {got} differs from the reference {ref}"
    _check_digests(name, out)


# the runs of the table that are no workload: name -> (command, configuration)
PINNED = {
    "simulate_first_order_rg_t200": ("simulate", "[flow]\nflow = first_order_rg\nt_end = 200\n"),
    "simulate_full_nlw_t200": ("simulate", "[flow]\nflow = full_nlw\nt_end = 200\n"),
    "scaling_first_order_torus": ("scaling", "[run]\nexperiment = scaling_first_order_torus\n"),
    "scaling_first_order_box": ("scaling", "[run]\nexperiment = scaling_first_order_box\n"),
    "scaling_second_order_torus": ("scaling", "[run]\nexperiment = scaling_second_order_torus\n"),
    "y_vs_u": ("scaling", "[run]\nexperiment = y_vs_u\n"),
    "fosc_growth": ("growth", "[run]\nexperiment = fosc_growth\n"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_csv_digests(name, tmp_path):
    command, text = PINNED[name]
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    _check_digests(name, out)


def _check_digests(name, out):
    """The sha256 of every CSV in out against the table's entry for name."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    if ENV_KEY in DIGESTS:
        assert digests == DIGESTS[ENV_KEY][name], f"{name}: CSV bytes differ from {ENV_KEY}"
    else:
        warnings.warn(
            f"{name}: CSV digests are recorded for {sorted(DIGESTS)}, not for {ENV_KEY!r}; "
            f"byte identity went unchecked"
        )

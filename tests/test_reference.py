"""The benchmark's reference values, checked on every test run.

Each workload of ``perfbench/workloads.py`` runs its seed-1 plan through
``cli.main``.  The verdict numbers read back from its CSVs must match
``perfbench/reference.json`` under the benchmark's own rule,
``matches_reference``, so the benchmark and the tests share one bound.  A
failure is a numerical change above that bound, to be fixed or reported;
the reference is never re-recorded to make it pass.

The same runs pin byte identity: the sha256 of every CSV a run writes must
equal ``csv_digests.json``, recorded once per numpy version, machine and
SIMD dispatch targets, because the bits come from numpy's loops.  In an
environment the table does not name, the test warns that the bytes went
unchecked and checks every cell of every CSV against the committed copy in
``csv_reference/`` under ``matches_reference``'s rule instead.  A change
that moves bits on purpose records the moved entries (``digests.py
--record``, which also rewrites their copies) and says which entries moved.
The table also pins runs that no workload makes (``routes.PINNED``):
``simulate`` on all three flows, the default plans of the three
scaling sweeps, Y-vs-U and the box F_osc growth study, gate 8's torus
run, gate 3's two ``simulate`` runs, and seed 2 of three workloads.  Every
run comes from the session cache ``cli_run``, which the acceptance gates of
the same routes read too.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from routes import (
    CSV_REFERENCE,
    DIGESTS_PATH,
    ENV_KEY,
    PERFBENCH,
    PINNED,
    SIMD,
    csv_cells,
    csv_digests,
    wl,
    workload_route,
)

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
DIGESTS = json.loads(DIGESTS_PATH.read_text())


def _drift(got, ref) -> tuple[float, float]:
    """(largest relative change, largest share of the bound used) over the
    numbers of ref.  The relative change leaves out values whose bound is the
    absolute floor (REF_RTOL |ref| < REF_ATOL): roundoff-size references, on
    which a relative figure says nothing."""
    if isinstance(ref, dict):
        parts = [_drift(got[k], ref[k]) for k in ref if k in got]
    elif isinstance(ref, list):
        parts = [_drift(a, b) for a, b in zip(got, ref)]
    elif isinstance(ref, (bool, str)):
        return 0.0, 0.0
    else:
        diff, floored = abs(got - ref), wl.REF_RTOL * abs(ref) < wl.REF_ATOL
        return 0.0 if floored else diff / abs(ref), diff / (wl.REF_RTOL * abs(ref) + wl.REF_ATOL)
    return max((p[0] for p in parts), default=0.0), max((p[1] for p in parts), default=0.0)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_values(name, cli_run):
    code, out = cli_run(*workload_route(name))
    assert code == 0
    got, ref = wl.summary(wl.WORKLOADS[name], str(out)), REFERENCE[name]
    relative, share = _drift(got, ref)
    print(f"{name}: largest relative drift {relative:.3g}, {share:.3g} of the bound")
    assert wl.matches_reference(got, ref), f"{name}: {got} differs from the reference {ref}"
    _check_digests(name, out)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_csv_digests(name, cli_run):
    code, out = cli_run(*PINNED[name])
    assert code == 0
    _check_digests(name, out)


def _check_digests(name, out, env_key=ENV_KEY):
    """The sha256 of every CSV in out against the table's entry for name;
    where the table names no env_key, every cell against the committed CSVs."""
    digests = csv_digests(out)
    if env_key in DIGESTS:
        assert digests == DIGESTS[env_key][name], f"{name}: CSV bytes differ from {env_key}"
        return
    warnings.warn(
        f"{name}: CSV digests are recorded for {sorted(DIGESTS)}, not for {env_key!r}; "
        f"byte identity went unchecked, every number is checked against csv_reference/"
    )
    assert sorted(digests) == sorted(p.name for p in (CSV_REFERENCE / name).glob("*.csv"))
    for file in digests:
        got, ref = csv_cells(Path(out) / file), csv_cells(CSV_REFERENCE / name / file)
        assert [len(row) for row in got] == [len(row) for row in ref], f"{name} {file}: shape"
        moved = [
            (line, a, b) for line, (row, ref_row) in enumerate(zip(got, ref), 1)
            for a, b in zip(row, ref_row)
            if type(a) is not type(b) or not wl.matches_reference(a, b)
        ]
        assert not moved, f"{name} {file}: cells (line, got, committed) out of bound: {moved[:5]}"


def test_numeric_fallback_bounds_every_cell(cli_run, tmp_path):
    # an unrecorded environment passes on the committed numbers, warning,
    # and fails once one cell moves by 1e-5 relative, 10 times the bound
    code, out = cli_run(*PINNED["fosc_growth"])
    assert code == 0
    with pytest.warns(UserWarning, match="byte identity went unchecked"):
        _check_digests("fosc_growth", out, env_key="unrecorded")
    lines = (out / "growth.csv").read_text().splitlines()
    t, norm, flag = lines[1].split(",")
    lines[1] = f"{t},{float(norm) * (1.0 + 1e-5)!r},{flag}"
    (tmp_path / "growth.csv").write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning), pytest.raises(AssertionError, match="out of bound"):
        _check_digests("fosc_growth", tmp_path, env_key="unrecorded")


# numpy's AVX-512 loops round exp, log and non-integer powers differently
# from its AVX2 ones: with them off, 5 of the 21 CSVs change bytes, among them
# these two routes', by at most 9.5e-9 of the bound
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif("X86_V4" not in SIMD, reason="no AVX-512 dispatch (X86_V4) to turn off")
def test_numeric_fallback_without_avx512():
    # the child's key names X86_V3 alone, which the table lacks, so its
    # digest checks fall back to the committed numbers
    tests = ["fosc_growth", "simulate_first_order_rg_t200"]
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W",
         "always::UserWarning", *(f"{__file__}::test_pinned_csv_digests[{t}]" for t in tests)],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("byte identity went unchecked") == len(tests), proc.stdout

"""The benchmark's reference values, checked on every test run.

Each workload of ``perfbench/workloads.py`` runs its seed-1 plan through
``cli.main``.  The verdict numbers read back from its CSVs must match
``perfbench/reference.json`` under the benchmark's own rule,
``matches_reference``, so the benchmark and the tests share one bound.  A
failure is a numerical change above that bound, to be fixed or reported;
the reference is never re-recorded to make it pass.

The same runs pin byte identity: every CSV a run writes must equal its
committed copy in ``csv_reference/`` byte for byte, because the bits come
from numpy's loops, under the numpy version, machine and SIMD dispatch
targets the copies were recorded under (``csv_reference/env_key.txt``).  In
another environment the check (``routes.compare_csvs``) warns that the bytes
went unchecked and checks every cell of every CSV against its copy under
``matches_reference``'s rule instead.  A change that moves bits on purpose
records the moved routes (``digests.py --record``) and says which CSVs moved.
The copies also pin runs that no workload makes (``routes.PINNED``):
``simulate`` on all three flows, the default plans of the three
scaling sweeps, Y-vs-U and the box F_osc growth study, gate 8's torus
run, gate 3's two ``simulate`` runs, and seed 2 of three workloads.  Every
run comes from the session cache ``cli_run``, which the acceptance gates of
the same routes read too.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import digests
import routes
from routes import ENV_KEY, PERFBENCH, PINNED, SIMD, compare_csvs, recorded_key, wl, workload_route

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


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
    _check_copies(name, out)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_csv_digests(name, cli_run):
    code, out = cli_run(*PINNED[name])
    assert code == 0
    _check_copies(name, out)


def _check_copies(name, out, env_key=ENV_KEY):
    """Every CSV in out against route name's copies (``routes.compare_csvs``)."""
    faults = {file: fault for file, fault in compare_csvs(name, out, env_key).items() if fault}
    assert not faults, f"{name}: {faults}"


def test_numeric_fallback_bounds_every_cell(cli_run, tmp_path):
    # an unrecorded environment passes on the committed numbers, warning,
    # and fails once one cell moves by 1e-5 relative, 10 times the bound
    code, out = cli_run(*PINNED["fosc_growth"])
    assert code == 0
    with pytest.warns(UserWarning, match="byte identity went unchecked"):
        _check_copies("fosc_growth", out, env_key="unrecorded")
    lines = (out / "growth.csv").read_text().splitlines()
    t, norm, flag = lines[1].split(",")
    lines[1] = f"{t},{float(norm) * (1.0 + 1e-5)!r},{flag}"
    (tmp_path / "growth.csv").write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning), pytest.raises(AssertionError, match="out of bound"):
        _check_copies("fosc_growth", tmp_path, env_key="unrecorded")


@pytest.mark.parametrize("change, file, fault", [
    ("byte", "growth.csv", "bytes differ from the copy"),
    ("missing", "growth.csv", "missing from the run"),
    ("added", "extra.csv", "not in csv_reference/"),
], ids=["byte", "missing", "added"])
def test_byte_check_fails_on_any_change(change, file, fault, tmp_path):
    # under the recorded key, a run directory that is fosc_growth's copies with
    # one byte changed (the low bit of the first norm's last digit, about 1e-17
    # relative), one CSV missing or one added fails
    out = tmp_path / "out"
    shutil.copytree(routes.CSV_REFERENCE / "fosc_growth", out)
    assert compare_csvs("fosc_growth", out, recorded_key()) == {}
    csv = out / "growth.csv"
    if change == "byte":
        data = csv.read_bytes()
        i = data.index(b",true") - 1
        csv.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
    elif change == "missing":
        csv.unlink()
    else:
        shutil.copy(csv, out / file)
    assert compare_csvs("fosc_growth", out, recorded_key()) == {file: fault}


def test_record_refuses_some_routes_under_another_key(tmp_path, monkeypatch):
    # on a temporary copy of csv_reference/ recorded under another key, the
    # partial --record stops before any run and writes nothing
    copies = tmp_path / "csv_reference"
    shutil.copytree(routes.CSV_REFERENCE, copies)
    (copies / routes.KEY_NAME).write_text("numpy 0 another-machine\n")
    before = {p: p.read_bytes() for p in copies.rglob("*") if p.is_file()}
    monkeypatch.setattr(routes, "CSV_REFERENCE", copies)
    with pytest.raises(SystemExit) as exit_info:
        digests.main_digests(["--record", "fosc_growth"])
    assert exit_info.value.code == 2
    assert {p: p.read_bytes() for p in copies.rglob("*") if p.is_file()} == before


# numpy's AVX-512 loops round exp, log and non-integer powers differently
# from its AVX2 ones: with them off, 5 of the 21 CSVs change bytes, among them
# these two routes', by at most 9.5e-9 of the bound
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif("X86_V4" not in SIMD, reason="no AVX-512 dispatch (X86_V4) to turn off")
def test_numeric_fallback_without_avx512():
    # the child's key names X86_V3 alone, not the copies' key, so its checks
    # fall back to the cells of the copies
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


def test_routes_import_where_numpy_finds_no_simd_target():
    # with every dispatch target above the x86-64 baseline off, numpy's SIMD
    # report has no "found" list; routes (so digests.py and three test
    # modules) must still import
    proc = subprocess.run(
        [sys.executable, "-c", "import routes"],
        capture_output=True, text=True, cwd=Path(__file__).parent,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 " + AVX512_OFF},
    )
    assert proc.returncode == 0, proc.stderr

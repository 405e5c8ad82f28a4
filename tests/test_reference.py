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
moves bits on purpose records the moved entries (``digests.py --record``)
and says which entries moved.
The table also pins runs that no workload makes (``routes.PINNED``):
``simulate`` on all three flows, the default plans of the three
scaling sweeps, Y-vs-U and the box F_osc growth study, gate 8's torus
run, gate 3's two ``simulate`` runs, and seed 2 of three workloads.  Every
run comes from the session cache ``cli_run``, which the acceptance gates of
the same routes read too.
"""

import json
import warnings

import pytest

from routes import DIGESTS_PATH, ENV_KEY, PERFBENCH, PINNED, csv_digests, wl, workload_route

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


def _check_digests(name, out):
    """The sha256 of every CSV in out against the table's entry for name."""
    digests = csv_digests(out)
    if ENV_KEY in DIGESTS:
        assert digests == DIGESTS[ENV_KEY][name], f"{name}: CSV bytes differ from {ENV_KEY}"
    else:
        warnings.warn(
            f"{name}: CSV digests are recorded for {sorted(DIGESTS)}, not for {ENV_KEY!r}; "
            f"byte identity went unchecked"
        )

"""Check every route's CSVs against their committed copies, or record named routes.

Usage (from the root of a checkout):

    python3 tests/digests.py                   check every route
    python3 tests/digests.py --record NAME...  record the named routes' copies

Every route (the benchmark's seed-1 workloads and ``routes.PINNED``) runs
through ``routes.run_cli`` from this checkout's ``src/`` in a temporary directory,
and ``routes.compare_csvs`` compares its CSVs with its copies in
``csv_reference/``.  A check prints each CSV that differs as route name, file
and fault, and exits 1 on any fault: under the key the copies were recorded
under (``csv_reference/env_key.txt``) a byte difference is one, under another
key a cell outside ``matches_reference``'s rule.  It never writes.  Only
--record writes: it rewrites the named routes' copies and the key file with
this environment's key (numpy version, machine and SIMD dispatch targets).
Where that key differs from the recorded one, it refuses to record only some
routes, so that every copy comes from one environment.
"""

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import routes  # noqa: E402
from routes import ENV_KEY, PINNED, compare_csvs, run_cli, wl, workload_route  # noqa: E402

ROUTES = sorted([*wl.WORKLOADS, *PINNED])


def run_route(name: str, base: Path) -> Path:
    """The run directory of one run of the named route; a run that exits
    nonzero raises."""
    command, text = workload_route(name) if name in wl.WORKLOADS else PINNED[name]
    (base / name).mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        code, out = run_cli(command, text, base / name)
    if code != 0:
        raise RuntimeError(f"{name}: szego-rg {command} exited {code}")
    return out


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", nargs="+", metavar="NAME", help="routes to record")
    args = parser.parse_args(argv)
    names = args.record or ROUTES
    unknown = sorted(set(names) - set(ROUTES))
    if unknown:
        parser.error(f"unknown routes {unknown}; the routes are {ROUTES}")
    recorded = routes.recorded_key()
    if args.record and ENV_KEY != recorded and set(names) != set(ROUTES):
        parser.error(
            f"the copies are recorded under {recorded!r}, not {ENV_KEY!r}; "
            "under a new key, record every route"
        )

    differ = faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = run_route(name, Path(tmp))
            for file, fault in compare_csvs(name, out).items():
                differ += 1
                faults += fault is not None
                print(f"{name} {file}: {fault or 'bytes differ, every cell within the rule'}")
            if args.record:
                copies = routes.CSV_REFERENCE / name
                shutil.rmtree(copies, ignore_errors=True)
                copies.mkdir(parents=True)
                for csv in out.glob("*.csv"):
                    shutil.copy(csv, copies)
    if args.record:
        (routes.CSV_REFERENCE / routes.KEY_NAME).write_text(ENV_KEY + "\n")
        print(f"recorded {len(names)} routes under {ENV_KEY!r}, {differ} CSVs changed")
        return 0
    print(
        f"{len(names)} routes checked under {ENV_KEY!r} against copies recorded under "
        f"{recorded!r}: {differ} CSVs differ, {faults} mismatches"
    )
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main_digests())

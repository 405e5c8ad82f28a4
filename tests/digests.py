"""Check every route of the CSV digest table, or record named entries.

Usage (from the root of a checkout):

    python3 tests/digests.py                   check every route
    python3 tests/digests.py --record NAME...  record the named routes' digests

Every route of ``csv_digests.json`` (the benchmark's seed-1 workloads and
``routes.PINNED``) runs through ``cli.main`` from this checkout's ``src/`` in
a temporary directory.  A check prints each mismatch as route name, file, old
and new digest, and exits 1 on any; it never writes the table.  Only
--record writes it, and only the named routes' entries under this
environment's key (numpy version and machine); every other entry keeps its
bytes.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from routes import DIGESTS_PATH, ENV_KEY, PINNED, csv_digests, wl, workload_route  # noqa: E402
from szego_rg.cli import main  # noqa: E402

ROUTES = sorted([*wl.WORKLOADS, *PINNED])


def run_route(name: str, base: Path) -> dict[str, str]:
    """The CSV digests of one run of the named route; a run that exits
    nonzero raises."""
    command, text = workload_route(name) if name in wl.WORKLOADS else PINNED[name]
    config = base / f"{name}.cfg"
    config.write_text(text)
    out = base / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: szego-rg {command} exited {code}")
    return csv_digests(out)


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", nargs="+", metavar="NAME", help="routes to record")
    args = parser.parse_args(argv)
    names = args.record or ROUTES
    unknown = sorted(set(names) - set(ROUTES))
    if unknown:
        parser.error(f"unknown routes {unknown}; the routes are {ROUTES}")

    table = json.loads(DIGESTS_PATH.read_text())
    recorded = table.get(ENV_KEY, {})
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            new = run_route(name, Path(tmp))
            old = recorded.get(name, {})
            for file in sorted({*old, *new}):
                if old.get(file) != new.get(file):
                    mismatches += 1
                    print(f"{name} {file} {old.get(file, '-')} {new.get(file, '-')}")
            if args.record:
                recorded[name] = new
    if args.record:
        table[ENV_KEY] = recorded
        DIGESTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(names)} routes under {ENV_KEY!r}, {mismatches} digests changed")
        return 0
    print(f"{len(names)} routes checked under {ENV_KEY!r}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main_digests())

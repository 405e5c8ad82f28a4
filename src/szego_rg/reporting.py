"""CSV emission plus run-reproducibility metadata.

CSV payloads are deterministic (no timestamps, fixed row order, floats at 17
significant digits); wall-clock metadata lives in a separate run_info.txt so
identical configurations produce byte-identical CSV files.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__


def fmt_float(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header: list[str], rows: list[tuple], footer: list[str] | None = None):
    """One header line, one line per row, optional summary lines at the end."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} does not match header width {len(header)}")
        lines.append(",".join(fmt_float(x) for x in row))
    lines.extend(footer or [])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunMetadata:
    """Wall-clock bookkeeping written next to the CSV payloads."""

    command: str
    out_dir: str
    started: float = field(default_factory=time.time)

    def write(self, extra: list[str] | None = None):
        elapsed = time.time() - self.started
        lines = [
            f"tool_version = szego-rg {__version__}",
            f"command = {self.command}",
            f"python = {platform.python_version()} ({platform.system()} {platform.machine()})",
            f"numpy = {np.__version__}",
            f"started_unix = {self.started:.3f}",
            f"started_utc = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(self.started))}",
            f"elapsed_seconds = {elapsed:.3f}",
        ]
        lines.extend(extra or [])
        with open(os.path.join(self.out_dir, "run_info.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

"""CSV and SVG emission plus run-reproducibility metadata.

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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
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


# ---------------------------------------------------------------------------
# minimal SVG log-log scatter with fitted line (no plotting dependency)


def _ticks(lo: float, hi: float) -> list[float]:
    lo_e = int(np.floor(np.log10(lo)))
    hi_e = int(np.ceil(np.log10(hi)))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def svg_loglog(
    path: str,
    xs,
    ys,
    slope: float,
    title: str,
    xlabel: str = "eps",
    ylabel: str = "error",
):
    """Log-log scatter plot with the least-squares line, written as plain SVG."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 1e-300)
    w, h, margin = 640, 480, 70
    lx, ly = np.log10(xs), np.log10(ys)
    x0, x1 = lx.min(), lx.max()
    y0, y1 = ly.min(), ly.max()
    x0, x1 = x0 - 0.1 * (x1 - x0 + 1e-9), x1 + 0.1 * (x1 - x0 + 1e-9)
    y0, y1 = y0 - 0.1 * (y1 - y0 + 1e-9), y1 + 0.1 * (y1 - y0 + 1e-9)

    def px(v):
        return margin + (v - x0) / (x1 - x0) * (w - 2 * margin)

    def py(v):
        return h - margin - (v - y0) / (y1 - y0) * (h - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>',
        f'<text x="{w / 2:.1f}" y="{h - 18}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="20" y="{h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {h / 2:.1f})">{ylabel}</text>',
    ]
    for tx in _ticks(xs.min(), xs.max()):
        v = np.log10(tx)
        if x0 <= v <= x1:
            parts.append(
                f'<line x1="{px(v):.1f}" y1="{h - margin}" x2="{px(v):.1f}" '
                f'y2="{h - margin + 6}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px(v):.1f}" y="{h - margin + 22}" text-anchor="middle" '
                f'font-size="11">1e{int(np.log10(tx))}</text>'
            )
    for ty in _ticks(ys.min(), ys.max()):
        v = np.log10(ty)
        if y0 <= v <= y1:
            parts.append(
                f'<line x1="{margin - 6}" y1="{py(v):.1f}" x2="{margin}" '
                f'y2="{py(v):.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{margin - 10}" y="{py(v):.1f}" text-anchor="end" '
                f'font-size="11">1e{int(np.log10(ty))}</text>'
            )
    # fitted line through the centroid with the given slope
    cx, cy = float(np.mean(lx)), float(np.mean(ly))
    ya, yb = cy + slope * (x0 - cx), cy + slope * (x1 - cx)
    parts.append(
        f'<line x1="{px(x0):.1f}" y1="{py(ya):.1f}" x2="{px(x1):.1f}" '
        f'y2="{py(yb):.1f}" stroke="#888888" stroke-dasharray="6,4"/>'
    )
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{px(vx):.1f}" cy="{py(vy):.1f}" r="4" fill="black"/>')
    parts.append(
        f'<text x="{w - margin}" y="{margin - 10}" text-anchor="end" '
        f'font-size="13">slope = {slope:.3f}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

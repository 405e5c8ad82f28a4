"""The benchmark's workloads: one ``szego-rg`` command each, with the
configuration the benchmark generates from its seed and the checks that
decide whether the command's verdict is right.

Why each workload is in the benchmark:

* sobolev_growth_box -- one first-order trajectory of 3,200 transforms of
  131,220 points on the big box: bound by FFT compute and memory.  It
  bypasses F_osc, r2 and sweep rows.  Its input is the paper's fixed
  two-pole profile, so the seed does not change it.
* y_vs_u_torus -- 42,000 second-order RHS evaluations at n_max = 32: almost
  all per-call Python overhead (about 588k transforms of 132-264 points).
* scaling2_torus -- the only workload that runs the full NLW flow on the
  non-Hardy cubic path and evaluates the second-order ansatz, whose F_osc
  primitive takes most of its time.  Writes two CSVs.
* kernel_audit -- dominated by the brute-force oracle sums; production-path
  work should leave it unchanged.

The seed reaches the program only through the generated configuration file
(``[run] seed``): it draws the ``seeded_random_hardy`` initial data of
y_vs_u_torus and scaling2_torus and the audit's random fields.  ``tiny``
plans are the self-test's: small enough to run in about a second, too small
for the verdict thresholds to apply.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # szego-rg subcommand
    experiment: str
    csvs: tuple[str, ...]         # payloads the command writes
    data: dict = field(default_factory=dict)  # [initial_data] keys
    tiny: dict = field(default_factory=dict)  # section -> key -> value

    def config_text(self, seed: int, tiny: bool) -> str:
        sections = {"run": {"experiment": self.experiment, "seed": str(seed)}}
        if self.data:
            sections["initial_data"] = dict(self.data)
        if tiny:
            for section, keys in self.tiny.items():
                sections.setdefault(section, {}).update(keys)
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
        return "\n".join(lines) + "\n"

    def cli_argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir]


# seeded random Hardy data in place of the default plan's fixed polynomial;
# the amount of work does not depend on the data
SEEDED = {"kind": "seeded_random_hardy"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sobolev_growth_box", "growth", "sobolev_growth", ("growth.csv",),
            tiny={"grid": {"n_max": "2048"}},
        ),
        Workload(
            "y_vs_u_torus", "scaling", "y_vs_u", ("scaling.csv",), data=SEEDED,
            tiny={"grid": {"n_max": "8"}, "experiment": {"eps_list": "0.4,0.3,0.2"}},
        ),
        Workload(
            "scaling2_torus", "scaling", "scaling_second_order_torus",
            ("scaling.csv", "scaling_first_order_contrast.csv"), data=SEEDED,
            tiny={
                "grid": {"n_max": "8"},
                "experiment": {"eps_list": "0.4,0.3,0.2", "snapshots_per_run": "20"},
            },
        ),
        Workload(
            "kernel_audit", "audit", "kernel_audit", ("audit.csv",),
            tiny={"grid": {"n_max": "4"}, "experiment": {"audit_fields": "2"}},
        ),
    )
}


# ---------------------------------------------------------------------------
# reading the payloads


def _lines(out_dir: str, name: str) -> list[str]:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _footer(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def _table(lines: list[str]) -> list[dict[str, str]]:
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if "," in ln]


def summary(workload: Workload, out_dir: str) -> dict:
    """The verdict numbers of one run, read back from its CSVs."""
    if workload.command == "scaling":
        out = {}
        for csv in workload.csvs:
            lines = _lines(out_dir, csv)
            foot = _footer(lines[-1])
            out[csv] = {
                "slope": float(foot["slope"]),
                "residual": float(foot["residual"]),
                "passed": foot["passed"] == "true",
                "sup_error": [float(r["sup_error"]) for r in _table(lines[:-1])],
            }
        return out
    if workload.command == "growth":
        lines = _lines(out_dir, "growth.csv")
        foot = _footer(lines[-1])
        rows = _table(lines[:-1])
        return {
            "exponent": float(foot["exponent"]),
            "window_lo": float(foot["window_lo"]),
            "window_hi": float(foot["window_hi"]),
            "qualitative": foot["qualitative"] == "true",
            "t_last": float(rows[-1]["t"]),
        }
    rows = _table(_lines(out_dir, "audit.csv"))
    return {
        "checks": [r["check"] for r in rows],
        "max_error": [float(r["max_error"]) for r in rows],
        "passed": [r["passed"] == "true" for r in rows],
    }


# ---------------------------------------------------------------------------
# verdict checks (the acceptance thresholds of the paper's claims)

SLOPE_Y_VS_U = 1.7
SLOPE_SECOND_ORDER = 4.3
SLOPE_GAP = 1.5
GROWTH_S = 1.0            # Sobolev index of the growth study's default plan
GROWTH_EXPONENT_TOL = 0.3
GROWTH_T_END = 40.0
AUDIT_TOL = 1e-10


def verdict_checks(workload: Workload, s: dict) -> list[tuple[str, bool]]:
    """(check name, passed) for the workload's acceptance thresholds."""
    if workload.name == "y_vs_u_torus":
        rep = s["scaling.csv"]
        return [
            ("slope>=1.7", rep["slope"] >= SLOPE_Y_VS_U),
            ("no_blown_up_row", all(math.isfinite(e) for e in rep["sup_error"])),
        ]
    if workload.name == "scaling2_torus":
        second, first = s["scaling.csv"], s["scaling_first_order_contrast.csv"]
        return [
            ("slope>=4.3", second["slope"] >= SLOPE_SECOND_ORDER),
            ("slope_gap>=1.5", second["slope"] - first["slope"] >= SLOPE_GAP),
            ("no_blown_up_row", all(
                math.isfinite(e) for e in second["sup_error"] + first["sup_error"]
            )),
        ]
    if workload.name == "sobolev_growth_box":
        return [
            ("exponent_within_0.3_of_2s-1",
             abs(s["exponent"] - (2.0 * GROWTH_S - 1.0)) <= GROWTH_EXPONENT_TOL),
            ("marked_qualitative", s["qualitative"]),
            ("trajectory_reached_t_end", abs(s["t_last"] - GROWTH_T_END) < 1e-9),
        ]
    return [
        ("every_row_passed", all(s["passed"])),
        ("every_error<=1e-10", all(e <= AUDIT_TOL for e in s["max_error"])),
    ]


# Reference values were recorded at the benchmark's first commit for
# REFERENCE_SEED; a later commit must reproduce them within
# |a - b| <= REF_RTOL * |b| + REF_ATOL, which admits a changed floating-point
# summation order but not a changed result.
REFERENCE_SEED = 1
REF_RTOL = 1e-6
REF_ATOL = 1e-12


def matches_reference(got, ref) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(
            matches_reference(got[k], ref[k]) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            matches_reference(a, b) for a, b in zip(got, ref)
        )
    if isinstance(ref, (bool, str)):
        return got == ref
    return abs(got - ref) <= REF_RTOL * abs(ref) + REF_ATOL

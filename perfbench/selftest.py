"""Self-test of the benchmark on the tiny plans (about a minute).

Usage (from the root of a checkout):  python3 perfbench/selftest.py

For every workload: one untraced and two traced runs of run.py --tiny.
Checks that each run's result line lists every metric BENCHMARK.json
declares, with the declared unit, that its outputs are correct, and that
every count (units count, B and flop, and the FFT-per-RHS ratio) is
identical across the two traced runs.  Last, run.py must refuse to run,
without printing a result, in a directory that holds only BENCHMARK.json
and perfbench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "B", "flop")
EXACT_RATIOS = ("spectral.fft_calls_per_rhs",)


def run(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )
    return proc.returncode, proc.stdout


def fail(msg: str):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def result_of(workload: str, trace: int, declared: list[dict]) -> dict:
    code, out = run(ROOT, workload, trace)
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}:\n{out}")
    result = json.loads(out.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: outputs not correct:\n{out}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{workload} trace={trace}: metric {m['name']} [{m['unit']}] printed as {got}")
    return result["metrics"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in WORKLOADS:
        result_of(name, 0, bench["end_to_end"])
        first, second = (result_of(name, 1, bench["per_layer"]) for _ in range(2))
        counts = [m["name"] for m in bench["per_layer"]
                  if m["unit"] in COUNT_UNITS or m["name"] in EXACT_RATIOS]
        for metric in counts:
            if first[metric]["value"] != second[metric]["value"]:
                fail(f"{name}: {metric} differs across traced runs: "
                     f"{first[metric]['value']} != {second[metric]['value']}")
        print(f"selftest {name}: ok ({len(counts)} counts repeat exactly)")

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(bare, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in out:
        fail(f"run.py without the program exited {code} and printed:\n{out}")
    print("selftest bare checkout: refused as expected")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""szego-rg benchmark: time to verdict of one ``szego-rg`` command.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured command runs through ``szego_rg.cli.main`` in a fresh
process (perfbench/child.py), built from the checkout's ``src/``.

--trace 0 measures the end-to-end metrics with tracing off.  N_SETUP
processes, half before and half after the workload, stop as soon as the
plan is built; the workload repeats, one process after another
(closed loop, single-threaded) while the next repetition is expected to
end within S seconds of the first one's start; at least one always runs.
Reported values are medians over the samples:

  setup_s      process start until the config is parsed and the plan built,
               imports of numpy, scipy and szego_rg included
  wall_s       plan built until the CSVs and run_info.txt are written
  peak_rss_mb  peak resident memory of the workload's process

--trace 1 runs the workload once untraced and once under perfbench.tracer,
and reports the per-layer metrics of the traced run, trace.overhead_s
(traced minus untraced wall_s) and cli.cpu_util of the untraced run.

Every repetition is checked: exit code 0, the verdict thresholds
(perfbench/workloads.py), for REFERENCE_SEED the reference values in
perfbench/reference.json, and identical CSV digests across repetitions and
across runs of the same source tree in the same checkout (remembered in
.perfbench_out/, keyed by the sha256 of src/szego_rg).  A command that exits
nonzero or leaves a CSV unwritten fails its exit-code, digest and verdict
checks.  failed_frac = failed checks / checks attempted is printed, and the
last line of stdout is the JSON result.  --tiny swaps in the self-test's
small plans, for which only the exit code and digest checks apply.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    REFERENCE_SEED,
    WORKLOADS,
    matches_reference,
    summary,
    verdict_checks,
)

N_SETUP = 4
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NOISE_NOTE = (
    "2-core shared host: a shortened y_vs_u run repeated in one process took "
    "5.8-9.8 s with CPU time equal to wall time; the spread is machine speed, not "
    "scheduling, while every count repeats exactly"
)


class Failure(Exception):
    """The benchmark cannot run here (missing program or broken child)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("SZEGO_RG_THREADS", None)  # the program's own default: serial rows
    return env


def spawn(mode: str, run_dir: str, argv: list[str], deadline: float) -> dict:
    """Run child.py in a fresh process; returns its report plus the spawn mark."""
    os.makedirs(run_dir, exist_ok=True)
    report_path = os.path.join(run_dir, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, report_path, "--", *argv]
    with open(os.path.join(run_dir, "child.log"), "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise Failure(f"{mode} process exceeded the {RUN_BUDGET_S:.0f} s run budget")
    if code != 0 or not os.path.exists(report_path):
        with open(os.path.join(run_dir, "child.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise Failure(f"{mode} process exited with code {code}:\n{tail}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report["plan"] is None:
        if report["rc"] == 0:
            raise Failure("the command never built its plan through cli.plan_from_config")
        report["plan"] = report["end"]  # failed before the plan; its checks fail
    report["spawn"] = t_spawn
    report["setup_s"] = report["plan"] - t_spawn
    report["wall_s"] = report["end"] - report["plan"]
    return report


def csv_digests(run_dir: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Checks:
    """Counts checks attempted and failed, keeping the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_rep(workload, args, rep: dict, run_dir: str, checks: Checks,
              digests: dict, reference: dict):
    """Apply every check to one repetition."""
    checks.add("exit_code_0", rep["rc"] == 0)
    if rep["rc"] != 0 or not all(os.path.isfile(os.path.join(run_dir, name))
                                 for name in workload.csvs):
        checks.add("csv_digest_stable", False)
        checks.add("verdict", False)
        return
    got = csv_digests(run_dir, workload.csvs)
    key = f"{workload.name}/{args.seed}/{'tiny' if args.tiny else 'full'}/{args.src_sha256}"
    checks.add("csv_digest_stable", digests.setdefault(key, got) == got)
    try:
        s = summary(workload, run_dir)
    except (KeyError, ValueError, IndexError):
        checks.add("verdict", False)
        return
    if not args.tiny:
        for name, ok in verdict_checks(workload, s):
            checks.add(name, ok)
        if args.seed == REFERENCE_SEED and workload.name in reference:
            checks.add("matches_reference", matches_reference(s, reference[workload.name]))


def src_sha256() -> str:
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "szego_rg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return src.hexdigest()


def environment(args, versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or commit
    caches = {}
    if shutil.which("lscpu"):
        res = subprocess.run(["lscpu"], capture_output=True, text=True, check=False,
                             env={**os.environ, "LC_ALL": "C"})
        for line in res.stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L1d cache", "L1i cache", "L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    return {
        "commit": commit,
        "src_sha256": args.src_sha256,
        "seed": args.seed,
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "noise": NOISE_NOTE,
    }


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def measure(args, workload, run_root: str, config_path: str, checks: Checks,
            digests: dict, reference: dict):
    """Returns (metrics name -> (value, unit), sample counts, versions)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    n = 0

    def argv_for(tag):
        nonlocal n
        n += 1
        run_dir = os.path.join(run_root, f"{n:02d}-{tag}")
        return run_dir, workload.cli_argv(config_path, os.path.join(run_dir, "out"))

    def rep(mode):
        run_dir, argv = argv_for(mode)
        r = spawn(mode, run_dir, argv, deadline)
        check_rep(workload, args, r, os.path.join(run_dir, "out"), checks, digests, reference)
        return r

    def setup_samples(count):
        for _ in range(count):
            run_dir, argv = argv_for("setup")
            yield spawn("setup", run_dir, argv, deadline)["setup_s"]

    if args.trace:
        base = rep("run")
        traced = rep("trace")
        metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
        metrics["cli.cpu_util"] = (base["cpu_s"] / base["wall_s"] if base["wall_s"] > 0 else 0.0,
                                   "ratio")
        checks.add("no_blown_up_trajectory", metrics["dynamics.blown_up"][0] == 0)
        return metrics, {"reps": 1, "traced_reps": 1}, base["versions"]

    # set-up samples on both sides of the repetitions, so that they span the
    # same stretch of machine speed as the workload
    setups = list(setup_samples(N_SETUP // 2))
    reps = [rep("run")]
    start = reps[0]["spawn"]
    # another repetition only if it is expected to end within --seconds
    while time.monotonic() - start + (reps[-1]["end"] - reps[-1]["spawn"]) <= min(
        args.seconds, deadline - start
    ):
        reps.append(rep("run"))
    setups += setup_samples(N_SETUP - N_SETUP // 2)
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in reps), "MB"),
    }
    return metrics, {"reps": len(reps), "setup_samples": len(setups)}, reps[0]["versions"]


def load_json(path: str, default):
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path: str, data):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small plans")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "szego_rg", "cli.py")):
        print(f"perfbench: no szego_rg source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    args.src_sha256 = src_sha256()
    # bytecode is compiled once per checkout, not on a measured start
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    workload = WORKLOADS[args.workload]
    run_root = os.path.join(OUT, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_root)
    config_path = os.path.join(run_root, "workload.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed, args.tiny))

    digest_path = os.path.join(OUT, "digests.json")
    digests = load_json(digest_path, {})
    reference = load_json(REFERENCE, {})
    checks = Checks()
    try:
        metrics, samples, versions = measure(
            args, workload, run_root, config_path, checks, digests, reference
        )
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    save_json(digest_path, {**digests, **load_json(digest_path, {})})

    failed = len(checks.failures)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"tiny={args.tiny} {' '.join(f'{k}={v}' for k, v in samples.items())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed / checks.attempted:.6g} ratio "
          f"({failed} failed of {checks.attempted} checks)")
    for name in checks.failures:
        print(f"  FAILED check: {name}")
    print("env " + json.dumps(environment(args, versions), sort_keys=True))

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of szego_rg, installed from outside the package.

Every public function of the traced modules, plus scipy's ``fft``/``ifft``
as bound inside ``szego_rg.spectral``, is replaced by a wrapper that records
a span: a call count, inclusive time, self time (duration minus the spans
opened inside it) and the time and calls of every other layer nested inside
it.  A name is rebound in every ``szego_rg`` module that holds it, because
the modules import each other's functions by name.  Spans stay in memory;
``Tracer.metrics`` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

TRACED_MODULES = ("spectral", "resonance", "dynamics", "experiments", "config", "reporting", "cli")

# Named layers; a public function not listed here belongs to its module's
# default layer (DEFAULT_GROUP).
GROUPS = {
    "spectral": {
        "cubic_product": "spectral.product",
        "pointwise_product": "spectral.product",
        "sobolev_norm": "spectral.diag",
        "mass": "spectral.diag",
        "momentum": "spectral.diag",
        "energy": "spectral.diag",
        "negative_mode_mass": "spectral.diag",
    },
    "resonance": {
        "f_res_closed": "resonance.f_res_closed",
        "f_res_closed_torus": "resonance.f_res_closed",
        "f_res_closed_line": "resonance.f_res_closed",
        "r2_closed_hardy": "resonance.r2_closed_hardy",
        "require_hardy": "resonance.require_hardy",
        "F_osc_torus": "resonance.F_osc",
        "F_osc_line": "resonance.F_osc",
        "F_osc": "resonance.F_osc",
        "f_res_bruteforce": "resonance.oracle",
        "osc_primitive_bruteforce": "resonance.oracle",
        "f_osc": "resonance.oracle",
        "dF_osc": "resonance.oracle",
        "r2_bruteforce": "resonance.oracle",
        "r2_time_average": "resonance.oracle",
        "measure_zero_split": "resonance.oracle",
    },
    "dynamics": {"integrate": "dynamics.integrate"},
}
DEFAULT_GROUP = {
    "spectral": "spectral.other",
    "resonance": "resonance.other",
    "dynamics": "dynamics.other",
    "experiments": "experiments",
    "config": "config",
    "reporting": "reporting",
    "cli": "cli",
}
ANSATZ_CONSTRUCTORS = ("first_order_ansatz", "second_order_ansatz")

# Computed kernel work per transform of N points: 16 B read and 16 B written
# per complex128 point, and the radix-2 estimate of 5 N log2 N flops.
FFT_BYTES_PER_POINT = 32


class Tracer:
    """In-memory span and counter store; one per traced process.

    The span stack is shared, so the traced command must run its sweep rows
    on one thread (the benchmark unsets SZEGO_RG_THREADS).
    """

    def __init__(self):
        self.calls = defaultdict(int)        # outermost entries per layer
        self.incl = defaultdict(float)       # inclusive seconds per layer
        self.self_s = defaultdict(float)     # seconds minus nested spans
        self.nested_s = defaultdict(float)   # (outer layer, inner layer) -> seconds
        self.nested_n = defaultdict(int)     # (outer layer, inner layer) -> calls
        self.count = defaultdict(float)      # work counters
        self.row_s: list[float] = []         # duration of each sweep row
        self._depth = defaultdict(int)
        self._open: list[str] = []           # layers with an open span, outermost first
        self._stack: list[list[float]] = []  # child seconds of each open span

    def span(self, group, fn, after=None):
        """Wrap fn so each call records a span of the given layer; after(args,
        result) runs on each successful return."""
        depth_of, open_groups, stack = self._depth, self._open, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = depth_of[group]
            if depth == 0:
                open_groups.append(group)
            depth_of[group] = depth + 1
            child = [0.0]
            stack.append(child)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth_of[group] = depth
                if stack:
                    stack[-1][0] += dt
                self.self_s[group] += dt - child[0]
                if depth == 0:
                    open_groups.pop()
                    self.calls[group] += 1
                    self.incl[group] += dt
                    for outer in open_groups:
                        self.nested_s[outer, group] += dt
                        self.nested_n[outer, group] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _count_fft(self, args, _out):
        x = args[0]
        n = x.shape[-1]
        self.count["fft_points"] += x.size
        self.count["fft_flops"] += 5.0 * x.size * math.log2(n) if n > 1 else 0.0

    def _count_integrate(self, args, traj):
        # step count exactly as dynamics.integrate derives it from the FlowSpec
        spec = args[0]
        n_steps = max(1, int(math.ceil(spec.t_end / spec.dt - 1e-12)))
        if traj.blown_up:
            n_steps = round(float(traj.times[-1]) / (spec.t_end / n_steps))
        self.count["rk4_steps"] += n_steps
        self.count["snapshots"] += len(traj.times)
        self.count["blown_up"] += bool(traj.blown_up)

    def _count_csv(self, args, _out):
        self.count["csv_bytes"] += os.path.getsize(args[0])

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every traced name in every szego_rg module that holds it."""
        import scipy.fft

        import szego_rg

        modules = {name: importlib.import_module(f"szego_rg.{name}") for name in TRACED_MODULES}
        replace = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                group = GROUPS.get(short, {}).get(name, DEFAULT_GROUP[short])
                after = None
                if name == "integrate":
                    after = self._count_integrate
                elif name == "write_csv":
                    after = self._count_csv
                replace[id(obj)] = (obj, self.span(group, obj, after))
        for fn in (scipy.fft.fft, scipy.fft.ifft):
            replace[id(fn)] = (fn, self.span("spectral.fft", fn, self._count_fft))

        # ansatz constructors hand back closures: wrap those so their calls
        # are spans of their own
        dyn = modules["dynamics"]
        for name in ANSATZ_CONSTRUCTORS:
            original = getattr(dyn, name)
            constructor = self.span("dynamics.other", original)
            replace[id(original)] = (
                original,
                functools.wraps(original)(
                    lambda traj, _c=constructor: self.span("dynamics.ansatz", _c(traj))
                ),
            )

        for mod in (szego_rg, *modules.values()):
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        self._install_rows(modules["experiments"])
        self._install_classes(modules["spectral"], modules["reporting"])

    def _install_rows(self, exp):
        """Time each sweep row through the experiments' row mapper, when the
        experiments module has one."""
        map_rows = getattr(exp, "_map_rows", None)
        if map_rows is None:
            return

        def row_failed(result):
            parts = result if isinstance(result, tuple) else (result,)
            return any(getattr(p, "failed", False) for p in parts)

        def traced_map_rows(fn, items):
            def row(item):
                t0 = time.perf_counter()
                try:
                    return row_span(item)
                finally:
                    self.row_s.append(time.perf_counter() - t0)

            row_span = self.span("experiments", fn)
            results = map_rows(row, items)
            self.count["rows"] += len(results)
            self.count["rows_failed"] += sum(row_failed(r) for r in results)
            return results

        exp._map_rows = traced_map_rows

    def _install_classes(self, spectral, reporting):
        cls = spectral.SpectralField
        post_init = cls.__post_init__
        count = self.count

        def counted_post_init(field):
            count["field_allocs"] += 1
            post_init(field)

        cls.__post_init__ = counted_post_init
        meta = reporting.RunMetadata
        meta.write = self.span("reporting", meta.write)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, calls, incl = self.count, self.calls, self.incl
        rhs_evals = 4 * c["rk4_steps"]
        fft_bytes = FFT_BYTES_PER_POINT * c["fft_points"]
        out = {
            "spectral.fft_calls": (calls["spectral.fft"], "count"),
            "spectral.fft_points": (c["fft_points"], "count"),
            "spectral.fft_s": (incl["spectral.fft"], "s"),
            "spectral.fft_calls_per_rhs": (
                _ratio(self.nested_n["dynamics.integrate", "spectral.fft"], rhs_evals),
                "ratio",
            ),
            "spectral.field_allocs": (c["field_allocs"], "count"),
            "spectral.product_calls": (calls["spectral.product"], "count"),
            "spectral.product_s": (incl["spectral.product"], "s"),
            "spectral.product_self_s": (
                incl["spectral.product"] - self.nested_s["spectral.product", "spectral.fft"],
                "s",
            ),
            "spectral.diag_calls": (calls["spectral.diag"], "count"),
            "spectral.diag_s": (incl["spectral.diag"], "s"),
            "spectral.fft_bytes_computed": (fft_bytes, "B"),
            "spectral.fft_flops_computed": (c["fft_flops"], "flop"),
            "spectral.fft_flops_per_byte_computed": (_ratio(c["fft_flops"], fft_bytes), "flop/B"),
        }
        for layer in ("f_res_closed", "r2_closed_hardy", "require_hardy", "F_osc", "oracle"):
            out[f"resonance.{layer}_calls"] = (calls[f"resonance.{layer}"], "count")
            out[f"resonance.{layer}_s"] = (incl[f"resonance.{layer}"], "s")
        integrate_s = incl["dynamics.integrate"]
        out.update({
            "dynamics.integrate_calls": (calls["dynamics.integrate"], "count"),
            "dynamics.integrate_s": (integrate_s, "s"),
            "dynamics.integrate_self_s": (self.self_s["dynamics.integrate"], "s"),
            "dynamics.rk4_steps": (c["rk4_steps"], "count"),
            "dynamics.rhs_evals": (rhs_evals, "count"),
            "dynamics.steps_per_s": (_ratio(c["rk4_steps"], integrate_s), "1/s"),
            "dynamics.snapshots": (c["snapshots"], "count"),
            "dynamics.blown_up": (c["blown_up"], "count"),
            "dynamics.ansatz_calls": (calls["dynamics.ansatz"], "count"),
            "dynamics.ansatz_s": (incl["dynamics.ansatz"], "s"),
            "experiments.rows": (c["rows"], "count"),
            "experiments.rows_failed": (c["rows_failed"], "count"),
            "experiments.row_max_s": (max(self.row_s, default=0.0), "s"),
            "experiments.self_s": (self.self_s["experiments"], "s"),
            "config.load_s": (incl["config"], "s"),
            "reporting.csv_bytes": (c["csv_bytes"], "B"),
            "reporting.write_s": (incl["reporting"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
        })
        return {k: (int(v) if unit in ("count", "B") else v, unit) for k, (v, unit) in out.items()}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0

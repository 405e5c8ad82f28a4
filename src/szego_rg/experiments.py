"""Quantitative studies confronting the simulated half-wave flow with its
effective dynamics: error-scaling sweeps, the Y-vs-U flow comparison,
oscillatory-primitive growth laws, the qualitative Sobolev-growth study, and
the kernel oracle audit; and simulate, the one single-trajectory run.

One sweep routine serves the three error-scaling experiments: per eps, the
sup-in-time H^s gap between a truth flow and its approximants from the same
data.  One finisher fits the exponent of both growth studies.

Every experiment is a pure function of its plan; identical plans produce
identical reports.  Sweep rows run one after another in eps order.  Every
run is read off the integrator's snapshot stream and reduced as it arrives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np
from numpy.random import default_rng  # load at start-up; numpy defers it to first use

from . import oracles
from . import resonance as rs
from .dynamics import (
    MAX_DT,
    SLOW_DT,
    Flow,
    FlowSpec,
    Snapshot,
    first_order_ansatz,
    second_order_ansatz,
    stream,
)
from .spectral import (
    TWO_PI,
    Domain,
    FrequencyGrid,
    SpectralField,
    check_norm_index,
    field_from_modes,
    mass,
    random_field,
    sobolev_norm,
)

ERROR_FLOOR = 1e-15
_FLOORED = f"values below {ERROR_FLOOR:g} were raised to that floor for the log-log fit"
# a sweep row is flagged when sup_t ||W(t)||_{H^s} exceeds this factor times
# ||W0||_{H^s} (log(1/eps^delta))^alpha, the bounded-solution hypothesis
HYPOTHESIS_FACTOR = 3.0


class Experiment(enum.Enum):
    SCALING1_TORUS = "scaling_first_order_torus"
    SCALING1_BOX = "scaling_first_order_box"
    SCALING2_TORUS = "scaling_second_order_torus"
    Y_VS_U = "y_vs_u"
    FOSC_GROWTH = "fosc_growth"
    SOBOLEV_GROWTH = "sobolev_growth"
    KERNEL_AUDIT = "kernel_audit"


class DataKind(enum.Enum):
    HARDY_POLYNOMIAL = "hardy_polynomial"
    RATIONAL_NONGENERIC = "rational_nongeneric"
    SEEDED_RANDOM_HARDY = "seeded_random_hardy"


# the command that runs each experiment
COMMAND = {
    Experiment.SCALING1_TORUS: "scaling",
    Experiment.SCALING1_BOX: "scaling",
    Experiment.SCALING2_TORUS: "scaling",
    Experiment.Y_VS_U: "scaling",
    Experiment.FOSC_GROWTH: "growth",
    Experiment.SOBOLEV_GROWTH: "growth",
    Experiment.KERNEL_AUDIT: "audit",
}

# the [experiment] keys each experiment reads
_SWEEP_KEYS = ("eps_list", "s", "alpha", "delta", "dt", "snapshots_per_run")
EXPERIMENT_KEYS = {
    **{e: _SWEEP_KEYS for e, command in COMMAND.items() if command == "scaling"},
    Experiment.FOSC_GROWTH: ("s", "growth_t_min", "growth_t_max", "growth_points"),
    Experiment.SOBOLEV_GROWTH: ("s", "growth_t_min", "growth_t_max", "growth_points", "dt"),
    Experiment.KERNEL_AUDIT: ("audit_fields",),
}
# the [initial_data] keys each data kind reads; the kernel audit reads none
DATA_KEYS = {
    DataKind.HARDY_POLYNOMIAL: ("kind", "normalization", "scale", "modes", "amplitudes"),
    DataKind.RATIONAL_NONGENERIC: ("kind", "normalization", "scale"),
    DataKind.SEEDED_RANDOM_HARDY: ("kind", "normalization", "scale", "decay"),
}


@dataclass(frozen=True)
class InitialDataSpec:
    """Hardy initial data: a mode polynomial, the two-pole rational profile
    1/(x+i) - 2/(x+2i) sampled onto the box grid, or seeded random decay.

    normalization > 0 rescales to that L2 norm (None keeps raw amplitudes);
    scale multiplies afterwards.  For the resonant flow a scale factor is an
    exact symmetry that compresses effective time by its square.
    """

    kind: DataKind = DataKind.HARDY_POLYNOMIAL
    modes: tuple[int, ...] = (1, 2, 3)
    amplitudes: tuple[complex, ...] = (2.0, 1.0, 0.5)
    seed: int = 20240
    decay: float = 1.5
    normalization: float | None = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if len(self.modes) != len(self.amplitudes):
            raise ValueError(f"{len(self.modes)} modes but {len(self.amplitudes)} amplitudes given")
        if any(k < 0 for k in self.modes):
            raise ValueError("Hardy polynomial data requires modes k >= 0")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes {self.modes} name a mode twice")
        if self.normalization is not None and not self.normalization > 0.0:
            raise ValueError(f"normalization must be > 0, got {self.normalization:g}")

    def build(self, grid: FrequencyGrid, s: float) -> SpectralField:
        """The data on grid, checked: modes in the grid, an allocatable array, a
        normalized L2 norm in (0, inf), and a finite H^1/2 norm (the blow-up
        guard's), sup bound (sum |c(k)|)^4 of |u|^4 and |u|^2 u, and H^s bound
        4 Q sum_k (1 + freq_k^2)^s at the run's norm index s: Q, the data's
        mass, is conserved, so Q sum_k (1 + freq_k^2)^s bounds the squared H^s
        norm of every state, and 4 that of a difference of two states."""
        if self.kind is DataKind.HARDY_POLYNOMIAL and max(self.modes, default=0) > grid.n_max:
            raise ValueError(f"modes {self.modes} reach outside the grid range +-{grid.n_max}")
        try:
            # overflow, and a division by a zero norm, end in the check below
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                if self.kind is DataKind.HARDY_POLYNOMIAL:
                    f = field_from_modes(grid, dict(zip(self.modes, self.amplitudes)))
                elif self.kind is DataKind.RATIONAL_NONGENERIC:
                    # coefficients (1/L) * F(W0)(xi_k) of the periodized profile;
                    # F(1/(x+ia))(xi) = -2*pi*i*exp(-a*xi) for xi >= 0.
                    xi = np.clip(grid.freqs, 0.0, None)
                    c = -2j * np.pi * (np.exp(-xi) - 2.0 * np.exp(-2.0 * xi)) / grid.length
                    f = SpectralField(grid, np.where(grid.modes >= 0, c, 0.0))
                else:
                    f = random_field(grid, default_rng(self.seed), self.decay, hardy=True)
                q = np.sqrt(mass(f))
                if self.normalization is not None:
                    f = (self.normalization / q) * f
                f = self.scale * f if self.scale != 1.0 else f
                h_half, sup4 = sobolev_norm(f, 0.5), np.sum(np.abs(f.coeff)) ** 4
                h_s = 4.0 * mass(f) * np.sum((1.0 + grid.freqs**2) ** s)
        except MemoryError:
            raise ValueError(f"n_max = {grid.n_max}: the initial data cannot be allocated") from None
        for quantity, value, ok in (
            ("L2 norm to normalize", q, self.normalization is None or 0.0 < q < np.inf),
            ("H^1/2 norm", h_half, h_half < np.inf),
            ("sup bound (sum |c(k)|)^4", sup4, sup4 < np.inf),
            (f"H^s bound 4 Q sum_k (1 + freq_k^2)^s at s = {s:g}", h_s, h_s < np.inf),
        ):
            if not ok:
                keys = ", ".join(
                    f"{k} = {getattr(self, k)}" for k in DATA_KEYS[self.kind] if k != "kind")
                raise ValueError(f"{self.kind.value} data with {keys} cannot be used at "
                                 f"n_max = {grid.n_max}: its {quantity} is {value:g}")
        return f


@dataclass(frozen=True)
class ExperimentPlan:
    """Resolved description of one experiment run.

    alpha and delta enter the horizon T(eps) = eps^-2 (log(1/eps^delta))^(1-2*alpha).
    A scaling sweep passes when its fitted slope is at least slope_threshold
    and its fit residual at most residual_max, which the default plans set
    (no configuration key does).  The Sobolev growth trajectory
    ends at growth_t_max, the end of its fit window [growth_t_min, growth_t_max].
    """

    experiment: Experiment
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    s: float = 1.0
    alpha: float = 0.0
    delta: float = 0.1
    grid: FrequencyGrid = FrequencyGrid(32, Domain.TORUS)
    initial_data: InitialDataSpec = field(default_factory=InitialDataSpec)
    dt: float = 0.05
    snapshots_per_run: int = 150
    growth_t_min: float = 10.0
    growth_t_max: float = 400.0
    growth_points: int = 25
    slope_threshold: float = 0.0
    residual_max: float = np.inf
    audit_fields: int = 20

    def __post_init__(self):
        if any(not 0.0 < e <= 0.5 for e in self.eps_list):
            raise ValueError("each eps must lie in (0, 0.5]")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError("alpha must lie in [0, 1/2]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not min(self.eps_list, default=1.0) ** self.delta > 0.0:
            raise ValueError(f"delta = {self.delta:g} underflows eps^delta to 0")
        if not 0.0 < self.dt <= MAX_DT:
            raise ValueError(f"dt must lie in (0, {MAX_DT}], got {self.dt}")
        for e in (self.eps_list if "eps_list" in EXPERIMENT_KEYS[self.experiment] else ()):
            with np.errstate(divide="ignore", over="ignore"):  # inf ends in the error below
                t = self.horizon(e)
            if not 0.0 < t / self.dt < 2.0**53:
                raise ValueError(
                    f"eps_list entry {e:g}, delta = {self.delta:g} and alpha = {self.alpha:g} "
                    f"give the horizon T = {t:g}; it must be positive and below 2^53 dt"
                )
        if self.snapshots_per_run < 1:
            raise ValueError(f"snapshots_per_run must be >= 1, got {self.snapshots_per_run}")
        if self.audit_fields < 1:
            raise ValueError(f"audit_fields must be >= 1, got {self.audit_fields}")
        quintic_cap = oracles.MAX_QUINTIC_N_MAX
        if self.experiment is Experiment.KERNEL_AUDIT and self.grid.n_max > quintic_cap:
            raise ValueError(
                f"the kernel audit's quintic brute force needs n_max <= "
                f"{quintic_cap}, got n_max = {self.grid.n_max}"
            )
        # the F_osc growth study runs on either domain; every other
        # experiment is defined on the domain of its default plan
        required = _DEFAULTS[self.experiment].get("grid", ExperimentPlan.grid).domain
        if self.experiment is not Experiment.FOSC_GROWTH and self.grid.domain is not required:
            raise ValueError(f"{self.experiment.value} requires domain = {required.value}")
        check_norm_index(self.s, self.grid)
        command = COMMAND[self.experiment]
        if command == "scaling" and len(self.eps_list) < 3:
            raise ValueError(
                f"eps_list needs >= 3 eps values for the log-log fit, got {len(self.eps_list)}"
            )
        if self.experiment is Experiment.SCALING1_BOX and self.grid.length < 64.0 * np.pi:
            raise ValueError("box scaling expects length >= 64*pi")
        if command == "growth":
            self._check_growth_window()

    def _check_growth_window(self):
        """At least 3 fit points must fall inside the growth window."""
        lo, hi = self.growth_t_min, self.growth_t_max
        window = f"[growth_t_min, growth_t_max] = [{lo:.6g}, {hi:.6g}]"
        if not 0.0 < lo < hi:
            raise ValueError(f"growth_t_min must be positive and below growth_t_max, got {window}")
        if self.experiment is Experiment.SOBOLEV_GROWTH:
            if not hi / self.dt < 2.0**53:
                raise ValueError(f"growth_t_max/dt = {hi / self.dt:g} must be below 2^53 steps")
            h, steps = _growth_spec(self).schedule()
            ts = np.fromiter(steps, float) * h
            n = np.count_nonzero((ts >= lo) & (ts <= hi))
            where = f"snapshot times in {window}"
        else:
            try:
                n = np.count_nonzero(self.fosc_window())
            except MemoryError:
                raise ValueError(
                    f"growth_points = {self.growth_points}: the t grid cannot be allocated"
                ) from None
            where = f"of the growth_points = {self.growth_points} t points of {window}"
            if self.grid.domain is Domain.BIGBOX:
                where += f" at or below length/2 = {self.grid.length / 2.0:.6g}"
        if n < 3:
            raise ValueError(f"the growth fit needs >= 3 {where}, got {n}")

    def fosc_times(self) -> np.ndarray:
        """The logarithmic t grid of the F_osc growth study."""
        return np.logspace(
            np.log10(self.growth_t_min), np.log10(self.growth_t_max), self.growth_points
        )

    def fosc_window(self) -> np.ndarray:
        """The fit rows of fosc_times(): all on the torus; on the box those at or
        below length/2, where the mode spacing still resolves the sinc peak."""
        cut = self.grid.length / 2.0 if self.grid.domain is Domain.BIGBOX else np.inf
        return self.fosc_times() <= cut

    def horizon(self, eps: float) -> float:
        return float(np.log(1.0 / eps**self.delta) ** (1.0 - 2.0 * self.alpha) / eps**2)


_RATIONAL = InitialDataSpec(kind=DataKind.RATIONAL_NONGENERIC, normalization=None)

# each experiment's tuned defaults, as overrides of the ExperimentPlan fields
_DEFAULTS = {
    Experiment.SCALING1_TORUS: dict(slope_threshold=2.7, residual_max=0.15),
    Experiment.SCALING2_TORUS: dict(eps_list=(0.2, 0.14, 0.1, 0.07), slope_threshold=4.3),
    # alpha = 1/2 removes the log factor from the horizon; the Y-U gap is
    # purely secular, so any log factor would contaminate the fitted slope
    Experiment.Y_VS_U: dict(eps_list=(0.2, 0.1, 0.05), alpha=0.5, slope_threshold=1.7),
    Experiment.SCALING1_BOX: dict(
        eps_list=(0.2, 0.1, 0.05), alpha=0.5, initial_data=_RATIONAL, slope_threshold=1.7,
        grid=FrequencyGrid(384, Domain.BIGBOX, 64.0 * np.pi),
    ),
    Experiment.FOSC_GROWTH: dict(
        grid=FrequencyGrid(1024, Domain.BIGBOX, 512.0 * np.pi), initial_data=_RATIONAL,
    ),
    Experiment.SOBOLEV_GROWTH: dict(
        grid=FrequencyGrid(32768, Domain.BIGBOX, 256.0 * np.pi), dt=0.1, growth_t_max=40.0,
        initial_data=replace(_RATIONAL, scale=2.0),
    ),
    Experiment.KERNEL_AUDIT: dict(grid=FrequencyGrid(8, Domain.TORUS)),
}


def default_plan(experiment: Experiment) -> ExperimentPlan:
    """Tuned defaults per experiment (all overridable via the config layer);
    each plan is built in one step, so its domain rules see it whole."""
    return ExperimentPlan(experiment, **_DEFAULTS.get(experiment, {}))


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class ScalingRow:
    eps: float
    horizon: float
    sup_error: float
    sup_w_norm: float
    flagged: bool
    failed: bool = False


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple[ScalingRow, ...]
    fitted_slope: float
    fit_residual: float
    passed: bool
    caveats: tuple[str, ...] = ()


@dataclass(frozen=True)
class GrowthReport:
    times: np.ndarray
    norms: np.ndarray
    in_window: np.ndarray
    exponent: float
    window: tuple[float, float]
    qualitative: bool
    warnings: tuple[str, ...] = ()
    blown_up: bool = False


class AuditRow(NamedTuple):
    """One audit check, exactly the audit.csv row."""

    check: str
    max_error: float
    passed: bool


def fit_loglog(xs, ys) -> tuple[float, float, bool]:
    """Least-squares slope of log(y) against log(x).

    Returns (slope, rms residual, floored) where floored reports that some
    zero values were replaced by the 1e-15 floor.  Requires >= 3 usable rows.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("log-log fit needs at least 3 rows")
    if np.any(xs <= 0):
        raise ValueError("log-log fit needs positive abscissae")
    floored = bool(np.any(ys < ERROR_FLOOR))
    ys = np.maximum(ys, ERROR_FLOOR)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid, floored


# ---------------------------------------------------------------------------
# scaling experiments


def _flow_spec(
    plan: ExperimentPlan, flow: Flow, eps: float, t_end: float, snapshots: int | None = None,
    slow: float | None = None,
) -> FlowSpec:
    """FlowSpec of one trajectory on the plan's grid; snapshots defaults to
    plan.snapshots_per_run, and slow is FlowSpec.slow."""
    return FlowSpec(
        flow=flow,
        grid=plan.grid,
        eps=eps,
        dt=plan.dt,
        t_end=t_end,
        s=plan.s,
        snapshot_stride=t_end / (plan.snapshots_per_run if snapshots is None else snapshots),
        slow=slow,
    )


def _growth_spec(plan: ExperimentPlan) -> FlowSpec:
    """The Sobolev growth study's trajectory: the eps = 1 resonant flow to growth_t_max."""
    snapshots = max(plan.growth_points * 2, 40)
    return _flow_spec(plan, Flow.FIRST_ORDER_RG, 1.0, plan.growth_t_max, snapshots)


def _finish_scaling(rows, slope_min=0.0, residual_max=np.inf, caveats=()):
    usable = [(r.eps, r.sup_error) for r in rows if not r.failed]
    if len(usable) >= 3:
        slope, resid, floored = fit_loglog([u[0] for u in usable], [u[1] for u in usable])
        if floored:
            caveats = (*caveats, f"sup_error {_FLOORED}")
    else:
        slope, resid = float("nan"), float("nan")
    passed = bool(
        len(usable) == len(rows)
        and np.isfinite(slope)
        and slope >= slope_min
        and resid <= residual_max
    )
    return ScalingReport(tuple(rows), slope, resid, passed, tuple(caveats))


def _sweep(plan: ExperimentPlan, truth: Flow, start, arms, slow: float | None):
    """One error-scaling sweep: for each eps, stream the truth flow from
    start(eps, W0) and the flow of each arm (flow, ansatz_of) from W0, and
    record sup_t ||truth(t) - ansatz_of(spec)(snapshot at t)||_{H^s}.
    The effective flows take slow-time substeps of at most slow.

    The row's streams share one schedule, so zipping them pairs snapshots of
    one time; strict zipping raises on a schedule mismatch.  Each stream is
    reduced as it arrives to running maxima, so a row holds one snapshot per
    stream.  Returns one row tuple per arm.  Each row carries
    sup_t ||W(t)||_{H^s} of the first arm's stream, flagged against the
    bounded-solution hypothesis; a blow-up in any stream fails that eps in
    every arm.
    """
    w0 = plan.initial_data.build(plan.grid, plan.s)
    w0_norm = sobolev_norm(w0, plan.s)

    def row(eps):
        t_end = plan.horizon(eps)
        sp = lambda flow: _flow_spec(plan, flow, eps, t_end, slow=slow)
        specs = [sp(flow) for flow, _ in arms]
        ansatzes = [ansatz_of(spec) for spec, (_, ansatz_of) in zip(specs, arms)]
        streams = [stream(sp(truth), start(eps, w0)), *(stream(spec, w0) for spec in specs)]
        sups = None
        for ref, *snaps in zip(*streams, strict=True):
            if ref.blown_up or any(snap.blown_up for snap in snaps):
                failed = ScalingRow(eps, t_end, float("nan"), float("nan"), True, failed=True)
                return [failed] * len(arms)
            norms = [sobolev_norm(snaps[0].state, plan.s)] + [
                sobolev_norm(ref.state - ansatz(snap), plan.s)
                for ansatz, snap in zip(ansatzes, snaps)
            ]
            # max()'s rule, which every recorded row was made with: keep the
            # first value and replace it only on >
            sups = norms if sups is None else [n if n > m else m for n, m in zip(norms, sups)]
        sup_w, *sup_errors = sups
        bound = HYPOTHESIS_FACTOR * w0_norm * np.log(1.0 / eps**plan.delta) ** plan.alpha
        return [ScalingRow(eps, t_end, sup, sup_w, sup_w > bound) for sup in sup_errors]

    return list(zip(*(row(eps) for eps in plan.eps_list)))


def run_scaling_first_order(plan: ExperimentPlan) -> ScalingReport:
    """Sweep eps: integrate the full flow and the resonant flow from eps*W0,
    record sup_t ||v(t) - exp(-i|D|t) eps W(t)||_{H^s}, fit the log-log slope.

    On the big box the report carries the line-approximation caveat.  The
    data are Hardy, on which the two-term line kernel is the whole resonant
    kernel, so the kernel drops no term.
    """
    (rows,) = _sweep(
        plan, Flow.FULL_NLW, lambda eps, w0: eps * w0,
        [(Flow.FIRST_ORDER_RG, first_order_ansatz)], SLOW_DT,
    )
    caveats = ()
    length = plan.grid.length
    if plan.grid.domain is Domain.BIGBOX:
        caveats = (
            f"big-box approximation of the line: L={length:.6g}, "
            f"small-divisor amplification at the first negative mode = L/(2*pi) = {length / TWO_PI:.6g}",
        )
    return _finish_scaling(rows, plan.slope_threshold, plan.residual_max, caveats)


def run_scaling_second_order(plan: ExperimentPlan) -> tuple[ScalingReport, ScalingReport]:
    """Second-order sweep on the torus.

    The full flow starts from v0 = cal_W0 + F_osc(cal_W0, 0) so that the
    zero-t-mean primitive in the ansatz matches the initial state; with the
    bare data the order-eps^3 value of F_osc at t = 0 would mask the eps^5
    law.  Returns (second_order_report, first_order_contrast_report), both
    measured on the same full-flow trajectories.
    """
    rows2, rows1 = _sweep(
        plan, Flow.FULL_NLW, lambda eps, w0: eps * w0 + rs.F_osc(eps * w0, 0.0),
        [
            (Flow.SECOND_ORDER_AVERAGED, second_order_ansatz),
            (Flow.FIRST_ORDER_RG, first_order_ansatz),
        ],
        # the sweep's O(eps^5) errors reach 5e-7 at eps = 0.07: on the seed-1
        # benchmark plan SLOW_DT moves the fit residual by 4.5e-6 relative,
        # over the 1e-6 bound, and SLOW_DT / 4 by 2.9e-7
        SLOW_DT / 4,
    )
    first = _finish_scaling(rows1)
    second = _finish_scaling(rows2, plan.slope_threshold, plan.residual_max)
    if second.passed and np.isfinite(first.fitted_slope):
        # gate: the second-order slope must beat the first-order one by >= 1.5
        second = replace(
            second, passed=bool(second.fitted_slope - first.fitted_slope >= 1.5)
        )
    return second, first


def run_y_vs_u(plan: ExperimentPlan) -> ScalingReport:
    """Compare the averaged flow (with its quintic correction) against the
    bare resonant flow from the same data; the gap scales like eps^2."""
    (rows,) = _sweep(
        plan, Flow.SECOND_ORDER_AVERAGED, lambda eps, w0: w0,
        [(Flow.FIRST_ORDER_RG, lambda spec: lambda snap: snap.state)], SLOW_DT,
    )
    return _finish_scaling(rows, plan.slope_threshold, plan.residual_max)


# ---------------------------------------------------------------------------
# single trajectory


def simulate(spec: FlowSpec, data: InitialDataSpec) -> Iterator[Snapshot]:
    """The snapshot stream of spec from data W0: the full flow starts from
    eps*W0, the effective flows from W0 (their states stay unscaled).  The
    data are built at the call; the stream checks them at its first item."""
    w0 = data.build(spec.grid, spec.s)
    return stream(spec, spec.eps * w0 if spec.flow is Flow.FULL_NLW else w0)


# ---------------------------------------------------------------------------
# growth studies


def _growth_report(ts, norms, in_window, qualitative, warnings, blown_up=False) -> GrowthReport:
    """Fit the growth exponent on the rows in the window.  With fewer than 3
    of them the exponent and the window are NaN, a numeric guard that the
    caller reports."""
    slope, window = float("nan"), (float("nan"), float("nan"))
    if np.count_nonzero(in_window) >= 3:
        slope, _, floored = fit_loglog(ts[in_window], norms[in_window])
        window = (float(ts[in_window][0]), float(ts[in_window][-1]))
        if floored:
            warnings = (*warnings, f"norms {_FLOORED}")
    return GrowthReport(ts, norms, in_window, slope, window, qualitative, warnings, blown_up)


def run_fosc_growth(plan: ExperimentPlan) -> GrowthReport:
    """||F_osc(W, t)||_{H^s} on a logarithmic t grid for a frozen field W.

    On the box the norm follows the t^(1/2) law while the mode spacing still
    resolves the sinc concentration (t below about length/2); on the torus it
    stays bounded with no trend.
    """
    w0 = plan.initial_data.build(plan.grid, plan.s)
    ts = plan.fosc_times()
    norms = np.array([sobolev_norm(rs.F_osc(w0, t), plan.s) for t in ts])
    in_window = plan.fosc_window()
    warnings = ()
    if not np.all(in_window):
        warnings = (
            f"t beyond length/2 = {plan.grid.length / 2.0:.6g} no longer resolves the "
            f"sinc concentration; those rows are excluded from the fit",
        )
    return _growth_report(ts, norms, in_window, False, warnings)


def run_sobolev_growth(plan: ExperimentPlan) -> GrowthReport:
    """QUALITATIVE: H^s norm growth of the eps=1 resonant flow with the
    two-pole rational data on a large box.

    The line prediction is t^(2s-1) for large t.  The spectral truncation
    bounds the faithful time window: the fit runs on [growth_t_min,
    growth_t_max] and rows where the boundary band carries more than 1% of
    the mass are flagged and left out of the fit (a warning; a window left
    with fewer than 3 rows trips a numeric guard).  A snapshot that trips
    the blow-up guard ends the trajectory and is never in the fit window.
    Amplitude normalization rescales effective time by its square (exact
    symmetry of the flow) and leaves the exponent unchanged.

    The trajectory is read as a stream and each snapshot is reduced to its
    norm and boundary-band share as it arrives, so the study never holds
    the whole trajectory.
    """
    grid = plan.grid
    w0 = plan.initial_data.build(grid, plan.s)
    band = np.abs(grid.modes) >= grid.n_max - max(grid.n_max // 64, 8)
    ts, norms, boundary = [], [], []
    for snap in stream(_growth_spec(plan), w0):
        f = snap.state
        ts.append(snap.time)
        norms.append(sobolev_norm(f, plan.s))
        boundary.append(float(np.sum(np.abs(f.coeff[band]) ** 2) / max(mass(f), 1e-300)))
    blown_up = snap.blown_up
    ts, norms, boundary = np.array(ts), np.array(norms), np.array(boundary)
    faithful = boundary <= 0.01  # False on a non-finite state
    warnings = []
    if not np.all(faithful):
        t_bad = float(ts[np.argmin(faithful)])
        warnings.append(
            f"boundary-mode mass exceeds 1% from t = {t_bad:.6g}; truncation no longer faithful"
        )
    in_window = (ts >= plan.growth_t_min) & (ts <= plan.growth_t_max) & faithful
    if blown_up:
        in_window[-1] = False  # the snapshot that tripped the guard is never fitted
        warnings.append(f"H^1/2 blow-up guard stopped the trajectory at t = {ts[-1]:.6g}")
    return _growth_report(ts, norms, in_window, True, tuple(warnings), blown_up)


# ---------------------------------------------------------------------------
# kernel oracle audit


def run_kernel_audit(plan: ExperimentPlan) -> list[AuditRow]:
    """Closed-form-vs-brute-force equivalences and the resonance-set lemmas,
    one reproducible pass/fail row each: a check passes when the largest of
    its errors (NaN if any is) is at most its tolerance.  The rows are
    computed in order, so each draws its random fields before the next.
    """
    n = plan.grid.n_max
    rng = default_rng(plan.initial_data.seed)
    gt = plan.grid
    gb = FrequencyGrid(n, Domain.BIGBOX, 16.0 * np.pi)

    def fields(grid: FrequencyGrid, count: int, hardy: bool = False):
        return (random_field(grid, rng, hardy=hardy) for _ in range(count))

    def max_diff(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b)))

    def closed_vs_oracle(grid, hardy, closed, oracle) -> list[float]:
        # a closed form (on arrays) against its oracle (on fields); the closed
        # forms carry no grid, so each is paired with its geometry here
        return [
            max_diff(closed(u.coeff), oracle(u).coeff)
            for u in fields(grid, plan.audit_fields, hardy)
        ]

    K, L, M, J, phi = oracles.quadruples(n)
    lemmas = (rs.is_resonant_torus(K, L, M, J), rs.is_resonant_line(K, L, M, J))
    # (check, tolerance, errors), one per row, in audit.csv order
    entries = (
        ("f_res_closed_torus_vs_bruteforce", 1e-10,
         closed_vs_oracle(gt, False, rs.f_res_closed_torus, oracles.f_res_bruteforce)),
        ("f_res_closed_line_vs_bruteforce", 1e-10,
         closed_vs_oracle(gb, False, rs.f_res_closed_line,
                          lambda u: oracles.f_res_bruteforce(u, sign_uniform_only=True))),
        ("r2_closed_hardy_vs_bruteforce", 1e-10,
         closed_vs_oracle(gt, True, rs.r2_closed_hardy, oracles.r2_bruteforce)),
        # resonance lemmas against phi == 0 on every in-grid quadruple
        ("resonance_lemmas_exhaustive", 0.5,
         [float(sum(np.count_nonzero(lemma != (phi == 0)) for lemma in lemmas))]),
        # split consistency f_full = f_res + f_osc
        ("f_full_equals_f_res_plus_f_osc", 1e-10, [
            max_diff(oracles.f_full(u, t).coeff,
                     oracles.f_res_bruteforce(u).coeff + oracles.f_osc(u, t).coeff)
            for t, u in zip((0.0, 0.1, 1.0, 10.0), fields(gt, 4))
        ]),
        # box primitive closed form vs the generic phase-weighted sum
        ("F_osc_line_vs_quadruple_sum", 1e-10, [
            max_diff(rs.F_osc(w, t).coeff,
                     oracles.osc_primitive_bruteforce(w, t, from_zero=True).coeff)
            for t, w in zip((0.7, 2.3), fields(gb, 2, hardy=True))
        ]),
        # r2 via discrete time averaging of f'(W,t).F_osc(W,t)
        ("r2_time_average_oracle", 1e-8, [
            max_diff(oracles.r2_bruteforce(w).coeff, oracles.r2_time_average(w).coeff)
            for w in fields(FrequencyGrid(6, Domain.TORUS), 1, hardy=True)
        ]),
    )
    rows = []
    for check, tolerance, errors in entries:
        err = float(np.max(errors))
        rows.append(AuditRow(check, err, err <= tolerance))
    return rows

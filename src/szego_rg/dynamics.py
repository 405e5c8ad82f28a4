"""Time integration of the half-wave flow and its effective dynamics.

Three flows share one integrator:

  * FULL_NLW:  dv/dt = -i|D|v - i|v|^2 v  (the dispersive part integrated
    exactly in the interaction picture, Lawson / integrating-factor RK4);
  * FIRST_ORDER_RG:  dW/dt = eps^2 f_res(W) = eps^2 (-i P+(|W|^2 W)), the
    resonant effective flow on Hardy data: the Szego flow in fast-time
    variables;
  * SECOND_ORDER_AVERAGED:  dW/dt = eps^2 (-i P+(|W|^2 W)) + eps^4 r2(W),
    the averaged flow whose quintic correction is the resonant part of
    f'(W,t).F_osc(W,t); one kernel, r2_closed_hardy, computes both terms.

Both effective flows take Hardy data only (the integrator rejects any
other).  The right-hand sides work on coefficient arrays; the integrator
builds a SpectralField only for each snapshot.
The integrator is a stream: stream(spec, v0) yields each snapshot as soon as
it is stepped and keeps no earlier one; every run is read off it.
States of the effective flows are unscaled (W); the physical field is
eps * W, which the ansatz constructors apply.  Fixed step size, deterministic
snapshot schedule, and a blow-up guard that ends the stream instead of
raising.  Streams of one schedule share their snapshot times, and an ansatz
maps a snapshot to its value at the snapshot's time.

The effective flows have no fast linear part: they evolve on the slow time
tau = eps^2 t.  With FlowSpec.slow set to a slow-time substep, the integrator
covers each gap between two snapshots with a few equal RK4 substeps of
slow-time size at most FlowSpec.slow instead of every fast step; the snapshot
times stay those of the fast step, so the stream still lines up with a
full-flow stream of the same spec.  The full flow ignores FlowSpec.slow: its
linear part turns at the fast frequencies, so it always takes the fast step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .resonance import F_osc, r2_closed_hardy, require_hardy
from .spectral import (
    Domain,
    FrequencyGrid,
    SpectralField,
    check_norm_index,
    cubic_product,
    free_flow,
    mass,
    sobolev_norm,
    szego_cubic,
)

MAX_DT = 0.5
SLOW_DT = 0.005  # the slow-time substep of the first-order sweeps, Y-U and simulate
BLOWUP_FACTOR = 1e3


class Flow(enum.Enum):
    FULL_NLW = "full_nlw"
    FIRST_ORDER_RG = "first_order_rg"
    SECOND_ORDER_AVERAGED = "second_order_averaged"


@dataclass(frozen=True)
class FlowSpec:
    """Which evolution to integrate, with step size and horizon.

    snapshot_stride is in fast-time units; None selects the default of 0.05
    slow-time units (0.05/eps^2).  slow is the largest slow-time substep of a
    flow without a linear part: stream covers each gap between an effective
    flow's snapshots by substeps of at most slow (None steps every fast step);
    the full flow ignores it.
    """

    flow: Flow
    grid: FrequencyGrid
    eps: float
    dt: float
    t_end: float
    s: float = 1.0
    snapshot_stride: float | None = None
    slow: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if not 0.0 < self.dt <= MAX_DT:
            raise ValueError(f"dt must lie in (0, {MAX_DT}], got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not self.t_end / self.dt < 2.0**53:
            raise ValueError(f"t_end/dt = {self.t_end / self.dt:g} must be below 2^53 steps")
        check_norm_index(self.s, self.grid)
        if not 0.0 < self.stride < math.inf:
            raise ValueError(
                f"snapshot_stride must be positive and finite, got {self.stride:g} "
                f"(empty = 0.05/eps^2, eps = {self.eps:g})"
            )
        if self.flow is Flow.SECOND_ORDER_AVERAGED and self.grid.domain is not Domain.TORUS:
            raise ValueError(f"flow = {self.flow.value} is defined on the torus only: it needs "
                             f"domain = torus, got domain = {self.grid.domain.value}")
        # a bool is a number, but no substep: True would step slow time by 1.0
        if self.slow is not None and (
            isinstance(self.slow, bool) or not 0.0 < self.slow < math.inf
        ):
            raise ValueError(f"slow substep must be positive and finite, got {self.slow}")

    @property
    def stride(self) -> float:
        """snapshot_stride, or its default 0.05/eps^2 (inf where that overflows)."""
        if self.snapshot_stride is not None:
            return self.snapshot_stride
        return 0.05 / self.eps**2 if self.eps**2 else math.inf

    def schedule(self) -> tuple[float, Iterator[int]]:
        """The fast step h = t_end/n_steps, n_steps = ceil(t_end/dt), and the
        snapshot steps after t = 0, walked lazily: every round(stride/h)-th
        step and the last.  The snapshot times are step * h."""
        n_steps = max(1, int(np.ceil(self.t_end / self.dt - 1e-12)))
        h = self.t_end / n_steps
        snap_every = max(1, round(min(self.stride / h, n_steps)))
        return h, chain(range(snap_every, n_steps, snap_every), [n_steps])


# ---------------------------------------------------------------------------
# right-hand side and integrator


def _nonlinear_term(spec: FlowSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The flow's nonlinearity as a closure on coefficient arrays."""
    if spec.flow is Flow.FULL_NLW:
        return lambda c: -1j * cubic_product(c)

    # the effective flows take Hardy data, which stays Hardy along them, and
    # on Hardy fields every f_res term except -i P+(|u|^2 u) is identically
    # zero; szego_cubic computes that term alone, on 2 next_fast_len(n_max+1)
    # points, and r2_closed_hardy reads it off the cube it forms anyway.
    minus_i_eps2, eps4, szego = -1j * spec.eps**2, spec.eps**4, spec.eps**-2
    if spec.flow is Flow.FIRST_ORDER_RG:
        return lambda c: szego_cubic(c, minus_i_eps2)
    return lambda c: eps4 * r2_closed_hardy(c, szego)


class Snapshot(NamedTuple):
    """One item of a stream: the state at time t, the RK4 steps taken to
    reach it, and whether it tripped the blow-up guard (then it is the last)."""

    time: float
    state: SpectralField
    steps: int
    blown_up: bool


def stream(spec: FlowSpec, v0: SpectralField) -> Iterator[Snapshot]:
    """Fixed-step Lawson RK4 with the linear part applied exactly, yielding
    each snapshot as soon as its gap has been stepped, t = 0 first.

    The propagator exp(-i|D|t) is diagonal in Fourier space, so only the
    nonlinearity is stepped; the effective flows have no linear part and
    take plain RK4 stages.  Snapshots fall on the configured stride
    (FlowSpec.schedule), always including t = 0 and t_end.  The integrator
    walks the schedule gap by gap: a gap of g fast steps of size h between
    two snapshots of an effective flow is covered by
    m = ceil(g h eps^2 max(1, Q0) / spec.slow) equal substeps of size g h / m
    when spec.slow is set and m < g, and by the g fast steps otherwise, so a
    slow step no coarser than the fast one changes nothing.  Q0 is the mass
    of v0: the cubic term turns at eps^2 |W|^2, so the substeps count on the
    clock eps^2 max(1, Q0) t, which a larger datum runs faster.  After each
    gap a blow-up guard ends the stream once the H^{1/2} norm exceeds 1e3
    times its initial value; the snapshot that tripped it is the last item.
    The stream keeps no earlier snapshot, so a consumer that reduces each
    one as it arrives never holds the whole trajectory.
    """
    if v0.grid != spec.grid:
        raise ValueError("initial field is not on the FlowSpec grid")
    if not np.all(np.isfinite(v0.coeff)):
        raise ValueError("initial field has non-finite coefficients")

    h, snap_steps = spec.schedule()
    grid = spec.grid
    lawson = spec.flow is Flow.FULL_NLW
    slow = None if lawson else spec.slow
    if lawson:
        # the full flow only ever steps h
        e_half = np.exp(-1j * np.abs(grid.freqs) * (h / 2.0))
        e_full = e_half * e_half
    else:
        require_hardy(v0.coeff)
        rate = spec.eps**2 * max(1.0, mass(v0))  # the slow clock's rate
    nonlin = _nonlinear_term(spec)

    guard = BLOWUP_FACTOR * max(sobolev_norm(v0, 0.5), 1e-30)
    c = v0.coeff.copy()
    steps = 0
    done = 0
    yield Snapshot(0.0, v0, 0, False)

    for step in snap_steps:
        # the gap's n RK4 steps of size k, with the stages inline, where each
        # step's arrays are freed only as the next step replaces them
        g = step - done
        n = g
        if slow is not None:
            n = min(g, max(1, math.ceil(g * h * rate / slow - 1e-12)))
        k = h if n == g else g * h / n
        done = step
        # a diverging state overflows on its way to the guard; the error
        # state is left before each yield, so it never reaches the consumer
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                n1 = nonlin(c)
                if lawson:
                    n2 = nonlin(e_half * (c + (k / 2.0) * n1))
                    n3 = nonlin(e_half * c + (k / 2.0) * n2)
                    n4 = nonlin(e_full * c + k * e_half * n3)
                    c = e_full * c + (k / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
                else:
                    # the effective flows have no linear part, so their
                    # substeps may take any size
                    n2 = nonlin(c + (k / 2.0) * n1)
                    n3 = nonlin(c + (k / 2.0) * n2)
                    n4 = nonlin(c + k * n3)
                    c = c + (k / 6.0) * (n1 + 2.0 * (n2 + n3) + n4)
            steps += n
            state = SpectralField(grid, c)
            blown_up = bool(not np.all(np.isfinite(c)) or sobolev_norm(state, 0.5) > guard)
        yield Snapshot(step * h, state, steps, blown_up)
        if blown_up:
            return


# ---------------------------------------------------------------------------
# approximation ansatz constructors


def first_order_ansatz(spec: FlowSpec) -> Callable[[Snapshot], SpectralField]:
    """snap -> exp(-i|D|t) (eps * W(t)), t = snap.time, for the snapshots of a
    FIRST_ORDER_RG stream of spec."""
    if spec.flow is not Flow.FIRST_ORDER_RG:
        raise ValueError("first_order_ansatz expects a FIRST_ORDER_RG flow")
    eps = spec.eps

    def ansatz(snap: Snapshot) -> SpectralField:
        return free_flow(eps * snap.state, snap.time)

    return ansatz


def second_order_ansatz(spec: FlowSpec) -> Callable[[Snapshot], SpectralField]:
    """snap -> exp(-i|D|t) (cal_W(t) + F_osc(cal_W(t), t)), t = snap.time,
    cal_W = eps * W, for the snapshots of a SECOND_ORDER_AVERAGED stream of spec.

    F_osc is evaluated on the eps-scaled state; with the zero-t-mean
    convention it does not vanish at t = 0, so comparisons must start the
    reference flow from the matching corrected data (see experiments).
    """
    if spec.flow is not Flow.SECOND_ORDER_AVERAGED:
        raise ValueError("second_order_ansatz expects a SECOND_ORDER_AVERAGED flow")
    eps = spec.eps

    def ansatz(snap: Snapshot) -> SpectralField:
        scaled, t = eps * snap.state, snap.time
        return free_flow(scaled + F_osc(scaled, t), t)

    return ansatz

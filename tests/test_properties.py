"""Symmetries of the product kernels, checked with hypothesis.

r2_closed_hardy, f_res_closed_torus and fprime_dot commute with the phase
rotation u -> e^{i theta} u and with the translation c(k) -> e^{-i k a} c(k);
so does r2_closed_hardy weighted with the Szego term, the averaged flow's
kernel.
r2 is homogeneous of degree 5 and f_res of degree 3; fprime_dot(u, t, h) has
degree 2 in u and is R-linear in h.  Every identity holds to 1e-12 relative
to the size of its right-hand side.

The effective flows keep Hardy data Hardy (negative modes exactly zero at
every snapshot), and W -> lam W maps eps = lam to eps = 1 at equal times:
the Szego term is cubic and r2 quintic, so lam W(t) solves the eps = 1 flow
and each RK4 stage scales the same way.  Snapshot times start at 0 and
increase strictly for any horizon, step and stride.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szego_rg import oracles
from szego_rg import resonance as rs
from szego_rg.dynamics import SLOW_DT, Flow, FlowSpec, stream
from szego_rg.spectral import Domain, SpectralField, make_grid, random_field

REL = 1e-12

PROPERTY = settings(max_examples=15, deadline=None, database=None)
N_MAX = st.integers(4, 16)
SEED = st.integers(0, 2**32 - 1)
ANGLE = st.floats(0.0, 2.0 * np.pi)
SCALE = st.floats(0.25, 4.0)
TIME = st.floats(0.0, 10.0)
# no subnormals: b*w loses relative precision there, below any 1e-12 scale
COEFF = st.floats(-2.0, 2.0, allow_subnormal=False)


def _fields(n_max, seed):
    """A Hardy field w and two general fields u, h on the torus."""
    grid = make_grid(n_max, Domain.TORUS)
    rng = np.random.default_rng(seed)
    return (
        random_field(grid, rng, hardy=True),
        random_field(grid, rng),
        random_field(grid, rng),
    )


def _shift(f, a):
    """Translation by a: c(k) -> exp(-i freq(k) a) c(k)."""
    return SpectralField(f.grid, np.exp(-1j * f.grid.freqs * a) * f.coeff)


def _on_fields(kernel):
    """A closed form, which maps coefficient arrays, as a map of fields."""
    return lambda f: SpectralField(f.grid, kernel(f.coeff))


r2_closed_hardy = _on_fields(rs.r2_closed_hardy)
f_res_closed_torus = _on_fields(rs.f_res_closed_torus)


def _assert_close(a, b, scale=None):
    scale = np.max(np.abs(b.coeff)) if scale is None else scale
    assert np.max(np.abs(a.coeff - b.coeff)) <= REL * scale


@PROPERTY
@given(N_MAX, SEED, ANGLE, TIME)
def test_phase_covariance(n_max, seed, theta, t):
    w, u, h = _fields(n_max, seed)
    z = cmath.exp(1j * theta)
    _assert_close(r2_closed_hardy(z * w), z * r2_closed_hardy(w))
    _assert_close(f_res_closed_torus(z * u), z * f_res_closed_torus(u))
    _assert_close(oracles.fprime_dot(z * u, t, z * h), z * oracles.fprime_dot(u, t, h))


@PROPERTY
@given(N_MAX, SEED, ANGLE, st.floats(0.0, 100.0))
def test_weighted_r2_phase_covariance(n_max, seed, theta, szego):
    # the averaged flow's kernel: both of its terms rotate with the phase
    w, _, _ = _fields(n_max, seed)
    z = cmath.exp(1j * theta)
    weighted = _on_fields(lambda c: rs.r2_closed_hardy(c, szego))
    _assert_close(weighted(z * w), z * weighted(w))


@PROPERTY
@given(N_MAX, SEED, ANGLE, TIME)
def test_translation_covariance(n_max, seed, a, t):
    w, u, h = _fields(n_max, seed)
    _assert_close(r2_closed_hardy(_shift(w, a)), _shift(r2_closed_hardy(w), a))
    _assert_close(f_res_closed_torus(_shift(u, a)), _shift(f_res_closed_torus(u), a))
    _assert_close(
        oracles.fprime_dot(_shift(u, a), t, _shift(h, a)),
        _shift(oracles.fprime_dot(u, t, h), a),
    )


@PROPERTY
@given(N_MAX, SEED, SCALE, TIME)
def test_homogeneity(n_max, seed, lam, t):
    w, u, h = _fields(n_max, seed)
    _assert_close(r2_closed_hardy(lam * w), lam**5 * r2_closed_hardy(w))
    _assert_close(f_res_closed_torus(lam * u), lam**3 * f_res_closed_torus(u))
    _assert_close(oracles.fprime_dot(lam * u, t, h), lam**2 * oracles.fprime_dot(u, t, h))


@PROPERTY
@given(N_MAX, SEED, COEFF, COEFF, TIME)
def test_fprime_dot_real_linear_in_direction(n_max, seed, a, b, t):
    w, u, h = _fields(n_max, seed)
    f1, f2 = oracles.fprime_dot(u, t, h), oracles.fprime_dot(u, t, w)
    scale = max(abs(a) * np.max(np.abs(f1.coeff)), abs(b) * np.max(np.abs(f2.coeff)))
    _assert_close(oracles.fprime_dot(u, t, a * h + b * w), a * f1 + b * f2, scale)


@pytest.mark.parametrize(
    "flow, domain",
    [(Flow.FIRST_ORDER_RG, Domain.TORUS), (Flow.FIRST_ORDER_RG, Domain.BIGBOX),
     (Flow.SECOND_ORDER_AVERAGED, Domain.TORUS)],
)
def test_effective_flows_keep_hardy_data_hardy(flow, domain):
    grid = make_grid(16, domain, 32.0 * np.pi if domain is Domain.BIGBOX else None)
    w0 = random_field(grid, np.random.default_rng(3), hardy=True)
    snaps = list(stream(FlowSpec(flow, grid, eps=0.3, dt=0.1, t_end=20.0, snapshot_stride=1.0), w0))
    assert len(snaps) == 21 and not snaps[-1].blown_up
    for snap in snaps:
        assert np.all(snap.state.coeff[grid.modes < 0] == 0.0)


@pytest.mark.parametrize("flow", [Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED])
def test_effective_flows_amplitude_scaling(flow):
    grid = make_grid(16, Domain.TORUS)
    w0 = random_field(grid, np.random.default_rng(5), hardy=True)
    lam = 0.5
    kw = dict(dt=0.05, t_end=2.0, snapshot_stride=0.25)
    a = list(stream(FlowSpec(flow, grid, eps=1.0, **kw), lam * w0))
    b = list(stream(FlowSpec(flow, grid, eps=lam, **kw), w0))
    assert len(a) == len(b) == 9
    for x, y in zip(a, b):
        assert x.time == y.time
        _assert_close(x.state, lam * y.state)


@PROPERTY
@given(
    st.floats(0.05, 10.0),
    st.floats(0.01, 0.5),
    st.one_of(st.none(), st.floats(1e-3, 20.0)),
    st.floats(0.05, 1.0),
    st.sampled_from([None, SLOW_DT]),
)
def test_snapshot_times_start_at_zero_and_increase(t_end, dt, stride, eps, slow):
    # the schedule's steps increase strictly and end at the last step, and
    # the stream's times start at 0.0 and increase strictly
    flow = Flow.FULL_NLW if slow is None else Flow.FIRST_ORDER_RG
    grid = make_grid(4, Domain.TORUS)
    spec = FlowSpec(flow, grid, eps=eps, dt=dt, t_end=t_end, snapshot_stride=stride, slow=slow)
    h, steps = spec.schedule()
    steps = list(steps)
    assert 0.0 < h <= dt * (1.0 + 1e-12)
    assert steps[0] >= 1 and np.all(np.diff(steps) > 0)
    assert steps[-1] == round(t_end / h)
    # small data: no step size can blow it up
    w0 = 0.1 * random_field(grid, np.random.default_rng(1), hardy=True)
    times = [snap.time for snap in stream(spec, w0)]
    assert times[0] == 0.0 and np.all(np.diff(times) > 0)
    assert len(times) == len(steps) + 1
    assert times[-1] == pytest.approx(t_end, rel=1e-12)

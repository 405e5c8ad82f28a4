"""Flow right-hand sides, the exponential integrator, ansatz constructors."""

import numpy as np
import pytest

from second_order_oracles import dF_osc
from szego_rg import oracles
from szego_rg import resonance as rs
from szego_rg import spectral
from szego_rg.dynamics import (
    SLOW_DT,
    Flow,
    FlowSpec,
    _nonlinear_term,
    first_order_ansatz,
    second_order_ansatz,
    stream,
)
from szego_rg.experiments import InitialDataSpec
from szego_rg.spectral import (
    Domain,
    SpectralField,
    conserved_series,
    cubic_product,
    field_from_modes,
    free_flow,
    make_grid,
    mass,
    max_rel_drift,
    negative_mode_mass,
    project_plus,
    random_field,
    sobolev_norm,
)


def spec(flow, grid, eps, dt, t_end, **kw):
    return FlowSpec(flow=flow, grid=grid, eps=eps, dt=dt, t_end=t_end, **kw)


class TestFlowSpec:
    def test_eps_range(self, torus8):
        with pytest.raises(ValueError):
            spec(Flow.FULL_NLW, torus8, eps=1.5, dt=0.1, t_end=1.0)
        spec(Flow.FIRST_ORDER_RG, torus8, eps=1.0, dt=0.1, t_end=1.0)  # eps=1 allowed

    def test_dt_envelope(self, torus8):
        with pytest.raises(ValueError):
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.75, t_end=1.0)

    def test_s_minimum(self, torus8):
        with pytest.raises(ValueError):
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.1, t_end=1.0, s=0.25)

    def test_second_order_needs_torus(self, box8):
        with pytest.raises(ValueError):
            spec(Flow.SECOND_ORDER_AVERAGED, box8, eps=0.1, dt=0.1, t_end=1.0)

    @pytest.mark.parametrize("stride", [0.0, -1.0])
    def test_snapshot_stride_positive(self, torus8, stride):
        with pytest.raises(ValueError, match="snapshot_stride"):
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.1, t_end=1.0, snapshot_stride=stride)

    def test_slow_rejected_for_full_flow(self, torus8):
        with pytest.raises(ValueError, match="slow stepping"):
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.1, t_end=1.0, slow=SLOW_DT)

    @pytest.mark.parametrize("slow", [0.0, -SLOW_DT, np.nan, np.inf, True])
    def test_slow_substep_positive_and_finite(self, torus8, slow):
        with pytest.raises(ValueError, match="slow substep must be positive and finite"):
            spec(Flow.FIRST_ORDER_RG, torus8, eps=0.1, dt=0.1, t_end=1.0, slow=slow)

    @pytest.mark.parametrize("eps", [1e-160, 1e-200])
    def test_default_stride_must_be_finite(self, torus8, eps):
        # 0.05/eps^2 overflows to inf below eps of about 1.7e-155
        with pytest.raises(ValueError, match=f"eps = {eps:g}"):
            spec(Flow.FULL_NLW, torus8, eps=eps, dt=0.05, t_end=1.0)

    def test_steps_below_2_53(self, torus8):
        with pytest.raises(ValueError, match="t_end/dt"):
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.05, t_end=1e300)


def nonlinear(flow, grid, eps):
    """The nonlinearity stream() steps for this flow (linear part excluded)."""
    return _nonlinear_term(spec(flow, grid, eps, 0.1, 1.0))


class TestRightHandSides:
    def test_full_nlw_zero(self, torus8):
        nl = nonlinear(Flow.FULL_NLW, torus8, 0.1)
        assert np.all(nl(field_from_modes(torus8, {}).coeff) == 0.0)

    def test_full_nlw_single_mode(self, torus8):
        eps = 0.1
        v = field_from_modes(torus8, {1: eps})
        r = nonlinear(Flow.FULL_NLW, torus8, eps)(v.coeff)
        assert r[torus8.index(1)] == pytest.approx(-1j * eps**3)

    def test_full_nlw_gauge_covariant(self, rand_torus8):
        theta = 1.3
        nl = nonlinear(Flow.FULL_NLW, rand_torus8.grid, 0.1)
        a = nl(np.exp(1j * theta) * rand_torus8.coeff)
        b = np.exp(1j * theta) * nl(rand_torus8.coeff)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_first_order_hardy_is_szego(self, torus8, rng):
        w = random_field(torus8, rng, hardy=True)
        eps = 0.2
        expected = -1j * eps**2 * project_plus(cubic_product(w.coeff))
        got = nonlinear(Flow.FIRST_ORDER_RG, torus8, eps)(w.coeff)
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_second_order_single_mode_reduces(self, torus8):
        w = field_from_modes(torus8, {1: 1.0})
        eps = 0.2
        a = nonlinear(Flow.SECOND_ORDER_AVERAGED, torus8, eps)(w.coeff)
        b = nonlinear(Flow.FIRST_ORDER_RG, torus8, eps)(w.coeff)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_second_order_matches_bruteforce_quintic(self, rng):
        g = make_grid(6, Domain.TORUS)
        w = random_field(g, rng, hardy=True)
        eps = 0.3
        first = nonlinear(Flow.FIRST_ORDER_RG, g, eps)(w.coeff)
        expected = first + eps**4 * oracles.r2_bruteforce(w).coeff
        got = nonlinear(Flow.SECOND_ORDER_AVERAGED, g, eps)(w.coeff)
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_second_order_output_is_hardy(self, torus8, rng):
        w = random_field(torus8, rng, hardy=True)
        out = nonlinear(Flow.SECOND_ORDER_AVERAGED, torus8, 0.2)(w.coeff)
        assert negative_mode_mass(SpectralField(torus8, out)) == 0.0

    def test_first_order_hardy_transforms_half_grid(self, rng, monkeypatch):
        # P+(|W|^2 W) of Hardy W needs 2 next_fast_len(2048+1) = 4116 points,
        # half the general padding of next_fast_len(2*4097) = 8232, taken as
        # two rows of 2058 (even and odd samples)
        grid = make_grid(2048, Domain.BIGBOX, 256.0 * np.pi)
        w = random_field(grid, rng, hardy=True)
        shapes = []
        for fn in ("fft", "ifft"):
            real = getattr(spectral, fn)
            monkeypatch.setattr(
                spectral, fn,
                lambda x, *a, real=real, **kw: shapes.append(x.shape) or real(x, *a, **kw),
            )
        nonlinear(Flow.FIRST_ORDER_RG, grid, 0.2)(w.coeff)
        assert shapes == [(2, 2058), (2, 2058)]
        assert [np.prod(s) for s in shapes] == [4116, 4116]

    def test_first_order_rejects_non_hardy(self, rand_torus8):
        with pytest.raises(ValueError, match="Hardy"):
            list(stream(spec(Flow.FIRST_ORDER_RG, rand_torus8.grid, 0.2, 0.1, 1.0), rand_torus8))

    def test_second_order_rejects_non_hardy(self, rand_torus8):
        # the stream is the only check: r2_closed_hardy assumes Hardy input
        with pytest.raises(ValueError, match="Hardy"):
            list(stream(
                spec(Flow.SECOND_ORDER_AVERAGED, rand_torus8.grid, 0.2, 0.1, 1.0), rand_torus8
            ))

    @pytest.mark.parametrize("flow", list(Flow), ids=lambda f: f.value)
    def test_one_step_is_textbook(self, flow, torus8, rng):
        # the effective flows take plain RK4 stages (their propagator is
        # exactly 1); the full flow takes Lawson stages around exp(-i|D|h)
        h = 0.1  # eps = 0.5: eps^2 = 0.25, eps^4 = 0.0625
        f = {
            Flow.FULL_NLW: lambda c: -1j * cubic_product(c),
            Flow.FIRST_ORDER_RG: lambda c: -1j * 0.25 * spectral.szego_cubic(c),
            # the averaged flow's one kernel: eps^4 (r2 + eps^-2 Szego term)
            Flow.SECOND_ORDER_AVERAGED: lambda c: 0.0625 * rs.r2_closed_hardy(c, 4.0),
        }[flow]
        w0 = random_field(torus8, rng, hardy=True)
        c = w0.coeff
        k1 = f(c)
        if flow is Flow.FULL_NLW:
            e_half = np.exp(-1j * np.abs(torus8.freqs) * (h / 2.0))
            e_full = e_half * e_half
            k2 = f(e_half * (c + h / 2.0 * k1))
            k3 = f(e_half * c + h / 2.0 * k2)
            k4 = f(e_full * c + h * e_half * k3)
            expected = e_full * c + h / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        else:
            k2 = f(c + h / 2.0 * k1)
            k3 = f(c + h / 2.0 * k2)
            k4 = f(c + h * k3)
            expected = c + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        last = list(stream(spec(flow, torus8, 0.5, h, h), w0))[-1]
        assert last.steps == 1
        assert np.array_equal(last.state.coeff, expected)

    @pytest.mark.parametrize("flow", list(Flow), ids=lambda f: f.value)
    def test_stages_build_no_fields(self, flow, torus8, monkeypatch):
        # the right-hand sides work on arrays: the stream builds one field per
        # snapshot and a fixed number besides, however many steps it takes
        built = []
        real = SpectralField.__post_init__
        monkeypatch.setattr(SpectralField, "__post_init__", lambda f: built.append(1) or real(f))
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        extra, steps = [], []
        for dt in (0.1, 0.025):
            built.clear()
            snaps = list(stream(spec(flow, torus8, 0.2, dt, 1.0, snapshot_stride=0.5), w0))
            extra.append(len(built) - len(snaps))
            steps.append(snaps[-1].steps)
        assert steps == [10, 40]
        assert extra[0] == extra[1]


class TestIntegrator:
    def test_zero_data_stays_zero(self, torus8):
        zero = field_from_modes(torus8, {})
        snaps = stream(spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 5.0), zero)
        assert all(np.all(s.state.coeff == 0.0) for s in snaps)

    def test_linear_only_matches_free_flow(self, torus8, rng):
        # at amplitude 1e-9 the cubic term is 1e-18 of the linear one
        u0 = 1e-9 * random_field(torus8, rng)
        snaps = stream(spec(Flow.FULL_NLW, torus8, 0.1, 0.25, 30.0, snapshot_stride=3.0), u0)
        worst = max(
            float(np.max(np.abs(s.state.coeff - free_flow(u0, s.time).coeff))) for s in snaps
        )
        assert worst / 1e-9 <= 1e-13

    def test_fourth_order_convergence(self):
        g = make_grid(16, Domain.TORUS)
        v0 = 0.2 * field_from_modes(g, {1: 2.0, 2: 1.0})
        final = lambda dt: list(
            stream(spec(Flow.FULL_NLW, g, 0.2, dt, 5.0, snapshot_stride=5.0), v0)
        )[-1].state
        ref = final(0.00125)
        errs = []
        for dt in (0.02, 0.01):
            st = final(dt)
            errs.append(float(np.max(np.abs(st.coeff - ref.coeff))))
        assert errs[0] / errs[1] >= 12.0  # fourth order gives ~16

    def test_deterministic_bitwise(self, torus8, rng):
        v0 = 0.1 * random_field(torus8, rng, hardy=True)
        s = spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 10.0, snapshot_stride=1.0)
        a = list(stream(s, v0))
        b = list(stream(s, v0))
        assert len(a) == len(b) == 11
        for x, y in zip(a, b):
            assert x.time == y.time and x.steps == y.steps
            assert np.array_equal(x.state.coeff, y.state.coeff)

    def test_blow_up_guard_truncates(self):
        g = make_grid(12, Domain.TORUS)
        vbig = 80.0 * field_from_modes(g, {1: 1.0, 2: 1.0})
        snaps = list(stream(spec(Flow.FULL_NLW, g, 0.9, 0.4, 100.0, snapshot_stride=0.4), vbig))
        # the snapshot that tripped the guard is the last, and the only one flagged
        assert [s.blown_up for s in snaps] == [False] * (len(snaps) - 1) + [True]
        assert snaps[-1].time < 100.0

    def test_stride_beyond_t_end_keeps_both_ends(self, torus8):
        # stride/h = 1e310 overflows to inf; one snapshot step, the last
        w0 = field_from_modes(torus8, {1: 1.0})
        s = spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 1e-10, snapshot_stride=1e300)
        assert [snap.time for snap in stream(s, w0)] == [0.0, 1e-10]

    def test_snapshot_times(self, torus8):
        w0 = field_from_modes(torus8, {1: 1.0})
        s = spec(Flow.FIRST_ORDER_RG, torus8, 0.5, 0.1, 2.0, snapshot_stride=0.5)
        snaps = list(stream(s, w0))
        # the stream opens with the data itself, before any step
        assert snaps[0].state is w0 and snaps[0].steps == 0
        times = [s.time for s in snaps]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0)
        assert np.all(np.diff(times) > 0)

    def test_wrong_grid_rejected(self, torus8):
        other = make_grid(6, Domain.TORUS)
        with pytest.raises(ValueError):
            list(stream(spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 1.0), field_from_modes(other, {})))

    def test_hardy_invariance_along_effective_flows(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            snaps = stream(spec(flow, torus8, 0.3, 0.1, 20.0, snapshot_stride=2.0), w0)
            assert max(negative_mode_mass(s.state) for s in snaps) <= 1e-12

    def test_first_order_conserves_q_and_m(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True, decay=1.5)
        snaps = stream(spec(Flow.FIRST_ORDER_RG, torus8, 0.3, 0.05, 50.0, snapshot_stride=5.0), w0)
        _, q, m = conserved_series([s.state for s in snaps])
        assert max_rel_drift(q) <= 1e-8
        assert max_rel_drift(m) <= 1e-8

    def test_time_reparametrization(self, rng):
        g = make_grid(12, Domain.TORUS)
        w = random_field(g, rng, hardy=True)
        eps = 0.3
        a = stream(spec(Flow.FIRST_ORDER_RG, g, eps, 0.1, 50.0, snapshot_stride=10.0), w)
        b = stream(
            spec(Flow.FIRST_ORDER_RG, g, 1.0, 0.1 * eps**2, 50.0 * eps**2,
                 snapshot_stride=10.0 * eps**2),
            w,
        )
        worst = max(
            float(np.max(np.abs(x.state.coeff - y.state.coeff))) for x, y in zip(a, b)
        )
        assert worst <= 1e-12

    def test_slow_stepping_keeps_full_flow_times(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        for stride in (None, 0.7):
            kw = dict(snapshot_stride=stride)
            v = list(stream(spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 30.0, **kw), 0.1 * w0))
            for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
                w = list(stream(spec(flow, torus8, 0.1, 0.05, 30.0, slow=SLOW_DT, **kw), w0))
                assert w[-1].steps < v[-1].steps
                assert [s.time for s in w] == [s.time for s in v]

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_slow_step_not_coarser_is_bitwise(self, torus8, rng, eps):
        # a fast step h = 0.05 spans slow time h eps^2 >= SLOW_DT, so each gap
        # of g fast steps needs ceil(g h eps^2 / SLOW_DT) >= g substeps:
        # 10 g at eps = 1, ceil(2.5 g) at eps = 0.5
        assert 0.05 * eps**2 >= SLOW_DT
        w0 = random_field(torus8, rng, hardy=True)
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            kw = dict(snapshot_stride=0.35)
            a = list(stream(spec(flow, torus8, eps, 0.05, 2.0, **kw), w0))
            b = list(stream(spec(flow, torus8, eps, 0.05, 2.0, slow=SLOW_DT, **kw), w0))
            assert a[-1].steps == b[-1].steps == 40
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.time == y.time
                assert np.array_equal(x.state.coeff, y.state.coeff)

    def test_slow_gap_takes_at_least_one_substep(self, torus8):
        # 20 fast steps span slow time 1e-16, far below SLOW_DT: one substep
        w0 = InitialDataSpec().build(torus8)
        snaps = list(stream(spec(Flow.FIRST_ORDER_RG, torus8, 1e-8, 0.05, 1.0, slow=SLOW_DT), w0))
        assert [s.time for s in snaps] == [0.0, 1.0]
        assert snaps[-1].steps == 1 and not snaps[-1].blown_up
        assert np.allclose(snaps[-1].state.coeff, w0.coeff, rtol=0.0, atol=1e-15)

    def test_slow_stepping_matches_fast_stepping(self, torus8):
        # the package's default data (unit mass) to slow time tau = 1: RK4
        # with slow-time steps <= SLOW_DT stays within 1e-8 of every fast step
        w0 = InitialDataSpec().build(torus8)
        eps = 0.2
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            fast = list(stream(spec(flow, torus8, eps, 0.05, 1.0 / eps**2), w0))
            slow = list(stream(spec(flow, torus8, eps, 0.05, 1.0 / eps**2, slow=SLOW_DT), w0))
            assert fast[-1].steps == 500 and slow[-1].steps == 200
            worst = max(
                float(np.max(np.abs(x.state.coeff - y.state.coeff))) for x, y in zip(fast, slow)
            )
            assert worst <= 1e-8


class TestAnsatz:
    def test_first_order_at_zero(self, torus8):
        w0 = field_from_modes(torus8, {1: 1.0, 2: 0.5})
        eps = 0.2
        s = spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 1.0, snapshot_stride=0.5)
        v = first_order_ansatz(s)(next(stream(s, w0)))
        assert np.max(np.abs(v.coeff - eps * w0.coeff)) <= 1e-15

    def test_first_order_isometry(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        s = spec(Flow.FIRST_ORDER_RG, torus8, 0.2, 0.1, 5.0, snapshot_stride=1.0)
        ansatz = first_order_ansatz(s)
        for snap in stream(s, w0):
            lhs = sobolev_norm(ansatz(snap), 1.0)
            rhs = sobolev_norm(0.2 * snap.state, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_first_order_flow_mismatch_rejected(self, torus8):
        with pytest.raises(ValueError):
            first_order_ansatz(spec(Flow.FULL_NLW, torus8, 0.2, 0.1, 1.0))
        with pytest.raises(ValueError):
            second_order_ansatz(spec(Flow.FIRST_ORDER_RG, torus8, 0.2, 0.1, 1.0))

    def test_ansatz_residual_in_equation_scales_cubically(self, torus8):
        # plug the first-order ansatz into the full equation: the defect is
        # i (cubic(v_app) - exp(-i|D|t) P+(|cal_W|^2 cal_W)), of size eps^3
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        t = 0.7
        defects = []
        for eps in (0.2, 0.1):
            snap = list(
                stream(spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 1.0, snapshot_stride=0.7), w0)
            )[1]
            assert snap.time == pytest.approx(t)
            cal_w = eps * snap.state
            v_app = free_flow(cal_w, t)
            defect = cubic_product(v_app.coeff) - free_flow(
                SpectralField(torus8, project_plus(cubic_product(cal_w.coeff))), t
            ).coeff
            defects.append(float(np.linalg.norm(defect)))
        assert defects[0] / defects[1] >= 7.0

    def test_second_order_single_mode_reduces_to_first(self, torus8):
        w0 = field_from_modes(torus8, {1: 1.0})
        eps = 0.2
        s2 = spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 2.0, snapshot_stride=0.5)
        s1 = spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 2.0, snapshot_stride=0.5)
        a2, a1 = second_order_ansatz(s2), first_order_ansatz(s1)
        for x, y in zip(stream(s2, w0), stream(s1, w0), strict=True):
            assert np.max(np.abs(a2(x).coeff - a1(y).coeff)) <= 1e-12

    def test_second_order_wiggle_bounded_by_cubic_norm(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True, decay=1.5)
        eps = 0.2
        s = spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 5.0, snapshot_stride=1.0)
        ansatz = second_order_ansatz(s)
        for snap in stream(s, w0):
            cal_w = eps * snap.state
            gap = sobolev_norm(ansatz(snap) - free_flow(cal_w, snap.time), 1.0)
            assert gap <= 10.0 * sobolev_norm(cal_w, 1.0) ** 3

    def test_second_order_nonzero_initial_wiggle(self, torus8):
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        eps = 0.2
        s = spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 1.0, snapshot_stride=0.5)
        v0 = second_order_ansatz(s)(next(stream(s, w0)))
        assert np.max(np.abs(v0.coeff - eps * w0.coeff)) > 1e-6

    def test_ansatz_indexes_snapshots(self, torus8, rng):
        # ansatz(snap) is the formula at the snapshot's time, bit for bit; at
        # stride 0.3 no snapshot time is an integer after 0
        w0 = random_field(torus8, rng, hardy=True)
        eps = 0.2
        for flow, make, formula in (
            (Flow.FIRST_ORDER_RG, first_order_ansatz, free_flow),
            (Flow.SECOND_ORDER_AVERAGED, second_order_ansatz,
             lambda w, t: free_flow(w + rs.F_osc(w, t), t)),
        ):
            s = spec(flow, torus8, eps, 0.1, 1.5, snapshot_stride=0.3)
            ansatz = make(s)
            snaps = list(stream(s, w0))
            assert len(snaps) == 6
            for snap in snaps:
                expected = formula(eps * snap.state, snap.time)
                assert np.array_equal(ansatz(snap).coeff, expected.coeff)


class TestResidual:
    def test_box_derivative_bound(self, rng):
        # |eps^4 dF_osc . f_res| <= C (sqrt(t) + |W|^5) on Hardy box data
        g = make_grid(24, Domain.BIGBOX, 128.0 * np.pi)
        w = random_field(g, rng, hardy=True, decay=1.5)
        h = SpectralField(g, rs.f_res_closed_line(w.coeff))
        den = sobolev_norm(w, 1.0) ** 5
        ratios = [
            sobolev_norm(dF_osc(w, t, h), 1.0) / (np.sqrt(t) + den)
            for t in (1.0, 4.0, 16.0, 64.0, 256.0)
        ]
        assert max(ratios) <= 4.0


class TestBoxDegeneracy:
    def test_length_two_pi_box_matches_torus_for_hardy_data(self, rng):
        # at L = 2*pi the box grid carries the same frequencies as the torus,
        # and on Hardy data both resonant closed forms reduce to the same
        # Szego term, so the flows coincide exactly
        n = 16
        gt = make_grid(n, Domain.TORUS)
        gb = make_grid(n, Domain.BIGBOX, 2.0 * np.pi)
        c = random_field(gt, rng, hardy=True).coeff
        wt, wb = SpectralField(gt, c), SpectralField(gb, c)
        for flow, amp in ((Flow.FULL_NLW, 0.1), (Flow.FIRST_ORDER_RG, 1.0)):
            a = stream(spec(flow, gt, 0.1, 0.1, 10.0, snapshot_stride=2.0), amp * wt)
            b = stream(spec(flow, gb, 0.1, 0.1, 10.0, snapshot_stride=2.0), amp * wb)
            for x, y in zip(a, b, strict=True):
                assert np.array_equal(x.state.coeff, y.state.coeff)

"""Flow right-hand sides, the exponential integrator, ansatz constructors."""

import numpy as np
import pytest

from second_order_oracles import dF_osc
from szego_rg import (
    Domain,
    SpectralField,
    conserved_series,
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
from szego_rg import oracles
from szego_rg import resonance as rs
from szego_rg import spectral
from szego_rg.dynamics import (
    SLOW_DT,
    Flow,
    FlowSpec,
    Trajectory,
    _nonlinear_term,
    first_order_ansatz,
    integrate,
    second_order_ansatz,
    stream,
)
from szego_rg.experiments import InitialDataSpec
from szego_rg.spectral import cubic_product


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
            spec(Flow.FULL_NLW, torus8, eps=0.1, dt=0.1, t_end=1.0, slow=True)


def nonlinear(flow, grid, eps):
    """The nonlinearity integrate() steps for this flow (linear part excluded)."""
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
            integrate(spec(Flow.FIRST_ORDER_RG, rand_torus8.grid, 0.2, 0.1, 1.0), rand_torus8)

    def test_second_order_rejects_non_hardy(self, rand_torus8):
        # integrate is the only check: r2_closed_hardy assumes Hardy input
        with pytest.raises(ValueError, match="Hardy"):
            integrate(
                spec(Flow.SECOND_ORDER_AVERAGED, rand_torus8.grid, 0.2, 0.1, 1.0), rand_torus8
            )

    @pytest.mark.parametrize("flow", list(Flow), ids=lambda f: f.value)
    def test_one_step_is_textbook(self, flow, torus8, rng):
        # the effective flows take plain RK4 stages (their propagator is
        # exactly 1); the full flow takes Lawson stages around exp(-i|D|h)
        h = 0.1  # eps = 0.5: eps^2 = 0.25, eps^4 = 0.0625
        f = {
            Flow.FULL_NLW: lambda c: -1j * cubic_product(c),
            Flow.FIRST_ORDER_RG: lambda c: -1j * 0.25 * spectral.szego_cubic(c),
            Flow.SECOND_ORDER_AVERAGED: lambda c: (
                -1j * 0.25 * spectral.szego_cubic(c) + 0.0625 * rs.r2_closed_hardy(c)
            ),
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
        traj = integrate(spec(flow, torus8, 0.5, h, h), w0)
        assert traj.steps == 1
        assert np.array_equal(traj.states[-1].coeff, expected)

    @pytest.mark.parametrize("flow", list(Flow), ids=lambda f: f.value)
    def test_stages_build_no_fields(self, flow, torus8, monkeypatch):
        # the right-hand sides work on arrays: integrate builds one field per
        # snapshot and a fixed number besides, however many steps it takes
        built = []
        real = SpectralField.__post_init__
        monkeypatch.setattr(SpectralField, "__post_init__", lambda f: built.append(1) or real(f))
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        extra, steps = [], []
        for dt in (0.1, 0.025):
            built.clear()
            traj = integrate(spec(flow, torus8, 0.2, dt, 1.0, snapshot_stride=0.5), w0)
            extra.append(len(built) - len(traj.states))
            steps.append(traj.steps)
        assert steps == [10, 40]
        assert extra[0] == extra[1]


class TestIntegrator:
    def test_zero_data_stays_zero(self, torus8):
        zero = field_from_modes(torus8, {})
        traj = integrate(spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 5.0), zero)
        assert all(np.all(f.coeff == 0.0) for f in traj.states)

    def test_linear_only_matches_free_flow(self, torus8, rng):
        # at amplitude 1e-9 the cubic term is 1e-18 of the linear one
        u0 = 1e-9 * random_field(torus8, rng)
        traj = integrate(spec(Flow.FULL_NLW, torus8, 0.1, 0.25, 30.0, snapshot_stride=3.0), u0)
        worst = max(
            float(np.max(np.abs(v.coeff - free_flow(u0, t).coeff)))
            for t, v in zip(traj.times, traj.states)
        )
        assert worst / 1e-9 <= 1e-13

    def test_fourth_order_convergence(self):
        g = make_grid(16, Domain.TORUS)
        v0 = 0.2 * field_from_modes(g, {1: 2.0, 2: 1.0})
        ref = integrate(spec(Flow.FULL_NLW, g, 0.2, 0.00125, 5.0, snapshot_stride=5.0), v0).states[-1]
        errs = []
        for dt in (0.02, 0.01):
            st = integrate(spec(Flow.FULL_NLW, g, 0.2, dt, 5.0, snapshot_stride=5.0), v0).states[-1]
            errs.append(float(np.max(np.abs(st.coeff - ref.coeff))))
        assert errs[0] / errs[1] >= 12.0  # fourth order gives ~16

    def test_deterministic_bitwise(self, torus8, rng):
        v0 = 0.1 * random_field(torus8, rng, hardy=True)
        s = spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 10.0, snapshot_stride=1.0)
        a = integrate(s, v0)
        b = integrate(s, v0)
        assert np.array_equal(a.times, b.times)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x.coeff, y.coeff)

    def test_blow_up_guard_truncates(self):
        g = make_grid(12, Domain.TORUS)
        vbig = 80.0 * field_from_modes(g, {1: 1.0, 2: 1.0})
        traj = integrate(
            spec(Flow.FULL_NLW, g, 0.9, 0.4, 100.0, snapshot_stride=0.4), vbig
        )
        assert traj.blown_up
        assert traj.times[-1] < 100.0
        assert len(traj.states) == len(traj.times)

    @pytest.mark.parametrize("case", ["fast", "slow", "blow_up"])
    def test_stream_equals_collection(self, case, torus8, rng):
        # integrate is the stream collected: the same times, states, steps
        # and blow-up flag bit for bit, with the guard snapshot last
        if case == "fast":
            s = spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 10.0, snapshot_stride=1.0)
            v0 = 0.1 * random_field(torus8, rng, hardy=True)
        elif case == "slow":
            s = spec(Flow.FIRST_ORDER_RG, torus8, 0.1, 0.1, 20.0, snapshot_stride=2.0, slow=True)
            v0 = random_field(torus8, rng, hardy=True)
        else:
            g = make_grid(12, Domain.TORUS)
            s = spec(Flow.FULL_NLW, g, 0.9, 0.4, 100.0, snapshot_stride=0.4)
            v0 = 80.0 * field_from_modes(g, {1: 1.0, 2: 1.0})
        items = list(stream(s, v0))
        traj = integrate(s, v0)
        assert np.array_equal([i.time for i in items], traj.times)
        assert len(items) == len(traj.states)
        for item, state in zip(items, traj.states):
            assert np.array_equal(item.state.coeff, state.coeff)
        assert items[0].time == 0.0 and items[0].state is v0 and items[0].steps == 0
        assert items[-1].steps == traj.steps
        assert [i.blown_up for i in items] == [False] * (len(items) - 1) + [traj.blown_up]
        assert traj.blown_up == (case == "blow_up")
        if case == "slow":
            assert traj.steps == 40  # 10 gaps of 4 slow substeps, not 200 fast steps

    def test_snapshot_times(self, torus8):
        traj = integrate(
            spec(Flow.FIRST_ORDER_RG, torus8, 0.5, 0.1, 2.0, snapshot_stride=0.5),
            field_from_modes(torus8, {1: 1.0}),
        )
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_wrong_grid_rejected(self, torus8):
        other = make_grid(6, Domain.TORUS)
        with pytest.raises(ValueError):
            integrate(spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 1.0), field_from_modes(other, {}))

    def test_hardy_invariance_along_effective_flows(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            traj = integrate(spec(flow, torus8, 0.3, 0.1, 20.0, snapshot_stride=2.0), w0)
            assert max(negative_mode_mass(f) for f in traj.states) <= 1e-12

    def test_first_order_conserves_q_and_m(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True, decay=1.5)
        traj = integrate(spec(Flow.FIRST_ORDER_RG, torus8, 0.3, 0.05, 50.0, snapshot_stride=5.0), w0)
        _, q, m = conserved_series(traj.states)
        assert max_rel_drift(q) <= 1e-8
        assert max_rel_drift(m) <= 1e-8

    def test_time_reparametrization(self, rng):
        g = make_grid(12, Domain.TORUS)
        w = random_field(g, rng, hardy=True)
        eps = 0.3
        a = integrate(spec(Flow.FIRST_ORDER_RG, g, eps, 0.1, 50.0, snapshot_stride=10.0), w)
        b = integrate(
            spec(Flow.FIRST_ORDER_RG, g, 1.0, 0.1 * eps**2, 50.0 * eps**2,
                 snapshot_stride=10.0 * eps**2),
            w,
        )
        worst = max(
            float(np.max(np.abs(x.coeff - y.coeff))) for x, y in zip(a.states, b.states)
        )
        assert worst <= 1e-12

    def test_slow_stepping_keeps_full_flow_times(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        for stride in (None, 0.7):
            kw = dict(snapshot_stride=stride)
            v = integrate(spec(Flow.FULL_NLW, torus8, 0.1, 0.05, 30.0, **kw), 0.1 * w0)
            for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
                w = integrate(spec(flow, torus8, 0.1, 0.05, 30.0, slow=True, **kw), w0)
                assert w.steps < v.steps
                assert np.array_equal(w.times, v.times)

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_slow_step_not_coarser_is_bitwise(self, torus8, rng, eps):
        # a fast step h = 0.05 spans slow time h eps^2 >= SLOW_DT, so each gap
        # of g fast steps needs ceil(g h eps^2 / SLOW_DT) >= g substeps:
        # 10 g at eps = 1, ceil(2.5 g) at eps = 0.5
        assert 0.05 * eps**2 >= SLOW_DT
        w0 = random_field(torus8, rng, hardy=True)
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            kw = dict(snapshot_stride=0.35)
            a = integrate(spec(flow, torus8, eps, 0.05, 2.0, **kw), w0)
            b = integrate(spec(flow, torus8, eps, 0.05, 2.0, slow=True, **kw), w0)
            assert a.steps == b.steps == 40
            assert np.array_equal(a.times, b.times)
            for x, y in zip(a.states, b.states):
                assert np.array_equal(x.coeff, y.coeff)

    def test_slow_stepping_matches_fast_stepping(self, torus8):
        # the package's default data (unit mass) to slow time tau = 1: RK4
        # with slow-time steps <= SLOW_DT stays within 1e-8 of every fast step
        w0 = InitialDataSpec().build(torus8)
        eps = 0.2
        for flow in (Flow.FIRST_ORDER_RG, Flow.SECOND_ORDER_AVERAGED):
            fast = integrate(spec(flow, torus8, eps, 0.05, 1.0 / eps**2), w0)
            slow = integrate(spec(flow, torus8, eps, 0.05, 1.0 / eps**2, slow=True), w0)
            assert fast.steps == 500 and slow.steps == 200
            worst = max(
                float(np.max(np.abs(x.coeff - y.coeff))) for x, y in zip(fast.states, slow.states)
            )
            assert worst <= 1e-8


class TestAnsatz:
    def test_first_order_at_zero(self, torus8):
        w0 = field_from_modes(torus8, {1: 1.0, 2: 0.5})
        eps = 0.2
        traj = integrate(spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 1.0, snapshot_stride=0.5), w0)
        v = first_order_ansatz(traj)(0)
        assert np.max(np.abs(v.coeff - eps * w0.coeff)) <= 1e-15

    def test_first_order_isometry(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True)
        traj = integrate(spec(Flow.FIRST_ORDER_RG, torus8, 0.2, 0.1, 5.0, snapshot_stride=1.0), w0)
        ansatz = first_order_ansatz(traj)
        for i, w in enumerate(traj.states):
            lhs = sobolev_norm(ansatz(i), 1.0)
            rhs = sobolev_norm(0.2 * w, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_first_order_flow_mismatch_rejected(self, torus8):
        traj = integrate(
            spec(Flow.FULL_NLW, torus8, 0.2, 0.1, 1.0), field_from_modes(torus8, {1: 0.2})
        )
        with pytest.raises(ValueError):
            first_order_ansatz(traj)

    def test_ansatz_residual_in_equation_scales_cubically(self, torus8):
        # plug the first-order ansatz into the full equation: the defect is
        # i (cubic(v_app) - exp(-i|D|t) P+(|cal_W|^2 cal_W)), of size eps^3
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        t = 0.7
        defects = []
        for eps in (0.2, 0.1):
            traj = integrate(
                spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 1.0, snapshot_stride=0.7), w0
            )
            assert traj.times[1] == pytest.approx(t)
            cal_w = eps * traj.states[1]
            v_app = free_flow(cal_w, t)
            defect = cubic_product(v_app.coeff) - free_flow(
                SpectralField(torus8, project_plus(cubic_product(cal_w.coeff))), t
            ).coeff
            defects.append(float(np.linalg.norm(defect)))
        assert defects[0] / defects[1] >= 7.0

    def test_second_order_single_mode_reduces_to_first(self, torus8):
        w0 = field_from_modes(torus8, {1: 1.0})
        eps = 0.2
        tr2 = integrate(
            spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 2.0, snapshot_stride=0.5), w0
        )
        tr1 = integrate(
            spec(Flow.FIRST_ORDER_RG, torus8, eps, 0.1, 2.0, snapshot_stride=0.5), w0
        )
        a2, a1 = second_order_ansatz(tr2), first_order_ansatz(tr1)
        for i in range(len(tr2.times)):
            assert np.max(np.abs(a2(i).coeff - a1(i).coeff)) <= 1e-12

    def test_second_order_wiggle_bounded_by_cubic_norm(self, torus8, rng):
        w0 = random_field(torus8, rng, hardy=True, decay=1.5)
        eps = 0.2
        traj = integrate(
            spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 5.0, snapshot_stride=1.0), w0
        )
        ansatz = second_order_ansatz(traj)
        for i, (t, w) in enumerate(zip(traj.times, traj.states)):
            cal_w = eps * w
            gap = sobolev_norm(ansatz(i) - free_flow(cal_w, t), 1.0)
            assert gap <= 10.0 * sobolev_norm(cal_w, 1.0) ** 3

    def test_second_order_nonzero_initial_wiggle(self, torus8):
        w0 = field_from_modes(torus8, {0: 0.6, 1: 1.0, 2: 0.5})
        eps = 0.2
        traj = integrate(
            spec(Flow.SECOND_ORDER_AVERAGED, torus8, eps, 0.1, 1.0, snapshot_stride=0.5), w0
        )
        v0 = second_order_ansatz(traj)(0)
        assert np.max(np.abs(v0.coeff - eps * w0.coeff)) > 1e-6

    def test_ansatz_indexes_snapshots(self, torus8, rng):
        # ansatz(i) is the formula at snapshot i's time, bit for bit; at
        # stride 0.3 no snapshot time is an integer after 0
        w0 = random_field(torus8, rng, hardy=True)
        eps = 0.2
        for flow, make, formula in (
            (Flow.FIRST_ORDER_RG, first_order_ansatz, free_flow),
            (Flow.SECOND_ORDER_AVERAGED, second_order_ansatz,
             lambda w, t: free_flow(w + rs.F_osc(w, t), t)),
        ):
            traj = integrate(spec(flow, torus8, eps, 0.1, 1.5, snapshot_stride=0.3), w0)
            ansatz = make(traj)
            assert len(traj.times) == 6
            for i, (t, w) in enumerate(zip(traj.times, traj.states)):
                assert np.array_equal(ansatz(i).coeff, formula(eps * w, t).coeff)


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


class TestTrajectoryValue:
    def test_times_must_increase(self, torus8):
        f = field_from_modes(torus8, {})
        s = spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.5, 0.5]), (f, f, f), s)

    def test_state_count_must_match(self, torus8):
        f = field_from_modes(torus8, {})
        s = spec(Flow.FULL_NLW, torus8, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.5]), (f,), s)


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
            a = integrate(spec(flow, gt, 0.1, 0.1, 10.0, snapshot_stride=2.0), amp * wt)
            b = integrate(spec(flow, gb, 0.1, 0.1, 10.0, snapshot_stride=2.0), amp * wb)
            for x, y in zip(a.states, b.states):
                assert np.array_equal(x.coeff, y.coeff)

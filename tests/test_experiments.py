"""Experiment plumbing: initial data, horizons, fits, reports, audit."""

import tracemalloc

import numpy as np
import pytest

from szego_rg import experiments, resonance
from szego_rg.dynamics import SLOW_DT, Flow, FlowSpec, stream
from szego_rg.experiments import (
    COMMAND,
    DataKind,
    Experiment,
    ExperimentPlan,
    InitialDataSpec,
    _flow_spec,
    default_plan,
    fit_loglog,
    run_fosc_growth,
    run_kernel_audit,
    run_scaling_first_order,
    run_scaling_second_order,
    run_y_vs_u,
    simulate,
)
from szego_rg.spectral import (
    Domain,
    FrequencyGrid,
    conserved_series,
    mass,
    max_rel_drift,
    negative_mode_mass,
)
from conftest import replan
from dataclasses import replace

ZERO_DATA = InitialDataSpec(normalization=None, amplitudes=(0.0, 0.0, 0.0))


class TestInitialData:
    def test_polynomial_placement_and_normalization(self, torus8):
        spec = InitialDataSpec(modes=(1, 3), amplitudes=(2.0, 1.0j), normalization=1.0)
        f = spec.build(torus8, 1.0)
        assert mass(f) == pytest.approx(1.0)
        assert abs(f[1] / f[3]) == pytest.approx(2.0)

    def test_polynomial_raw_amplitudes(self, torus8):
        spec = InitialDataSpec(modes=(1, 2), amplitudes=(2.0, 1.0), normalization=None)
        f = spec.build(torus8, 1.0)
        assert f[1] == pytest.approx(2.0)
        assert f[2] == pytest.approx(1.0)

    def test_polynomial_rejects_negative_modes(self, torus8):
        with pytest.raises(ValueError):
            InitialDataSpec(modes=(-1,), amplitudes=(1.0,)).build(torus8, 1.0)

    def test_rational_profile_values(self):
        g = FrequencyGrid(64, Domain.BIGBOX, 64.0 * np.pi)
        f = InitialDataSpec(kind=DataKind.RATIONAL_NONGENERIC, normalization=None).build(g, 1.0)
        # coefficient (1/L) * (-2 pi i)(e^-xi - 2 e^-2xi); at xi = 0 that is
        # +2 pi i / L
        assert f[0] == pytest.approx(2j * np.pi / g.length)
        xi1 = g.freqs[g.index(1)]
        expected = -2j * np.pi * (np.exp(-xi1) - 2 * np.exp(-2 * xi1)) / g.length
        assert f[1] == pytest.approx(expected)
        assert negative_mode_mass(f) == 0.0

    def test_seeded_random_reproducible_and_hardy(self, torus8):
        a = InitialDataSpec(kind=DataKind.SEEDED_RANDOM_HARDY, seed=7).build(torus8, 1.0)
        b = InitialDataSpec(kind=DataKind.SEEDED_RANDOM_HARDY, seed=7).build(torus8, 1.0)
        c = InitialDataSpec(kind=DataKind.SEEDED_RANDOM_HARDY, seed=8).build(torus8, 1.0)
        assert np.array_equal(a.coeff, b.coeff)
        assert not np.array_equal(a.coeff, c.coeff)
        assert negative_mode_mass(a) == 0.0


class TestPlan:
    def test_horizon_log_corrected(self):
        plan = default_plan(Experiment.SCALING1_TORUS)
        eps = 0.1
        expected = np.log(1.0 / eps**plan.delta) ** (1.0 - 2.0 * plan.alpha) / eps**2
        assert plan.horizon(eps) == expected  # to floating-point accuracy

    @pytest.mark.parametrize(
        "experiment, slope_threshold, residual_max",
        [
            (Experiment.SCALING1_TORUS, 2.7, 0.15),
            (Experiment.SCALING1_BOX, 1.7, np.inf),
            (Experiment.SCALING2_TORUS, 4.3, np.inf),
            (Experiment.Y_VS_U, 1.7, np.inf),
        ],
    )
    def test_scaling_verdicts_are_plan_values(self, experiment, slope_threshold, residual_max):
        plan = default_plan(experiment)
        assert plan.slope_threshold == slope_threshold
        assert plan.residual_max == residual_max

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            ExperimentPlan(Experiment.SCALING1_TORUS, eps_list=(0.1, 0.2))

    def test_eps_range(self):
        with pytest.raises(ValueError):
            ExperimentPlan(Experiment.SCALING1_TORUS, eps_list=(0.7, 0.2, 0.1))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ExperimentPlan(Experiment.SCALING1_TORUS, alpha=0.7)

    @pytest.mark.parametrize(
        "experiment",
        [Experiment.SCALING1_TORUS, Experiment.SCALING1_BOX, Experiment.SCALING2_TORUS,
         Experiment.Y_VS_U],
    )
    def test_scaling_sweep_needs_three_eps(self, experiment):
        with pytest.raises(ValueError, match="eps_list"):
            replace(default_plan(experiment), eps_list=(0.2, 0.1))


class TestFit:
    def test_exact_cubic(self):
        xs = np.array([0.2, 0.1, 0.05, 0.025])
        slope, resid, floored = fit_loglog(xs, xs**3)
        assert slope == pytest.approx(3.0)
        assert resid == pytest.approx(0.0, abs=1e-12)
        assert not floored

    def test_exact_quintic_with_constant(self):
        xs = np.array([0.2, 0.1, 0.05])
        slope, _, _ = fit_loglog(xs, 7.3 * xs**5)
        assert slope == pytest.approx(5.0)

    def test_two_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([0.2, 0.1], [1.0, 0.1])

    def test_zero_errors_floored_and_flagged(self):
        slope, _, floored = fit_loglog([0.2, 0.1, 0.05], [0.0, 0.0, 0.0])
        assert floored
        assert slope == pytest.approx(0.0)


def _fast_torus_plan(**kw):
    base = default_plan(Experiment.SCALING1_TORUS)
    kw.setdefault("eps_list", (0.2, 0.14, 0.1))
    kw.setdefault("n_max", 16)
    kw.setdefault("dt", 0.1)
    kw.setdefault("snapshots_per_run", 40)
    kw.setdefault("slope_threshold", 2.0)
    kw.setdefault("residual_max", 0.5)
    return replan(base, **kw)


class TestScalingRuns:
    def test_first_order_smoke(self):
        report = run_scaling_first_order(_fast_torus_plan())
        assert len(report.rows) == 3
        assert all(np.isfinite(r.sup_error) and r.sup_error > 0 for r in report.rows)
        assert 2.0 <= report.fitted_slope <= 4.0
        assert report.passed
        assert report.caveats == ()  # line-approximation caveats are box-only

    def test_rows_ordered_and_deterministic(self):
        plan = _fast_torus_plan()
        a = run_scaling_first_order(plan)
        b = run_scaling_first_order(plan)
        assert [r.eps for r in a.rows] == list(plan.eps_list)
        for x, y in zip(a.rows, b.rows):
            assert x == y  # bitwise-identical rows

    def test_floored_fit_carries_caveat(self):
        # zero data: every Y-U gap is 0, so the fit runs on floored errors alone
        plan = replan(default_plan(Experiment.Y_VS_U), n_max=4, initial_data=ZERO_DATA)
        report = run_y_vs_u(plan)
        assert all(r.sup_error == 0.0 for r in report.rows)
        assert any("floor" in c for c in report.caveats)

    def test_sweep_holds_one_snapshot_per_stream(self):
        # each row reduces its streams to running maxima as they arrive: the
        # traced peak is a few states, not one per snapshot (a collected
        # trajectory of 151 snapshots reads about 490 states here)
        n_max = 128
        plan = replan(default_plan(Experiment.SCALING1_BOX), eps_list=(0.4, 0.3, 0.2), n_max=n_max)
        tracemalloc.start()
        try:
            report = run_scaling_first_order(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(r.failed for r in report.rows)
        assert peak < 60 * (2 * n_max + 1) * 16

    def test_box_plan_too_short_rejected(self):
        with pytest.raises(ValueError, match="64"):
            replan(default_plan(Experiment.SCALING1_BOX), length=16.0 * np.pi)

    def test_box_experiment_needs_box_domain(self):
        with pytest.raises(ValueError, match="domain = bigbox"):
            replan(default_plan(Experiment.SCALING1_BOX), domain=Domain.TORUS)

    def test_box_residual_bound_applied(self):
        # an explicit residual_max must bind on the box as on the torus; no
        # rms residual is below -1, so the sweep cannot pass
        plan = replan(
            default_plan(Experiment.SCALING1_BOX),
            eps_list=(0.4, 0.3, 0.2),
            n_max=16,
            dt=0.1,
            snapshots_per_run=20,
            slope_threshold=0.0,
            residual_max=-1.0,
        )
        report = run_scaling_first_order(plan)
        assert not any(r.failed for r in report.rows)
        assert report.fitted_slope >= 0.0
        assert not report.passed

    @pytest.mark.parametrize("experiment, runner", [
        (Experiment.SCALING2_TORUS, lambda plan: run_scaling_second_order(plan)[0]),
        (Experiment.Y_VS_U, run_y_vs_u),
    ], ids=["scaling2", "y_vs_u"])
    def test_torus_residual_bound_applied(self, experiment, runner):
        # residual_max binds every scaling verdict, not only the first-order ones
        plan = replan(
            default_plan(experiment), eps_list=(0.4, 0.3, 0.2), n_max=8, snapshots_per_run=20,
            slope_threshold=0.0, residual_max=-1.0,
        )
        report = runner(plan)
        assert not any(r.failed for r in report.rows)
        assert not report.passed

    def test_horizon_recorded_exactly(self):
        plan = _fast_torus_plan()
        report = run_scaling_first_order(plan)
        for r in report.rows:
            assert r.horizon == plan.horizon(r.eps)

    def test_y_vs_u_smoke(self):
        plan = replan(
            default_plan(Experiment.Y_VS_U),
            eps_list=(0.2, 0.14, 0.1),
            n_max=16,
            dt=0.1,
            snapshots_per_run=40,
            slope_threshold=1.5,
        )
        report = run_y_vs_u(plan)
        assert report.passed
        assert 1.5 <= report.fitted_slope <= 2.5

    def test_y_vs_u_steps_in_slow_time(self):
        # default y_vs_u horizons 1/eps^2 with 150 snapshots: every gap
        # between snapshots spans slow time at most 0.0066 and takes 2 RK4
        # substeps (1 for the last gap at eps = 0.2) instead of its 3, 13
        # or 53 fast steps (500, 2000 and 8000 fast steps in all)
        plan = replan(default_plan(Experiment.Y_VS_U), n_max=4)
        w0 = plan.initial_data.build(plan.grid, plan.s)
        for eps, slow in ((0.2, 333), (0.1, 308), (0.05, 302)):
            for flow in (Flow.SECOND_ORDER_AVERAGED, Flow.FIRST_ORDER_RG):
                sp = _flow_spec(plan, flow, eps, plan.horizon(eps), slow=SLOW_DT)
                assert list(stream(sp, w0))[-1].steps == slow
        fast = _flow_spec(plan, Flow.FIRST_ORDER_RG, 0.2, plan.horizon(0.2))
        assert list(stream(fast, w0))[-1].steps == 500

    def test_second_order_arms_step_in_slow_time(self, monkeypatch):
        # default scaling2 horizons with 150 snapshots: the truth flow takes
        # every fast step, each effective arm substeps of slow time at most
        # SLOW_DT / 4; at eps = 0.2 and 0.14 a gap is one fast step, which
        # is already finer, so 900 steps per arm instead of 1,829
        steps = {}

        def recording(spec, v0):
            for snap in stream(spec, v0):
                yield snap
            steps.setdefault(spec.flow, []).append(snap.steps)

        monkeypatch.setattr(experiments, "stream", recording)
        run_scaling_second_order(replan(default_plan(Experiment.SCALING2_TORUS), n_max=4))
        assert steps == {
            Flow.FULL_NLW: [81, 201, 461, 1086],
            Flow.SECOND_ORDER_AVERAGED: [81, 201, 307, 311],
            Flow.FIRST_ORDER_RG: [81, 201, 307, 311],
        }

    def test_second_order_slow_arms_match_fast_arms(self, monkeypatch):
        # the toy default sweep with its arms stepped slow and fast: every
        # row agrees within the benchmark's 1e-6 relative bound (measured:
        # 1.5e-7, the second-order error at eps = 0.07); rows whose gaps
        # are one fast step are bitwise equal
        plan = replan(default_plan(Experiment.SCALING2_TORUS), n_max=8)
        slow = run_scaling_second_order(plan)
        sweep = experiments._sweep
        monkeypatch.setattr(
            experiments, "_sweep",
            lambda plan, truth, start, arms, slow: sweep(plan, truth, start, arms, None),
        )
        fast = run_scaling_second_order(plan)
        for a, b in zip(slow, fast):
            assert a.rows[:2] == b.rows[:2]
            for x, y in zip(a.rows, b.rows):
                assert x.sup_error == pytest.approx(y.sup_error, rel=1e-6, abs=0.0)
                assert x.sup_w_norm == pytest.approx(y.sup_w_norm, rel=1e-6, abs=0.0)


def _conserved(flow, t_end, snapshots, data=InitialDataSpec(normalization=0.4)):
    """The invariants (E, Q, M) along one simulate stream at gate 3's eps
    and dt on the n_max = 16 torus, and the stream's states."""
    spec = FlowSpec(flow, FrequencyGrid(16, Domain.TORUS), eps=0.1, dt=0.05, t_end=t_end,
                    snapshot_stride=t_end / snapshots)
    states = [snap.state for snap in simulate(spec, data)]
    return conserved_series(states), states


class TestConservationRun:
    def test_schedule_is_walked_lazily(self):
        # a full-flow simulate to t_end = 2e6 has 400,000 snapshot steps; its
        # first two snapshots need none of the later ones
        spec = FlowSpec(Flow.FULL_NLW, FrequencyGrid(4, Domain.TORUS), eps=0.1, dt=0.05, t_end=2e6)
        tracemalloc.start()
        try:
            snaps = simulate(spec, InitialDataSpec())
            first, second = next(snaps), next(snaps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (first.time, second.steps) == (0.0, 100)
        assert peak < 2 * 2**20

    def test_full_nlw_short(self):
        (e, q, _), _ = _conserved(Flow.FULL_NLW, 50.0, 20)
        assert max_rel_drift(e) <= 1e-7
        assert max_rel_drift(q) <= 1e-7

    def test_first_order_reports_conserved_h_half(self):
        (_, q, m), states = _conserved(Flow.FIRST_ORDER_RG, 50.0, 20)
        assert max(negative_mode_mass(f) for f in states) <= 1e-12
        # sqrt(Q+M), the (1+|k|)-weighted H^1/2 norm on Hardy data, is conserved
        h_half = np.sqrt(q + m)
        assert np.max(np.abs(h_half - h_half[0])) <= 1e-9 * h_half[0]

    def test_linear_only_zero_drift(self):
        # zero field: drifts identically zero through the floor
        (e, _, _), _ = _conserved(Flow.FULL_NLW, 20.0, 10, ZERO_DATA)
        assert max_rel_drift(e) == 0.0

    def test_full_flow_starts_from_eps_w0(self):
        # the full flow's state is v = eps W, the effective flows' the bare W
        data = InitialDataSpec()
        w0 = data.build(FrequencyGrid(16, Domain.TORUS), 1.0)
        _, nlw = _conserved(Flow.FULL_NLW, 1.0, 1, data)
        _, rg = _conserved(Flow.FIRST_ORDER_RG, 1.0, 1, data)
        assert np.array_equal(nlw[0].coeff, 0.1 * w0.coeff)
        assert np.array_equal(rg[0].coeff, w0.coeff)


def test_every_experiment_has_a_command():
    # no experiment exists for the tests alone
    assert set(COMMAND) == set(Experiment)


class TestGrowthRuns:
    def test_fosc_growth_box_exponent(self):
        report = run_fosc_growth(default_plan(Experiment.FOSC_GROWTH))
        assert 0.4 <= report.exponent <= 0.6
        assert report.window[0] == pytest.approx(10.0)
        assert not report.qualitative

    def test_fosc_growth_torus_flat(self):
        plan = replan(
            default_plan(Experiment.FOSC_GROWTH),
            domain=Domain.TORUS,
            n_max=16,
            initial_data=InitialDataSpec(),
            growth_t_max=1000.0,
        )
        report = run_fosc_growth(plan)
        assert abs(report.exponent) <= 0.05

    def test_floored_fit_warns(self):
        plan = replan(
            default_plan(Experiment.FOSC_GROWTH), domain=Domain.TORUS, n_max=8,
            initial_data=ZERO_DATA,
        )
        report = run_fosc_growth(plan)
        assert np.all(report.norms == 0.0)
        assert any("floor" in w for w in report.warnings)

    def test_fosc_growth_t0_zero_on_box(self, box8):
        from szego_rg import resonance as rs

        plan = default_plan(Experiment.FOSC_GROWTH)
        w0 = plan.initial_data.build(plan.grid, plan.s)
        assert np.all(rs.F_osc(w0, 0.0).coeff == 0.0)


class TestKernelAudit:
    def test_fast_audit_passes(self):
        plan = replan(default_plan(Experiment.KERNEL_AUDIT), n_max=6, audit_fields=4)
        rows = run_kernel_audit(plan)
        assert all(r.passed for r in rows)
        names = {r.check for r in rows}
        assert "f_res_closed_torus_vs_bruteforce" in names
        assert "r2_closed_hardy_vs_bruteforce" in names
        assert "resonance_lemmas_exhaustive" in names

    def test_negative_control_fails(self, monkeypatch):
        # a closed form off by 1e-6 must fail its row
        closed = resonance.f_res_closed_torus
        monkeypatch.setattr(resonance, "f_res_closed_torus", lambda c: closed(c) + 1e-6)
        plan = replan(default_plan(Experiment.KERNEL_AUDIT), n_max=6, audit_fields=2)
        bad = [r for r in run_kernel_audit(plan) if not r.passed]
        assert bad and bad[0].check == "f_res_closed_torus_vs_bruteforce"

    def test_nan_error_fails_its_row(self, monkeypatch):
        # a NaN on any but the first field must not be lost in the row's maximum
        closed = resonance.f_res_closed_torus
        calls = []

        def nan_on_second_call(c):
            calls.append(c)
            return closed(c) * (np.nan if len(calls) == 2 else 1.0)

        monkeypatch.setattr(resonance, "f_res_closed_torus", nan_on_second_call)
        plan = replan(default_plan(Experiment.KERNEL_AUDIT), n_max=4, audit_fields=3)
        first, *rest = run_kernel_audit(plan)
        assert np.isnan(first.max_error) and not first.passed
        assert all(r.passed for r in rest)

    def test_n_max_four_same_pass_set(self):
        plan = replan(default_plan(Experiment.KERNEL_AUDIT), n_max=4, audit_fields=3)
        assert all(r.passed for r in run_kernel_audit(plan))


class TestSecondOrderContrast:
    def test_monotone_improvement_rowwise(self):
        from szego_rg.experiments import run_scaling_second_order

        plan = replan(
            default_plan(Experiment.SCALING2_TORUS),
            eps_list=(0.2, 0.14, 0.1),
            n_max=16,
            dt=0.1,
            snapshots_per_run=40,
            slope_threshold=3.5,
        )
        second, first = run_scaling_second_order(plan)
        for r2, r1 in zip(second.rows, first.rows):
            assert r2.sup_error <= r1.sup_error  # improvement at default data


class TestSobolevGrowthHalf:
    def test_conserved_limit_exponent_near_zero(self):
        from szego_rg.experiments import run_sobolev_growth

        plan = replan(default_plan(Experiment.SOBOLEV_GROWTH), s=0.5, n_max=4096)
        rep = run_sobolev_growth(plan)
        assert abs(rep.exponent) <= 0.05
        assert rep.qualitative

    def test_growth_holds_one_state_at_a_time(self):
        # the study reduces each snapshot as it arrives: its traced peak is a
        # few states of RK4 stages, not one state per snapshot
        from szego_rg.experiments import run_sobolev_growth

        plan = replan(default_plan(Experiment.SOBOLEV_GROWTH), n_max=2048)
        tracemalloc.start()
        try:
            rep = run_sobolev_growth(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.times) >= 40
        assert peak < 20 * (2 * 2048 + 1) * 16

    def test_trajectory_ends_at_window_end(self):
        from szego_rg.experiments import run_sobolev_growth

        plan = replan(default_plan(Experiment.SOBOLEV_GROWTH), n_max=256, growth_t_max=20.0)
        assert run_sobolev_growth(plan).times[-1] == 20.0

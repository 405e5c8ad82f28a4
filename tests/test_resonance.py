"""Resonance predicates, kernel sums, closed forms, and their oracles.

Closed forms are checked two ways: against the package's vectorized
brute-force sums and against the plain-Python reference implementations in
reference_impl.py, which resolve the momentum constraints differently.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from reference_impl import (
    coeffs_to_dict,
    dict_to_array,
    ref_f_osc,
    ref_f_res,
    ref_osc_primitive,
    ref_r2,
)
from second_order_oracles import dF_osc, n2_from_coefficients, n2_phase_coefficients, n2_rhs
from szego_rg import cli, config, dynamics, experiments, oracles, reporting, spectral
from szego_rg import resonance as rs
from szego_rg.spectral import (
    Domain,
    SpectralField,
    cubic_product,
    field_from_modes,
    make_grid,
    project_plus,
    random_field,
    sobolev_norm,
)


class TestPhaseAndPredicates:
    def test_torus_diagonal_branch(self):
        assert rs.is_resonant_torus(1, 1, -3, -3)

    def test_nonresonant_quadruple(self):
        assert not rs.is_resonant_torus(0, 1, 0, -1)

    def test_momentum_violation_rejected(self):
        with pytest.raises(ValueError):
            rs.is_resonant_torus(1, 0, 0, 2)
        with pytest.raises(ValueError):
            rs.is_resonant_line(1, 0, 0, 2)

    def test_line_sign_class_and_diagonals(self):
        assert rs.is_resonant_line(2, 1, 1, 2)  # all >= 0
        assert rs.is_resonant_line(-2, -1, -1, -2)  # all <= 0
        assert rs.is_resonant_line(3, 3, -5, -5)  # k = l
        assert rs.is_resonant_line(3, -5, -5, 3)  # k = j

    def test_exhaustive_agreement_with_phase(self, torus8):
        n = torus8.n_max
        for k in torus8.modes:
            for l in torus8.modes:
                for m in torus8.modes:
                    j = k - l + m
                    if abs(j) > n:
                        continue
                    vanishes = abs(k) - abs(l) + abs(m) - abs(j) == 0
                    assert rs.is_resonant_torus(k, l, m, j) == vanishes
                    assert rs.is_resonant_line(k, l, m, j) == vanishes

    def test_predicates_on_quadruple_arrays(self):
        K, L, M, J, phi = oracles.quadruples(8)
        assert np.array_equal(rs.is_resonant_torus(K, L, M, J), phi == 0)
        assert np.array_equal(rs.is_resonant_line(K, L, M, J), phi == 0)
        with pytest.raises(ValueError, match="momentum"):
            rs.is_resonant_line(K, L, M, J + 1)


class TestFullNonlinearity:
    def test_single_mode_at_zero(self, torus8):
        u = field_from_modes(torus8, {1: 1.0})
        f = oracles.f_full(u, 0.0)
        assert f[1] == pytest.approx(-1j)
        assert np.sum(np.abs(f.coeff)) == pytest.approx(1.0)

    def test_norm_time_invariant_single_mode(self, torus8):
        u = field_from_modes(torus8, {2: 0.7})
        n0 = np.linalg.norm(oracles.f_full(u, 0.0).coeff)
        for t in (0.5, 3.0, 11.0):
            assert np.linalg.norm(oracles.f_full(u, t).coeff) == pytest.approx(n0)

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0, 0.37])
    def test_split_consistency(self, rand_torus8, t, coeff_diff):
        lhs = oracles.f_full(rand_torus8, t)
        rhs = SpectralField(
            rand_torus8.grid,
            oracles.f_res_bruteforce(rand_torus8).coeff + oracles.f_osc(rand_torus8, t).coeff,
        )
        assert coeff_diff(lhs, rhs) <= 1e-10


class TestResonantKernel:
    def test_single_mode(self, torus8):
        u = field_from_modes(torus8, {1: 1.0})
        f = oracles.f_res_bruteforce(u)
        assert f[1] == pytest.approx(-1j)

    def test_two_mode_frozen_value(self, torus8):
        # enumeration gives three resonant (l, m, j) triples per output mode
        u = field_from_modes(torus8, {1: 1.0, -1: 1.0})
        f = oracles.f_res_bruteforce(u)
        assert f[1] == pytest.approx(-3j)
        assert f[-1] == pytest.approx(-3j)

    def test_zero_field(self, torus8):
        assert np.all(oracles.f_res_bruteforce(field_from_modes(torus8, {})).coeff == 0.0)

    def test_against_reference(self, rand_torus8, coeff_diff):
        ref = dict_to_array(
            ref_f_res(coeffs_to_dict(rand_torus8), rand_torus8.grid.n_max),
            rand_torus8.grid.n_max,
        )
        assert np.max(np.abs(oracles.f_res_bruteforce(rand_torus8).coeff - ref)) <= 1e-12

    def test_closed_torus_equals_bruteforce(self, torus8, rng, coeff_diff):
        for _ in range(5):
            u = random_field(torus8, rng)
            assert coeff_diff(rs.f_res_closed_torus(u.coeff), oracles.f_res_bruteforce(u)) <= 1e-10

    def test_closed_torus_hardy_reduces_to_szego(self, torus8, rng, coeff_diff):
        u = random_field(torus8, rng, hardy=True)
        expected = -1j * project_plus(cubic_product(u.coeff))
        assert coeff_diff(rs.f_res_closed_torus(u.coeff), expected) <= 1e-14

    def test_closed_torus_pure_minus(self, torus8):
        u = field_from_modes(torus8, {-1: 1.0})
        f = rs.f_res_closed_torus(u.coeff)
        assert f[torus8.index(-1)] == pytest.approx(-1j)
        assert np.sum(np.abs(f)) == pytest.approx(1.0)

    def test_closed_line_positive_support(self, box8, rng, coeff_diff):
        u = random_field(box8, rng, hardy=True)
        expected = -1j * project_plus(cubic_product(u.coeff))
        assert coeff_diff(rs.f_res_closed_line(u.coeff), expected) <= 1e-14

    def test_closed_line_equals_sign_uniform_bruteforce(self, box8, rng, coeff_diff):
        for _ in range(5):
            u = random_field(box8, rng)
            oracle = oracles.f_res_bruteforce(u, sign_uniform_only=True)
            assert coeff_diff(rs.f_res_closed_line(u.coeff), oracle) <= 1e-10

    def test_closed_line_zero_field(self, box8):
        assert np.all(rs.f_res_closed_line(field_from_modes(box8, {}).coeff) == 0.0)

    def test_cubic_oracles_reject_large_grid(self):
        for domain, length in ((Domain.TORUS, None), (Domain.BIGBOX, 16.0 * np.pi)):
            u = field_from_modes(make_grid(oracles.MAX_CUBIC_N_MAX + 1, domain, length), {})
            for oracle in (oracles.f_res_bruteforce, lambda u: oracles.f_osc(u, 0.5)):
                with pytest.raises(ValueError, match="n_max"):
                    oracle(u)

    def test_gauge_covariance(self, rand_torus8, coeff_diff):
        theta = 0.83
        rotated = SpectralField(rand_torus8.grid, np.exp(1j * theta) * rand_torus8.coeff)
        a = oracles.f_res_bruteforce(rotated)
        b = SpectralField(
            rand_torus8.grid, np.exp(1j * theta) * oracles.f_res_bruteforce(rand_torus8).coeff
        )
        assert coeff_diff(a, b) <= 1e-12

    def test_cubic_homogeneity(self, rand_torus8, coeff_diff):
        lam = 0.7
        a = oracles.f_res_bruteforce(lam * rand_torus8)
        b = SpectralField(rand_torus8.grid, lam**3 * oracles.f_res_bruteforce(rand_torus8).coeff)
        assert coeff_diff(a, b) <= 1e-12


class TestSzegoCubic:
    """spectral.szego_cubic against the brute-force resonant sums: on Hardy
    data the torus kernel and the line's sign-uniform kernel both reduce to
    -i P+(|u|^2 u)."""

    GRIDS = [make_grid(n, Domain.TORUS) for n in (4, 8)] + [
        make_grid(n, Domain.BIGBOX, 16.0 * np.pi) for n in (4, 8)
    ]
    grids = pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.domain.value}{g.n_max}")

    @staticmethod
    def _check(u):
        box = u.grid.domain is Domain.BIGBOX
        expected = 1j * oracles.f_res_bruteforce(u, sign_uniform_only=box).coeff
        assert np.max(np.abs(spectral.szego_cubic(u.coeff) - expected)) <= 1e-12

    @grids
    def test_matches_bruteforce(self, grid, rng):
        for _ in range(3):
            self._check(random_field(grid, rng, hardy=True))

    @grids
    def test_worst_case_aliasing(self, grid):
        # modes 0, N-1 and N: the product reaches mode 2N, the farthest
        # alias the 2N+1-point grid must keep out of 0..N
        n = grid.n_max
        self._check(field_from_modes(grid, {0: 0.8, n - 1: 0.6 - 0.3j, n: 1.0 + 0.5j}))

    def test_threaded_rows_match_cubic_product(self, rng):
        # at n_max 8192 each of the two rows has 8232 points, past
        # ROW_THREAD_POINTS, so the rows run on two threads
        grid = make_grid(8192, Domain.BIGBOX, 256.0 * np.pi)
        n = grid.n_max
        for u in (
            random_field(grid, rng, hardy=True),
            field_from_modes(grid, {0: 0.8, n - 1: 0.6 - 0.3j, n: 1.0 + 0.5j}),
        ):
            got = spectral.szego_cubic(u.coeff)
            expected = project_plus(cubic_product(project_plus(u.coeff)))
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert np.all(got[:n] == 0.0)

    def test_non_hardy_input_reads_plus_modes(self, torus8, box8, rng):
        for grid in (torus8, box8):
            u = random_field(grid, rng)
            out = spectral.szego_cubic(u.coeff)
            assert np.array_equal(out, spectral.szego_cubic(project_plus(u.coeff)))
            assert np.all(out[: grid.n_max] == 0.0)


class TestOscillatoryPart:
    def test_single_mode_vanishes(self, torus8):
        u = field_from_modes(torus8, {3: 1.0})
        assert np.all(oracles.f_osc(u, 0.4).coeff == 0.0)

    def test_value_at_zero(self, rand_torus8, coeff_diff):
        lhs = oracles.f_osc(rand_torus8, 0.0)
        rhs = SpectralField(
            rand_torus8.grid,
            oracles.f_full(rand_torus8, 0.0).coeff - oracles.f_res_bruteforce(rand_torus8).coeff,
        )
        assert coeff_diff(lhs, rhs) <= 1e-10

    def test_discrete_time_mean_vanishes(self, rand_torus8):
        # integer phases bounded by 4 n_max: R > 4 n_max nodes kill them all
        r_nodes = 4 * rand_torus8.grid.n_max + 1
        acc = np.zeros(rand_torus8.grid.size, dtype=complex)
        for r in range(r_nodes):
            acc += oracles.f_osc(rand_torus8, 2.0 * np.pi * r / r_nodes).coeff
        assert np.max(np.abs(acc / r_nodes)) <= 1e-12

    def test_against_reference(self, rand_torus8):
        t = 0.37
        ref = dict_to_array(
            ref_f_osc(coeffs_to_dict(rand_torus8), rand_torus8.grid.n_max, t),
            rand_torus8.grid.n_max,
        )
        assert np.max(np.abs(oracles.f_osc(rand_torus8, t).coeff - ref)) <= 1e-12


class TestOscPrimitive:
    """The general (non-Hardy) torus primitive, the zero-t-mean quadruple sum."""

    def test_single_mode_zero(self, torus8):
        u = field_from_modes(torus8, {2: 1.0})
        for t in (0.0, 1.0, 5.0):
            assert np.all(oracles.osc_primitive_bruteforce(u, t, from_zero=False).coeff == 0.0)

    def test_time_derivative_matches_f_osc(self, rand_torus8):
        t, h = 0.5, 1e-4
        fd = (
            oracles.osc_primitive_bruteforce(rand_torus8, t + h, from_zero=False).coeff
            - oracles.osc_primitive_bruteforce(rand_torus8, t - h, from_zero=False).coeff
        ) / (2.0 * h)
        assert np.max(np.abs(fd - oracles.f_osc(rand_torus8, t).coeff)) <= 1e-6

    def test_zero_mean_convention_reference(self, rand_torus8):
        t = 1.7
        ref = dict_to_array(
            ref_osc_primitive(coeffs_to_dict(rand_torus8), rand_torus8.grid.n_max, t, False),
            rand_torus8.grid.n_max,
        )
        primitive = oracles.osc_primitive_bruteforce(rand_torus8, t, from_zero=False)
        assert np.max(np.abs(primitive.coeff - ref)) <= 1e-12

    def test_bounded_by_cubic_norm(self, torus8, rng):
        # the torus bound is time uniform: record the constant over a sweep
        ratios = []
        for _ in range(5):
            u = random_field(torus8, rng, decay=1.5)
            denom = sobolev_norm(u, 1.0) ** 3
            for t in (0.0, 3.0, 30.0, 300.0):
                primitive = oracles.osc_primitive_bruteforce(u, t, from_zero=False)
                ratios.append(sobolev_norm(primitive, 1.0) / denom)
        assert max(ratios) < 10.0


class TestFOscTorus:
    """The Hardy closed form against the quadruple sum, zero t-mean."""

    @pytest.mark.parametrize("n_max", [8, 32])
    def test_matches_quadruple_sum(self, n_max, rng, coeff_diff):
        w = random_field(make_grid(n_max, Domain.TORUS), rng, hardy=True)
        for t in (0.0, 0.9, 4.2):
            assert (
                coeff_diff(rs.F_osc(w, t), oracles.osc_primitive_bruteforce(w, t, from_zero=False))
                <= 1e-10
            )

    def test_value_at_zero(self, torus8, rng):
        w = random_field(torus8, rng, hardy=True)
        neg = torus8.modes < 0
        expected = np.zeros(torus8.size, dtype=complex)
        expected[neg] = np.exp(0.0) / (2.0 * torus8.freqs[neg]) * cubic_product(w.coeff)[neg]
        f = rs.F_osc(w, 0.0)
        assert np.all(f.coeff == expected)
        assert np.max(np.abs(f.coeff)) > 0.0

    def test_output_supported_on_negative_modes(self, torus8, rng):
        w = random_field(torus8, rng, hardy=True)
        f = rs.F_osc(w, 3.0)
        assert np.all(f.coeff[torus8.modes >= 0] == 0.0)

    def test_non_hardy_rejected(self, torus8, rng):
        with pytest.raises(ValueError):
            rs.F_osc(random_field(torus8, rng, hardy=False), 1.0)


class TestOscPrimitiveLine:
    def test_vanishes_at_zero(self, box8, rng):
        w = random_field(box8, rng, hardy=True)
        assert np.all(rs.F_osc(w, 0.0).coeff == 0.0)

    def test_matches_quadruple_sum(self, box8, rng, coeff_diff):
        w = random_field(box8, rng, hardy=True)
        for t in (0.9, 4.2):
            assert (
                coeff_diff(rs.F_osc(w, t), oracles.osc_primitive_bruteforce(w, t, from_zero=True))
                <= 1e-10
            )

    def test_matches_reference(self, box8, rng):
        w = random_field(box8, rng, hardy=True)
        t = 2.3
        ref = dict_to_array(
            ref_osc_primitive(
                coeffs_to_dict(w), box8.n_max, t, True, unit=box8.freq_unit
            ),
            box8.n_max,
        )
        assert np.max(np.abs(rs.F_osc(w, t).coeff - ref)) <= 1e-12

    def test_non_hardy_rejected(self, box8, rng):
        u = random_field(box8, rng, hardy=False)
        with pytest.raises(ValueError):
            rs.F_osc(u, 1.0)

    def test_output_supported_on_negative_modes(self, box8, rng):
        w = random_field(box8, rng, hardy=True)
        f = rs.F_osc(w, 3.0)
        assert np.all(f.coeff[box8.modes >= 0] == 0.0)

    def test_equals_former_box_expression(self, rng):
        # the box branch is the earlier box-only closed form, token for token
        grid = make_grid(32, Domain.BIGBOX, 64.0 * np.pi)
        w = random_field(grid, rng, hardy=True)
        cube = cubic_product(w.coeff)
        xi = grid.freqs
        neg = grid.modes < 0
        for t in (0.7, 38.4):
            expected = np.zeros(grid.size, dtype=np.complex128)
            expected[neg] = (np.exp(-2j * t * xi[neg]) - 1.0) / (2.0 * xi[neg]) * cube[neg]
            assert np.array_equal(rs.F_osc(w, t).coeff, expected)


class TestDerivatives:
    def test_zero_direction(self, rand_torus8):
        z = field_from_modes(rand_torus8.grid, {})
        assert np.all(dF_osc(rand_torus8, 0.5, z).coeff == 0.0)

    def test_same_mode_single(self, torus8):
        u = field_from_modes(torus8, {1: 1.0})
        h = field_from_modes(torus8, {1: 0.3 + 0.1j})
        assert np.all(dF_osc(u, 0.5, h).coeff == 0.0)
        # fprime_dot on a single shared mode is resonant-only, hence nonzero,
        # but stays on that mode
        fp = oracles.fprime_dot(u, 0.5, h)
        mask = np.ones(torus8.size, dtype=bool)
        mask[torus8.index(1)] = False
        assert np.max(np.abs(fp.coeff[mask])) < 1e-14

    # the torus cases keep their original ids
    @pytest.mark.parametrize(
        "grid_name, factor",
        [("torus8", 1.0), ("torus8", 1.0j), ("box8", 1.0), ("box8", 1.0j)],
        ids=["1.0", "1j", "box8-1.0", "box8-1j"],
    )
    def test_dF_osc_centered_difference(self, request, rng, grid_name, factor):
        grid = request.getfixturevalue(grid_name)
        u = random_field(grid, rng, decay=1.0)
        h = factor * random_field(grid, rng)
        t, d = 0.3, 1e-5
        from_zero = grid.domain is Domain.BIGBOX
        fd = (
            oracles.osc_primitive_bruteforce(u + d * h, t, from_zero).coeff
            - oracles.osc_primitive_bruteforce(u - d * h, t, from_zero).coeff
        ) / (2.0 * d)
        an = dF_osc(u, t, h).coeff
        assert np.max(np.abs(fd - an)) <= 1e-6 * np.max(np.abs(an))

    @pytest.mark.parametrize("factor", [1.0, 1.0j])
    def test_fprime_centered_difference(self, rand_torus8, rng, factor):
        h = factor * random_field(rand_torus8.grid, rng)
        t, d = 0.3, 1e-5
        fd = (
            oracles.f_full(rand_torus8 + d * h, t).coeff
            - oracles.f_full(rand_torus8 - d * h, t).coeff
        ) / (2.0 * d)
        an = oracles.fprime_dot(rand_torus8, t, h).coeff
        assert np.max(np.abs(fd - an)) <= 1e-6 * np.max(np.abs(an))


class TestTransformCounts:
    """Each kernel transforms every distinct factor once to physical space
    (W and g = (1/D) P-(|W|^2 W) for r2, u+ and u- for f_res_closed_torus,
    v and g for fprime_dot) and each product once back: 2 for r2, whose
    quintic terms are summed on the grid and whose cube also gives the Szego
    term, 4 for f_res_closed_torus and 2 for fprime_dot."""

    KERNELS = {
        "r2_closed_hardy": (lambda w, u, h: rs.r2_closed_hardy(w.coeff, 0.7), 4),
        "f_res_closed_torus": (lambda w, u, h: rs.f_res_closed_torus(u.coeff), 6),
        "fprime_dot": (lambda w, u, h: oracles.fprime_dot(u, 0.37, h), 4),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_fft_calls(self, name, torus8, rng, monkeypatch):
        kernel, expected = self.KERNELS[name]
        w = random_field(torus8, rng, hardy=True)
        u, h = random_field(torus8, rng), random_field(torus8, rng)
        calls = []
        for fn in ("fft", "ifft"):
            real = getattr(spectral, fn)
            monkeypatch.setattr(
                spectral, fn,
                lambda x, *a, real=real, **kw: calls.append(x.size) or real(x, *a, **kw),
            )
        kernel(w, u, h)
        assert len(calls) == expected


class TestQuinticKernels:
    @pytest.fixture
    def torus6(self):
        return make_grid(6, Domain.TORUS)

    @pytest.fixture
    def hardy6(self, torus6, rng):
        return random_field(torus6, rng, decay=1.0, hardy=True)

    def test_r2_single_mode_vanishes(self, torus6):
        w = field_from_modes(torus6, {1: 1.3})
        assert np.all(oracles.r2_bruteforce(w).coeff == 0.0)
        assert np.max(np.abs(rs.r2_closed_hardy(w.coeff))) < 1e-14

    def test_r2_hand_case(self, torus8):
        # W = 1 + e^{ix}: the inner minus-projected cubic is -e^{-ix}, giving
        # i at mode 0, i/2 at mode 1, i at mode 2, i/2 at mode 3
        w = field_from_modes(torus8, {0: 1.0, 1: 1.0})
        r = rs.r2_closed_hardy(w.coeff)
        expected = {0: 1j, 1: 0.5j, 2: 1j, 3: 0.5j}
        for k in torus8.modes:
            assert r[torus8.index(k)] == pytest.approx(expected.get(int(k), 0.0), abs=1e-12)

    def test_r2_closed_equals_bruteforce(self, torus8, rng, coeff_diff):
        for _ in range(5):
            w = random_field(torus8, rng, hardy=True)
            assert coeff_diff(rs.r2_closed_hardy(w.coeff), oracles.r2_bruteforce(w)) <= 1e-10

    @pytest.mark.parametrize("szego", [0.0, 0.3, 25.0])
    def test_weighted_r2_equals_bruteforce(self, szego, torus8, rng, coeff_diff):
        # the averaged flow's kernel: r2 plus szego times the Szego term
        for _ in range(3):
            w = random_field(torus8, rng, hardy=True)
            expected = -1j * szego * project_plus(cubic_product(w.coeff))
            expected += oracles.r2_bruteforce(w).coeff
            assert coeff_diff(rs.r2_closed_hardy(w.coeff, szego), expected) <= 1e-10

    # gate 10's N2 identity runs r2_bruteforce on generic data, so the
    # reference covers both kinds
    @pytest.mark.parametrize("hardy", [True, False], ids=["hardy", "generic"])
    def test_r2_against_reference(self, torus6, rng, hardy):
        w = random_field(torus6, rng, decay=1.0, hardy=hardy)
        ref = dict_to_array(ref_r2(coeffs_to_dict(w), 6), 6)
        assert np.max(np.abs(oracles.r2_bruteforce(w).coeff - ref)) <= 1e-12

    def test_r2_time_average_oracle(self, hardy6, coeff_diff):
        assert coeff_diff(oracles.r2_bruteforce(hardy6), oracles.r2_time_average(hardy6)) <= 1e-8

    def test_r2_quintic_bound_constant(self, torus6, rng):
        ratios = []
        for _ in range(5):
            w = random_field(torus6, rng, decay=1.5, hardy=True)
            ratios.append(
                sobolev_norm(oracles.r2_bruteforce(w), 1.0) / sobolev_norm(w, 1.0) ** 5
            )
        assert max(ratios) < 10.0

    def test_r2_quintic_homogeneity(self, hardy6, coeff_diff):
        lam = 0.6
        a = oracles.r2_bruteforce(lam * hardy6)
        b = SpectralField(hardy6.grid, lam**5 * oracles.r2_bruteforce(hardy6).coeff)
        assert coeff_diff(a, b) <= 1e-13

    def test_r2_rejects_large_grid(self):
        g = make_grid(16, Domain.TORUS)
        with pytest.raises(ValueError):
            oracles.r2_bruteforce(field_from_modes(g, {}))


class TestN2:
    @pytest.fixture
    def w6(self, rng):
        return random_field(make_grid(6, Domain.TORUS), np.random.default_rng(5))

    def test_time_derivative_matches_defining_identity(self, w6):
        t, h = 0.3, 1e-4
        phases, coef = n2_phase_coefficients(w6)
        fd = (
            n2_from_coefficients(w6.grid, phases, coef, t + h).coeff
            - n2_from_coefficients(w6.grid, phases, coef, t - h).coeff
        ) / (2.0 * h)
        rhs = n2_rhs(w6, t).coeff
        assert np.max(np.abs(fd - rhs)) <= 1e-6

    def test_zero_time_mean(self, w6):
        r_nodes = 12 * w6.grid.n_max + 1
        phases, coef = n2_phase_coefficients(w6)
        acc = np.zeros(w6.grid.size, dtype=complex)
        for r in range(r_nodes):
            acc += n2_from_coefficients(w6.grid, phases, coef, 2 * np.pi * r / r_nodes).coeff
        assert np.max(np.abs(acc / r_nodes)) <= 1e-10

    def test_single_mode_vanishes(self):
        g = make_grid(6, Domain.TORUS)
        w = field_from_modes(g, {1: 1.0})
        n2 = n2_from_coefficients(g, *n2_phase_coefficients(w), 0.7)
        assert np.max(np.abs(n2.coeff)) <= 1e-15

    def test_phases_are_the_nonzero_integers_up_to_2n(self, w6):
        # every sextuple phase |x|+|y|+|z| - (|p|+|q|+|r|), x+y+z = p+q+r,
        # lies in [-2n, 2n]
        n = w6.grid.n_max
        phases, coef = n2_phase_coefficients(w6)
        expected = np.arange(-2 * n, 2 * n + 1)
        assert np.array_equal(phases, expected[expected != 0])
        assert coef.shape == (w6.grid.size, phases.size)


class TestTimeAverageIdentity:
    def test_f_full_average_is_f_res(self, rand_torus8, coeff_diff):
        r_nodes = 8 * rand_torus8.grid.n_max + 1
        acc = np.zeros(rand_torus8.grid.size, dtype=complex)
        for r in range(r_nodes):
            acc += oracles.f_full(rand_torus8, 2.0 * np.pi * r / r_nodes).coeff
        avg = SpectralField(rand_torus8.grid, acc / r_nodes)
        assert coeff_diff(avg, oracles.f_res_bruteforce(rand_torus8)) <= 1e-10


class TestOracleSplit:
    """The production path calls no brute-force oracle: only the kernel audit
    does, and every oracle lives in szego_rg.oracles, which shares no code
    with the closed forms it checks.  The checks parse the imports and names,
    so a docstring that mentions a module does not count."""

    @staticmethod
    def _tree(obj):
        return ast.parse(textwrap.dedent(inspect.getsource(obj)))

    @staticmethod
    def _uses(tree, name):
        """How many nodes of tree import or name `name`."""
        count = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Import | ast.ImportFrom):
                modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                count += any(name in m.split(".") for m in modules)
            elif isinstance(node, ast.Name | ast.Attribute):
                count += getattr(node, "id", getattr(node, "attr", None)) == name
        return count

    def test_production_names_no_oracle(self):
        production = (spectral, rs, dynamics, config, cli, reporting)
        found = {m.__name__: self._uses(self._tree(m), "oracles") for m in production}
        assert not any(found.values()), found
        # experiments imports it once; only the audit and the plan's audit
        # n_max rule name it
        audit = self._uses(self._tree(experiments.run_kernel_audit), "oracles")
        rule = self._uses(self._tree(experiments.ExperimentPlan.__post_init__), "oracles")
        assert audit > 0 and rule > 0
        assert self._uses(self._tree(experiments), "oracles") == 1 + audit + rule

    def test_oracles_import_only_spectral(self):
        imports = [
            node for node in ast.walk(self._tree(oracles))
            if isinstance(node, ast.Import | ast.ImportFrom)
        ]
        package = [n.module for n in imports if isinstance(n, ast.ImportFrom) and n.level]
        assert package == ["spectral"]
        assert not any("szego_rg" in ast.unparse(n) for n in imports)
        assert self._uses(self._tree(oracles), "resonance") == 0


class TestPackageRoot:
    """The package root is no import path: every public name is imported
    from the module that defines it.  The checks parse every file under src/
    and tests/."""

    PACKAGE = Path(spectral.__file__).parent
    FILES = sorted([*PACKAGE.parent.rglob("*.py"), *Path(__file__).parent.rglob("*.py")])
    SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}

    def test_root_binds_only_version(self):
        tree = ast.parse((self.PACKAGE / "__init__.py").read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import | ast.ImportFrom):
                bound |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.FunctionDef | ast.ClassDef):
                bound.add(node.name)
            else:
                stores = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Store)]
                bound |= {n.id for n in stores if isinstance(n, ast.Name)}
        assert bound == {"__version__"}

    def test_root_imports_name_submodules_or_version(self):
        allowed = self.SUBMODULES | {"__version__"}
        found = []
        for path in self.FILES:
            in_package = path.parent == self.PACKAGE
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom):
                    root = (node.module == "szego_rg" and node.level == 0) or (
                        in_package and node.module is None and node.level == 1
                    )
                    names = [a.name for a in node.names] if root else []
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    root = node.value.id == "szego_rg" and not node.attr.startswith("__")
                    names = [node.attr] if root else []
                else:
                    names = []
                found += [f"{path.name}: {n}" for n in names if n not in allowed]
        assert not found, found

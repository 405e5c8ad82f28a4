"""Grids, transforms, projectors, multipliers, norms, invariants."""

import os
import subprocess
import sys

import numpy as np
import pytest

import szego_rg
from szego_rg import spectral
from szego_rg.spectral import (
    Domain,
    FrequencyGrid,
    SpectralField,
    apply_inv_D_minus,
    cubic_product,
    energy,
    field_from_modes,
    free_flow,
    from_physical,
    mass,
    momentum,
    project_minus,
    project_plus,
    quartic_mean,
    random_field,
    sobolev_norm,
    to_physical,
)
from conftest import conserved_series, max_rel_drift

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_torus_frequencies_are_modes(self):
        g = FrequencyGrid(8, Domain.TORUS)
        assert g.freqs[g.index(3)] == 3.0
        assert g.length == pytest.approx(TWO_PI)

    def test_torus_frequencies_are_exactly_the_modes(self):
        g = FrequencyGrid(32, Domain.TORUS)
        assert np.array_equal(g.freqs, g.modes)
        assert all(g.freqs[g.index(int(k))] == k for k in g.modes)

    def test_bigbox_frequency_scaling(self):
        g = FrequencyGrid(8, Domain.BIGBOX, 16.0 * np.pi)
        assert g.freqs[g.index(1)] == pytest.approx(1.0 / 8.0)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(2, Domain.TORUS)

    def test_torus_ignores_given_length(self):
        # the grid alone fixes the torus length
        g = FrequencyGrid(8, Domain.TORUS, 4.0 * np.pi)
        assert g.length == TWO_PI and g == FrequencyGrid(8, Domain.TORUS)

    def test_box_requires_length(self):
        with pytest.raises(ValueError, match="length = None"):
            FrequencyGrid(8, Domain.BIGBOX)

    def test_grid_symmetry(self):
        g = FrequencyGrid(8, Domain.BIGBOX, 64.0 * np.pi)
        for k in range(1, 9):
            assert g.freqs[g.index(-k)] == -g.freqs[g.index(k)]

    def test_mode_out_of_range(self):
        g = FrequencyGrid(4, Domain.TORUS)
        with pytest.raises(ValueError):
            g.index(5)


class TestTransforms:
    def test_dc_mode_is_constant(self, torus8):
        f = field_from_modes(torus8, {0: 1.0})
        u = to_physical(f.coeff)
        assert np.allclose(u, 1.0)

    def test_single_mode_samples(self, torus8):
        f = field_from_modes(torus8, {1: 1.0})
        u = to_physical(f.coeff)
        x = TWO_PI * np.arange(u.size) / u.size
        assert np.allclose(u, np.exp(1j * x), atol=1e-13)

    def test_round_trip_identity(self, torus8, rng):
        f = random_field(torus8, rng)
        g = from_physical(to_physical(f.coeff), torus8.size)
        assert np.max(np.abs(g - f.coeff)) < 1e-13

    def test_aliasing_of_out_of_band_mode(self, torus8):
        # e^{i (n_max+1) x} sampled on the padded grid: every retained
        # coefficient is zero because n_max+1 stays clear of [-n, n] mod N
        n_pts = 2 * torus8.size
        x = TWO_PI * np.arange(n_pts) / n_pts
        f = from_physical(np.exp(1j * (torus8.n_max + 1) * x), torus8.size)
        assert np.max(np.abs(f)) < 1e-14

    def test_plancherel_after_round_trip(self, torus8, rng):
        f = random_field(torus8, rng)
        g = SpectralField(torus8, from_physical(to_physical(f.coeff), torus8.size))
        lhs = sobolev_norm(g, 0.0) ** 2
        rhs = float(np.sum(np.abs(f.coeff) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_cubic_product_single_mode(self, torus8):
        f = field_from_modes(torus8, {1: 0.5})
        c = cubic_product(f.coeff)
        # |u|^2 u for u = 0.5 e^{ix} is 0.125 e^{ix}
        assert c[torus8.index(1)] == pytest.approx(0.125)
        assert np.sum(np.abs(c)) == pytest.approx(0.125)

    @pytest.mark.parametrize("n_max", [8, 32, 384])
    def test_kernels_never_write_their_input(self, n_max, rng):
        c = random_field(FrequencyGrid(n_max, Domain.TORUS), rng).coeff
        c.setflags(write=False)  # already read-only; a write would raise
        u = to_physical(c)
        cube = cubic_product(c)
        samples = u.copy()
        samples.setflags(write=False)
        assert np.array_equal(from_physical(samples, c.size), from_physical(u, c.size))
        assert np.array_equal(samples, u)
        assert np.array_equal(cubic_product(c), cube)

    def test_next_fast_len_is_next_11_smooth(self):
        def smooth(m):
            for p in (2, 3, 5, 7, 11):
                while m % p == 0:
                    m //= p
            return m == 1

        expected = 20000
        for n in range(19999, 0, -1):
            if smooth(n):
                expected = n
            assert spectral.next_fast_len(n) == expected


class TestSzegoRows:
    def test_threaded_rows_match_one_batch(self, rng, monkeypatch):
        # n_max 8192 gives rows of 8232 points, past ROW_THREAD_POINTS
        grid = FrequencyGrid(8192, Domain.BIGBOX, 256.0 * np.pi)
        assert spectral.next_fast_len(grid.n_max + 1) >= spectral.ROW_THREAD_POINTS
        c = random_field(grid, rng, hardy=True).coeff
        before = spectral._row_thread.cache_info()
        threaded = spectral.szego_cubic(c)
        after = spectral._row_thread.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
        monkeypatch.setattr(spectral, "ROW_THREAD_POINTS", grid.size + 1)
        assert np.array_equal(spectral.szego_cubic(c), threaded)
        assert spectral._row_thread.cache_info() == after


# every transform length of the default plans (n_max 8, 32, 384, 1024, 32768):
# to_physical's padded grids and szego_cubic's rows
PLAN_LENGTHS = sorted(
    {spectral.next_fast_len(2 * (2 * n + 1)) for n in (8, 32, 384, 1024, 32768)}
    | {spectral.next_fast_len(n + 1) for n in (8, 32, 384, 1024, 32768)}
)


@pytest.mark.parametrize("n_pts", PLAN_LENGTHS)
def test_gufuncs_match_public_transforms(n_pts, rng):
    # spectral.fft/ifft are numpy's private pocketfft gufuncs, called with the
    # fct the public call passes; a numpy that changes them fails here by name
    for shape in ((n_pts,), (2, n_pts)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a.setflags(write=False)
        for gufunc, fct, expected in (
            (spectral.fft, 1, np.fft.fft(a)),
            (spectral.fft, 1.0 / n_pts, np.fft.fft(a, norm="forward")),
            (spectral.ifft, 1.0 / n_pts, np.fft.ifft(a)),
            (spectral.ifft, 1, np.fft.ifft(a, norm="forward")),
        ):
            out = gufunc(a, fct, out=np.empty(shape, np.complex128))
            assert np.array_equal(out, expected), (gufunc.__name__, fct, shape)


def test_public_fft_fallback_gives_the_gufunc_bits(tmp_path):
    # a numpy without the private gufunc module: spectral falls back to the
    # public numpy.fft calls, and both kernels keep their bits at the lengths
    # of n_max = 32, 384 and 32768 (32768 pipelines its rows on two threads)
    sizes = (32, 384, 32768)
    rng = np.random.default_rng(7)
    fields = [rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1) for n in sizes]
    np.savez(tmp_path / "in.npz", *fields)
    code = (
        "import sys, numpy as np, numpy.fft\n"
        "sys.modules['numpy.fft._pocketfft_umath'] = None\n"
        "from szego_rg import spectral\n"
        "assert not isinstance(spectral.fft, np.ufunc), spectral.fft\n"
        f"d = np.load({str(tmp_path / 'in.npz')!r})\n"
        "cs = [d[f'arr_{i}'] for i in range(len(d.files))]\n"
        f"np.savez({str(tmp_path / 'out.npz')!r},"
        " *[spectral.cubic_product(c) for c in cs], *[spectral.szego_cubic(c, -1j) for c in cs])\n"
    )
    src = os.path.dirname(os.path.dirname(szego_rg.__file__))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
    out = np.load(tmp_path / "out.npz")
    expected = [cubic_product(c) for c in fields] + [spectral.szego_cubic(c, -1j) for c in fields]
    for i, want in enumerate(expected):
        assert np.array_equal(out[f"arr_{i}"], want), (i, sizes[i % len(sizes)])


def test_cli_does_not_import_scipy():
    # the transforms are numpy.fft's; importing scipy.fft outweighs the rest of start-up
    src = os.path.dirname(os.path.dirname(szego_rg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, szego_rg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert res.stdout.strip() == "[]"


class TestProjectors:
    def test_negative_mode_killed(self, torus8):
        f = field_from_modes(torus8, {-1: 1.0})
        assert np.all(project_plus(f.coeff) == 0.0)

    def test_zero_mode_belongs_to_plus(self, torus8):
        f = field_from_modes(torus8, {0: 1.0})
        assert np.array_equal(project_plus(f.coeff), f.coeff)
        assert np.all(project_minus(f.coeff) == 0.0)

    def test_minus_keeps_negative(self, torus8):
        f = field_from_modes(torus8, {-2: 3.0j})
        assert np.array_equal(project_minus(f.coeff), f.coeff)

    def test_partition_bitwise(self, torus8, rng):
        f = random_field(torus8, rng)
        p, m = project_plus(f.coeff), project_minus(f.coeff)
        assert np.array_equal(p + m, f.coeff)
        assert np.array_equal(project_plus(p), p)
        assert np.all(project_minus(p) == 0.0)
        assert np.all(project_plus(m) == 0.0)


class TestMultipliers:
    def test_inv_d_minus_torus(self, torus8):
        f = field_from_modes(torus8, {-2: 4.0})
        assert apply_inv_D_minus(f.coeff)[torus8.index(-2)] == pytest.approx(-2.0)

    def test_inv_d_minus_zeroes_plus(self, torus8):
        f = field_from_modes(torus8, {3: 7.0})
        assert np.all(apply_inv_D_minus(f.coeff) == 0.0)

    def test_inv_d_after_d_is_minus_projector(self, torus8, rng):
        f = random_field(torus8, rng)
        lhs = apply_inv_D_minus(torus8.freqs * f.coeff)
        ref = project_minus(f.coeff)
        assert np.max(np.abs(lhs - ref)) <= 1e-15 * np.max(np.abs(f.coeff))


class TestFreeFlow:
    def test_identity_at_zero(self, rand_torus8):
        assert np.array_equal(free_flow(rand_torus8, 0.0).coeff, rand_torus8.coeff)

    def test_group_law(self, rand_torus8):
        a = free_flow(rand_torus8, 0.7 + 1.3)
        b = free_flow(free_flow(rand_torus8, 0.7), 1.3)
        assert np.max(np.abs(a.coeff - b.coeff)) < 1e-12

    def test_unitary_per_mode(self, rand_torus8):
        f = free_flow(rand_torus8, 17.3)
        assert np.allclose(np.abs(f.coeff), np.abs(rand_torus8.coeff), rtol=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5])
    def test_sobolev_isometry(self, rand_torus8, s):
        before = sobolev_norm(rand_torus8, s)
        after = sobolev_norm(free_flow(rand_torus8, 123.456), s)
        assert abs(after - before) <= 1e-12 * before


class TestNorms:
    def test_dc_norm_is_one(self, torus8):
        f = field_from_modes(torus8, {0: 1.0})
        for s in (0.0, 0.5, 1.0, 3.0):
            assert sobolev_norm(f, s) == pytest.approx(1.0)

    def test_single_mode_h1(self, torus8):
        f = field_from_modes(torus8, {1: 1.0})
        assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2.0))

    def test_monotone_in_s(self, rand_torus8):
        norms = [sobolev_norm(rand_torus8, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_negative_s_rejected(self, rand_torus8):
        with pytest.raises(ValueError):
            sobolev_norm(rand_torus8, -0.5)


class TestConserved:
    def test_single_plus_mode(self, torus8):
        f = field_from_modes(torus8, {1: 1.0})
        assert mass(f) == pytest.approx(1.0)
        assert momentum(f) == pytest.approx(1.0)
        assert energy(f) == pytest.approx(0.75)  # 1/2 + 1/4 since |e^{ix}|^4 = 1

    def test_negative_mode_momentum(self, torus8):
        f = field_from_modes(torus8, {-1: 1.0})
        assert momentum(f) == pytest.approx(-1.0)

    def test_zero_field(self, torus8):
        f = field_from_modes(torus8, {})
        assert (energy(f), mass(f), momentum(f)) == (0.0, 0.0, 0.0)

    def test_positivity(self, torus8, rng):
        for _ in range(5):
            f = random_field(torus8, rng)
            assert mass(f) >= 0.0
            assert energy(f) >= 0.0

    def test_2e_minus_m_identity(self, torus8, rng):
        # 2E - M = 2 sum_{k<0} |k| |c|^2 + (1/2) (1/length) int |u|^4 >= 0
        for _ in range(5):
            f = random_field(torus8, rng)
            lhs = 2.0 * energy(f) - momentum(f)
            neg = f.grid.modes < 0
            rhs = 2.0 * float(
                np.sum(np.abs(f.grid.freqs[neg]) * np.abs(f.coeff[neg]) ** 2)
            ) + 0.5 * quartic_mean(f)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert lhs >= 0.0

    def test_report_drift_and_floor(self, torus8):
        fields = [field_from_modes(torus8, {1: a}) for a in (1.0, 1.0, 1.0 + 1e-9)]
        _, q, _ = conserved_series(fields)
        assert max_rel_drift(q) == pytest.approx(2e-9, rel=1e-3)
        zeros = [field_from_modes(torus8, {})] * 3
        e0, _, _ = conserved_series(zeros)
        assert max_rel_drift(e0) == 0.0  # floor prevents 0/0


class TestFieldValue:
    def test_immutable(self, rand_torus8):
        with pytest.raises(ValueError):
            rand_torus8.coeff[0] = 1.0

    def test_wrong_size_rejected(self, torus8):
        with pytest.raises(ValueError):
            SpectralField(torus8, np.zeros(5, dtype=complex))

    def test_arithmetic(self, torus8):
        a = field_from_modes(torus8, {1: 1.0})
        b = field_from_modes(torus8, {2: 2.0})
        c = 2.0 * a + b - a
        assert c[1] == pytest.approx(1.0)
        assert c[2] == pytest.approx(2.0)

    def test_mixed_grid_rejected(self, torus8):
        other = FrequencyGrid(6, Domain.TORUS)
        with pytest.raises(ValueError):
            field_from_modes(torus8, {1: 1.0}) + field_from_modes(other, {1: 1.0})

    def test_l2_norm_sq(self, torus8):
        f = field_from_modes(torus8, {1: 3.0, -2: 4.0})
        assert mass(f) == pytest.approx(25.0)

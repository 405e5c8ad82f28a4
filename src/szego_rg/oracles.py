"""Brute-force oracles: direct quadruple and sextuple sums of the kernels that
resonance.py evaluates in closed form, for the kernel audit and the tests.

The sums run over the quadruples (k; l, m, j), k - l + m - j = 0, of the
nonlinearity f (see resonance.py) and select the resonant set by its
definition, phase phi = |k| - |l| + |m| - |j| = 0.  This module imports only
spectral, so no oracle shares code with the closed form it checks.  The
oracles take SpectralFields.

Inner mode indices are confined to the grid range |k| <= n_max, consistent
with compositions through grid-truncated fields (vacuous for Hardy inputs).
Every sum runs over one cached set of the in-grid quadruples and their
phases: a mask selects the terms and a bincount sums them per output mode.
The sextuple sums of r2 go through the inner phase table S[x, f], the sum of
u(j) u(l) conj(u(m)) over the quadruples of output mode x and phase f != 0:
each outer quadruple meets S at its inner index for every f, and the
resonant terms are those whose total phase is 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import (
    Domain,
    SpectralField,
    cubic_product,
    free_flow,
    from_physical,
    to_physical,
)

# The sums hold every in-grid quadruple at once, O(n_max^3) entries, and the
# quintic ones pair each quadruple with O(n_max) inner phases; keep them to
# oracle-sized grids.
MAX_QUINTIC_N_MAX = 12
MAX_CUBIC_N_MAX = 32


@lru_cache(maxsize=8)
def quadruples(n_max: int):
    """Every in-grid quadruple (k; l, m, j), j = k - l + m, as flat read-only
    mode arrays (K, L, M, J, phi) sorted by k, with the phase
    phi = |k| - |l| + |m| - |j| in units of grid.freq_unit.  The resonant set
    is phi == 0, by definition."""
    if n_max > MAX_CUBIC_N_MAX:
        raise ValueError(f"direct kernel sums are limited to n_max <= {MAX_CUBIC_N_MAX}")
    modes = np.arange(-n_max, n_max + 1)
    K, L, M = (a.ravel() for a in np.meshgrid(modes, modes, modes, indexing="ij"))
    J = K - L + M
    ok = np.abs(J) <= n_max
    K, L, M, J = K[ok], L[ok], M[ok], J[ok]
    quads = (K, L, M, J, np.abs(K) - np.abs(L) + np.abs(M) - np.abs(J))
    for a in quads:
        a.setflags(write=False)
    return quads


def _bin(index: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of vals per bin index, one bincount per part."""
    return np.bincount(index, vals.real, size) + 1j * np.bincount(index, vals.imag, size)


def _terms(w: np.ndarray, sel: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """u(j) u(l) conj(u(m)) on the quadruples selected by the mask sel; with a
    direction h, its R-linear derivative: h in each of the three slots in turn."""
    n = (w.size - 1) // 2
    _, L, M, J, _ = quadruples(n)
    j, l, m = J[sel] + n, L[sel] + n, M[sel] + n
    wj, wl, wm = w[j], w[l], np.conj(w[m])
    if h is None:
        return wj * wl * wm
    return h[j] * wl * wm + wj * h[l] * wm + wj * wl * np.conj(h[m])


def _osc_sum(u: SpectralField, weight, h: SpectralField | None = None) -> np.ndarray:
    """Per output mode, the sum over non-resonant quadruples of
    weight(phi) * u(j) u(l) conj(u(m)), with phi the phase as a frequency;
    with a direction h, the terms are their derivatives along h (_terms)."""
    grid = u.grid
    K, _, _, _, phi = quadruples(grid.n_max)
    sel = phi != 0
    terms = _terms(u.coeff, sel, None if h is None else h.coeff)
    return _bin(K[sel] + grid.n_max, weight(phi[sel] * grid.freq_unit) * terms, grid.size)


def _primitive_weight(t: float, from_zero: bool):
    """Term weight of the f_osc antiderivative: exp(i t phi)/(i phi), minus
    its t = 0 value when from_zero, times the -i of f."""

    def weight(phi):
        osc = np.exp(1j * t * phi)
        if from_zero:
            osc = osc - 1.0
        return -1j * osc / (1j * phi)

    return weight


# ---------------------------------------------------------------------------
# the full nonlinearity, its resonant part, its oscillatory part and the
# antiderivative of the latter


def f_full(u: SpectralField, t: float) -> SpectralField:
    """f(u,t) = -i exp(i|D|t)(|v|^2 v), v = exp(-i|D|t) u, via FFT products."""
    c = cubic_product(free_flow(u, t).coeff)
    return SpectralField(u.grid, -1j * free_flow(SpectralField(u.grid, c), -t).coeff)


def f_res_bruteforce(u: SpectralField, sign_uniform_only: bool = False) -> SpectralField:
    """Direct sum of -i * u(j) u(l) conj(u(m)) over resonant quadruples.

    With sign_uniform_only=True the sum is restricted to quadruples whose
    four modes share a sign class; the dropped quadruples (diagonals k = l,
    k = j and the zero-mode-coupled all-nonpositive cases) are the discrete
    leftovers of sets of measure zero in the continuum resonant set, and form
    exactly the difference with the two-term line closed form.
    """
    grid = u.grid
    K, L, M, J, phi = quadruples(grid.n_max)
    sel = phi == 0
    if sign_uniform_only:  # mode 0 counts as the + class
        sel = np.where(K >= 0, (L >= 0) & (M >= 0) & (J >= 0), (L < 0) & (M < 0) & (J < 0))
    return SpectralField(grid, -1j * _bin(K[sel] + grid.n_max, _terms(u.coeff, sel), grid.size))


def f_osc(u: SpectralField, t: float) -> SpectralField:
    """Brute-force sum of -i exp(i t phi) u(j) u(l) conj(u(m)) over phi != 0."""
    return SpectralField(u.grid, -1j * _osc_sum(u, lambda phi: np.exp(1j * t * phi)))


def osc_primitive_bruteforce(
    u: SpectralField, t: float, from_zero: bool
) -> SpectralField:
    """Phase-weighted quadruple sum for the antiderivative of f_osc.

    Term weights: exp(i t phi)/(i phi) (zero t-mean, the torus convention) or
    (exp(i t phi) - 1)/(i phi) (vanishing at t = 0, the line convention).
    """
    return SpectralField(u.grid, _osc_sum(u, _primitive_weight(t, from_zero)))


def fprime_dot(u: SpectralField, t: float, h: SpectralField) -> SpectralField:
    """R-linear derivative of f_full at u in direction h.

    With v = exp(-i|D|t) u and g = exp(-i|D|t) h this is
    -i exp(i|D|t) (2 |v|^2 g + v^2 conj(g)), evaluated by dealiased products.
    """
    if h.grid != u.grid:
        raise ValueError("direction field lives on a different grid")
    V = to_physical(free_flow(u, t).coeff)
    G = to_physical(free_flow(h, t).coeff)
    p1 = from_physical(V * np.conj(V) * G, u.grid.size)
    p2 = from_physical(V * V * np.conj(G), u.grid.size)
    total = SpectralField(u.grid, 2.0 * p1 + p2)
    return SpectralField(u.grid, -1j * free_flow(total, -t).coeff)


# ---------------------------------------------------------------------------
# quintic resonant kernel r2 = {f'(W,t) . F_osc(W,t)}_res


def _check_quintic_size(grid):
    if grid.domain is not Domain.TORUS:
        raise ValueError("quintic kernels are defined on the torus grid")
    if grid.n_max > MAX_QUINTIC_N_MAX:
        raise ValueError(
            f"quintic brute force is an oracle for n_max <= {MAX_QUINTIC_N_MAX}"
        )


def _quintic_families(w: np.ndarray):
    """Both sextuple families of f'(W,t).F_osc(W,t) as flat arrays
    (output mode index, total phase, term), one entry per outer quadruple
    (k; l, m, j) and inner phase f != 0.

    With S[x, f] = sum of W(j) W(l) conj(W(m)) over the quadruples of output
    mode x and phase f (the inner table):
      family 1 (h in a holomorphic slot of f'): (2i/f) S[j, f] W(l) conj(W(m))
        at total phase phi + f;
      family 2 (h in the conjugated slot): (i/f) conj(S[m, f]) W(j) W(l)
        at total phase phi - f;
    with phi the outer phase.  Phases are integers in [-2 n_max, 2 n_max].
    """
    n = (w.size - 1) // 2
    K, L, M, J, phi = quadruples(n)
    sel = phi != 0
    width = 4 * n + 1
    table = _bin((K[sel] + n) * width + phi[sel] + 2 * n, _terms(w, sel), w.size * width)
    f = np.arange(-2 * n, 2 * n + 1)
    table = table.reshape(w.size, width)[:, f != 0]
    f = f[f != 0]
    k = np.broadcast_to(K[:, None] + n, (K.size, f.size))
    yield k, phi[:, None] + f, 2j / f * table[J + n] * (w[L + n] * np.conj(w[M + n]))[:, None]
    yield k, phi[:, None] - f, 1j / f * np.conj(table[M + n]) * (w[J + n] * w[L + n])[:, None]


def r2_bruteforce(w_field: SpectralField) -> SpectralField:
    """Direct evaluation of the two sextuple sums of the resonant quintic.

    Keeps exactly the terms whose total phase vanishes; time independent by
    construction.
    """
    grid = w_field.grid
    _check_quintic_size(grid)
    out = np.zeros(grid.size, dtype=np.complex128)
    for k, total, terms in _quintic_families(w_field.coeff):
        keep = total == 0
        out += _bin(k[keep], terms[keep], grid.size)
    return SpectralField(grid, out)


def r2_time_average(w_field: SpectralField) -> SpectralField:
    """Averaging oracle: (1/R) sum_r f'(W, t_r).F_osc(W, t_r) over one period.

    All phases are integers bounded by 2*n_max (see _quintic_families), so
    R = 6*n_max + 2 > 2*n_max nodes kill every oscillatory term exactly and
    the average is the resonant part.
    """
    grid = w_field.grid
    if grid.domain is not Domain.TORUS:
        raise ValueError("r2_time_average is defined on the torus grid")
    r_nodes = 6 * grid.n_max + 2
    acc = np.zeros(grid.size, dtype=np.complex128)
    for r in range(r_nodes):
        t = 2.0 * np.pi * r / r_nodes
        primitive = osc_primitive_bruteforce(w_field, t, from_zero=False)
        acc += fprime_dot(w_field, t, primitive).coeff
    return SpectralField(grid, acc / r_nodes)

"""Second-order oracles that only tests call: the directional derivative
dF_osc of the oscillatory primitive, and the oscillatory corrector N2 of the
second-order method through its phase decomposition and its defining
right-hand side.

They are built on the package's brute-force sums (szego_rg.oracles), unlike
reference_impl.py, which shares no code with the package.
"""

from __future__ import annotations

import numpy as np

from szego_rg import Domain, SpectralField
from szego_rg.oracles import (
    _bin,
    _check_quintic_size,
    _osc_sum,
    _primitive_weight,
    _quintic_families,
    _terms,
    fprime_dot,
    osc_primitive_bruteforce,
    quadruples,
    r2_bruteforce,
)
from szego_rg.resonance import f_res_closed_torus


def dF_osc(u: SpectralField, t: float, h: SpectralField) -> SpectralField:
    """Directional derivative of F_osc at u in direction h.

    R-linear in h: the two holomorphic slots receive h, the conjugated slot
    receives conj(h).  Follows the grid's antiderivative convention.
    """
    if h.grid != u.grid:
        raise ValueError("direction field lives on a different grid")
    weight = _primitive_weight(t, from_zero=u.grid.domain is not Domain.TORUS)
    return SpectralField(u.grid, _osc_sum(u, weight, h))


def n2_phase_coefficients(w_field: SpectralField):
    """Assemble d/dt N2(W, t) = sum_Phi c[k, Phi] exp(i t Phi), Phi != 0.

    The right-hand side {f'(W,t).F_osc(W,t)}_osc - F'_osc(W,t).f_res(W) is a
    trigonometric polynomial in t with integer phases |Phi| <= 2*n_max: a
    sextuple phase has the form |x|+|y|+|z| - (|p|+|q|+|r|) with
    x+y+z = p+q+r, and |x|+|y|+|z| - |x+y+z| <= 2*n_max on the grid.  This
    returns (phases, c), phases the nonzero integers in [-2*n_max, 2*n_max]
    and c of shape (grid.size, len(phases)).
    """
    grid = w_field.grid
    _check_quintic_size(grid)
    n = grid.n_max
    w = w_field.coeff
    n_phases = 4 * n + 1
    offset = 2 * n
    coef = np.zeros(grid.size * n_phases, dtype=np.complex128)

    # the sextuple families of {f'.F_osc}_osc (total phase != 0); entries
    # with |total| > 2n pair an outer quadruple with an empty cell of the
    # inner table and are zero
    for k, total, terms in _quintic_families(w):
        keep = (total != 0) & (np.abs(total) <= offset)
        coef += _bin(k[keep] * n_phases + total[keep] + offset, terms[keep], coef.size)

    # minus F'_osc(W,t).f_res(W): every term oscillates at the outer phase
    # phi != 0 and carries weight exp(i t phi)/phi per slot
    K, _, _, _, phi = quadruples(n)
    sel = phi != 0
    terms = _terms(w, sel, f_res_closed_torus(w)) / phi[sel]
    coef += _bin((K[sel] + n) * n_phases + phi[sel] + offset, terms, coef.size)

    phases = np.arange(-offset, offset + 1)
    keep = phases != 0
    return phases[keep], coef.reshape(grid.size, n_phases)[:, keep]


def n2_from_coefficients(grid, phases: np.ndarray, coef: np.ndarray, t: float) -> SpectralField:
    """Evaluate N2 from its phase decomposition: term / (i * Phi)."""
    osc = np.exp(1j * t * phases) / (1j * phases)
    return SpectralField(grid, coef @ osc)


def n2_rhs(w_field: SpectralField, t: float) -> SpectralField:
    """Defining right-hand side of d/dt N2, assembled from independent parts:
    f'(W,t).F_osc(W,t) minus its resonant part r2 minus F'_osc(W,t).f_res(W)."""
    a = fprime_dot(w_field, t, osc_primitive_bruteforce(w_field, t, from_zero=False))
    b = r2_bruteforce(w_field)
    c = dF_osc(w_field, t, SpectralField(w_field.grid, f_res_closed_torus(w_field.coeff)))
    return SpectralField(w_field.grid, a.coeff - b.coeff - c.coeff)

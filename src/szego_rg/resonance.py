"""Resonance predicates and closed-form kernels of the cubic half-wave
nonlinearity f(u, t) = -i exp(i|D|t)(|v|^2 v), v = exp(-i|D|t) u.

f is a quadruple sum over modes (k; l, m, j) with k - l + m - j = 0, each
term oscillating at the phase phi = |k| - |l| + |m| - |j|.  The terms with
phi = 0 form the resonant part f_res; the rest is f_osc, whose antiderivative
in t is F_osc: zero-mean in t on the torus, vanishing at t = 0 on the box.

The sign-pattern lemmas is_resonant_torus and is_resonant_line act on mode
integers or arrays.  The closed forms f_res_closed_torus, f_res_closed_line
and r2_closed_hardy (r2 = {f'(W,t).F_osc(W,t)}_res, torus), like
require_hardy, take coefficient arrays in the -n_max..n_max layout; arrays
carry no grid, so the caller picks the form for its geometry.  F_osc, for
Hardy input on either geometry, takes a SpectralField.  The kernel audit and
the tests check every lemma and closed form against a direct sum in oracles.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    TWO_PI,
    Domain,
    SpectralField,
    _grid_freqs,
    apply_inv_D_minus,
    cubic_product,
    from_physical,
    project_minus,
    project_plus,
    szego_cubic,
    to_physical,
)

HARDY_TOL = 1e-12


def require_hardy(c: np.ndarray):
    """Reject coefficients whose negative-mode mass exceeds HARDY_TOL (relative)."""
    neg = float(np.sum(np.abs(c[: c.size // 2]) ** 2))
    if neg > HARDY_TOL * max(float(np.sum(np.abs(c) ** 2)), 1e-300):
        raise ValueError(
            f"input must be a Hardy field (negative-mode mass {neg:.3e} above tolerance)"
        )


# ---------------------------------------------------------------------------
# resonant-set predicates


def _check_momentum(k, l, m, j):
    if np.any(k - l + m - j != 0):
        raise ValueError("momentum constraint violated: k - l + m - j != 0")


def is_resonant_torus(k, l, m, j):
    """Integer-mode resonance test on the torus, for mode integers or arrays
    (elementwise).

    With k - l + m - j = 0, the phase |k|-|l|+|m|-|j| vanishes exactly when
    k > 0 and (l,m,j all >= 0, or k = l, or k = j); k = 0 and l,m,j share a
    sign class; k < 0 and the mirrored conditions hold.
    """
    _check_momentum(k, l, m, j)
    plus = (l >= 0) & (m >= 0) & (j >= 0)
    minus = (l <= 0) & (m <= 0) & (j <= 0)
    diagonal = (k == l) | (k == j)
    return np.where(k > 0, plus | diagonal, np.where(k < 0, minus | diagonal, plus | minus))


def is_resonant_line(k, l, m, j):
    """Resonance test for box frequencies, for mode integers or arrays
    (elementwise): all four in one (closed) sign class, or the diagonal
    cases k = l, k = j.

    Frequencies are integer multiples of 2*pi/length, so the test is exact
    integer arithmetic; no floating-point classification.
    """
    _check_momentum(k, l, m, j)
    plus = (k >= 0) & (l >= 0) & (m >= 0) & (j >= 0)
    minus = (k <= 0) & (l <= 0) & (m <= 0) & (j <= 0)
    return (k == l) | (k == j) | plus | minus


# ---------------------------------------------------------------------------
# the resonant part


def f_res_closed_torus(c: np.ndarray) -> np.ndarray:
    """Ten-term closed form of the torus resonant kernel.

    Grouping the resonant quadruples by sign pattern gives

        f_res(u) = -i [ P+(|u+|^2 u+) + 2 ||u-||^2 u+
                        + F(|u-|^2 u-)(0) delta_{k=0}
                        + P-(|u-|^2 u-) + 2 u^(0) P-(|u-|^2)
                        + conj(u^(0)) u-^2 + 2 ||u+||^2 u- ]

    with u^(0) the zero-mode coefficient and ||.||^2 = sum |c(k)|^2.
    """
    n = c.size // 2
    up = project_plus(c)
    um = project_minus(c)
    Um = to_physical(um)
    cube_m = from_physical(np.abs(Um) ** 2 * Um, c.size)
    q_plus = float(np.sum(np.abs(up) ** 2))
    q_minus = float(np.sum(np.abs(um) ** 2))
    u0 = c[n]
    abs_minus_sq = from_physical(Um * np.conj(Um), c.size)
    minus_sq = from_physical(Um * Um, c.size)

    out = szego_cubic(up)
    out += 2.0 * q_minus * up
    out[n] += cube_m[n]
    out += project_minus(cube_m)
    out += 2.0 * u0 * project_minus(abs_minus_sq)
    out += np.conj(u0) * minus_sq
    out += 2.0 * q_plus * um
    return -1j * out


def f_res_closed_line(c: np.ndarray) -> np.ndarray:
    """Two-term line closed form -i(P+(|u+|^2 u+) + P-(|u-|^2 u-)).

    Equals the sign-uniform brute-force sum.  Every resonant quadruple it
    drops has a negative-mode factor: on Hardy data it is the whole kernel.
    """
    return -1j * (szego_cubic(c) + project_minus(cubic_product(project_minus(c))))


# ---------------------------------------------------------------------------
# the antiderivative of the oscillatory part


def F_osc(w_field: SpectralField, t: float) -> SpectralField:
    """Closed-form antiderivative of f_osc for Hardy input.

    For W supported on k >= 0 every non-resonant quadruple has output mode
    k < 0 and phase -2*xi(k), so on xi < 0

        F_osc_hat(xi) = exp(-2 i t xi) / (2 xi) * F(|W|^2 W)(xi)          (torus)
        F_osc_hat(xi) = (exp(-2 i t xi) - 1) / (2 xi) * F(|W|^2 W)(xi)    (box)

    and zero on xi >= 0.  The convention follows the grid: the torus
    primitive has zero t-mean, the box primitive vanishes at t = 0.
    """
    require_hardy(w_field.coeff)
    grid = w_field.grid
    cube = cubic_product(w_field.coeff)
    xi = grid.freqs
    out = np.zeros(grid.size, dtype=np.complex128)
    neg = grid.modes < 0
    if grid.domain is Domain.TORUS:
        out[neg] = np.exp(-2j * t * xi[neg]) / (2.0 * xi[neg]) * cube[neg]
    else:
        out[neg] = (np.exp(-2j * t * xi[neg]) - 1.0) / (2.0 * xi[neg]) * cube[neg]
    return SpectralField(grid, out)


# ---------------------------------------------------------------------------
# quintic resonant kernel r2 = {f'(W,t) . F_osc(W,t)}_res


def r2_closed_hardy(c: np.ndarray, szego: float = 0.0) -> np.ndarray:
    """Closed form of the resonant quintic for Hardy input on the torus, plus
    szego times the Szego term -i P+(|W|^2 W) (the averaged flow steps
    eps^4 r2_closed_hardy(W, eps^-2)):

        r2(W) = -i P+(|W|^2 G) - (i/2) P+(W^2 conj(G)),  G = (1/D) P-(|W|^2 W).

    Four transforms: W to the grid; |W|^2 W back, whose modes 0..n_max are
    the Szego term and whose modes k < 0 give G; G to the grid; the quintic
    back.  Precondition, not checked here: c is Hardy (modes k < 0 zero), as
    the integrator checks the initial data and its stages stay Hardy.
    """
    n = c.size // 2
    W = to_physical(c)
    sq = np.abs(W) ** 2
    cube = from_physical(sq * W, c.size)
    G = to_physical(apply_inv_D_minus(cube, _grid_freqs(n, TWO_PI)))
    out = from_physical(np.conj(G) * W * W * 0.5 + sq * G, c.size)
    out[:n] = 0.0
    out[n:] += szego * cube[n:]
    out *= -1j
    return out

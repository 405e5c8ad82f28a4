"""Resonant / oscillatory splitting of the cubic half-wave nonlinearity.

Everything here operates on the interaction-picture nonlinearity

    f(u, t) = -i exp(i|D|t) ( |exp(-i|D|t) u|^2 exp(-i|D|t) u ),

whose Fourier coefficients are quadruple sums over modes (k; l, m, j) tied by
the momentum constraint k - l + m - j = 0, with the combination

    phi = |k| - |l| + |m| - |j|

acting as the oscillation frequency of each summand: the factor exp(i*t*phi)
carries the whole time dependence.  The quadruples with phi = 0 form the resonant
set; their contribution f_res(u) is time independent and drives the effective
dynamics.  The rest is the oscillatory part f_osc(u, t), whose antiderivative
in t is F_osc.

Two antiderivative conventions coexist:

  * torus: the unique zero-mean-in-t primitive, term weight exp(i*t*phi)/(i*phi);
  * line:  the primitive vanishing at t = 0, weight (exp(i*t*phi) - 1)/(i*phi).

Closed forms are provided for f_res on both geometries, for F_osc on both
geometries with Hardy input (where the phase collapses to -2*xi on output
frequency xi), and for the resonant quintic kernel
r2 = {f'(W,t).F_osc(W,t)}_res with Hardy input.  The kernels
f_res_closed_torus, f_res_closed_line and r2_closed_hardy (torus), like
require_hardy, take coefficient arrays in the -n_max..n_max layout; arrays
carry no grid, so the caller picks the form for its geometry.  F_osc and the
oracles take SpectralFields.  Every closed form has a direct-summation
brute-force oracle here, and the oracles (r2_time_average, n2_rhs) use only
the brute-force primitive.  The oracles select the resonant set by its
definition, phi = 0; the sign-pattern lemmas is_resonant_torus and
is_resonant_line, which the closed forms rest on, act on mode arrays and are
checked against that definition by the kernel audit and acceptance gate 2.

In brute-force sums the inner mode indices are confined to the grid range
|k| <= n_max, consistent with compositions through grid-truncated fields
(vacuous for Hardy inputs, where all intermediate modes are in range anyway).
Every brute-force sum runs over one cached set of the in-grid quadruples
(k; l, m, j) and their phases: a mask selects the terms and a bincount sums
them per output mode.  The sextuple sums of r2 and N2 go through the inner
phase table S[x, f], the sum of u(j) u(l) conj(u(m)) over the quadruples of
output mode x and phase f != 0: each outer quadruple meets S at its inner
index for every f, and the resonant terms are those whose total phase is 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import (
    TWO_PI,
    Domain,
    SpectralField,
    _grid_freqs,
    apply_inv_D_minus,
    cubic_product,
    free_flow,
    from_physical,
    project_minus,
    project_plus,
    szego_cubic,
    to_physical,
)

HARDY_TOL = 1e-12

# The brute-force sums hold every in-grid quadruple at once, O(n_max^3)
# entries, and the quintic ones pair each quadruple with O(n_max) inner
# phases; keep them to oracle-sized grids.
MAX_QUINTIC_N_MAX = 12
MAX_CUBIC_N_MAX = 32


def require_hardy(c: np.ndarray):
    """Reject coefficients whose negative-mode mass exceeds HARDY_TOL (relative)."""
    neg = float(np.sum(np.abs(c[: c.size // 2]) ** 2))
    if neg > HARDY_TOL * max(float(np.sum(np.abs(c) ** 2)), 1e-300):
        raise ValueError(
            f"input must be a Hardy field (negative-mode mass {neg:.3e} above tolerance)"
        )


# ---------------------------------------------------------------------------
# phase and resonant-set predicates


def phase(grid, k: int, l: int, m: int, j: int) -> float:
    """|freq(k)| - |freq(l)| + |freq(m)| - |freq(j)|."""
    return (
        abs(grid.freq(k)) - abs(grid.freq(l)) + abs(grid.freq(m)) - abs(grid.freq(j))
    )


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


def is_resonant_line(grid, k, l, m, j):
    """Resonance test for box frequencies, for mode integers or arrays
    (elementwise): all four in one (closed) sign class, or the diagonal
    cases k = l, k = j.

    Frequencies are integer multiples of 2*pi/length, so the test is exact
    integer arithmetic; no floating-point classification.
    """
    del grid  # frequencies are rational multiples of one unit; signs suffice
    _check_momentum(k, l, m, j)
    plus = (k >= 0) & (l >= 0) & (m >= 0) & (j >= 0)
    minus = (k <= 0) & (l <= 0) & (m <= 0) & (j <= 0)
    return (k == l) | (k == j) | plus | minus


# ---------------------------------------------------------------------------
# the cached quadruple set behind the kernel sums


@lru_cache(maxsize=8)
def _quadruples(n_max: int):
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
    _, L, M, J, _ = _quadruples(n)
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
    K, _, _, _, phi = _quadruples(grid.n_max)
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
# the full nonlinearity and its resonant part


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
    K, L, M, J, phi = _quadruples(grid.n_max)
    sel = phi == 0
    if sign_uniform_only:  # mode 0 counts as the + class
        sel = np.where(K >= 0, (L >= 0) & (M >= 0) & (J >= 0), (L < 0) & (M < 0) & (J < 0))
    return SpectralField(grid, -1j * _bin(K[sel] + grid.n_max, _terms(u.coeff, sel), grid.size))


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
# oscillatory part and its antiderivative


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


def F_osc(w_field: SpectralField, t: float) -> SpectralField:
    """Closed-form antiderivative of f_osc for Hardy input.

    For W supported on k >= 0 every non-resonant quadruple has output mode
    k < 0 and phase -2*xi(k), so on xi < 0

        F_osc_hat(xi) = exp(-2 i t xi) / (2 xi) * F(|W|^2 W)(xi)          (torus)
        F_osc_hat(xi) = (exp(-2 i t xi) - 1) / (2 xi) * F(|W|^2 W)(xi)    (box)

    and zero on xi >= 0.  The convention follows the grid, as in dF_osc: the
    torus primitive has zero t-mean, the box primitive vanishes at t = 0.
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


def dF_osc(u: SpectralField, t: float, h: SpectralField) -> SpectralField:
    """Directional derivative of F_osc at u in direction h.

    R-linear in h: the two holomorphic slots receive h, the conjugated slot
    receives conj(h).  Follows the grid's antiderivative convention.
    """
    if h.grid != u.grid:
        raise ValueError("direction field lives on a different grid")
    weight = _primitive_weight(t, from_zero=u.grid.domain is not Domain.TORUS)
    return SpectralField(u.grid, _osc_sum(u, weight, h))


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
# quintic resonant kernel r2 = {f'(W,t) . F_osc(W,t)}_res and the companion
# oscillatory antiderivative n2


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
    K, L, M, J, phi = _quadruples(n)
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


def r2_closed_hardy(c: np.ndarray) -> np.ndarray:
    """Closed form of the resonant quintic for Hardy input on the torus:

        r2(W) = -i P+(|W|^2 (1/D) P-(|W|^2 W))
                - (i/2) P+(W^2 conj((1/D) P-(|W|^2 W))).

    Precondition, not checked here: c is Hardy (modes k < 0 zero), as
    integrate checks the initial data and its stages stay Hardy.  On other
    data the result is not r2.
    """
    W = to_physical(c)
    cube = from_physical(np.abs(W) ** 2 * W, c.size)
    G = to_physical(apply_inv_D_minus(cube, _grid_freqs(c.size // 2, TWO_PI)))
    term1 = project_plus(from_physical(W * np.conj(W) * G, c.size))
    term2 = project_plus(from_physical(W * W * np.conj(G), c.size))
    return -1j * term1 - 0.5j * term2


def r2_time_average(w_field: SpectralField) -> SpectralField:
    """Averaging oracle: (1/R) sum_r f'(W, t_r).F_osc(W, t_r) over one period.

    All phases are integers bounded by 2*n_max (see n2_phase_coefficients),
    so R = 6*n_max + 2 > 2*n_max nodes kill every oscillatory term exactly
    and the average is the resonant part.
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
    K, _, _, _, phi = _quadruples(n)
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

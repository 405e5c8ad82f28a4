"""Spectral core: frequency grids, spectral fields, transforms, projectors.

A field is stored as complex Fourier coefficients c(k) for k = -n_max..n_max
on either the torus (length 2*pi, freq(k) = k) or a large periodic box of
length L used as a controlled discretization of the line (freq(k) = 2*pi*k/L).

The kernels (transforms, products, projectors, apply_inv_D_minus) take and
return coefficient arrays in this layout, mode k at index k + n_max.
SpectralField binds coefficients to their grid at the API boundary: initial
data, snapshots, free_flow, the norms and the invariants.

Normalization convention:

    u(x)  = sum_k c(k) exp(i * freq(k) * x)
    c(k)  = (1/length) * int u(x) exp(-i * freq(k) * x) dx

so that (1/length) * int |u|^2 dx = sum_k |c(k)|^2.  The L2 norm used
throughout the package is therefore sqrt(sum |c(k)|^2), and the quartic term
in the energy is (1/4) * (1/length) * int |u|^4 dx.

Products are evaluated pointwise on one physical grid of
next_fast_len(2*(2n_max+1)) points and truncated back to |k| <= n_max.  That
padding makes every product of up to three factors, and the quartic mean,
exact (no aliasing into retained modes), so a kernel transforms each distinct
factor once and forms its products from the samples.  The one exception is
szego_cubic, the Szego term P+(|u|^2 u) of Hardy data: its product spectrum
is [-n_max, 2n_max], so 2M >= 2n_max+1 points, M = next_fast_len(n_max+1),
alias nothing into modes 0..n_max.  It transforms the 2M points as two rows
of M, the even and the odd samples (decimation in time); the odd row's
half-sample shift exp(i pi k/M) makes the split exact.  Rows of at least
ROW_THREAD_POINTS points run their whole pipeline (ifft, cube, fft) on two
threads, one row each; shorter rows are one batch on the calling thread.

Transforms are numpy.fft's pocketfft (numpy >= 2), on the 11-smooth lengths
of next_fast_len.  The kernels call its gufuncs fft and ifft directly, the
calls that numpy.fft.fft/ifft end in, with the same scale factor fct that the
public call passes and an explicit out=: the same bits without the public
wrapper's per-call argument handling, which outweighs the transform itself at
the lengths of n_max = 32.  The gufuncs are private numpy API; a test
pins them to the public calls bit for bit at every default-plan length.
Where that module cannot be imported, fft and ifft are thin wrappers over
numpy.fft.fft/ifft that map fct (1 or 1/n) to the public norm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

try:
    # the pocketfft gufuncs behind numpy.fft.fft/ifft: (a, fct, out=) along the last axis
    from numpy.fft._pocketfft_umath import fft, ifft
except ImportError:  # a numpy without that private module: the public calls it ends in

    def fft(a, fct, out):
        return np.fft.fft(a, norm="backward" if fct == 1 else "forward", out=out)

    def ifft(a, fct, out):
        return np.fft.ifft(a, norm="forward" if fct == 1 else "backward", out=out)

TWO_PI = 2.0 * np.pi

# szego_cubic pipelines rows of at least this many points on two threads;
# below it the hand-off costs more than the second thread saves (measured)
ROW_THREAD_POINTS = 8192

MIN_N_MAX = 4


class Domain(enum.Enum):
    """Geometry of the periodic domain."""

    TORUS = "torus"
    BIGBOX = "bigbox"


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric mode grid k = -n_max..n_max with frequencies freq(k).

    The one owner of the length: on the torus it is 2*pi whatever is given,
    and freq(k) = k; the big box requires a positive length, and
    freq(k) = 2*pi*k/length.
    """

    n_max: int
    domain: Domain
    length: float | None = None

    def __post_init__(self):
        if self.n_max < MIN_N_MAX:
            raise ValueError(f"n_max must be >= {MIN_N_MAX}, got {self.n_max}")
        if self.domain is Domain.TORUS:
            object.__setattr__(self, "length", TWO_PI)
        elif self.length is None or not self.length > 0:
            raise ValueError(f"the big box requires a positive length, got length = {self.length}")

    @property
    def size(self) -> int:
        return 2 * self.n_max + 1

    @property
    def modes(self) -> np.ndarray:
        return _grid_modes(self.n_max)

    @property
    def freqs(self) -> np.ndarray:
        return _grid_freqs(self.n_max, self.length)

    @property
    def freq_unit(self) -> float:
        """Frequency of mode k=1, i.e. the mode spacing 2*pi/length."""
        return TWO_PI / self.length

    def index(self, k: int) -> int:
        """Array index of mode k (modes stored in order -n_max..n_max)."""
        if abs(k) > self.n_max:
            raise ValueError(f"mode {k} outside grid range +-{self.n_max}")
        return k + self.n_max


@lru_cache(maxsize=32)
def _grid_modes(n_max: int) -> np.ndarray:
    m = np.arange(-n_max, n_max + 1)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=32)
def _grid_freqs(n_max: int, length: float) -> np.ndarray:
    # the unit is exactly 1.0 on the torus, so freq(k) = k there
    f = np.arange(-n_max, n_max + 1) * (TWO_PI / length)
    f.setflags(write=False)
    return f


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on a FrequencyGrid.

    Immutable: the coefficient array is copied on construction and marked
    read-only, so snapshots and initial data are shared without defensive
    copies.
    """

    grid: FrequencyGrid
    coeff: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeff, dtype=np.complex128, copy=True)
        if c.shape != (self.grid.size,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({self.grid.size},)"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    def __getitem__(self, k: int) -> complex:
        """Coefficient of mode k."""
        return complex(self.coeff[self.grid.index(k)])

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeff + other.coeff)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeff - other.coeff)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeff * complex(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


def field_from_modes(grid: FrequencyGrid, amplitudes: Mapping[int, complex]) -> SpectralField:
    """Field with the given {mode: amplitude} entries, zero elsewhere."""
    c = np.zeros(grid.size, dtype=np.complex128)
    for k, a in amplitudes.items():
        c[grid.index(k)] = a
    return SpectralField(grid, c)


def random_field(
    grid: FrequencyGrid,
    rng: np.random.Generator,
    decay: float = 1.0,
    hardy: bool = False,
) -> SpectralField:
    """Seeded random field with |c(k)| ~ (1+|k|)^-decay; optionally Hardy."""
    modes = grid.modes
    mag = (1.0 + np.abs(modes)) ** (-decay)
    z = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    c = mag * z
    if hardy:
        c[modes < 0] = 0.0
    return SpectralField(grid, c)


# ---------------------------------------------------------------------------
# transforms (coefficient arrays in the -n_max..n_max layout)


@lru_cache(maxsize=64)
def next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: the lengths pocketfft transforms fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@lru_cache(maxsize=32)
def _mode_index(size: int, n_pts: int) -> np.ndarray:
    """Positions of modes -n_max..n_max (size = 2n_max+1) in an n_pts-point spectrum."""
    idx = _grid_modes(size // 2) % n_pts
    idx.setflags(write=False)
    return idx


def to_physical(c: np.ndarray) -> np.ndarray:
    """Samples u(x_j) on an equispaced grid of next_fast_len(2*(2n+1)) points."""
    n_pts = next_fast_len(2 * c.size)
    spec = np.zeros(n_pts, dtype=np.complex128)
    spec[_mode_index(c.size, n_pts)] = c
    ifft(spec, 1.0 / n_pts, out=spec)
    spec *= n_pts
    return spec


def from_physical(samples: np.ndarray, size: int) -> np.ndarray:
    """Inverse of to_physical onto `size` modes; truncation to |k| <= n_max
    is the dealiasing."""
    return _truncate(fft(samples, 1, out=np.empty(samples.shape, np.complex128)), size)


def _truncate(spec: np.ndarray, size: int) -> np.ndarray:
    """Normalized coefficients of modes -n_max..n_max of an unnormalized spectrum."""
    out = spec[_mode_index(size, spec.size)]
    out /= spec.size
    return out


def cubic_product(c: np.ndarray) -> np.ndarray:
    """Dealiased |u|^2 u, evaluated pointwise on the padded physical grid."""
    u = to_physical(c)
    sq = np.abs(u)
    sq *= sq
    u *= sq
    return _truncate(fft(u, 1, out=u), c.size)


@lru_cache(maxsize=32)
def _odd_twiddle(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """w(k) = exp(i pi k/M) and conj(w(k)) for k = 0..n_max, M =
    next_fast_len(n_max+1): the half-sample shift of the odd grid points."""
    w = np.exp(1j * np.pi / next_fast_len(n_max + 1) * np.arange(n_max + 1))
    w_conj = np.conj(w)
    w.setflags(write=False)
    w_conj.setflags(write=False)
    return w, w_conj


@lru_cache(maxsize=1)
def _row_thread():
    """The one worker thread that pipelines szego_cubic's odd row; imported
    and started on first use, so short runs never pay for it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="szego-row")


def _cube_rows(u: np.ndarray) -> None:
    """In place, per row along the last axis: the spectra (norm "forward") of
    |v|^2 v, where v holds the samples whose spectra u holds."""
    ifft(u, 1, out=u)
    sq = np.abs(u)
    sq *= sq
    u *= sq
    fft(u, 1.0 / u.shape[-1], out=u)


def szego_cubic(coeff: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """Coefficients of factor * P+(|P+u|^2 P+u) in the -n_max..n_max layout.

    Reads only modes 0..n_max.  For Hardy u the product spectrum is
    [-n_max, 2n_max], so 2M >= 2n_max+1 points, M = next_fast_len(n_max+1),
    alias nothing into 0..n_max: about half the general padding.  The 2M
    points are transformed as their even and odd samples, two rows of M
    (decimation in time): row 0 holds c(k) and row 1 holds w(k) c(k),
    w(k) = exp(i pi k/M), so the rows' iffts sample u at x_2m and x_2m+1.
    The cube is formed in place, the rows' ffts return their spectra G_0 and
    G_1, and the 2M-point coefficient is (G_0(k) + conj(w(k)) G_1(k))/2
    (exact, as n_max < M), times factor.  Once M >= ROW_THREAD_POINTS, row 0's
    whole pipeline runs on the calling thread while row 1's runs on one worker
    thread; shorter rows are one (2, M) batch on the calling thread.  Both
    give the same bits.
    """
    n = coeff.size // 2
    w, w_conj = _odd_twiddle(n)
    rows = np.zeros((2, next_fast_len(n + 1)), dtype=np.complex128)
    rows[0, : n + 1] = coeff[n:]
    np.multiply(coeff[n:], w, out=rows[1, : n + 1])
    if rows.shape[1] >= ROW_THREAD_POINTS:
        odd = _row_thread().submit(_cube_rows, rows[1])
        _cube_rows(rows[0])
        odd.result()
    else:
        _cube_rows(rows)
    out = np.zeros(coeff.size, dtype=np.complex128)
    half = out[n:]
    np.multiply(rows[1, : n + 1], w_conj, out=half)
    half += rows[0, : n + 1]
    half *= 0.5 * factor
    return out


# ---------------------------------------------------------------------------
# projectors and multipliers


def project_plus(c: np.ndarray) -> np.ndarray:
    """Szego projector: keep modes with freq(k) >= 0 (k = 0 included)."""
    out = c.copy()
    out[: c.size // 2] = 0.0
    return out


def project_minus(c: np.ndarray) -> np.ndarray:
    """Complement of project_plus; project_plus(c) + project_minus(c) = c."""
    out = c.copy()
    out[c.size // 2 :] = 0.0
    return out


def apply_inv_D_minus(c: np.ndarray) -> np.ndarray:
    """(1/D) Pi_- on the torus: divide by k for k <= -1, zero for k >= 0.

    Never singular: mode 0 belongs to Pi_+.
    """
    n = c.size // 2
    out = np.zeros_like(c)
    out[:n] = c[:n] / _grid_modes(n)[:n]
    return out


def free_flow(f: SpectralField, t: float) -> SpectralField:
    """Propagator exp(-i|D|t): multiply c(k) by exp(-i |freq(k)| t)."""
    return SpectralField(f.grid, np.exp(-1j * np.abs(f.grid.freqs) * t) * f.coeff)


# ---------------------------------------------------------------------------
# norms and conserved quantities


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: ( sum (1 + freq^2)^s |c(k)|^2 )^(1/2), s >= 0."""
    if s < 0:
        raise ValueError("sobolev_norm requires s >= 0")
    w = (1.0 + f.grid.freqs**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeff) ** 2)))


def check_norm_index(s: float) -> None:
    """Reject a norm index s < 1/2; the data's H^s bound rejects overflowing weights."""
    if not s >= 0.5:
        raise ValueError(f"diagnostic norm index s = {s:g} must be >= 1/2")


def negative_mode_mass(f: SpectralField) -> float:
    """Squared L2 mass carried by modes k < 0 (Hardy defect)."""
    return float(np.sum(np.abs(f.coeff[f.grid.modes < 0]) ** 2))


def quartic_mean(f: SpectralField) -> float:
    """(1/length) * int |u|^4 dx, exact on the padded grid."""
    u = to_physical(f.coeff)
    with np.errstate(over="ignore"):  # blown-up states evaluate to inf
        return float(np.mean(np.abs(u) ** 4))


def mass(f: SpectralField) -> float:
    """Q = sum |c(k)|^2."""
    return float(np.sum(np.abs(f.coeff) ** 2))


def momentum(f: SpectralField) -> float:
    """M = sum freq(k) |c(k)|^2."""
    return float(np.sum(f.grid.freqs * np.abs(f.coeff) ** 2))


def energy(f: SpectralField) -> float:
    """E = (1/2) sum |freq(k)| |c(k)|^2 + (1/4) (1/length) int |u|^4 dx."""
    kinetic = 0.5 * float(np.sum(np.abs(f.grid.freqs) * np.abs(f.coeff) ** 2))
    return kinetic + 0.25 * quartic_mean(f)

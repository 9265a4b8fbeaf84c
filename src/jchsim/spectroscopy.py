"""Two-time correlations and absorption spectra of the lossy cavity lattice.

The two-point function <a(tau) a^dag(0)>_ss is propagated with the same
generator as single-time averages (quantum regression), and its half-line
Fourier integral is the resolvent of that generator applied to a^dag rho_ss
(Carmichael, Statistical Methods in Quantum Optics 1 (Springer, 1999)),

    S(omega) = 2 Re Tr[ a (-L - i omega)^{-1} (a^dag rho_ss - rho_ss <a^dag>) ],

one linear solve per frequency on the closure block of a^dag rho_ss.  It
needs no eigenbasis, so it stays exact where the generator is defective (an
exceptional point, |kappa - gamma| = 4g at resonance), and no windowing or
truncation of a sampled correlation tail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .hamiltonians import SystemParams
from .hilbert import Operator
from .lindblad import ZERO_MODE_TOL, Liouvillian, vectorize

STATIONARITY_TOL = 1e-6
DECAY_TOL = -1e-10
# no spectrum reads it, but perfbench's tracer weighs modes with it until it is retargeted
AMPLITUDE_FLOOR = 1e-12
# fraction of the global maximum below which find_peaks ignores a local maximum
PEAK_FLOOR = 0.01


@dataclass(frozen=True)
class Spectrum:
    """Absorption spectrum on a frequency grid (units of g).  The engine's spectra
    and the closed form are on offsets omega - omega_c from the cavity frequency."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freqs.ndim != 1 or freqs.shape != vals.shape:
            raise ValueError("frequency and value grids must be matching 1d arrays")
        if len(freqs) < 3:
            raise ValueError(f"need at least three grid points, got {len(freqs)}")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if vals.min() < -1e-6:
            raise NumericalError(f"spectrum dips to {vals.min():.3e} below the numerical floor")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)


def _cavity_modes(params: SystemParams) -> np.ndarray:
    """Offsets from omega_c of the cavity normal modes in which one excitation
    on site 0 is shared: 0 on one cavity, the antisymmetric and symmetric
    modes -J and +J on two."""
    if params.n_cavities == 2:
        return np.array([-1.0, 1.0]) * params.hopping
    return np.array([0.0])


def default_frequency_grid(params: SystemParams, n_points: int = 2001) -> np.ndarray:
    """Absolute grid centred on the cavity frequency, omega_c +- (4g + 2 max|c|)
    over the cavity normal modes c of :func:`_cavity_modes` (0 on one cavity,
    +-J on two), widened where needed so that every one-excitation level lies
    at least 2g inside.  Measured from omega_c, those levels are the doublet
    (c + delta)/2 +- sqrt((delta - c)^2/4 + g^2) of each c.  Spectra are
    evaluated on ``grid - omega_c``, which is exact while the half-width stays
    below omega_c / 2 (Sterbenz)."""
    cavities = _cavity_modes(params)
    half_width = 4.0 * params.g + 2.0 * float(np.abs(cavities).max())
    split = np.hypot((params.delta - cavities) / 2.0, params.g)
    reach = np.abs((cavities + params.delta) / 2.0) + split
    half_width = max(half_width, float(reach.max()) + 2.0 * params.g)
    return np.linspace(params.omega_c - half_width, params.omega_c + half_width, n_points)


def absorption_spectrum(liouv: Liouvillian, rho_ss: Operator, a_op: Operator,
                        freq_grid) -> Spectrum:
    """Absorption spectrum from the exact half-line Fourier integral, on the grid
    of offsets omega - omega_c in which the generator is built.

    On the closure block L_S of f0 = a^dag rho_ss, a set no entry of the
    generator leaves, every frequency solves (-L_S + vec(rho_ss) tr^T - i omega) y
    = f0 - rho_ss Tr f0 in one batched solve, and S = 2 Re Tr[a y].  The right
    side is traceless, so y is too and the rank-one term, which moves the zero
    mode to 1 - i omega, keeps the system nonsingular at omega = 0 without
    changing y: the stationary part <a><a^dag> is left out.  The correlation
    must decay: every mode of L_S off zero has Re(lambda) < ``DECAY_TOL``."""
    if liouv.dims != rho_ss.dims or a_op.dims != rho_ss.dims:
        raise DimensionMismatchError("Liouvillian, state and operator dims differ")
    rho = vectorize(rho_ss.data)
    index = liouv._closure(rho != 0)  # no entry of the generator leaves it
    residual = float(np.max(np.abs(liouv._block(index) @ rho[index])))
    if residual >= STATIONARITY_TOL:
        raise NumericalError(
            f"absorption_spectrum: state is not stationary (|L[rho]| = {residual:.3e})"
        )
    f0 = vectorize(a_op.dag().data @ rho_ss.data)
    index = liouv._closure(f0 != 0)
    block = liouv._block(index)
    lam = np.linalg.eigvals(block)
    bad = (np.abs(lam) >= ZERO_MODE_TOL) & (lam.real >= DECAY_TOL)
    if np.any(bad):
        worst = lam[bad][np.argmax(lam[bad].real)]
        raise NumericalError(
            "correlation does not decay: mode with "
            f"Re(lambda) = {worst.real:.3e} (generator must be dissipative)"
        )
    trace_row = (index % (liouv.dims.total_dim + 1) == 0).astype(float)  # Tr M = tr . vec(M)
    stationary = rho[index]
    omega = np.asarray(freq_grid, dtype=float)
    system = np.outer(stationary, trace_row) - block - 1j * omega[:, None, None] * np.eye(len(index))
    y = np.linalg.solve(system, (f0[index] - stationary * (trace_row @ f0[index]))[:, None])
    # Tr[a M] = vec(a^T) . vec(M) in the row-stacked convention
    values = 2.0 * (y[..., 0] @ vectorize(a_op.data.T)[index]).real
    return Spectrum(omega, values)


def absorption_spectrum_analytic(params: SystemParams, freq_grid) -> Spectrum:
    """Exact site-0 spectrum of the weakly excited one or two cavities at any
    decay rates, on the grid of offsets nu = omega - omega_c.

    From the vacuum, a^dag reaches only the one-excitation states, where the
    correlation evolves under the no-jump Hamiltonian.  On two cavities these
    split into the normal modes c = -J and +J of :func:`_cavity_modes`, each
    holding half of site 0's photon, and the local losses stay diagonal there.
    So S is the mean over c of the one-cavity resolvent 2 Re[z_a / (z_c z_a + g^2)]
    with z_c = kappa/2 - i(nu - c) and z_a = gamma/2 - i(nu - delta)
    (Carmichael et al., PRA 40, 5516 (1989); Carmichael, Brecha & Rice,
    Opt. Commun. 82, 73 (1991)).
    """
    nu = np.asarray(freq_grid, dtype=float)
    z_c = 0.5 * params.cavity_decay - 1j * (nu - _cavity_modes(params)[:, None])
    z_a = 0.5 * params.atom_decay - 1j * (nu - params.delta)
    return Spectrum(nu, (2.0 * (z_a / (z_c * z_a + params.g**2)).real).mean(axis=0))


def local_maxima(y) -> list:
    """Interior indices i with y[i-1] <= y[i] > y[i+1]."""
    y = np.asarray(y, dtype=float)
    mid = y[1:-1]
    return (np.flatnonzero((mid >= y[:-2]) & (mid > y[2:])) + 1).tolist()


def parabolic_refine(x, y, idx):
    """Vertices (positions, heights) of the parabolas through three samples
    around each interior local maximum in ``idx`` of a uniform grid.

    At such a maximum the vertex lies within half a grid step of x[i] and
    is no lower than y[i]; a flat top returns the sample itself.
    """
    x, y, i = np.asarray(x), np.asarray(y), np.asarray(idx, dtype=np.intp)
    left, top, right = y[i - 1], y[i], y[i + 1]
    denom = left - 2.0 * top + right
    flat = denom >= -1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * (left - right) / denom
    step = 0.5 * (x[i + 1] - x[i - 1])
    pos = np.where(flat, x[i], x[i] + shift * step)
    height = np.where(flat, top, top - 0.25 * (left - right) * shift)
    return pos, height


def _half_height_width(x: np.ndarray, y: np.ndarray, i: int, height: float) -> float:
    half = height / 2.0
    left = x[0]
    for j in range(i, 0, -1):
        if y[j - 1] <= half <= y[j]:
            frac = (y[j] - half) / (y[j] - y[j - 1])
            left = x[j] - frac * (x[j] - x[j - 1])
            break
    right = x[-1]
    for j in range(i, len(x) - 1):
        if y[j + 1] <= half <= y[j]:
            frac = (y[j] - half) / (y[j] - y[j + 1])
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    return float(right - left)


def find_peaks(spectrum: Spectrum) -> dict:
    """Local maxima above ``PEAK_FLOOR`` times the global maximum, with FWHM.

    Returns the arrays ``positions``, ``heights`` and ``widths`` on the
    spectrum's grid, ordered by increasing frequency, and the float
    ``asymmetry``, which compares the two tallest peaks A (lower frequency)
    and B: |h_A - h_B| / (h_A + h_B), 0 for a single peak.  Positions are
    refined by parabolic interpolation; widths come from linear interpolation
    of the half-height crossings.
    """
    x, y = spectrum.frequencies, spectrum.values
    floor = PEAK_FLOOR * y.max()
    idx = [i for i in local_maxima(y) if y[i] >= floor]
    if not idx:
        raise NumericalError("find_peaks: no peaks above threshold")
    positions, heights = parabolic_refine(x, y, idx)
    widths = np.array([_half_height_width(x, y, i, h) for i, h in zip(idx, heights)])
    order = np.argsort(positions)
    positions, heights, widths = positions[order], heights[order], widths[order]
    if len(positions) >= 2:
        tallest = np.argsort(heights)[-2:]
        a_idx, b_idx = sorted(tallest, key=lambda k: positions[k])
        h_a, h_b = heights[a_idx], heights[b_idx]
        asymmetry = abs(h_a - h_b) / (h_a + h_b)
    else:
        asymmetry = 0.0
    return {"positions": positions, "heights": heights, "widths": widths,
            "asymmetry": float(asymmetry)}

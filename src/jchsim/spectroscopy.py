"""Two-time correlations and absorption spectra of the lossy cavity lattice.

The two-point function is propagated with the same generator as single-time
averages (quantum regression); the half-line Fourier integral of the spectrum
is evaluated in closed form from the Liouvillian spectral decomposition,

    S(omega) = sum_k 2 Re[ d_k / (-lambda_k - i omega) ],

which avoids any windowing or truncation of a sampled correlation tail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .hamiltonians import SystemParams
from .hilbert import DensityMatrix, Operator
from .lindblad import ZERO_MODE_TOL, Liouvillian, vectorize

STATIONARITY_TOL = 1e-6
DECAY_TOL = -1e-10
AMPLITUDE_FLOOR = 1e-12
# fraction of the global maximum below which find_peaks ignores a local maximum
PEAK_FLOOR = 0.01


@dataclass(frozen=True)
class Spectrum:
    """Absorption spectrum on an absolute frequency grid (units of g)."""

    frequencies: np.ndarray
    values: np.ndarray
    params: SystemParams | None = None

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freqs.ndim != 1 or freqs.shape != vals.shape:
            raise ValueError("frequency and value grids must be matching 1d arrays")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if vals.min() < -1e-6:
            raise NumericalError(f"spectrum dips to {vals.min():.3e} below the numerical floor")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PeakReport:
    """Detected spectral peaks, ordered by increasing frequency.

    ``asymmetry`` compares the two tallest peaks A (lower frequency) and B:
    |h_A - h_B| / (h_A + h_B).
    """

    positions: np.ndarray
    heights: np.ndarray
    widths: np.ndarray
    asymmetry: float


def default_frequency_grid(params: SystemParams, n_points: int = 2001) -> np.ndarray:
    """Grid centred on the cavity frequency, omega_c +- (4g + 2|J|), widened
    where needed so that every one-excitation level lies at least 2g inside.
    Those levels are the doublet (c + omega_a)/2 +- sqrt((omega_a - c)^2/4 + g^2)
    of each cavity mode c: omega_c, or on two cavities the normal modes
    omega_c +- J."""
    half_width = 4.0 * params.g
    cavities = np.array([params.omega_c])
    if params.n_cavities == 2:
        half_width += 2.0 * abs(params.hopping)
        cavities = params.omega_c + np.array([-1.0, 1.0]) * params.hopping
    split = np.hypot((params.omega_a - cavities) / 2.0, params.g)
    reach = np.abs((cavities + params.omega_a) / 2.0 - params.omega_c) + split
    half_width = max(half_width, float(reach.max()) + 2.0 * params.g)
    return np.linspace(params.omega_c - half_width, params.omega_c + half_width, n_points)


def _decaying_modes(liouv: Liouvillian, rho_ss: DensityMatrix, a_op: Operator):
    """Eigenvalues and weights of the decaying part of <a(tau) a^dag(0)>_ss."""
    if liouv.dims != rho_ss.dims or a_op.dims != rho_ss.dims:
        raise DimensionMismatchError("Liouvillian, state and operator dims differ")
    residual = float(np.max(np.abs(liouv.apply(rho_ss.data))))
    if residual >= STATIONARITY_TOL:
        raise NumericalError(
            f"absorption_spectrum: state is not stationary (|L[rho]| = {residual:.3e})"
        )
    f0 = a_op.dag().data @ rho_ss.data
    modes = liouv.modes(f0)
    coeff = modes.coefficients(f0)
    # Tr[a M] = vec(a^T) . vec(M) in the row-stacked convention
    trace_row = vectorize(a_op.data.T)[modes.index]
    weights = (trace_row @ modes.right) * coeff
    lam = modes.eigenvalues

    is_zero = np.abs(lam) < ZERO_MODE_TOL
    scale = max(float(np.abs(weights).max()), 1e-300)
    contributing = (~is_zero) & (np.abs(weights) > AMPLITUDE_FLOOR * max(scale, 1.0))
    bad = contributing & (lam.real >= DECAY_TOL)
    if np.any(bad):
        worst = lam[bad][np.argmax(lam[bad].real)]
        raise NumericalError(
            "correlation does not decay: contributing mode with "
            f"Re(lambda) = {worst.real:.3e} (generator must be dissipative)"
        )
    return lam[contributing], weights[contributing]


def absorption_spectrum(
    liouv: Liouvillian,
    rho_ss: DensityMatrix,
    a_op: Operator,
    freq_grid,
    params: SystemParams | None = None,
) -> Spectrum:
    """Absorption spectrum from the exact half-line Fourier integral."""
    lam, weights = _decaying_modes(liouv, rho_ss, a_op)
    omega = np.asarray(freq_grid, dtype=float)
    denom = -lam[None, :] - 1j * omega[:, None]
    values = 2.0 * (weights[None, :] / denom).real.sum(axis=1)
    return Spectrum(omega, values, params)


def absorption_spectrum_analytic(params: SystemParams, freq_grid=None) -> Spectrum:
    """Exact spectrum of the weakly excited single cavity at any decay rates.

    From the vacuum, a^dag reaches only the one-excitation states, where the
    correlation evolves under the 2x2 no-jump Hamiltonian; its resolvent gives
    S(omega) = 2 Re[z_a / (z_c z_a + g^2)] with z_c = kappa/2 - i(omega - omega_c)
    and z_a = gamma/2 - i(omega - omega_a) (Carmichael et al., PRA 40, 5516 (1989)).
    """
    if params.n_cavities != 1:
        raise DimensionMismatchError("the closed form covers a single cavity")
    omega = np.asarray(
        default_frequency_grid(params) if freq_grid is None else freq_grid, dtype=float
    )
    z_c = 0.5 * params.cavity_decay - 1j * (omega - params.omega_c)
    z_a = 0.5 * params.atom_decay - 1j * (omega - params.omega_a)
    return Spectrum(omega, 2.0 * (z_a / (z_c * z_a + params.g**2)).real, params)


def local_maxima(y) -> list:
    """Interior indices i with y[i-1] <= y[i] > y[i+1]."""
    y = np.asarray(y, dtype=float)
    mid = y[1:-1]
    return (np.flatnonzero((mid >= y[:-2]) & (mid > y[2:])) + 1).tolist()


def parabolic_refine(x, y, i: int):
    """Vertex (position, height) of the parabola through three samples
    around the interior local maximum ``i`` of a uniform grid.

    At such a maximum the vertex lies within half a grid step of x[i] and
    is no lower than y[i]; a flat top returns the sample itself.
    """
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= -1e-300:
        return float(x[i]), float(y[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    step = 0.5 * (x[i + 1] - x[i - 1])
    pos = x[i] + shift * step
    height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
    return float(pos), float(height)


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


def find_peaks(spectrum: Spectrum) -> PeakReport:
    """Local maxima above ``PEAK_FLOOR`` times the global maximum, with FWHM.

    Positions are refined by parabolic interpolation; widths come from
    linear interpolation of the half-height crossings.
    """
    x, y = spectrum.frequencies, spectrum.values
    if len(x) < 3:
        raise ValueError("need at least three grid points to find peaks")
    floor = PEAK_FLOOR * y.max()
    idx = [i for i in local_maxima(y) if y[i] >= floor]
    if not idx:
        raise NumericalError("find_peaks: no peaks above threshold")
    refined = [parabolic_refine(x, y, i) for i in idx]
    positions = np.array([p for p, _ in refined])
    heights = np.array([h for _, h in refined])
    widths = np.array([_half_height_width(x, y, i, h) for i, (_, h) in zip(idx, refined)])
    order = np.argsort(positions)
    positions, heights, widths = positions[order], heights[order], widths[order]
    if len(positions) >= 2:
        tallest = np.argsort(heights)[-2:]
        a_idx, b_idx = sorted(tallest, key=lambda k: positions[k])
        h_a, h_b = heights[a_idx], heights[b_idx]
        asymmetry = abs(h_a - h_b) / (h_a + h_b)
    else:
        asymmetry = 0.0
    return PeakReport(positions, heights, widths, float(asymmetry))

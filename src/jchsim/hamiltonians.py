"""Hamiltonian builders for the one- and two-site Jaynes-Cummings lattice.

Everything is expressed in units of the atom-field coupling (g = 1 by
default) with hbar = 1.  Builders return immutable :class:`Operator` objects
and are pure functions of :class:`SystemParams`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import (
    HilbertDims,
    Operator,
    annihilation_at,
    fock_annihilation,
    atomic_lowering,
    lowering_at,
    sum_over_sites,
)

DRIVE_FRAME_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and frequencies of the (driven, lossy) JC lattice.

    Frequencies and rates are in units of the coupling ``g``.  ``delta`` is
    the atom-cavity detuning; the drive detunings are measured from the
    atomic drive (``atom_drive_detuning``) and the cavity drive
    (``cavity_drive_detuning``).  The cavity field decays at ``cavity_decay``
    and the atom at ``atom_decay``.
    """

    g: float = 1.0
    delta: float = 0.0
    omega_c: float = 100.0
    hopping: float = 0.0
    cavity_decay: float = 0.0
    atom_decay: float = 0.0
    atom_drive: float = 0.0
    cavity_drive: float = 0.0
    atom_drive_detuning: float = 0.0
    cavity_drive_detuning: float = 0.0
    n_fock: int = 4
    n_cavities: int = 1

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.cavity_decay < 0 or self.atom_decay < 0:
            raise ValueError("decay rates must be non-negative")
        HilbertDims(self.n_fock, self.n_cavities)  # validates truncation

    @property
    def omega_a(self) -> float:
        return self.omega_c + self.delta

    @property
    def drive_frame_mismatch(self) -> float:
        """Frequency difference of the two drive frames (zero when co-rotating)."""
        return self.atom_drive_detuning - self.delta - self.cavity_drive_detuning

    @property
    def dims(self) -> HilbertDims:
        return HilbertDims(self.n_fock, self.n_cavities)

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def build_jc(params: SystemParams) -> Operator:
    """Bare Jaynes-Cummings Hamiltonian, summed over identical sites."""
    dims = params.dims
    a_site = fock_annihilation(dims)
    sm_site = atomic_lowering(dims)
    local = (
        params.omega_a * (sm_site.dag() @ sm_site)
        + params.omega_c * (a_site.dag() @ a_site)
        + params.g * (a_site.dag() @ sm_site + sm_site.dag() @ a_site)
    )
    return sum_over_sites(local, dims)


def build_hopping(params: SystemParams) -> Operator:
    """Photon hopping between the two neighbouring cavities."""
    dims = params.dims
    if dims.n_cavities != 2:
        raise DimensionMismatchError("hopping requires two cavities")
    a0 = annihilation_at(dims, 0)
    a1 = annihilation_at(dims, 1)
    j = params.hopping
    return j * (a0.dag() @ a1) + j * (a1.dag() @ a0)


def build_jch(params: SystemParams) -> Operator:
    """Full lattice Hamiltonian: JC on each site plus hopping."""
    h = build_jc(params)
    if params.dims.n_cavities == 2:
        h = h + build_hopping(params)
    return h


def _jch_over_detunings(params: SystemParams, h: np.ndarray, idx, deltas, hoppings) -> np.ndarray:
    """(K, m, m) blocks ``build_jch(params.with_(delta=d_k, hopping=J_k)).data[np.ix_(idx, idx)]``
    bit for bit, from ``h`` built at unit hopping.  A hopping entry changes both site labels,
    a JC entry one: it is J_k times its value in ``h``.  The diagonal is written in the order
    of :func:`build_jc`: per site omega_a sigma^+ sigma^- + omega_c a^dag a, then site sums."""
    a, sm = fock_annihilation(params.dims), atomic_lowering(params.dims)
    excited, photons = (sm.dag() @ sm).data.diagonal(), (a.dag() @ a).data.diagonal()
    omega_a = params.omega_c + np.asarray(deltas, dtype=float)
    local = excited * omega_a[:, None].astype(complex) + photons * complex(params.omega_c)
    diagonal = local
    for _ in range(1, params.n_cavities):
        diagonal = (diagonal[:, :, None] + local[:, None, :]).reshape(len(local), -1)
    moved = np.all([x[:, None] != x for x in np.divmod(idx, params.dims.site_dim)], axis=0)
    out = h[np.ix_(idx, idx)] * np.where(moved, np.reshape(hoppings, (-1, 1, 1)), 1.0)
    out[:, np.arange(len(idx)), np.arange(len(idx))] = diagonal[:, idx]
    return out


def _require_corotating(params: SystemParams):
    if abs(params.drive_frame_mismatch) > DRIVE_FRAME_TOL:
        raise ValueError(
            "drive frames rotate at different rates "
            f"(mismatch {params.drive_frame_mismatch:.3e}); the time-independent "
            "driven Hamiltonian requires atom_drive_detuning = delta + cavity_drive_detuning"
        )


def build_driven(params: SystemParams) -> Operator:
    """Driven single cavity in the co-rotating drive frame (time independent)."""
    if params.n_cavities != 1:
        raise DimensionMismatchError("the driven builder covers a single cavity")
    _require_corotating(params)
    a = fock_annihilation(params.dims)
    sm = atomic_lowering(params.dims)
    return (
        params.atom_drive_detuning * (sm.dag() @ sm)
        + params.cavity_drive_detuning * (a.dag() @ a)
        + params.g * (a.dag() @ sm + sm.dag() @ a)
        + 1j * params.atom_drive * (sm.dag() - sm)
        + 1j * params.cavity_drive * (a.dag() - a)
    )


def rabi_frequency(params: SystemParams):
    """Effective interchange Rabi frequency under strong, far-detuned atomic drive.

    Returns ``(frequency, period)``.  Valid in the regime where the drive and
    its detuning dominate the coupling; outside it the formula is only an
    estimate.
    """
    if params.cavity_drive_detuning == 0:
        raise ValueError("cavity drive detuning must be nonzero for the Rabi estimate")
    shift = params.atom_drive**2 / params.cavity_drive_detuning
    omega_r = 2.0 * math.sqrt(params.g**2 + shift**2)
    return omega_r, 2.0 * math.pi / omega_r


def stroboscopic_generator(params: SystemParams, m: int = 0) -> Operator:
    """Branch-rotation generator of the stroboscopic detuning protocol.

    With the detuning ramp locked to delta(t) * t = pi (2m + 1) / 2 the JC
    interaction reduces to this time-independent generator; the sign is fixed
    so that for even m

        exp(-i V t) |n-> = cos(g t sqrt(n)) |n-> - sin(g t sqrt(n)) |n+>.

    For two cavities the per-site generators are summed.
    """
    if not isinstance(m, (int, np.integer)):
        raise ValueError("mode index m must be an integer")
    dims = params.dims
    a = fock_annihilation(dims)
    sm = atomic_lowering(dims)
    local = ((-1) ** m * 1j * params.g) * (a.dag() @ sm - sm.dag() @ a)
    return sum_over_sites(local, dims)


def decay_channels(params: SystemParams):
    """Per-site photon and atom loss channels as (jump, rate) pairs."""
    dims = params.dims
    channels = []
    for j in range(dims.n_cavities):
        if params.cavity_decay > 0:
            channels.append((annihilation_at(dims, j), params.cavity_decay))
        if params.atom_decay > 0:
            channels.append((lowering_at(dims, j), params.atom_decay))
    return channels

"""Truncated Fock/qubit operator algebra on one or two cavity sites.

Basis conventions, fixed once for the whole package:

* each site carries a photon mode truncated at ``n_fock`` and one two-level
  atom; the site basis is ``|photon, atom>`` ordered lexicographically with
  the photon index major: ``|0,g>, |0,e>, |1,g>, |1,e>, ...``;
* for two sites, site 0 is the leftmost (slowest varying) tensor factor.

All carriers are immutable after construction (their arrays write-locked) and
every function here is pure, so operators and states can be shared freely
between threads, and each builder that reads only dims caches what it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import DimensionMismatchError

ATOM_G = 0
ATOM_E = 1

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = -1e-8
NORM_TOL = 1e-10


@dataclass(frozen=True)
class HilbertDims:
    """Photon cutoff and cavity count defining the truncated Hilbert space."""

    n_fock: int
    n_cavities: int = 1

    def __post_init__(self):
        if self.n_fock < 2:
            raise ValueError(
                "n_fock must be >= 2 so the two-excitation manifold exists"
            )
        if self.n_cavities not in (1, 2):
            raise ValueError("only one or two cavities are supported")

    @property
    def photon_dim(self) -> int:
        return self.n_fock + 1

    @property
    def site_dim(self) -> int:
        return 2 * (self.n_fock + 1)

    @property
    def total_dim(self) -> int:
        return self.site_dim**self.n_cavities

    def site(self) -> "HilbertDims":
        """Dims of a single site of this space."""
        return HilbertDims(self.n_fock, 1)

    def site_index(self, photon: int, atom: int) -> int:
        """Index of the bare site state |photon, atom>."""
        if not 0 <= photon <= self.n_fock:
            raise ValueError(f"photon index {photon} outside cutoff {self.n_fock}")
        if atom not in (ATOM_G, ATOM_E):
            raise ValueError("atom index must be 0 (ground) or 1 (excited)")
        return 2 * photon + atom


def _locked(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _check_same_dims(a, b):
    if a.dims != b.dims:
        raise DimensionMismatchError(f"dims differ: {a.dims} vs {b.dims}")


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix together with its Hilbert-space dims."""

    dims: HilbertDims
    data: np.ndarray

    def __post_init__(self):
        data = _locked(self.data)
        d = self.dims.total_dim
        if data.shape != (d, d):
            raise DimensionMismatchError(
                f"operator shape {data.shape} does not match total_dim {d}"
            )
        object.__setattr__(self, "data", data)

    def dag(self) -> "Operator":
        return Operator(self.dims, self.data.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_dims(self, other)
        return Operator(self.dims, self.data @ other.data)

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_dims(self, other)
        return Operator(self.dims, self.data + other.data)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_dims(self, other)
        return Operator(self.dims, self.data - other.data)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.dims, self.data * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Ket:
    """Pure state vector with unit norm."""

    dims: HilbertDims
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _locked(self.amplitudes).reshape(-1)
        if amps.shape != (self.dims.total_dim,):
            raise DimensionMismatchError(
                f"ket length {amps.shape} does not match total_dim {self.dims.total_dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("ket is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dims, rho)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state matrix."""

    dims: HilbertDims
    data: np.ndarray

    def __post_init__(self):
        data = _locked(self.data)
        d = self.dims.total_dim
        if data.shape != (d, d):
            raise DimensionMismatchError(
                f"density matrix shape {data.shape} does not match total_dim {d}"
            )
        object.__setattr__(self, "data", data)

    def validate(self):
        """Raise if the state violates Hermiticity, trace or positivity."""
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (residual {herm:.2e})")
        tr = np.trace(self.data)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        lowest = float(np.linalg.eigvalsh((self.data + self.data.conj().T) / 2).min())
        if lowest < POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.2e}")
        return self


@cache
def fock_annihilation(dims: HilbertDims) -> Operator:
    """Photon lowering operator on a single site: <n-1|a|n> = sqrt(n).

    Acts as the identity on the atomic factor; returns a site-level operator
    (use :func:`embed_site` to place it in a multi-cavity space).
    """
    site = dims.site()
    a_phot = np.diag(np.sqrt(np.arange(1, site.photon_dim)), k=1).astype(complex)
    return Operator(site, np.kron(a_phot, np.eye(2, dtype=complex)))


@cache
def atomic_lowering(dims: HilbertDims) -> Operator:
    """Atomic lowering |g><e| on a single site, identity on the photon factor."""
    site = dims.site()
    sigma_m = np.array([[0, 1], [0, 0]], dtype=complex)
    return Operator(site, np.kron(np.eye(site.photon_dim, dtype=complex), sigma_m))


def embed_site(op: Operator, site_index: int, dims: HilbertDims) -> Operator:
    """Embed a site-level operator at ``site_index`` of the full space.

    Site 0 is the leftmost (slowest varying) tensor factor.
    """
    if not 0 <= site_index < dims.n_cavities:
        raise DimensionMismatchError(
            f"site index {site_index} out of range for {dims.n_cavities} cavities"
        )
    if op.dims.site_dim != dims.site_dim:
        raise DimensionMismatchError("operator does not act on one site of dims")
    factors = [np.eye(dims.site_dim, dtype=complex)] * dims.n_cavities
    factors[site_index] = op.data
    return Operator(dims, reduce(np.kron, factors))


def sum_over_sites(op: Operator, dims: HilbertDims) -> Operator:
    """Sum of a site-level operator embedded on every site of ``dims``."""
    out = embed_site(op, 0, dims)
    for j in range(1, dims.n_cavities):
        out = out + embed_site(op, j, dims)
    return out


@cache
def annihilation_at(dims: HilbertDims, site_index: int = 0) -> Operator:
    return embed_site(fock_annihilation(dims), site_index, dims)


@cache
def lowering_at(dims: HilbertDims, site_index: int = 0) -> Operator:
    return embed_site(atomic_lowering(dims), site_index, dims)


@cache
def excitation_number_at(dims: HilbertDims, site_index: int = 0) -> Operator:
    """Local excitation counter a^dag a + sigma^+ sigma^- at one site."""
    a = fock_annihilation(dims)
    sm = atomic_lowering(dims)
    local = a.dag() @ a + sm.dag() @ sm
    return embed_site(local, site_index, dims)


def total_excitation(dims: HilbertDims) -> Operator:
    return sum_over_sites(excitation_number_at(dims.site()), dims)


def partial_trace(rho: DensityMatrix, keep_site: int) -> DensityMatrix:
    """Reduced state of one site of a two-cavity system."""
    if rho.dims.n_cavities != 2:
        raise DimensionMismatchError("partial_trace requires a two-cavity state")
    if keep_site not in (0, 1):
        raise ValueError("keep_site must be 0 or 1")
    ds = rho.dims.site_dim
    blocks = rho.data.reshape(ds, ds, ds, ds)
    if keep_site == 0:
        reduced = np.einsum("ikjk->ij", blocks)
    else:
        reduced = np.einsum("kikj->ij", blocks)
    return DensityMatrix(rho.dims.site(), reduced)


def bare_ket(dims: HilbertDims, site_states) -> Ket:
    """Product of bare site states given as (photon, atom) pairs."""
    site_states = list(site_states)
    if len(site_states) != dims.n_cavities:
        raise DimensionMismatchError(
            f"expected {dims.n_cavities} site states, got {len(site_states)}"
        )
    vec = np.ones(1, dtype=complex)
    for photon, atom in site_states:
        site_vec = np.zeros(dims.site_dim, dtype=complex)
        site_vec[dims.site_index(photon, atom)] = 1.0
        vec = np.kron(vec, site_vec)
    return Ket(dims, vec)


def product_ket(dims: HilbertDims, site_kets) -> Ket:
    """Tensor product of per-site kets (site 0 first)."""
    site_kets = list(site_kets)
    if len(site_kets) != dims.n_cavities:
        raise DimensionMismatchError(
            f"expected {dims.n_cavities} site kets, got {len(site_kets)}"
        )
    vec = np.ones(1, dtype=complex)
    for ket in site_kets:
        if ket.dims.site_dim != dims.site_dim:
            raise DimensionMismatchError("site ket does not match dims")
        vec = np.kron(vec, ket.amplitudes)
    return Ket(dims, vec)

"""Dressed-state machinery for a single Jaynes-Cummings site.

Each excitation manifold n >= 1 is spanned by |n,g> and |n-1,e> and splits
into a lower (-) and upper (+) branch rotated by the mixing angle theta_n.
:func:`dressed_bases` is the one writer of dressed states: it stacks the
site bases at K detunings, whose columns are the kets of
:func:`site_polariton_ket`.  Observables are read in that basis, and
:func:`dressed_ladders` writes the photon and atom raising operators in it.
Their elements between neighbouring manifolds are the four ladder weights of
each step: two that stay within a branch and two that interchange branches.

The truncated space has one leftover state |n_fock, e> (its would-be partner
|n_fock + 1, g> is cut off); it is carried as the explicit ``OVERFLOW`` label
so that basis transforms stay unitary on the whole space.
"""
from __future__ import annotations

import math

import numpy as np

from .hilbert import ATOM_E, ATOM_G, HilbertDims, atomic_lowering, fock_annihilation, product_ket

GROUND = "G"
OVERFLOW = "overflow"


def label(n: int, branch: str) -> str:
    """Canonical text label for a polariton state, e.g. ``'2-'``."""
    if n == 0:
        return GROUND
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    return f"{n}{branch}"


def parse_label(text: str):
    """Inverse of :func:`label`; ``'0'`` and ``'G'`` both mean the ground state."""
    text = text.strip()
    if text in (GROUND, "0", "0g"):
        return (0, "g")
    branch = text[-1:]
    if branch not in ("+", "-") or not text[:-1].isdigit():
        raise ValueError(f"cannot parse polariton label {text!r}")
    return (int(text[:-1]), branch)


def parse_state_spec(spec: str):
    """Parse a product-state name like ``'1-,0'`` into per-site labels."""
    return [parse_label(tok) for tok in spec.split(",")]


def mixing_angle(n: int, g: float, delta: float) -> float:
    """Branch mixing angle of manifold n.

    Computed with a two-argument arctangent of (g sqrt(n), delta/2) so the
    angle passes continuously through pi/4 at resonance and covers
    delta <= 0 with values in (pi/4, pi/2).
    """
    if n < 1:
        raise ValueError("mixing angle is defined for manifolds n >= 1")
    if g <= 0:
        raise ValueError("coupling g must be positive")
    return 0.5 * math.atan2(g * math.sqrt(n), 0.5 * delta)


def branch_splitting(n: int, g: float, delta: float) -> float:
    """Energy distance between the branches of manifold n."""
    if n < 1:
        return 0.0
    return math.sqrt(delta**2 + 4.0 * g * g * n)


def polariton_energy(n: int, branch: str, g: float, delta: float, omega_c: float) -> float:
    """Eigenenergy of |n+-> with the cavity at ``omega_c``, 0 in the cavity frame
    (the ground state has energy 0)."""
    if n == 0:
        return 0.0
    sign = {"+": 1.0, "-": -1.0}[branch]
    return omega_c * n + 0.5 * delta + 0.5 * sign * branch_splitting(n, g, delta)


def site_polariton_ket(dims: HilbertDims, n: int, branch: str, g: float,
                       delta: float) -> np.ndarray:
    """Site-level dressed state |n branch> (site_dim,), the ground state for n = 0:
    a column of :func:`dressed_bases`."""
    lbl = label(n, branch)
    labels, (matrix,) = dressed_bases(dims, g, [delta])
    if lbl not in labels:
        raise ValueError(f"manifold {n} outside 0..{dims.n_fock}")
    return matrix[:, labels.index(lbl)].copy()


def product_polariton_ket(dims: HilbertDims, site_labels, g: float, delta: float) -> np.ndarray:
    """(D,) product of per-site polariton states, e.g. labels [(1,'-'), (0,'g')]."""
    kets = [site_polariton_ket(dims, n, b, g, delta) for n, b in site_labels]
    return product_ket(dims, kets)


def dressed_bases(dims: HilbertDims, g: float, deltas) -> tuple:
    """(labels, matrices): the site dressed bases at each detuning, (K, ds, ds),
    whose columns are the dressed kets in label order G, 1-, 1+, ...,
    n_fock-, n_fock+ and the overflow state |n_fock, e> last; column (n, -)
    holds cos(theta_n) at |n,g> and -sin(theta_n) at |n-1,e>, column (n, +)
    sin and cos."""
    site = dims.site()
    ns = np.arange(1, site.n_fock + 1)
    trig = np.array([(math.cos(t), math.sin(t)) for t in
                     (mixing_angle(n, g, delta) for delta in deltas for n in ns.tolist())])
    cos, sin = trig.reshape(len(deltas), site.n_fock, 2).transpose(2, 0, 1)
    # rows |n,g> and |n-1,e>; columns (n, -) and (n, +)
    row_g, row_e, minus, plus = 2 * ns + ATOM_G, 2 * (ns - 1) + ATOM_E, 2 * ns - 1, 2 * ns
    out = np.zeros((len(deltas), site.site_dim, site.site_dim), dtype=complex)
    out[:, site.site_index(0, ATOM_G), 0] = 1.0
    out[:, row_g, minus], out[:, row_e, minus] = cos, -sin
    out[:, row_g, plus], out[:, row_e, plus] = sin, cos
    out[:, site.site_index(site.n_fock, ATOM_E), -1] = 1.0
    labels = (GROUND, *(label(n, b) for n in range(1, site.n_fock + 1) for b in "-+"), OVERFLOW)
    return labels, out


def dressed_ladders(dims: HilbertDims, g: float, delta: float) -> tuple:
    """(labels, a_dag, s_plus): the site's photon and atom raising operators as
    real (ds, ds) matrices B^dag op B, B from :func:`dressed_bases` at ``delta``,
    in its label order.  The element from (n-1, b') to (n, b) is a ladder
    weight that keeps the branch for b = b' and interchanges it otherwise;
    every element within a manifold or between manifolds that are not
    neighbours is exactly 0."""
    labels, (basis,) = dressed_bases(dims, g, [delta])
    basis = basis.real
    a, sm = fock_annihilation(dims).data.real, atomic_lowering(dims).data.real
    return labels, basis.T @ a.T @ basis, basis.T @ sm.T @ basis

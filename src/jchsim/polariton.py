"""Dressed-state machinery for a single Jaynes-Cummings site.

Each excitation manifold n >= 1 is spanned by |n,g> and |n-1,e> and splits
into a lower (-) and upper (+) branch rotated by the mixing angle theta_n.
:func:`dressed_bases` is the one writer of dressed states: it stacks the
site bases at K detunings, whose columns are the kets of
:func:`site_polariton_ket`.  Observables and the matrix elements of the
photon and atom raising operators are read in that basis.  Those elements
between neighbouring manifolds are the four ladder weights of
:func:`ladder_coefficients`: two that stay within a branch and two that
interchange branches.

The truncated space has one leftover state |n_fock, e> (its would-be partner
|n_fock + 1, g> is cut off); it is carried as the explicit ``OVERFLOW`` label
so that basis transforms stay unitary on the whole space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ATOM_E, ATOM_G, HilbertDims, Ket, product_ket

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


def site_polariton_ket(dims: HilbertDims, n: int, branch: str, g: float, delta: float) -> Ket:
    """Site-level dressed state |n branch>, the ground state for n = 0: a
    column of :func:`dressed_bases`."""
    lbl = label(n, branch)
    labels, (matrix,) = dressed_bases(dims, g, [delta])
    if lbl not in labels:
        raise ValueError(f"manifold {n} outside 0..{dims.n_fock}")
    return Ket(dims.site(), matrix[:, labels.index(lbl)])


def product_polariton_ket(dims: HilbertDims, site_labels, g: float, delta: float) -> Ket:
    """Product of per-site polariton states, e.g. labels [(1,'-'), (0,'g')]."""
    kets = [site_polariton_ket(dims, n, b, g, delta) for n, b in site_labels]
    return product_ket(dims, kets)


def dressed_bases(dims: HilbertDims, g: float, deltas) -> tuple:
    """(labels, matrices): the site dressed bases at each detuning, (K, ds, ds),
    whose columns are the dressed kets in label order G, 1-, 1+, ...,
    n_fock-, n_fock+ and the overflow state |n_fock, e> last; column (n, -)
    holds cos(theta_n) at |n,g> and -sin(theta_n) at |n-1,e>, column (n, +)
    sin and cos."""
    site = dims.site()
    out = np.zeros((len(deltas), site.site_dim, site.site_dim), dtype=complex)
    out[:, site.site_index(0, ATOM_G), 0] = 1.0
    for n in range(1, site.n_fock + 1):
        rows = [site.site_index(n, ATOM_G), site.site_index(n - 1, ATOM_E)]
        theta = [mixing_angle(n, g, delta) for delta in deltas]
        cos, sin = np.array([(math.cos(t), math.sin(t)) for t in theta]).T
        out[:, rows, 2 * n - 1] = np.column_stack([cos, -sin])
        out[:, rows, 2 * n] = np.column_stack([sin, cos])
    out[:, site.site_index(site.n_fock, ATOM_E), -1] = 1.0
    labels = (GROUND, *(label(n, b) for n in range(1, site.n_fock + 1) for b in "-+"), OVERFLOW)
    return labels, out


@dataclass(frozen=True)
class LadderCoefficients:
    """Weights of the four polariton ladder families in one manifold step.

    ``c_plus``/``c_minus`` keep the branch; ``k_pm`` raises |n-1,-> to |n,+>
    and ``k_mp`` raises |n-1,+> to |n,->.  The ``a_*`` set plays the same
    role for the atomic raising operator.
    """

    n: int
    c_plus: float
    c_minus: float
    k_pm: float
    k_mp: float
    a_c_plus: float
    a_c_minus: float
    a_k_pm: float
    a_k_mp: float


def ladder_coefficients(n: int, theta_n: float, theta_prev: float) -> LadderCoefficients:
    """Ladder weights for the step from manifold n-1 to n.

    For n = 1 pass any ``theta_prev``; the cross-family weights vanish there
    because the ground state has no branch structure.
    """
    if n < 1:
        raise ValueError("ladder coefficients are defined for n >= 1")
    sin_n, cos_n = math.sin(theta_n), math.cos(theta_n)
    if n == 1:
        return LadderCoefficients(
            n=1,
            c_plus=sin_n,
            c_minus=cos_n,
            k_pm=0.0,
            k_mp=0.0,
            a_c_plus=cos_n,
            a_c_minus=-sin_n,
            a_k_pm=0.0,
            a_k_mp=0.0,
        )
    sin_p, cos_p = math.sin(theta_prev), math.cos(theta_prev)
    rt_n, rt_m = math.sqrt(n), math.sqrt(n - 1)
    return LadderCoefficients(
        n=n,
        c_plus=rt_n * sin_n * sin_p + rt_m * cos_n * cos_p,
        c_minus=rt_n * cos_n * cos_p + rt_m * sin_n * sin_p,
        k_pm=rt_n * sin_n * cos_p - rt_m * cos_n * sin_p,
        k_mp=rt_n * cos_n * sin_p - rt_m * sin_n * cos_p,
        a_c_plus=cos_n * sin_p,
        a_c_minus=-sin_n * cos_p,
        a_k_pm=cos_n * cos_p,
        a_k_mp=-sin_n * sin_p,
    )


def ladder_coefficients_for(n: int, g: float, delta: float) -> LadderCoefficients:
    theta_n = mixing_angle(n, g, delta)
    theta_prev = mixing_angle(n - 1, g, delta) if n >= 2 else 0.0
    return ladder_coefficients(n, theta_n, theta_prev)

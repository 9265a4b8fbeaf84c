"""Weak-drive perturbation series of the driven cavity in the dressed basis.

The drive only connects neighbouring excitation manifolds, so its matrix in
the polariton basis is strictly off-diagonal: first-order energy shifts
vanish for every label.  Labels whose drive coupling is not small against
their level gap (|V|/gap above :data:`CLUSTER_RATIO`) are grouped into
quasi-degenerate clusters.  Outside a cluster the energy is assembled
through second order from the generic Rayleigh-Schroedinger sums; inside a
cluster the second-order Loewdin effective Hamiltonian (Loewdin, J. Chem.
Phys. 19, 1396 (1951)) is diagonalised, so every coupling it treats as a
perturbation is small by construction.  Every contributing term, and one
line per cluster, is also recorded in a human-readable table so the sign
and denominator of each contribution can be audited one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .hamiltonians import SystemParams, build_driven, drive_amplitudes, rotating_frame_energy
from .polariton import GROUND, basis_transform, label

REPORT_LABELS = (GROUND, "1-", "1+", "2-", "2+")
DEGENERACY_TOL = 1e-6
# |V|/gap above which two coupled labels join one quasi-degenerate cluster
CLUSTER_RATIO = 0.05


def unperturbed_energies(params: SystemParams):
    """Dressed-frame energies of the undriven labels (ground at zero)."""
    energies = {GROUND: 0.0}
    for n in range(1, params.n_fock + 1):
        for branch in ("-", "+"):
            energies[label(n, branch)] = rotating_frame_energy(params, n, branch)
    return energies


@dataclass(frozen=True)
class DriveCoefficients:
    """Ladder-family drive weights per manifold (all purely imaginary)."""

    beta_plus: dict
    beta_minus: dict
    xi_to_plus: dict
    xi_to_minus: dict


def drive_coefficients(params: SystemParams) -> DriveCoefficients:
    beta_p, beta_m, xi_p, xi_m = {}, {}, {}, {}
    for n in range(1, params.n_fock + 1):
        bp, bm, xp, xm = drive_amplitudes(params, n)
        beta_p[n], beta_m[n] = bp, bm
        if n >= 2:
            xi_p[n], xi_m[n] = xp, xm
    return DriveCoefficients(beta_p, beta_m, xi_p, xi_m)


def interaction_elements(params: SystemParams):
    """Matrix elements <m|V|k> of the drive between dressed labels."""
    co = drive_coefficients(params)
    elements = {}

    def put(upper, lower, amp):
        elements[(upper, lower)] = amp
        elements[(lower, upper)] = -amp  # amp is imaginary; V is Hermitian

    for n in range(1, params.n_fock + 1):
        below_minus = label(n - 1, "-") if n >= 2 else GROUND
        below_plus = label(n - 1, "+") if n >= 2 else GROUND
        put(label(n, "+"), below_plus, co.beta_plus[n])
        put(label(n, "-"), below_minus, co.beta_minus[n])
        if n >= 2:
            put(label(n, "+"), below_minus, co.xi_to_plus[n])
            put(label(n, "-"), below_plus, co.xi_to_minus[n])
    return elements


def _check_nondegenerate(energies: dict, pairs):
    """Raise if the levels of any (a, b) in ``pairs`` are degenerate."""
    for a, b in pairs:
        if abs(energies[a] - energies[b]) < DEGENERACY_TOL:
            raise NumericalError(
                f"unperturbed levels {a} and {b} are degenerate within "
                f"{DEGENERACY_TOL:.0e} (gap {abs(energies[a] - energies[b]):.3e})"
            )


def second_order_energies(params: SystemParams, labels=REPORT_LABELS, terms=None):
    """Second-order energy shifts sum_l |V_lk|^2 / (E_k - E_l).

    Raises if a coupled pair (l, k) with k in ``labels`` is degenerate.
    """
    energies = unperturbed_energies(params)
    elements = interaction_elements(params)
    coupled = [(m, k) for k in labels for m in energies if (m, k) in elements]
    _check_nondegenerate(energies, coupled)
    out = {}
    for k in labels:
        shift = 0.0
        for other in energies:
            if other == k or (other, k) not in elements:
                continue
            v = elements[(other, k)]
            gap = energies[k] - energies[other]
            shift += abs(v) ** 2 / gap
            if terms is not None:
                terms.append(
                    f"E2[{k}] += |V[{other},{k}]|^2 / (E0[{k}] - E0[{other}])"
                    f" = {abs(v) ** 2 / gap:+.6e}"
                )
        out[k] = shift
    return out


def _clusters(energies: dict, elements: dict):
    """Labels linked by a drive coupling with |V|/gap > CLUSTER_RATIO.

    Returns the clusters of two or more labels, each in label order, and the
    largest |V|/gap over all coupled pairs.
    """
    cluster_of = {k: {k} for k in energies}
    worst = 0.0
    for (a, b), v in elements.items():
        gap = abs(energies[a] - energies[b])
        ratio = 0.0 if v == 0 else (abs(v) / gap if gap else math.inf)
        worst = max(worst, ratio)
        if ratio > CLUSTER_RATIO and cluster_of[a] is not cluster_of[b]:
            merged = cluster_of[a] | cluster_of[b]
            for k in merged:
                cluster_of[k] = merged
    clusters = []
    for k in energies:
        members = tuple(m for m in energies if m in cluster_of[k])
        if len(members) > 1 and members not in clusters:
            clusters.append(members)
    return tuple(clusters), worst


def _lowdin_energies(cluster, energies: dict, elements: dict, terms=None):
    """Eigenvalues of the second-order Loewdin effective Hamiltonian on ``cluster``.

    H_eff[m, m'] = E0[m] d_mm' + V[m, m'] + 1/2 sum_l V[m, l] V[l, m']
    (1 / (E0[m] - E0[l]) + 1 / (E0[m'] - E0[l])), with l outside the cluster.
    Each eigenvalue goes to the label with the largest weight in its
    eigenvector, assigned greedily so that labels and eigenvalues pair one
    to one.
    """
    h = np.diag([complex(energies[m]) for m in cluster])
    for i, m in enumerate(cluster):
        for j, mp in enumerate(cluster):
            h[i, j] += elements.get((m, mp), 0.0)
            for other in energies:
                amp = elements.get((m, other), 0.0) * elements.get((other, mp), 0.0)
                if other in cluster or amp == 0.0:
                    continue
                h[i, j] += 0.5 * amp * (
                    1.0 / (energies[m] - energies[other]) + 1.0 / (energies[mp] - energies[other])
                )
    values, vectors = np.linalg.eigh(h)
    weights = np.abs(vectors) ** 2
    out, used = {}, set()
    for flat in np.argsort(-weights, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(cluster))
        if cluster[i] not in out and j not in used:
            out[cluster[i]] = float(values[j])
            used.add(j)
    if terms is not None:
        shifts = ", ".join(f"E2[{m}] = {out[m] - energies[m]:+.6e}" for m in cluster)
        terms.append(
            f"cluster {{{', '.join(cluster)}}}: eigenvalues of the second-order "
            f"Loewdin H_eff -> {shifts}"
        )
    return out


def match_exact_energies(params: SystemParams, labels=REPORT_LABELS):
    """Dense-solve eigenvalues of the driven Hamiltonian matched to labels by overlap."""
    energies, vectors = np.linalg.eigh(build_driven(params).data)
    basis = basis_transform(params.dims, params.g, params.delta)
    out = {}
    for lbl in labels:
        overlaps = np.abs(vectors.conj().T @ basis.column(lbl))
        idx = int(np.argmax(overlaps))
        out[lbl] = (float(energies[idx]), float(overlaps[idx]))
    return out


@dataclass(frozen=True)
class PerturbationReport:
    """Bundle of the perturbation series for the five low-lying labels.

    ``e1`` holds the diagonal first-order shifts, which vanish.  For a label
    in one of ``clusters``, ``e2`` holds its whole shift from diagonalising
    the cluster's Loewdin effective Hamiltonian; ``max_coupling_ratio`` is
    the largest |V|/gap over all coupled label pairs.
    """

    params: SystemParams
    labels: tuple
    e0: dict
    e1: dict
    e2: dict
    terms: tuple = field(default=())
    clusters: tuple = field(default=())
    max_coupling_ratio: float = 0.0

    def perturbative_energy(self, lbl: str) -> float:
        return self.e0[lbl] + self.e1[lbl] + self.e2[lbl]


def perturbation_report(params: SystemParams, labels=REPORT_LABELS) -> PerturbationReport:
    if params.n_fock < 3:
        raise ValueError("the report needs n_fock >= 3: 2-/2+ couple to the third manifold")
    terms: list = []
    e0 = unperturbed_energies(params)
    elements = interaction_elements(params)
    clusters, max_ratio = _clusters(e0, elements)
    clustered = {}
    for cluster in clusters:
        clustered.update(_lowdin_energies(cluster, e0, elements, terms=terms))
    e2 = second_order_energies(params, [k for k in labels if k not in clustered], terms=terms)
    return PerturbationReport(
        params=params,
        labels=tuple(labels),
        e0={k: e0[k] for k in labels},
        e1={k: 0.0 for k in labels},
        e2={k: clustered[k] - e0[k] if k in clustered else e2[k] for k in labels},
        terms=tuple(terms),
        clusters=clusters,
        max_coupling_ratio=max_ratio,
    )
